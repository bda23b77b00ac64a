from pathlib import Path

import pytest
from test_golden_elaboration import POLYMORPHIC, SIGN_QUALIFIERS, STEPS, erase

from liqinfer import shapes
from liqinfer.anf import _all_names, normalize
from liqinfer.metatheory import generate_corpus
from liqinfer.parser import parse_program, parse_term
from liqinfer.semantics import Next, step
from liqinfer.shapes import (
    ShapeError,
    ShapeScheme,
    elaborate,
    shape_env,
    w_infer,
)
from liqinfer.syntax import (
    Arrow,
    BOOL,
    Base,
    FAtom,
    Env,
    INT,
    LInt,
    LiquidType,
    BaseArm,
    FunArm,
    TyAbs,
    TyInst,
    TyVar,
    LVar,
    NameSource,
    VALUE_VAR,
    mono,
    make_type,
    render_simple_type,
    render_term,
)

ROOT = Path(__file__).resolve().parents[1]
GE = FAtom(">=", LVar(VALUE_VAR), LInt(0))
LE = FAtom("<=", LVar(VALUE_VAR), LInt(0))


def _contains_node(term, kind):
    stack = [term]
    while stack:
        t = stack.pop()
        if isinstance(t, kind):
            return True
        for attr in ("body", "fun", "arg", "bound"):
            child = getattr(t, attr, None)
            if child is not None and not isinstance(child, str):
                stack.append(child)
    return False


class TestWInfer:
    def test_neg_shape(self):
        sch = w_infer({}, parse_term("\\x. - x"))
        assert sch == ShapeScheme((), Arrow("x", INT, INT))

    def test_mul_shape(self):
        sch = w_infer({}, normalize(parse_term("\\x. * x x")))
        assert sch.qvars == ()
        assert sch.ty == Arrow("x", INT, INT)

    def test_identity_generalizes(self):
        sch = w_infer({}, parse_term("\\x. x"))
        assert len(sch.qvars) == 1
        a = sch.qvars[0]
        assert sch.ty == Arrow("x", TyVar(a), TyVar(a))

    def test_occurs_check(self):
        with pytest.raises(ShapeError, match="occurs"):
            w_infer({}, parse_term("\\x. x x"))

    def test_unification_mismatch(self):
        with pytest.raises(ShapeError):
            w_infer({}, parse_term("+ 1 true"))

    def test_unbound_variable(self):
        with pytest.raises(ShapeError, match="unbound"):
            w_infer({}, parse_term("nosuch"))

    def test_comparison_gives_bool(self):
        sch = w_infer({}, parse_term("<= 1 2"))
        assert sch.ty == Base("bool")


class TestShapeEnv:
    def test_base_binding(self):
        env = Env().extend("x", mono(LiquidType((BaseArm(INT, GE),))))
        assert shape_env(env) == {"x": ShapeScheme((), INT)}

    def test_empty(self):
        assert shape_env(Env()) == {}

    def test_function_binding_erases_refinements(self):
        neg_type = make_type(
            [
                FunArm("x", LiquidType((BaseArm(INT, GE),)), LiquidType((BaseArm(INT, LE),))),
                FunArm("x", LiquidType((BaseArm(INT, LE),)), LiquidType((BaseArm(INT, GE),))),
            ]
        )
        env = Env().extend("f", mono(neg_type))
        assert shape_env(env)["f"].ty == Arrow("x", INT, INT)


class TestElaborate:
    def test_monomorphic_term_unchanged(self):
        term = parse_term("\\x. - x")
        elab = elaborate({}, term)
        assert not _contains_node(elab.term, TyAbs) and not _contains_node(elab.term, TyInst)
        assert elab.term.shape == Arrow("x", INT, INT)
        assert erase(elab.term) is term

    def test_polymorphic_let_gets_explicit_types(self):
        term = normalize(parse_term("let id = \\x. x in id 3"))
        elab = elaborate({}, term)
        assert _contains_node(elab.term, TyAbs)
        assert _contains_node(elab.term, TyInst)
        assert erase(elab.term) == term
        # the instantiation happens at int
        insts = []

        def walk(t):
            if isinstance(t, TyInst):
                insts.append(t.ty)
            for attr in ("body", "fun", "arg", "bound"):
                child = getattr(t, attr, None)
                if child is not None and not isinstance(child, str):
                    walk(child)

        walk(elab.term)
        assert insts == [INT]

    def test_erased_form_recheck_shape(self):
        # the elaborated term's erasure has the same principal shape
        for src in ["let id = \\x. x in id 3", "\\x. let y = - x in + y 1"]:
            term = normalize(parse_term(src))
            elab = elaborate({}, term)
            assert w_infer({}, erase(elab.term)) == elab.scheme

    def test_deterministic(self):
        term = normalize(parse_term("let id = \\x. x in id (id 3)"))
        assert elaborate({}, term).term == elaborate({}, term).term

    def test_nodes_carry_their_shapes(self):
        term = normalize(parse_term("\\x. let y = - x in + y x"))
        elab = elaborate({}, term)
        lam = elab.term
        assert isinstance(lam.shape, Arrow)
        let_node = lam.body
        assert let_node.shape == INT
        assert let_node.bound.shape == INT  # the application
        assert let_node.bound.arg.shape == INT  # the variable

    def test_fix_instantiates_at_use(self):
        term = normalize(parse_term("fix (\\f. \\n. + n 0)"))
        elab = elaborate({}, term)
        assert _contains_node(elab.term, TyInst)
        assert elab.scheme.qvars == ()
        assert render_simple_type(elab.scheme.ty) == "int -> int"


def _with_reducts(term):
    """`term` and the reducts of its first `STEPS` evaluation steps."""
    yield term
    names = NameSource("fx", used=_all_names(term))
    for _ in range(STEPS):
        out = step(term, names)
        if not isinstance(out, Next):
            return
        term = out.term
        yield term


def _cell_arrows() -> list:
    """The live interned arrows with a part that is not an interned shape."""
    live = (ref() for ref in list(Arrow._table.values()))
    shape = (Base, TyVar, Arrow)
    return [a for a in live if a is not None and not (isinstance(a.dom, shape) and isinstance(a.cod, shape))]


class TestElaboratedInput:
    @pytest.fixture(scope="class")
    def terms(self):
        """Criterion-5 terms and the golden's polymorphic terms, each with
        the reducts of its first steps."""
        roots = generate_corpus(30, SIGN_QUALIFIERS, seed=2026)
        roots += [normalize(parse_term(src)) for src in POLYMORPHIC]
        return [t for root in roots for t in _with_reducts(root)]

    def test_an_elaborated_term_elaborates_as_its_erasure(self, terms):
        polymorphic = 0
        for term in terms:
            elab = elaborate({}, term)
            assert erase(elab.term) is term
            again = elaborate({}, elab.term)
            assert again.term is elab.term
            assert again.scheme == elab.scheme
            polymorphic += _contains_node(elab.term, TyAbs)
        assert polymorphic > 0  # the walk met type abstractions

    def test_an_elaborated_term_under_an_environment(self):
        senv = {"f": ShapeScheme(("a",), Arrow("y", TyVar("a"), TyVar("a"))), "n": ShapeScheme((), INT)}
        term = normalize(parse_term("let g = \\x. f x in g (f n)"))
        elab = elaborate(senv, term)
        assert _contains_node(elab.term, TyInst)
        assert elaborate(senv, elab.term) == elab


class TestScopes:
    SENV = {"x": ShapeScheme((), BOOL), "y": ShapeScheme(("a",), Arrow("z", TyVar("a"), TyVar("a")))}

    @pytest.mark.parametrize(
        "src",
        [
            "\\x. let y = - x in + y x",
            "let y = 1 in \\x. + x y",
            "(\\x. x) (\\x. + x 1)",
        ],
    )
    def test_the_callers_environment_is_left_as_it_was(self, src):
        senv = dict(self.SENV)
        elaborate(senv, normalize(parse_term(src)))
        assert senv == self.SENV

    @pytest.mark.parametrize(
        "src",
        [
            "\\x. let y = - x in + y true",  # under a lambda and a let, which bind x and y
            "let y = 1 in \\x. x x",
            "\\x. let y = x in + (y 1) (y true)",  # y is monomorphic: x is not generalized
        ],
    )
    def test_an_error_under_a_binder_leaves_it_as_it_was(self, src):
        senv = dict(self.SENV)
        with pytest.raises(ShapeError):
            elaborate(senv, parse_term(src))
        assert senv == self.SENV

    def test_a_shadowed_binding_is_restored(self):
        # the inner x shadows the outer; the last use reads the outer again
        elab = elaborate({}, normalize(parse_term("\\x. let f = \\x. + x 1 in f (if x 1 2)")))
        assert render_simple_type(elab.scheme.ty) == "bool -> int"


class TestNoCellIsInterned:
    def test_no_live_arrow_holds_a_cell(self, monkeypatch):
        """Checked once W is done and every cell is bound, before the
        pre-term is finalized, and after elaboration."""
        at_finalize = []
        finalize = shapes._finalize

        def checked(p):
            at_finalize.extend(_cell_arrows())
            return finalize(p)

        monkeypatch.setattr(shapes, "_finalize", checked)
        kept = []
        for src in POLYMORPHIC + ("\\f. \\g. \\x. f (g x) x",):
            kept.append(elaborate({}, normalize(parse_term(src))))
        for src in ("\\x. x x", "\\f. + (f 1) (f true)"):
            with pytest.raises(ShapeError):
                elaborate({}, parse_term(src))
        assert at_finalize == []
        assert _cell_arrows() == []
        assert any(isinstance(e.scheme.ty, Arrow) for e in kept)


# `add 1 2` applies two known functions and `g s` an unknown one, whose
# expected arrow is the only binder that shows; `x0` is bound after it.
UNKNOWN_AFTER_KNOWN = "\\g. let s = add 1 2 in let r = g s in let x0 = 2 in r"


def _chain(n: int):
    """`let x1 = sub 1 x0 in ... in xn`, with `x0` an int of the environment."""
    src = "".join(f"let x{i} = sub 1 x{i - 1} in " for i in range(1, n + 1)) + f"x{n}"
    return {"x0": ShapeScheme((), INT)}, parse_term(src)


class TestNames:
    """Each application takes one cell number and one binder name, in the
    order W meets it, whether or not its binder is ever printed; names
    avoid every name of the term."""

    def test_a_printed_binder_counts_the_applications_before_it(self):
        elab = elaborate({}, parse_term(UNKNOWN_AFTER_KNOWN))
        # the two `add` applications take x1 and x2; x0 is a name of the term
        assert elab.term.body.shape.dom.binder == "x3"  # under the type abstraction of a0
        assert elab.scheme == ShapeScheme(("a0",), Arrow("g", Arrow("x3", INT, TyVar("a0")), TyVar("a0")))

    def test_known_applications_keep_their_cell_numbers(self):
        with pytest.raises(ShapeError) as err:
            elaborate({}, parse_term("\\g. let s = add 1 2 in g g"))
        assert str(err.value) == "occurs check failed: ?1 in ?1 -> ?4"

    def test_a_type_variable_avoids_the_names_of_the_term(self):
        elab = elaborate({}, normalize(parse_term("let id = \\y. y in let a0 = id 1 in a0")))
        assert render_term(elab.term) == "let id = [/\\a1](\\y. y) in let a0 = ([int]id) 1 in a0"


class TestNamesWalk:
    """The term's names are collected only when a name is printed: a binder
    of an expected arrow, or a generalized cell."""

    @pytest.fixture
    def walks(self, monkeypatch):
        calls = []
        walk = shapes._all_names

        def counted(term):
            calls.append(term)
            return walk(term)

        monkeypatch.setattr(shapes, "_all_names", counted)
        return calls

    def test_known_functions_and_no_generalization_walk_nothing(self, walks):
        senv = {}
        program = parse_program((ROOT / "demos" / "sign.ml").read_text())
        for name, term in program.bindings:
            senv[name] = elaborate(senv, normalize(term)).scheme
        for n in (1, 50):
            elaborate(*_chain(n))
        assert walks == []

    def test_a_printed_binder_walks_once(self, walks):
        term = parse_term(UNKNOWN_AFTER_KNOWN)
        elab = elaborate({}, term)
        assert elab.scheme.qvars == ("a0",)  # a binder and a type variable named
        assert walks == [term]
