import pytest

from liqinfer.anf import normalize
from liqinfer.parser import parse_term
from liqinfer.shapes import (
    ShapeError,
    ShapeScheme,
    elaborate,
    erase,
    shape_env,
    w_infer,
)
from liqinfer.syntax import (
    Arrow,
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
    VALUE_VAR,
    mono,
    make_type,
    render_simple_type,
)

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
