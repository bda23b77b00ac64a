import pytest

from liqinfer.logic import EmbeddingError, conj, embed_env
from liqinfer.syntax import (
    BOOL,
    INT,
    BaseArm,
    Const,
    Env,
    FAnd,
    FAtom,
    FBoolVar,
    FFalse,
    FIff,
    FTrue,
    FunArm,
    IntConst,
    LAdd,
    LInt,
    LiquidType,
    LMul,
    LNeg,
    LVar,
    TRUE,
    VALUE_VAR,
    Var,
    is_scaling,
    mono,
    subst_refinement,
    symbols,
)
from liqinfer.validity import ValidityQuery, emit_smtlib

GE = FAtom(">=", LVar(VALUE_VAR), LInt(0))
LE = FAtom("<=", LVar(VALUE_VAR), LInt(0))


def base(ref):
    return LiquidType((BaseArm(INT, ref),))


def embedded(ref, name="x", sort=INT):
    """The formula a binding of `name` refined by `ref` contributes."""
    return embed_env(Env().extend(name, mono(LiquidType((BaseArm(sort, ref),)))))


class TestEmbedRefinement:
    """A refinement is a formula: a binding contributes it as it is, with
    the value variable renamed to the bound name."""

    def test_sign_atom(self):
        assert embedded(GE) == FAtom(">=", LVar("x"), LInt(0))

    def test_top(self):
        assert embedded(TRUE) == FTrue()

    def test_negated_variable_equation(self):
        ref = FAtom("=", LVar(VALUE_VAR), LNeg(LVar("y")))
        assert embedded(ref) == FAtom("=", LVar("x"), LNeg(LVar("y")))

    def test_boolean_value_variable_iff(self):
        ref = FIff(FBoolVar(VALUE_VAR), FAtom("<=", LVar("a"), LVar("b")))
        got = embedded(ref, "p", BOOL)
        assert got == FIff(FBoolVar("p"), FAtom("<=", LVar("a"), LVar("b")))

    def test_conjunction_flattens(self):
        assert conj([FAnd((GE, LE)), TRUE, GE]) == FAnd((GE, LE, GE))
        env = Env().extend("x", mono(base(FAnd((GE, LE))))).extend("y", mono(base(GE)))
        x, y = LVar("x"), LVar("y")
        assert embed_env(env) == FAnd((FAtom(">=", x, LInt(0)), FAtom("<=", x, LInt(0)), FAtom(">=", y, LInt(0))))

    def test_mul_uninterpreted_by_default(self):
        ref = FAtom("=", LVar(VALUE_VAR), LMul(LVar("x"), LVar("y")))
        assert symbols(ref) == ({VALUE_VAR: "int", "x": "int", "y": "int"}, {"times": 2})
        assert "(= v (times x y))" in emit_smtlib(ValidityQuery(ref, TRUE))

    def test_mul_by_literal_stays_linear(self):
        # a side without variables makes a scaling, however it is written
        for p in (LMul(LInt(2), LVar("x")), LMul(LVar("x"), LNeg(LAdd(LInt(1), LInt(2)))), LMul(LInt(3), LInt(4))):
            assert is_scaling(p)
            assert symbols(FAtom("=", LVar(VALUE_VAR), p))[1] == {}
        assert not is_scaling(LMul(LVar("x"), LAdd(LVar("y"), LInt(1))))


class TestEmbedEnv:
    def test_base_binding(self):
        env = Env().extend("x", mono(base(GE)))
        assert embed_env(env) == FAtom(">=", LVar("x"), LInt(0))

    def test_empty(self):
        assert embed_env(Env()) == FTrue()

    def test_function_bindings_skipped(self):
        fn = LiquidType((FunArm("x", base(GE), base(LE)),))
        env = Env().extend("f", mono(fn))
        assert embed_env(env) == FTrue()

    def test_concatenation_is_conjunction(self):
        e1 = Env().extend("x", mono(base(GE)))
        e12 = e1.extend("y", mono(base(LE)))
        got = embed_env(e12)
        assert got == conj([embed_env(e1), FAtom("<=", LVar("y"), LInt(0))])

    def test_shadowed_binding_ignored(self):
        env = Env().extend("x", mono(base(GE))).extend("x", mono(base(LE)))
        assert embed_env(env) == FAtom("<=", LVar("x"), LInt(0))


class TestSubstitutionCommutes:
    def test_with_variable(self):
        ref = FAtom("=", LVar(VALUE_VAR), LVar("x"))
        subbed = subst_refinement(ref, {"x": Var("z")})
        assert subbed == FAtom("=", LVar(VALUE_VAR), LVar("z"))
        assert embedded(subbed, "y") == subst_refinement(embedded(ref, "y"), {"x": Var("z")})

    def test_with_literal(self):
        ref = FAtom("<=", LVar("x"), LInt(3))
        subbed = subst_refinement(ref, {"x": Const(IntConst(7))})
        assert subbed == FAtom("<=", LInt(7), LInt(3))

    def test_negated_negative_literal(self):
        ref = FAtom("=", LVar(VALUE_VAR), LNeg(LVar("a")))
        assert subst_refinement(ref, {"a": Const(IntConst(-3))}) == FAtom("=", LVar(VALUE_VAR), LInt(3))
        assert subst_refinement(ref, {"a": Const(IntConst(3))}) == FAtom("=", LVar(VALUE_VAR), LNeg(LInt(3)))


QF_NODES = (FTrue, FFalse, FAtom, FBoolVar, FAnd, FIff)


def _scan_quantifier_free(f):
    assert isinstance(f, QF_NODES)
    if isinstance(f, FAnd):
        for p in f.parts:
            _scan_quantifier_free(p)
    elif isinstance(f, FIff):
        _scan_quantifier_free(f.lhs)
        _scan_quantifier_free(f.rhs)


class TestQuantifierFree:
    def test_embeddings_are_quantifier_free(self):
        refs = [GE, TRUE, FIff(FBoolVar(VALUE_VAR), GE), FAnd((GE, LE))]
        env = Env()
        for i, r in enumerate(refs):
            _scan_quantifier_free(r)
            env = env.extend(f"x{i}", mono(base(r)))
        _scan_quantifier_free(embed_env(env))

    def test_formula_vars_sorts(self):
        f = FAnd((FAtom("<=", LVar("x"), LInt(1)), FBoolVar("b")))
        assert symbols(f) == ({"x": "int", "b": "bool"}, {})

    def test_uf_collection(self):
        f = FAtom("=", LVar("v"), LMul(LVar("x"), LVar("x")))
        assert symbols(f) == ({"v": "int", "x": "int"}, {"times": 2})


class TestEmbeddingErrors:
    def test_non_boolean_expression_rejected(self):
        # an integer variable used as a boolean atom: the walk marks it, and
        # the engine refuses the query
        f = FAnd((FAtom(">=", LVar("x"), LInt(0)), FBoolVar("x")))
        assert symbols(f)[0] == {"x": "both"}
        with pytest.raises(EmbeddingError, match="both sorts"):
            emit_smtlib(ValidityQuery(f, TRUE))
