from liqinfer.logic import (
    FAnd,
    FAtom,
    FBoolVar,
    FFalse,
    FIff,
    FTrue,
    LApp,
    LInt,
    LMul,
    LNeg,
    LVar,
    conj,
    embed_env,
    embed_int_expr,
    embed_refinement,
    rename_formula,
    symbols,
)
from liqinfer.syntax import (
    BaseArm,
    BoolVarRef,
    CmpRef,
    ConjRef,
    Env,
    FunArm,
    IffRef,
    INT,
    IntExp,
    LiquidType,
    MulExp,
    NegExp,
    subst_refinement,
    TOP,
    Var,
    VarExp,
    VALUE_VAR,
    mono,
    Const,
    IntConst,
)

GE = CmpRef(">=", VarExp(VALUE_VAR), IntExp(0))
LE = CmpRef("<=", VarExp(VALUE_VAR), IntExp(0))


def base(ref):
    return LiquidType((BaseArm(INT, ref),))


class TestEmbedRefinement:
    def test_sign_atom(self):
        assert embed_refinement(GE) == FAtom(">=", LVar(VALUE_VAR), LInt(0))

    def test_top(self):
        assert embed_refinement(TOP) == FTrue()

    def test_negated_variable_equation(self):
        ref = CmpRef("=", VarExp(VALUE_VAR), NegExp(VarExp("x")))
        assert embed_refinement(ref) == FAtom("=", LVar(VALUE_VAR), LNeg(LVar("x")))

    def test_boolean_value_variable_iff(self):
        ref = IffRef(BoolVarRef(VALUE_VAR), CmpRef("<=", VarExp("a"), VarExp("b")))
        got = embed_refinement(ref)
        assert got == FIff(FBoolVar(VALUE_VAR), FAtom("<=", LVar("a"), LVar("b")))

    def test_conjunction_flattens(self):
        got = embed_refinement(ConjRef((GE, TOP, LE)))
        assert got == FAnd((embed_refinement(GE), embed_refinement(LE)))

    def test_mul_uninterpreted_by_default(self):
        ref = CmpRef("=", VarExp(VALUE_VAR), MulExp(VarExp("x"), VarExp("y")))
        got = embed_refinement(ref)
        assert got == FAtom("=", LVar(VALUE_VAR), LApp("times", (LVar("x"), LVar("y"))))

    def test_mul_by_literal_stays_linear(self):
        got = embed_int_expr(MulExp(IntExp(2), VarExp("x")))
        assert got == LMul(LInt(2), LVar("x"))
        assert embed_int_expr(MulExp(IntExp(3), IntExp(4))) == LInt(12)


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
        ref = CmpRef("=", VarExp(VALUE_VAR), VarExp("x"))
        subbed = subst_refinement(ref, {"x": Var("z")})
        lhs = embed_refinement(subbed)
        rhs = rename_formula(embed_refinement(ref), {"x": "z"})
        assert lhs == rhs

    def test_with_literal(self):
        ref = CmpRef("<=", VarExp("x"), IntExp(3))
        subbed = subst_refinement(ref, {"x": Const(IntConst(7))})
        assert embed_refinement(subbed) == FAtom("<=", LInt(7), LInt(3))


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
        refs = [GE, TOP, IffRef(BoolVarRef(VALUE_VAR), GE), ConjRef((GE, LE))]
        for r in refs:
            _scan_quantifier_free(embed_refinement(r))

    def test_formula_vars_sorts(self):
        f = FAnd((FAtom("<=", LVar("x"), LInt(1)), FBoolVar("b")))
        assert symbols(f) == ({"x": "int", "b": "bool"}, {})

    def test_uf_collection(self):
        f = FAtom("=", LVar("v"), LApp("times", (LVar("x"), LVar("x"))))
        assert symbols(f) == ({"v": "int", "x": "int"}, {"times": 2})


class TestEmbeddingErrors:
    def test_non_boolean_expression_rejected(self):
        import pytest

        from liqinfer.logic import EmbeddingError

        with pytest.raises(EmbeddingError):
            embed_refinement(VarExp("x"))  # an integer expression is not a refinement
