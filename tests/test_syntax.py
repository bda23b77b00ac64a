import random

import pytest

from liqinfer.subtyping import SubtypeChecker
from liqinfer.syntax import (
    App,
    Arrow,
    Base,
    BaseArm,
    BOOL,
    BoolConst,
    FBoolVar,
    FAtom,
    Const,
    CONSTANTS,
    Env,
    FunArm,
    FIff,
    IllFoundedType,
    INT,
    IntConst,
    LInt,
    Lam,
    LiquidType,
    NameSource,
    PRIM_SCHEMES,
    PrimConst,
    Scheme,
    TRUE,
    TyVar,
    Var,
    VarArm,
    LVar,
    VALUE_VAR,
    intersect,
    make_type,
    mono,
    render_scheme,
    shape_of,
    subst_term,
    subst_type,
    top_skeleton,
    well_founded,
)

GE = FAtom(">=", LVar(VALUE_VAR), LInt(0))
LE = FAtom("<=", LVar(VALUE_VAR), LInt(0))
EQ0 = FAtom("=", LVar(VALUE_VAR), LInt(0))


def base(ref):
    return LiquidType((BaseArm(INT, ref),))


def arrow(binder, dom, cod):
    return LiquidType((FunArm(binder, dom, cod),))


NEG_TYPE = intersect(arrow("x", base(GE), base(LE)), arrow("x", base(LE), base(GE)))


REFS = [GE, LE, EQ0, FAtom("<", LVar(VALUE_VAR), LInt(3))]


def random_shape(rng: random.Random, depth: int = 0):
    if depth >= 2 or rng.random() < 0.6:
        return INT
    return Arrow("x", INT, random_shape(rng, depth + 1))


def random_type(rng: random.Random, depth: int = 0) -> LiquidType:
    """Random canonical type: one shared shape, random refinements per arm."""
    shape = random_shape(rng, depth)

    def arm(s):
        if isinstance(s, Base):
            return BaseArm(s, rng.choice(REFS))
        return FunArm(s.binder, LiquidType((arm(s.dom),)), LiquidType((arm(s.cod),)))

    return make_type([arm(shape) for _ in range(rng.randint(1, 3))])


class TestShapeOf:
    def test_two_arm_function(self):
        t = intersect(arrow("x", base(EQ0), base(EQ0)), arrow("x", base(GE), base(GE)))
        assert shape_of(t) == Arrow("x", INT, INT)

    def test_single_base_arm(self):
        assert shape_of(base(GE)) == INT

    def test_type_variable(self):
        assert shape_of(LiquidType((VarArm("a"),))) == TyVar("a")

    def test_scheme_erases_quantifier(self):
        sch = Scheme(("a",), LiquidType((VarArm("a"),)))
        assert shape_of(sch) == TyVar("a")

    def test_shape_is_built_once_and_keeps_the_first_binder(self):
        t = make_type([FunArm("x", base(GE), base(GE)), FunArm("y", base(EQ0), base(EQ0))])
        shape = shape_of(t)
        assert shape is shape_of(t) is t.arms[0].shape
        assert shape.binder == t.arms[0].binder
        assert shape_of(mono(t)) is shape

    def test_a_failed_shape_is_not_kept(self):
        for _ in range(2):
            with pytest.raises(IllFoundedType):
                shape_of(LiquidType((BaseArm(INT, GE), VarArm("a"))))


class TestFreeVariables:
    def test_value_variable_and_codomain_binder_are_bound(self):
        x_le_y = FAtom("<=", LVar("x"), LVar("y"))
        t = arrow("x", base(FAtom("=", LVar(VALUE_VAR), LVar("z"))), base(x_le_y))
        assert t.free == ("y", "z")

    def test_a_domain_naming_its_binder_means_the_outer_variable(self):
        t = arrow("x", base(FAtom("=", LVar(VALUE_VAR), LVar("x"))), base(TRUE))
        assert t.free == ("x",)

    def test_bool_variables_count(self):
        t = LiquidType((BaseArm(BOOL, FIff(FBoolVar(VALUE_VAR), FBoolVar("p"))),))
        assert t.free == ("p",)


class TestIntersect:
    def test_idempotence(self):
        assert intersect(NEG_TYPE, NEG_TYPE) == NEG_TYPE

    def test_commutativity(self):
        a, b = base(GE), base(LE)
        assert intersect(a, b) == intersect(b, a)

    def test_two_arms(self):
        # by the canonicalization rules: distinct arms are kept side by side
        got = intersect(base(GE), base(LE))
        assert len(got.arms) == 2

    def test_shape_mismatch(self):
        with pytest.raises(IllFoundedType):
            intersect(base(GE), LiquidType((BaseArm(BOOL, TRUE),)))

    def test_top_absorbed_by_informative_base_arm(self):
        got = intersect(base(GE), base(TRUE))
        assert got == base(GE)

    def test_algebra_on_random_types(self):
        rng = random.Random(7)
        for _ in range(300):
            a = random_type(rng)
            b = random_type(rng)
            c = random_type(rng)
            shape = shape_of(a)
            if shape_of(b) != shape or shape_of(c) != shape:
                continue
            assert intersect(a, intersect(b, c)) == intersect(intersect(a, b), c)
            assert intersect(a, b) == intersect(b, a)
            assert intersect(a, a) == a


class TestWellFounded:
    def test_base_intersection(self):
        assert well_founded(intersect(base(GE), base(LE)), INT)

    def test_base_mismatch(self):
        assert not well_founded(LiquidType((BaseArm(INT, TRUE),)), BOOL)

    def test_neg_type(self):
        assert well_founded(NEG_TYPE, Arrow("x", INT, INT))

    def test_binders_are_not_part_of_the_shape(self):
        assert well_founded(NEG_TYPE, Arrow("y", INT, INT))

    def test_a_domain_whose_arms_differ_in_shape(self):
        # such a domain cannot be built, so no arrow has one
        with pytest.raises(IllFoundedType):
            LiquidType((BaseArm(INT, TRUE), BaseArm(BOOL, TRUE)))

    def test_every_produced_type(self):
        rng = random.Random(11)
        for _ in range(200):
            t = random_type(rng)
            assert well_founded(t, shape_of(t))


class TestSubstTerm:
    def test_into_application(self):
        body = App(Const(PrimConst("neg")), Var("x"))
        got = subst_term(Const(IntConst(3)), "x", body)
        assert got == App(Const(PrimConst("neg")), Const(IntConst(3)))

    def test_other_variable_untouched(self):
        assert subst_term(Const(IntConst(1)), "x", Var("y")) == Var("y")

    def test_under_lambda(self):
        got = subst_term(Const(IntConst(5)), "x", Lam("y", Var("x")))
        assert got == Lam("y", Const(IntConst(5)))

    def test_no_free_occurrence_after(self, free_vars):
        rng = random.Random(3)
        for _ in range(50):
            body = App(App(Const(PrimConst("add")), Var("x")), Var("z"))
            got = subst_term(Const(IntConst(rng.randint(-5, 5))), "x", body)
            assert "x" not in free_vars(got)


class TestSubstType:
    def test_base_clause(self):
        sch = mono(base(FAtom("=", LVar(VALUE_VAR), LVar("x"))))
        got = subst_type([("x", Const(IntConst(5)))], sch)
        assert got == mono(base(FAtom("=", LVar(VALUE_VAR), LInt(5))))

    def test_type_variable_clause(self):
        sch = mono(LiquidType((VarArm("a"),)))
        assert subst_type([("x", Const(IntConst(1)))], sch) == sch

    def test_composition_commutes_on_disjoint_domains(self):
        ref = FAtom("<=", LVar("x"), LVar("y"))
        sch = mono(base(ref))
        rho1 = [("x", Const(IntConst(1)))]
        rho2 = [("y", Const(IntConst(2)))]
        one = subst_type(rho2, subst_type(rho1, sch))
        other = subst_type(rho1, subst_type(rho2, sch))
        assert one == other

    def test_a_domain_naming_the_binder_is_substituted(self):
        # the binder x scopes over the codomain only
        x_eq = FAtom("=", LVar(VALUE_VAR), LVar("x"))
        sch = mono(arrow("x", base(x_eq), base(x_eq)))
        got = subst_type([("x", Var("w"))], sch)
        w_eq = FAtom("=", LVar(VALUE_VAR), LVar("w"))
        assert got == mono(arrow("x", base(w_eq), base(x_eq)))

    def test_duplicate_domain_rejected(self):
        with pytest.raises(Exception):
            subst_type([("x", Var("y")), ("x", Var("z"))], mono(base(TRUE)))


class TestConstantTable:
    def test_integer_literal(self):
        sch = CONSTANTS.type_of(IntConst(7))
        assert sch == mono(base(FAtom("=", LVar(VALUE_VAR), LInt(7))))

    def test_boolean_literal_shape(self):
        sch = CONSTANTS.type_of(BoolConst(True))
        assert shape_of(sch) == BOOL

    def test_primitive_types_closed_and_well_formed(self, engine):
        checker = SubtypeChecker(engine)
        for op in ("neg", "add", "sub", "mul", "le", "ge", "lt", "gt", "eq", "ite", "fix"):
            sch = CONSTANTS.type_of(PrimConst(op))
            assert checker.wf_check(Env(), sch.body), op

    def test_mul_has_exact_and_sign_arms(self):
        sch = CONSTANTS.type_of(PrimConst("mul"))
        assert len(sch.body.arms) == 5


class TestPrimitiveSchemeTexts:
    @pytest.mark.parametrize("op", sorted(PRIM_SCHEMES))
    def test_text_is_the_printed_scheme(self, op):
        assert render_scheme(CONSTANTS.type_of(PrimConst(op))) == PRIM_SCHEMES[op]


class TestTopSkeleton:
    def test_arrow(self):
        t = top_skeleton(Arrow("x", INT, INT))
        assert render_scheme(mono(t)) == "(x: {v : int | true} -> {v : int | true})"


class TestNameSource:
    def test_keeps_unused_base(self):
        ns = NameSource("t", used={"a"})
        assert ns.fresh("x") == "x"
        assert ns.fresh("x") == "x%0"

    def test_anonymous_skips_used(self):
        ns = NameSource("t", used={"t0"})
        assert ns.fresh() == "t1"


class TestIllFormedDetection:
    def test_shape_of_rejects_mixed_arms(self):
        # bypass make_type to build a malformed intersection directly
        with pytest.raises(IllFoundedType):
            shape_of(LiquidType((BaseArm(INT, GE), VarArm("a"))))
