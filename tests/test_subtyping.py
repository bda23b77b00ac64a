import random

import pytest

from liqinfer.logic import FAnd, FAtom, FTrue, LInt, LVar
from liqinfer.metatheory import semantic_implication_oracle
from liqinfer.subtyping import LogEntry, SubtypeC, SubtypeChecker, WellFormedC
from liqinfer.syntax import (
    BaseArm,
    BOOL,
    BoolVarRef,
    CmpRef,
    ConjRef,
    Env,
    FunArm,
    IffRef,
    IllFoundedType,
    INT,
    IntExp,
    LiquidType,
    NegExp,
    Scheme,
    TOP,
    VarArm,
    VarExp,
    VALUE_VAR,
    intersect,
    make_type,
    mono,
    shape_of,
)
from liqinfer.validity import Unknown, Valid, ValidityEngine

GE = CmpRef(">=", VarExp(VALUE_VAR), IntExp(0))
LE = CmpRef("<=", VarExp(VALUE_VAR), IntExp(0))
EQ0 = CmpRef("=", VarExp(VALUE_VAR), IntExp(0))
Y_EQ_5 = CmpRef("=", VarExp("y"), IntExp(5))


def base(*refs):
    return make_type([BaseArm(INT, r) for r in refs])


def arrow(binder, dom, cod):
    return LiquidType((FunArm(binder, dom, cod),))


@pytest.fixture()
def checker(engine):
    return SubtypeChecker(engine)


class TestWfCheck:
    def test_out_of_scope_variable(self, checker):
        t = arrow("x", base(GE), base(Y_EQ_5))
        assert not checker.wf_check(Env(), t)

    def test_in_scope(self, checker):
        t = arrow("x", base(GE), base(LE))
        assert checker.wf_check(Env(), t)

    def test_type_variable_always(self, checker):
        assert checker.wf_check(Env(), LiquidType((VarArm("a"),)))

    def test_dependent_codomain(self, checker):
        cod = base(CmpRef("=", VarExp(VALUE_VAR), VarExp("x")))
        assert checker.wf_check(Env(), arrow("x", base(TOP), cod))

    def test_bool_position_rejects_integer_comparison(self, checker):
        t = LiquidType((BaseArm(BOOL, GE),))
        assert not checker.wf_check(Env(), t)

    def test_bool_atom_ok(self, checker):
        t = LiquidType((BaseArm(BOOL, IffRef(BoolVarRef(VALUE_VAR), TOP)),))
        assert checker.wf_check(Env(), t)


class TestIsSubtype:
    def test_derivation_premise(self, checker):
        # with x >= 0 in scope: {v = -x} < {v <= 0}
        env = Env().extend("x", mono(base(GE)))
        lhs = base(CmpRef("=", VarExp(VALUE_VAR), NegExp(VarExp("x"))))
        assert checker.is_subtype(env, lhs, base(LE))

    def test_elimination(self, checker):
        t12 = intersect(base(GE), base(LE))
        assert checker.is_subtype(Env(), t12, base(GE))
        assert checker.is_subtype(Env(), t12, base(LE))

    def test_arrow_arm_selection(self, checker):
        # pick the arm accepting {v = 0}; the base step was confirmed by the
        # enumeration oracle: {v=0} => {v>=0} has no countermodel in [-4,4]
        assert semantic_implication_oracle(Env(), EQ0, GE, 4)
        lhs = make_type(
            [FunArm("x", base(GE), base(GE)), FunArm("x", base(LE), base(GE))]
        )
        rhs = arrow("x", base(EQ0), base(GE))
        assert checker.is_subtype(Env(), lhs, rhs)

    def test_reflexivity_on_random_types(self, checker):
        from test_syntax import random_type

        rng = random.Random(13)
        for _ in range(120):
            t = random_type(rng)
            assert checker.is_subtype(Env(), t, t)

    def test_elimination_on_random_types(self, checker):
        from test_syntax import random_type

        rng = random.Random(14)
        for _ in range(120):
            a, b = random_type(rng), random_type(rng)
            if shape_of(a) != shape_of(b):
                continue
            both = intersect(a, b)
            assert checker.is_subtype(Env(), both, a)
            assert checker.is_subtype(Env(), both, b)

    def test_introduction_iff_both(self, checker):
        from test_syntax import random_type

        rng = random.Random(15)
        for _ in range(120):
            t, a, b = random_type(rng), random_type(rng), random_type(rng)
            if not (shape_of(t) == shape_of(a) == shape_of(b)):
                continue
            lhs = checker.is_subtype(Env(), t, intersect(a, b))
            rhs = checker.is_subtype(Env(), t, a) and checker.is_subtype(Env(), t, b)
            assert lhs == rhs

    def test_transitivity_on_sampled_corpus(self, checker):
        from test_syntax import random_type

        rng = random.Random(16)
        seen = 0
        for _ in range(400):
            a, b, c = random_type(rng), random_type(rng), random_type(rng)
            if not (shape_of(a) == shape_of(b) == shape_of(c)):
                continue
            if checker.is_subtype(Env(), a, b) and checker.is_subtype(Env(), b, c):
                seen += 1
                assert checker.is_subtype(Env(), a, c)
        assert seen > 10

    def test_base_soundness_vs_oracle(self, checker):
        rng = random.Random(17)
        refs = [GE, LE, EQ0, CmpRef("<", VarExp(VALUE_VAR), IntExp(2))]
        for _ in range(150):
            lhs = base(*rng.sample(refs, rng.randint(1, 2)))
            rhs = base(*rng.sample(refs, rng.randint(1, 2)))
            if checker.is_subtype(Env(), lhs, rhs):
                lref = lhs.arms[0].ref if len(lhs.arms) == 1 else ConjRef(tuple(a.ref for a in lhs.arms))
                rref = rhs.arms[0].ref if len(rhs.arms) == 1 else ConjRef(tuple(a.ref for a in rhs.arms))
                assert semantic_implication_oracle(Env(), lref, rref, 4)

    def test_scheme_quantifiers_stripped_pairwise(self, checker):
        a = Scheme(("a",), LiquidType((VarArm("a"),)))
        b = Scheme(("b",), LiquidType((VarArm("b"),)))
        assert checker.is_subtype(Env(), a, b)
        assert not checker.is_subtype(Env(), a, mono(LiquidType((VarArm("a"),))))

    def test_different_shapes_rejected(self, checker):
        assert not checker.is_subtype(Env(), base(GE), LiquidType((BaseArm(BOOL, TOP),)))

    def test_unknown_is_not_a_subtype(self):
        class AlwaysUnknown(ValidityEngine):
            def check(self, q, need_model=True):
                return Unknown("stubbed")

        chk = SubtypeChecker(AlwaysUnknown())
        assert not chk.is_subtype(Env(), base(GE), base(LE))
        # reflexivity still holds structurally
        assert chk.is_subtype(Env(), base(GE), base(GE))


class TestBaseSubtypeQuery:
    def test_derivation_shape(self, checker):
        env = Env().extend("x", mono(base(GE)))
        q = checker.base_subtype_query(
            env, [BaseArm(INT, CmpRef("=", VarExp(VALUE_VAR), VarExp("x")))], [BaseArm(INT, TOP)]
        )
        assert q.hypothesis == FAnd(
            (FAtom(">=", LVar("x"), LInt(0)), FAtom("=", LVar(VALUE_VAR), LVar("x")))
        )
        assert q.conclusion == FTrue()

    def test_conjunction_query(self, checker):
        q = checker.base_subtype_query(
            Env(), [BaseArm(INT, GE), BaseArm(INT, LE)], [BaseArm(INT, EQ0)]
        )
        assert isinstance(q.hypothesis, FAnd) and len(q.hypothesis.parts) == 2
        # confirmed by enumeration: v>=0 /\ v<=0 => v=0 over the integers
        assert semantic_implication_oracle(Env(), ConjRef((GE, LE)), EQ0, 4)
        assert checker.engine.check(q) == Valid()

    def test_top_to_top(self, checker):
        q = checker.base_subtype_query(Env(), [BaseArm(INT, TOP)], [BaseArm(INT, TOP)])
        assert q.hypothesis == FTrue() and q.conclusion == FTrue()


class TestSimplify:
    def test_wf_splits_intersection(self, checker):
        c = WellFormedC(Env(), mono(intersect(base(GE), base(LE))))
        atoms = checker.simplify(c)
        assert len(atoms) == 2
        assert all(isinstance(a, WellFormedC) for a in atoms)

    def test_wf_function_splits_into_domain_and_codomain(self, checker):
        c = WellFormedC(Env(), mono(arrow("x", base(GE), base(LE))))
        atoms = checker.simplify(c)
        assert len(atoms) == 2
        assert atoms[1].env.lookup("x") is not None

    def test_atomic_stays(self, checker):
        c = WellFormedC(Env(), mono(base(TOP)))
        assert checker.simplify(c) == [c]

    def test_arrow_subtype_splits_contravariantly(self, checker):
        lhs = arrow("x", base(TOP), base(LE))
        rhs = arrow("x", base(GE), base(TOP))
        atoms = checker.simplify(SubtypeC(Env(), mono(lhs), mono(rhs)))
        assert len(atoms) == 2
        first, second = atoms
        assert first.lhs.body == base(GE) and first.rhs.body == base(TOP)
        assert second.env.lookup("x") is not None

    def test_shape_mismatch_raises(self, checker):
        with pytest.raises(IllFoundedType):
            checker.simplify(SubtypeC(Env(), mono(base(GE)), mono(LiquidType((BaseArm(BOOL, TOP),)))))


class TestLogging:
    def test_constraints_are_logged(self, engine):
        log = []
        chk = SubtypeChecker(engine, log=log)
        chk.wf_check(Env(), base(GE))
        chk.is_subtype(Env(), base(GE), base(TOP))
        kinds = [e.kind for e in log]
        assert "wf" in kinds and "sub" in kinds
        assert all(isinstance(e, LogEntry) for e in log)
