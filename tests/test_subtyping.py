import gc
import random
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from liqinfer.logic import embed_env
from liqinfer.metatheory import semantic_implication_oracle
from liqinfer.subtyping import LogEntry, SubtypeChecker
from liqinfer.syntax import (
    Base,
    BaseArm,
    BOOL,
    FBoolVar,
    FAtom,
    FAnd,
    Env,
    FTrue,
    FunArm,
    FIff,
    INT,
    LInt,
    LiquidType,
    LNeg,
    Scheme,
    TRUE,
    VarArm,
    LVar,
    VALUE_VAR,
    base_top,
    intersect,
    make_type,
    mono,
    shape_of,
)
from liqinfer.validity import Unknown, Valid, ValidityEngine, ValidityQuery

GE = FAtom(">=", LVar(VALUE_VAR), LInt(0))
LE = FAtom("<=", LVar(VALUE_VAR), LInt(0))
EQ0 = FAtom("=", LVar(VALUE_VAR), LInt(0))
Y_EQ_5 = FAtom("=", LVar("y"), LInt(5))


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
        cod = base(FAtom("=", LVar(VALUE_VAR), LVar("x")))
        assert checker.wf_check(Env(), arrow("x", base(TRUE), cod))

    def test_bool_position_rejects_integer_comparison(self, checker):
        t = LiquidType((BaseArm(BOOL, GE),))
        assert not checker.wf_check(Env(), t)

    def test_bool_atom_ok(self, checker):
        t = LiquidType((BaseArm(BOOL, FIff(FBoolVar(VALUE_VAR), TRUE)),))
        assert checker.wf_check(Env(), t)

    def test_binders_shadow_the_environment(self, checker):
        env = Env().extend("x", mono(base(GE)))
        uses_x = base(FAtom("=", LVar(VALUE_VAR), LVar("x")))
        assert checker.wf_check(env, arrow("y", base(GE), uses_x))
        # a function-typed binder x hides the int x of the environment
        assert not checker.wf_check(env, arrow("x", arrow("z", base(TRUE), base(TRUE)), uses_x))
        # a bool binder x makes x a bool inside the codomain
        bool_x = LiquidType((BaseArm(BOOL, TRUE),))
        assert not checker.wf_check(env, arrow("x", bool_x, uses_x))
        assert checker.wf_check(env, arrow("x", bool_x, LiquidType((BaseArm(BOOL, FBoolVar("x")),))))


class TestIsSubtype:
    def test_derivation_premise(self, checker):
        # with x >= 0 in scope: {v = -x} < {v <= 0}
        env = Env().extend("x", mono(base(GE)))
        lhs = base(FAtom("=", LVar(VALUE_VAR), LNeg(LVar("x"))))
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
        refs = [GE, LE, EQ0, FAtom("<", LVar(VALUE_VAR), LInt(2))]
        for _ in range(150):
            lhs = base(*rng.sample(refs, rng.randint(1, 2)))
            rhs = base(*rng.sample(refs, rng.randint(1, 2)))
            if checker.is_subtype(Env(), lhs, rhs):
                lref = lhs.arms[0].ref if len(lhs.arms) == 1 else FAnd(tuple(a.ref for a in lhs.arms))
                rref = rhs.arms[0].ref if len(rhs.arms) == 1 else FAnd(tuple(a.ref for a in rhs.arms))
                assert semantic_implication_oracle(Env(), lref, rref, 4)

    def test_different_shapes_rejected(self, checker):
        assert not checker.is_subtype(Env(), base(GE), LiquidType((BaseArm(BOOL, TRUE),)))

    def test_target_binder_is_not_captured_by_an_inner_binder(self):
        # x: int -> (x: int -> {v = x}) /\ (y: int -> {v < x}) is not below
        # y: int -> (x: int -> {v = 0}). Comparing the codomains under the
        # target's binder y would let the inner y capture the outer x, and
        # {v = x} /\ {v < x} proves anything.
        top = base_top(INT)
        lhs_cod = make_type([
            FunArm("x", top, base(FAtom("=", LVar(VALUE_VAR), LVar("x")))),
            FunArm("y", top, base(FAtom("<", LVar(VALUE_VAR), LVar("x")))),
        ])
        rhs = arrow("y", top, arrow("x", top, base(EQ0)))
        for env in (Env(), Env().extend("y", mono(top))):
            assert not SubtypeChecker(ValidityEngine()).is_subtype(env, arrow("x", top, lhs_cod), rhs)

    def test_a_survivor_binder_renamed_to_the_targets_is_not_captured(self, shortcuts_off):
        # y: int -> (x: int -> {v = y}) is not below x: int -> (x: int -> {v = x}):
        # the first returns its first argument, the second its second.
        # Renaming the survivor's binder y to the target's x would let the
        # inner x capture the outer y and prove the codomains equal.
        top = base_top(INT)
        lhs = arrow("y", top, arrow("x", top, base(FAtom("=", LVar(VALUE_VAR), LVar("y")))))
        rhs = arrow("x", top, arrow("x", top, base(FAtom("=", LVar(VALUE_VAR), LVar("x")))))
        envs = (Env(), Env().extend("x", mono(top)))
        warm = SubtypeChecker(ValidityEngine())
        verdicts = [warm.is_subtype(env, lhs, rhs) for env in envs + envs]
        fresh = [SubtypeChecker(ValidityEngine()).is_subtype(env, lhs, rhs) for env in envs]
        shortcuts_off()
        plain = [SubtypeChecker(ValidityEngine()).is_subtype(env, lhs, rhs) for env in envs]
        assert verdicts == fresh + fresh
        assert plain == fresh == [False, False]

    def test_a_base_judgement_keeps_no_environment_formula(self):
        # formulas are hash-consed: a name and a bound no other test uses,
        # so that nothing else keeps Γ's formula alive
        checker = SubtypeChecker(ValidityEngine())
        at_least = base(FAtom(">=", LVar(VALUE_VAR), LInt(4243)))
        env = Env().extend("kept", mono(at_least))
        lhs, rhs = base(FAtom("=", LVar(VALUE_VAR), LVar("kept"))), at_least
        assert checker.is_subtype(env, lhs, rhs)
        formula = weakref.ref(embed_env(env))
        del env, lhs, rhs, at_least
        # another query, so that the engine lets go of the last hypothesis
        assert checker.engine.check(ValidityQuery(FTrue(), FTrue()), need_model=False) == Valid()
        gc.collect()
        assert formula() is None

    def test_a_renamed_binder_skips_every_name_the_environment_binds(self):
        # Γ = x: {v = 5}, x#: {v = 0}. Below x: {v >= 0} -> {v >= 5} the
        # codomain {v >= x} of y: {v >= 0} -> {v >= x} reads Γ's x, so the
        # target's binder x would capture it and x# is bound: the checker
        # renames the binder to a name Γ does not bind, and then x = 5
        # proves the codomain.
        env = Env().extend("x", mono(base(FAtom("=", LVar(VALUE_VAR), LInt(5))))).extend("x#", mono(base(EQ0)))
        lhs = arrow("y", base(GE), base(FAtom(">=", LVar(VALUE_VAR), LVar("x"))))
        rhs = arrow("x", base(GE), base(FAtom(">=", LVar(VALUE_VAR), LInt(5))))
        warm = SubtypeChecker(ValidityEngine())
        assert env.lookup(warm._fresh_binder(env, rhs.arms[0], list(lhs.arms))) is None
        for prefix in (Env(), Env().extend("x", env.lookup("x"))):
            warm.is_subtype(prefix, lhs, rhs)
        fresh = SubtypeChecker(ValidityEngine()).is_subtype(env, lhs, rhs)
        assert warm.is_subtype(env, lhs, rhs) == fresh
        assert fresh

    def test_a_judgement_under_a_binding_of_the_targets_binder_is_answered_from_the_memo(self):
        # Under Γ₂ = x: {v >= 5}, which binds the target's binder x, the
        # codomains are compared under a renamed binder x#. It sorts where
        # x does, so the survivors' codomains conjoin in the order they had
        # under Γ₁ = y: {v >= 5}, and every base judgement is a renaming of
        # one asked under Γ₁.
        ge5 = mono(base(FAtom(">=", LVar(VALUE_VAR), LInt(5))))
        ge_x = base(FAtom(">=", LVar(VALUE_VAR), LVar("x")))
        lhs = make_type([arrow("x", base(GE), ge_x).arms[0], arrow("x", base(GE), base(GE)).arms[0]])
        ge1 = base(FAtom(">=", LVar(VALUE_VAR), LInt(1)))
        rhs = arrow("x", ge1, ge1)
        checker = SubtypeChecker(ValidityEngine())
        assert checker.is_subtype(Env().extend("y", ge5), lhs, rhs)
        queries = checker.engine.stats["queries"]
        assert checker.is_subtype(Env().extend("x", ge5), lhs, rhs)
        assert checker.engine.stats["queries"] == queries

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
            env, [BaseArm(INT, FAtom("=", LVar(VALUE_VAR), LVar("x")))], [BaseArm(INT, TRUE)]
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
        assert semantic_implication_oracle(Env(), FAnd((GE, LE)), EQ0, 4)
        assert checker.engine.check(q) == Valid()

    def test_top_to_top(self, checker):
        q = checker.base_subtype_query(Env(), [BaseArm(INT, TRUE)], [BaseArm(INT, TRUE)])
        assert q.hypothesis == FTrue() and q.conclusion == FTrue()


class TestLogging:
    def test_constraints_are_logged(self, engine):
        log = []
        chk = SubtypeChecker(engine, log=log)
        chk.wf_check(Env(), base(GE))
        chk.is_subtype(Env(), base(GE), base(TRUE))
        kinds = [e.kind for e in log]
        assert "wf" in kinds and "sub" in kinds
        assert all(isinstance(e, LogEntry) for e in log)


# -- the well-formedness memo ------------------------------------------------

NAMES = ("x", "y", "b")

# every atom may name a variable out of scope, or in scope at the other sort
_int_atoms = st.one_of(
    st.integers(-1, 5).map(LInt), st.sampled_from((VALUE_VAR,) + NAMES).map(LVar)
)
_bool_atoms = st.sampled_from((VALUE_VAR,) + NAMES).map(FBoolVar)
_refs = st.one_of(
    st.just(TRUE),
    st.builds(FAtom, st.sampled_from(("=", "<=", ">=")), _int_atoms, _int_atoms),
    _bool_atoms,
    st.builds(FIff, _bool_atoms, _bool_atoms),
)


def _base_types():
    arms = st.builds(BaseArm, st.sampled_from((INT, BOOL)), _refs)
    return st.lists(arms, min_size=1, max_size=2).filter(
        lambda arms: len({a.base for a in arms}) == 1
    ).map(make_type)


_types = st.recursive(
    _base_types(),
    lambda inner: st.builds(
        lambda binder, dom, cod: LiquidType((FunArm(binder, dom, cod),)),
        st.sampled_from(NAMES), _base_types(), inner,
    ),
    max_leaves=3,
)

_HIDING = (
    mono(arrow("a", base(TRUE), base(TRUE))),
    Scheme(("a",), LiquidType((VarArm("a"),))),
)


@st.composite
def wf_items(draw):
    """Environments extended from one another, where a later binding of a
    name shadows an earlier one, at int or bool, and a function or
    polymorphic binding hides it; and types whose refinements name bound and
    unbound variables at either sort. Each type is checked under every
    environment, in a random order."""
    envs = [Env()]
    for _ in range(draw(st.integers(1, 5))):
        parent = envs[draw(st.integers(0, len(envs) - 1))]
        scheme = draw(st.one_of(st.sampled_from(_HIDING), _base_types().map(mono)))
        envs.append(parent.extend(draw(st.sampled_from(NAMES)), scheme))
    types = draw(st.lists(_types, min_size=1, max_size=4))
    return draw(st.permutations([(env, t) for env in envs for t in types]))


def ref_env_sorts(env):
    """Γ's sort of every name refinements can see, by one walk over the
    bindings: a later binding of a name wins, and one that is not a
    monomorphic base type hides the name."""
    sorts = {}
    for name, sch in env.bindings:
        arms = sch.body.arms
        if not sch.qvars and all(isinstance(a, BaseArm) for a in arms):
            sorts[name] = arms[0].base.name
        else:
            sorts.pop(name, None)
    return sorts


def ref_wf(t, sorts):
    """Well-formedness by its definition: each refinement reads every name
    at its sort under Γ's full sort mapping, copied with the value variable
    and each enclosing arrow's binder added."""
    for arm in t.arms:
        if isinstance(arm, BaseArm):
            scope = dict(sorts)
            scope[VALUE_VAR] = arm.base.name
            if any(scope.get(x) != sort for x, sort in arm.ref.sorts.items()):
                return False
        elif isinstance(arm, FunArm):
            inner = dict(sorts)
            dom = arm.dom.shape
            inner[arm.binder] = dom.name if isinstance(dom, Base) else None
            if not (ref_wf(arm.dom, sorts) and ref_wf(arm.cod, inner)):
                return False
    return True


class TestWfMemo:
    @settings(max_examples=150, deadline=None)
    @given(wf_items())
    def test_a_warm_checker_agrees_with_a_fresh_walk(self, items):
        warm = SubtypeChecker(ValidityEngine())
        for env, t in items + items:
            assert warm.wf_check(env, t) == ref_wf(t, ref_env_sorts(env))

    def test_out_of_scope_qualifier_flips_with_the_environment(self, checker):
        t = arrow("x", base(GE), base(Y_EQ_5))
        assert not checker.wf_check(Env(), t)
        assert checker.wf_check(Env().extend("y", mono(base(GE))), t)
        bool_y = mono(LiquidType((BaseArm(BOOL, TRUE),)))
        assert not checker.wf_check(Env().extend("y", bool_y), t)
        hidden = Env().extend("y", mono(base(GE))).extend("y", _HIDING[0])
        assert not checker.wf_check(hidden, t)

    def test_a_closed_type_logs_every_check(self, engine):
        log = []
        chk = SubtypeChecker(engine, log=log)
        t = arrow("x", base(GE), base(LE))
        envs = [Env(), Env().extend("y", mono(base(GE))), Env().extend("x", _HIDING[1])]
        assert all(chk.wf_check(env, t) for env in envs)
        assert [e.kind for e in log] == ["wf"] * 3


# -- the Top rule ------------------------------------------------------------


class TestTopTargets:
    def test_a_top_target_asks_no_query(self):
        chk = SubtypeChecker(ValidityEngine())
        env = Env().extend("x", mono(base(GE)))
        lhs = base(FAtom("=", LVar(VALUE_VAR), LVar("x")))
        assert chk.is_subtype(env, lhs, base_top(INT))
        assert chk.is_subtype(env, lhs, base(TRUE, TRUE))
        bool_lhs = LiquidType((BaseArm(BOOL, FBoolVar(VALUE_VAR)),))
        assert chk.is_subtype(env, bool_lhs, base_top(BOOL))
        # an arrow whose codomain is Top asks only about its domain
        f = arrow("z", base(TRUE), lhs)
        assert chk.is_subtype(env, f, arrow("z", base(GE), base(TRUE)))
        assert chk.engine.stats["queries"] == 0

    def test_an_int_type_is_not_below_a_bool_top(self):
        chk = SubtypeChecker(ValidityEngine())
        assert not chk.is_subtype(Env(), base(GE), base_top(BOOL))
        assert not chk.is_subtype(Env(), base_top(INT), base_top(BOOL))
        assert chk.engine.stats["queries"] == 0

    def test_a_top_arm_beside_an_informative_arm_still_asks(self):
        # built directly: make_type would absorb the Top arm
        mixed = LiquidType((BaseArm(INT, TRUE), BaseArm(INT, GE)))
        chk = SubtypeChecker(ValidityEngine())
        assert not chk.is_subtype(Env(), base(LE), mixed)
        assert chk.is_subtype(Env(), base(EQ0), mixed)
        assert chk.engine.stats["queries"] == 2
