"""Hash-consed values and the subtyping-judgement memo: equal parts give one
object (for terms, shapes equal up to binder names are not equal parts), the intern tables hold no value alive, and a checker that answers
from its memo answers exactly as a fresh one does."""

import dataclasses
import gc
import sys
import threading

from hypothesis import given, settings, strategies as st

from liqinfer import syntax, validity
from liqinfer.inference import Inferencer
from liqinfer.metatheory import run_subject_reduction
from liqinfer.subtyping import SubtypeChecker
from liqinfer.syntax import (
    INT,
    App,
    Arrow,
    Base,
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
    Lam,
    Let,
    LInt,
    LiquidType,
    LMul,
    LNeg,
    LSub,
    LVar,
    Scheme,
    TRUE,
    TyAbs,
    TyInst,
    TyVar,
    Var,
    VarArm,
    VALUE_VAR,
    base_top,
    make_type,
    mono,
)
from liqinfer.validity import ValidityEngine

# -- specs: plain descriptions of values, built twice ----------------------
#
# A spec is a leaf (int, bool or str) or a tuple (class, *child specs); a
# tuple field of a value is the spec ("tuple", *child specs).


def build(spec):
    if not isinstance(spec, tuple):
        # a fresh but equal string, so that interning cannot lean on the
        # identity of the strings it is given
        return "".join(list(spec)) if isinstance(spec, str) else spec
    head, *parts = spec
    args = [build(p) for p in parts]
    return tuple(args) if head == "tuple" else head(*args)


def ref_eq(x, y) -> bool:
    """Structural equality, walked field by field."""
    if dataclasses.is_dataclass(x) or dataclasses.is_dataclass(y):
        return type(x) is type(y) and all(
            ref_eq(getattr(x, f.name), getattr(y, f.name)) for f in dataclasses.fields(x)
        )
    if isinstance(x, tuple) or isinstance(y, tuple):
        return (
            isinstance(x, tuple) and isinstance(y, tuple)
            and len(x) == len(y) and all(ref_eq(a, b) for a, b in zip(x, y))
        )
    return type(x) is type(y) and x == y


names = st.sampled_from((VALUE_VAR, "x", "y"))
int_exprs = st.recursive(
    st.one_of(st.tuples(st.just(LInt), st.integers(-2, 2)), st.tuples(st.just(LVar), names)),
    lambda sub: st.one_of(
        st.tuples(st.just(LNeg), sub),
        st.tuples(st.sampled_from((LAdd, LSub, LMul)), sub, sub),
    ),
    max_leaves=4,
)
refinements = st.recursive(
    st.one_of(
        st.just((FTrue,)),
        st.just((FFalse,)),
        st.tuples(st.just(FAtom), st.sampled_from(("=", "<=", ">=")), int_exprs, int_exprs),
        st.tuples(st.just(FBoolVar), names),
    ),
    lambda sub: st.one_of(
        st.tuples(st.just(FIff), sub, sub),
        st.lists(sub, min_size=1, max_size=2).map(lambda ps: (FAnd, ("tuple", *ps))),
    ),
    max_leaves=4,
)
bases = st.tuples(st.just(Base), st.sampled_from(("int", "bool")))
liquid_types = st.recursive(
    st.lists(
        st.one_of(st.tuples(st.just(BaseArm), bases, refinements), st.tuples(st.just(VarArm), names)),
        min_size=1, max_size=2,
    ).map(lambda arms: (LiquidType, ("tuple", *arms))),
    lambda sub: st.lists(st.tuples(st.just(FunArm), names, sub, sub), min_size=1, max_size=2).map(
        lambda arms: (LiquidType, ("tuple", *arms))
    ),
    max_leaves=3,
)
schemes = st.tuples(st.just(Scheme), st.lists(names, max_size=2).map(lambda q: ("tuple", *q)), liquid_types)
# shapes whose arrows differ in binder names alone, which `Arrow.__eq__`
# ignores and a term's key does not
simple_types = st.recursive(
    st.one_of(bases, st.tuples(st.just(TyVar), names)),
    lambda sub: st.tuples(st.just(Arrow), names, sub, sub),
    max_leaves=3,
)


def _shaped(*parts):
    """A term spec with its shape or without one."""
    return st.one_of(st.tuples(*parts), st.tuples(*parts, simple_types))


terms = st.recursive(
    st.one_of(
        _shaped(st.just(Var), names),
        st.tuples(st.just(Const), st.tuples(st.just(IntConst), st.integers(-1, 1))),
    ),
    lambda sub: st.one_of(
        _shaped(st.just(Lam), names, sub),
        _shaped(st.just(App), sub, sub),
        _shaped(st.just(Let), names, sub, sub),
        st.tuples(st.just(TyAbs), names, sub),
        st.tuples(st.just(TyInst), simple_types, sub),
    ),
    max_leaves=4,
)
values = st.one_of(refinements, liquid_types.map(lambda t: t[1][1]), liquid_types, schemes, terms)


class TestHashConsing:
    @settings(max_examples=200, deadline=None)
    @given(values, values)
    def test_equal_parts_give_one_object_and_equality_is_structural(self, s1, s2):
        one, two = build(s1), build(s2)
        assert build(s1) is one and build(s2) is two
        assert (one == two) == ref_eq(one, two) == (one is two)
        if one == two:
            assert hash(one) == hash(two)

    def test_a_term_keeps_the_binder_names_of_its_shape(self):
        shapes = [Arrow("a", INT, Arrow("c", INT, INT)), Arrow("a", INT, Arrow("d", INT, INT))]
        assert shapes[0] == shapes[1]  # Arrow.__eq__ ignores binders
        nodes = [Lam("x", Var("x"), shape) for shape in shapes]
        assert nodes[0] is not nodes[1]
        assert [n.shape.cod.binder for n in nodes] == ["c", "d"]
        assert Lam("x", Var("x"), Arrow("a", INT, Arrow("c", INT, INT))) is nodes[0]
        assert TyInst(shapes[0], Var("f")) is not TyInst(shapes[1], Var("f"))

    def test_intern_tables_shrink_once_the_values_are_dropped(self):
        tables = [FAtom._table, BaseArm._table, LiquidType._table, syntax._made, Lam._table, Env._table]

        def sizes():
            gc.collect()
            return [len(t) for t in tables]

        before = sizes()
        kept = []
        for i in range(50):
            name = f"gc_probe_{i}"
            arm = BaseArm(INT, FAtom(">=", LVar(VALUE_VAR), LVar(name)))
            t = make_type([arm, BaseArm(INT, TRUE)])
            kept.append((t, FAtom("=", LVar(name), LInt(i))))
            kept.append((Lam(name, Var(name), Arrow(name, INT, INT)), Env().extend(name, mono(t))))
        grown = sizes()
        assert all(g > b for g, b in zip(grown, before)), (before, grown)
        del kept, arm, t
        assert sizes() == before

    def test_threads_building_and_dropping_values_share_one_object(self):
        """Interning is an atomic get-or-insert: threads that build equal
        values at once, while others drop theirs, all get one object."""

        def work(kept):
            for i in range(3000):
                FAtom(">=", LVar(f"race_{i % 40}"), LInt(i % 3))  # dropped at once
                if i % 2:
                    kept.append(((i % 40, i % 3), FAtom(">=", LVar(f"race_{i % 40}"), LInt(i % 3))))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            results = [[] for _ in range(8)]
            threads = [threading.Thread(target=work, args=(kept,)) for kept in results]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        seen = {}
        for kept in results:
            assert len(kept) == 1500
            for parts, obj in kept:
                assert seen.setdefault(parts, obj) is obj
        assert len(seen) == 60  # odd i modulo 120

    def test_memo_slots_are_shared_by_every_occurrence(self):
        arm = BaseArm(INT, FAtom(">=", LVar(VALUE_VAR), LInt(0)))
        assert arm.rendered == "{v : int | (v>=0)}"
        again = BaseArm(Base("int"), FAtom(">=", LVar("v"), LInt(0)))
        assert again is arm and again.rendered is arm.rendered
        assert again.ref.memo is arm.ref.memo


# -- the judgement memo ----------------------------------------------------

BINDERS = ("x", "y")


def _cmp(op, rhs):
    return FAtom(op, LVar(VALUE_VAR), rhs)


def _int_type(refs):
    return LiquidType(tuple(BaseArm(INT, r) for r in refs)) if refs else base_top(INT)


# refinements over the value variable, literals and the names in `scope`
def _refs(scope):
    atoms = [st.integers(-1, 1).map(LInt)] + [st.just(LVar(n)) for n in scope]
    ref = st.builds(_cmp, st.sampled_from(("=", "<=", ">=", "<")), st.one_of(*atoms))
    return st.lists(ref, max_size=2, unique=True)


@st.composite
def arrow_types(draw, scope, nested=False):
    """Function types `b: int -> ...` of one or two arms whose refinements
    mention the names in `scope`. A codomain may also mention its binder, or,
    when nested, is itself such a function type. Binders are named like the
    environment's bindings, so that the checker must rename them."""
    arms = []
    for _ in range(draw(st.integers(1, 2))):
        binder = draw(st.sampled_from(BINDERS))
        dom = _int_type(draw(_refs(scope)))
        inner = scope + (binder,)
        cod = draw(arrow_types(inner)) if nested else _int_type(draw(_refs(inner)))
        arms.append(FunArm(binder, dom, cod))
    return make_type(arms)


KINDS = (
    lambda scope: st.builds(_int_type, _refs(scope)),
    arrow_types,
    lambda scope: arrow_types(scope, nested=True),
)


@st.composite
def judgements(draw):
    """Environments extended from one another, base bindings shadowing
    earlier ones and non-base bindings hiding them, and pairs of types of
    one shape; each pair is judged under every environment that binds the
    names its refinements mention, in a random order."""
    hiding = mono(LiquidType((FunArm("a", base_top(INT), base_top(INT)),)))
    envs = [Env()]
    for _ in range(draw(st.integers(1, 5))):
        parent = envs[draw(st.integers(0, len(envs) - 1))]
        name = draw(st.sampled_from(BINDERS))
        if draw(st.booleans()):
            scheme = hiding
        else:
            # a refinement may mention any name bound before it, as inference
            # guarantees: the formula of an environment mentions only its names
            scheme = mono(_int_type(draw(_refs(tuple(sorted(parent.names()))))))
        envs.append(parent.extend(name, scheme))
    pairs = []
    for _ in range(draw(st.integers(1, 4))):
        scope = tuple(sorted(draw(st.sets(st.sampled_from(BINDERS)))))
        kind = draw(st.sampled_from(KINDS))
        pairs.append((scope, draw(kind(scope)), draw(kind(scope))))
    items = [(env, lhs, rhs) for env in envs for scope, lhs, rhs in pairs if env.names() >= set(scope)]
    return draw(st.permutations(items))


class TestJudgementMemo:
    @settings(max_examples=100, deadline=None)
    @given(judgements())
    def test_a_warm_checker_answers_like_a_fresh_one(self, items):
        warm = SubtypeChecker(ValidityEngine())
        for env, lhs, rhs in items + items:
            fresh = SubtypeChecker(ValidityEngine())
            assert warm.is_subtype(env, lhs, rhs) == fresh.is_subtype(env, lhs, rhs)

    def test_a_renamed_binder_renames_the_inner_domain_that_names_it(self):
        """In `y: {v=1} -> (y: {v=0} /\\ {v=y} -> {v=y})` the inner domain's
        `y` is the outer binder. Under an environment that binds `y` the
        checker renames the outer binder, and that `y` must follow it; then
        the inner domain contradicts the outer one under both environments."""
        top = base_top(INT)
        lhs = make_type([FunArm("x", top, make_type([FunArm("x", top, top)]))])
        inner = FunArm(
            "y",
            _int_type([_cmp("=", LInt(0)), _cmp("=", LVar("y"))]),
            _int_type([_cmp("=", LVar("y"))]),
        )
        rhs = make_type([FunArm("y", _int_type([_cmp("=", LInt(1))]), make_type([inner]))])
        hidden = Env().extend("y", mono(LiquidType((FunArm("a", top, top),))))
        for env in (Env(), hidden):
            assert SubtypeChecker(ValidityEngine()).is_subtype(env, lhs, rhs)

    def test_renamed_binders_share_one_judgement(self):
        """`x` is bound in one environment and not in the other, so the
        arrow's binder is renamed under the first only; both have the same
        formula, so the second judgement is answered from the memo."""
        ge = _int_type([_cmp(">=", LInt(0))])
        lhs = make_type([FunArm("x", base_top(INT), _int_type([_cmp(">=", LVar("x"))]))])
        rhs = make_type([FunArm("x", ge, _int_type([_cmp(">=", LInt(0))]))])
        hidden = Env().extend("x", mono(LiquidType((VarArm("a"),))))
        checker = SubtypeChecker(ValidityEngine())
        assert checker.is_subtype(hidden, lhs, rhs)
        queries = checker.engine.stats["queries"]
        assert checker.is_subtype(Env(), lhs, rhs)
        assert checker.engine.stats["queries"] == queries


class TestQueryCounts:
    def test_the_memo_cuts_queries_and_keeps_every_decision(self, monkeypatch):
        """Criterion-5 traffic re-checks every reduct: without the memo it
        asks the engine more than three times as many queries, and the
        engine decides exactly the same ones. The inference memo is off in
        both runs, so that every repeated judgement reaches this memo."""
        monkeypatch.setattr(Inferencer, "_age", lambda self: None)
        decided = [0]
        decide = validity.builtin_decide

        def counting(*args, **kwargs):
            decided[0] += 1
            return decide(*args, **kwargs)

        monkeypatch.setattr(validity, "builtin_decide", counting)
        counts = {}
        for memo in (True, False):
            if not memo:
                monkeypatch.setattr(
                    SubtypeChecker, "_sub",
                    lambda self, env, a, b: a is b or SubtypeChecker._decide(self, env, a, b),
                )
            engine = ValidityEngine()
            decided[0] = 0
            assert run_subject_reduction(40, fuel=100, seed=7, engine=engine).ok
            counts[memo] = (engine.stats["queries"], decided[0])
        (with_memo, decided_with), (without, decided_without) = counts[True], counts[False]
        assert without >= 3 * with_memo, counts
        assert decided_with == decided_without, counts
