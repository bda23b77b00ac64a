"""Persistent environments: the per-binding views against a from-scratch
walk over the binding sequence, and the cost of inference as a let chain
grows."""

import tracemalloc

from hypothesis import given, settings, strategies as st

from liqinfer import logic
from liqinfer.anf import normalize
from liqinfer.inference import Inferencer
from liqinfer.logic import conj, embed_env, visible_bindings
from liqinfer.parser import parse_program
from liqinfer.syntax import (
    BOOL,
    INT,
    BaseArm,
    Env,
    FALSE,
    FAnd,
    FAtom,
    FBoolVar,
    FIff,
    Formula,
    FunArm,
    LInt,
    LiquidType,
    LMul,
    LVar,
    Scheme,
    TRUE,
    Var,
    VarArm,
    VALUE_VAR,
    base_top,
    mono,
    subst_refinement,
)

NAMES = ("x", "y", "z", "w")


# -- the reference: the full walks every query made before the views -------


def ref_embed_env(env: Env) -> Formula:
    last = {name: i for i, (name, _) in enumerate(env.bindings)}
    parts = []
    for i, (name, sch) in enumerate(env.bindings):
        if last[name] != i or sch.qvars:
            continue
        arms = sch.body.arms
        if not all(isinstance(a, BaseArm) for a in arms):
            continue
        for arm in arms:
            parts.append(subst_refinement(arm.ref, {VALUE_VAR: Var(name)}))
    return conj(parts)


def ref_env_sorts(env: Env) -> dict[str, str]:
    sorts: dict[str, str] = {}
    for name, sch in env.bindings:
        arms = sch.body.arms
        if not sch.qvars and all(isinstance(a, BaseArm) for a in arms):
            sorts[name] = arms[0].base.name
        else:
            sorts.pop(name, None)
    return sorts


def ref_base_bindings(env: Env) -> list:
    last = {name: i for i, (name, _) in enumerate(env.bindings)}
    out = []
    for i, (name, sch) in enumerate(env.bindings):
        arms = sch.body.arms
        if last[name] == i and not sch.qvars and all(isinstance(a, BaseArm) for a in arms):
            out.append((name, arms[0].base.name, tuple(a.ref for a in arms)))
    return out


def ref_lookup(env: Env, name: str):
    for n, s in reversed(env.bindings):
        if n == name:
            return s
    return None


# -- random environments ---------------------------------------------------

int_terms = st.one_of(
    st.integers(-3, 3).map(LInt),
    st.sampled_from((VALUE_VAR,) + NAMES).map(LVar),
)
int_refs = st.one_of(
    st.just(TRUE),
    st.builds(FAtom, st.sampled_from(("=", "<=", ">=", "<", ">")), st.just(LVar(VALUE_VAR)), int_terms),
    # a product of two variables, the uninterpreted `times` to the engine
    st.builds(lambda a, b: FAtom("=", LVar(VALUE_VAR), LMul(LVar(a), LVar(b))),
              st.sampled_from(NAMES), st.sampled_from(NAMES)),
)
int_refs = st.one_of(int_refs, st.lists(int_refs, min_size=2, max_size=3).map(lambda ps: FAnd(tuple(ps))))
bool_refs = st.one_of(
    st.just(TRUE),
    st.builds(lambda b: FIff(FBoolVar(VALUE_VAR), TRUE if b else FALSE), st.booleans()),
)


def _base(base, refs):
    return st.lists(refs, min_size=1, max_size=3).map(
        lambda rs: LiquidType(tuple(BaseArm(base, r) for r in rs)))


int_types = _base(INT, int_refs)
schemes = st.one_of(
    int_types.map(mono),
    _base(BOOL, bool_refs).map(mono),
    # non-base bindings, which hide a base binding of the same name
    st.just(mono(LiquidType((FunArm("a", base_top(INT), base_top(INT)),)))),
    st.just(mono(LiquidType((VarArm("a"),)))),
    # polymorphic bindings, base-typed body or not
    int_types.map(lambda t: Scheme(("a",), t)),
    st.just(Scheme(("a",), LiquidType((VarArm("a"),)))),
)


@st.composite
def env_families(draw):
    """Environments made by chains of `extend` from earlier ones (so that
    they share prefixes), and an order in which to query them."""
    envs = [Env()]
    for _ in range(draw(st.integers(0, 14))):
        parent = envs[draw(st.integers(0, len(envs) - 1))]
        envs.append(parent.extend(draw(st.sampled_from(NAMES)), draw(schemes)))
    order = draw(st.permutations(range(len(envs))))
    return [envs[i] for i in order]


class TestViewsMatchTheFullWalk:
    @settings(max_examples=300, deadline=None)
    @given(env_families())
    def test_every_reader_agrees_with_the_reference(self, envs):
        for env in envs:
            assert embed_env(env) == ref_embed_env(env)
            sorts = ref_env_sorts(env)
            for name in NAMES:
                assert env.lookup(name) == ref_lookup(env, name)
                assert env.sort_of(name) == sorts.get(name)
            visible = [(n, arms[0].base.name, tuple(a.ref for a in arms))
                       for n, arms in visible_bindings(env).items()]
            assert visible == ref_base_bindings(env)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(NAMES), schemes), max_size=8))
    def test_equality_hash_and_repr_follow_the_bindings(self, bindings):
        one, two = Env(), Env()
        for name, sch in bindings:
            one = one.extend(name, sch)
        for name, sch in bindings:
            two = two.extend(name, sch)
            embed_env(two)  # fill formulas along the way on one side only
        assert one == two and hash(one) == hash(two)
        assert one.bindings == two.bindings == tuple(bindings)
        assert repr(one) == repr(two) == f"Env(bindings={tuple(bindings)!r})"
        assert one != one.extend("x", mono(base_top(INT)))


class TestDeepEnvironments:
    def test_views_of_an_env_deeper_than_the_recursion_limit(self):
        env = Env()
        ge = mono(LiquidType((BaseArm(INT, FAtom(">=", LVar(VALUE_VAR), LInt(0))),)))
        for i in range(5000):
            env = env.extend(f"x{i}", ge)
        assert env.sort_of("x0") == "int" and env.sort_of("y") is None
        assert len(embed_env(env).parts) == 5000
        assert env.lookup("x0") == ge

    def test_memory_kept_on_a_chain_is_the_formulas_alone(self):
        """`sort_of` keeps nothing, and the formulas of a chain of fresh
        names keep one conjunct tuple per node (17.5 MB here; a mapping of
        sorts on every node as well kept 74 MB)."""
        env = Env()
        ge = mono(LiquidType((BaseArm(INT, FAtom(">=", LVar(VALUE_VAR), LInt(0))),)))
        for i in range(2000):
            env = env.extend(f"x{i}", ge)

        def kept(build):
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                out = build()
                return out, tracemalloc.get_traced_memory()[0] - before
            finally:
                tracemalloc.stop()

        sorts, sorts_bytes = kept(lambda: [env.sort_of(f"x{i}") for i in range(2000)])
        assert sorts == ["int"] * 2000 and sorts_bytes < 1_000_000
        formula, formula_bytes = kept(lambda: embed_env(env))
        assert len(formula.parts) == 2000 and formula_bytes < 35_000_000


def let_chain(n: int) -> str:
    parts, prev = [], "x"
    for i in range(n):
        parts.append(f"let x_{i} = sub 1 {prev} in ")
        prev = f"x_{i}"
    return "\\x. " + "".join(parts) + prev


class TestLetChainCost:
    def test_embeddings_grow_linearly_with_the_chain(self, monkeypatch):
        """Each binding is embedded once, not once per query: doubling a let
        chain at most about doubles the refinements `embed_env` renames (a
        full walk per query made the ratio 3.9)."""
        calls = [0]

        def counting(*args, **kwargs):
            calls[0] += 1
            return subst_refinement(*args, **kwargs)

        monkeypatch.setattr(logic, "subst_refinement", counting)
        counts = {}
        for n in (100, 200):
            prog = parse_program(f"Qualifiers {{ v >= 0, v <= 0 }}\nval f = {let_chain(n)}\n")
            calls[0] = 0
            Inferencer(prog.qualifiers).infer(Env(), normalize(prog.bindings[0][1]))
            counts[n] = calls[0]
        assert counts[100] > 0
        assert counts[200] <= 2.2 * counts[100], counts
