"""Executable metatheory: an algorithmic re-checker (infer then subsume),
subject-reduction trials over the evaluator, and a finite-domain semantic
implication oracle that realizes the undecidable implication rule as a
brute-force enumeration over small integer grids.
"""

from __future__ import annotations

import operator
import random
from typing import Callable, NamedTuple, Optional, Sequence, Union

from .anf import _all_names, normalize
from .inference import Inferencer
from .logic import visible_bindings
from .parser import parse_qualifier
from .semantics import AtValue, Stuck, step
from .subtyping import SubtypeChecker
from .syntax import (
    App,
    BaseArm,
    BoolConst,
    Const,
    Env,
    FAnd,
    FAtom,
    FBoolVar,
    FIff,
    Formula,
    FTrue,
    IntConst,
    LAdd,
    Lam,
    Let,
    LInt,
    LiqError,
    LiquidType,
    LMul,
    LNeg,
    LogicTerm,
    LSub,
    LVar,
    NameSource,
    PrimConst,
    Scheme,
    Term,
    Var,
    VarArm,
    VALUE_VAR,
    render_term,
    subst_tyvar_liquid,
    symbols,
)
from .validity import ValidityEngine, ValidityQuery


class OracleInapplicable(LiqError):
    """A query variable does not have base type, so the finite enumeration
    cannot interpret it."""


# ---------------------------------------------------------------------------
# Re-checking: infer then subsume
# ---------------------------------------------------------------------------


def recheck(
    env: Env,
    term: Term,
    scheme: Scheme,
    qualifiers: Sequence[Formula],
    engine: Optional[ValidityEngine] = None,
    inferencer: Optional[Inferencer] = None,
) -> bool:
    """Sound (not complete) check that the term has the given type: the
    inferred scheme has as many quantifiers and, both opened alike, its body
    is a subtype of the given one, which must be well formed."""
    inf = inferencer if inferencer is not None else Inferencer(qualifiers, engine)
    try:
        inferred = inf.infer(env, term)
    except LiqError:
        return False
    if len(inferred.qvars) != len(scheme.qvars):
        return False
    given = _opened(scheme)
    return inf.checker.wf_check(env, given) and inf.checker.is_subtype(env, _opened(inferred), given)


def _opened(s: Scheme) -> LiquidType:
    """The body of s with its i-th quantifier renamed to `#i`, all at once;
    no type variable free in s holds a `#`, which the tokenizer never reads
    and `NameSource` never makes, so nothing is captured."""
    if not s.qvars:
        return s.body
    opened = {q: LiquidType((VarArm(f"#{i}"),)) for i, q in enumerate(s.qvars)}
    return subst_tyvar_liquid(s.body, opened)


# ---------------------------------------------------------------------------
# Subject reduction trials
# ---------------------------------------------------------------------------


class TrialReport(NamedTuple):
    term: Term
    well_typed: bool
    ok: bool
    steps: int = 0
    stuck: bool = False
    timed_out: bool = False
    failure: Optional[str] = None
    inferred: Optional[Scheme] = None


def subject_reduction_trial(
    term: Term,
    qualifiers: Sequence[Formula],
    fuel: int,
    engine: Optional[ValidityEngine] = None,
    inferencer: Optional[Inferencer] = None,
) -> TrialReport:
    """Evaluate up to `fuel` steps, re-checking every reduct against the
    originally inferred type (closed terms: no substitution reaches it)."""
    inf = inferencer if inferencer is not None else Inferencer(qualifiers, engine)
    try:
        s0 = inf.infer(Env(), term)
    except LiqError as e:
        return TrialReport(term, well_typed=False, ok=False, failure=str(e))
    names = NameSource("fx", used=_all_names(term))
    cur = term
    for i in range(fuel):
        out = step(cur, names)
        if isinstance(out, AtValue):
            return TrialReport(term, True, True, steps=i, inferred=s0)
        if isinstance(out, Stuck):
            return TrialReport(
                term, True, False, steps=i, stuck=True,
                failure=f"stuck at {render_term(out.redex)}: {out.reason}", inferred=s0,
            )
        cur = out.term
        if not recheck(Env(), cur, s0, qualifiers, inferencer=inf):
            return TrialReport(
                term, True, False, steps=i + 1,
                failure=f"preservation violated at {render_term(cur)}", inferred=s0,
            )
    return TrialReport(term, True, True, steps=fuel, timed_out=True, inferred=s0)


# ---------------------------------------------------------------------------
# Finite semantic implication oracle
# ---------------------------------------------------------------------------


_COMPARE = {"=": operator.eq, "<=": operator.le, ">=": operator.ge, "<": operator.lt, ">": operator.gt}
_COMBINE = {LAdd: operator.add, LSub: operator.sub, LMul: operator.mul, FIff: operator.eq}


def eval_refinement(r: Union[Formula, LogicTerm], asg: dict[str, object]) -> Union[bool, int]:
    """The truth of a refinement, or the value of an integer term, under
    `asg`; a product is a product."""
    if isinstance(r, LInt):
        return r.value
    if isinstance(r, (LVar, FBoolVar)):
        v = asg[r.name]
        if isinstance(v, bool) != isinstance(r, FBoolVar):
            sort = "a boolean" if isinstance(r, FBoolVar) else "an integer"
            raise OracleInapplicable(f"{r.name} is not {sort}")
        return v
    if isinstance(r, LNeg):
        return -eval_refinement(r.arg, asg)
    if isinstance(r, FAnd):
        return all(eval_refinement(p, asg) for p in r.parts)
    if isinstance(r, FAtom):
        return _COMPARE[r.op](eval_refinement(r.lhs, asg), eval_refinement(r.rhs, asg))
    if isinstance(r, (LAdd, LSub, LMul, FIff)):
        return _COMBINE[type(r)](eval_refinement(r.lhs, asg), eval_refinement(r.rhs, asg))
    return isinstance(r, FTrue)


def semantic_implication_oracle(
    env: Env,
    lhs: Formula,
    rhs: Formula,
    bound: int = 4,
) -> bool:
    """Enumerate every substitution of integers in [-bound, bound] (booleans
    over both values) for the base variables of the environment and the value
    variable, keep the ones satisfying the environment refinements under
    direct evaluation, and require that whenever the left refinement
    evaluates to true the right one does too. A binding is evaluated as soon
    as the names it reads have values, which prunes the grid and changes no
    answer."""
    bindings = visible_bindings(env)
    used = symbols(lhs, rhs)[0]
    free = used.keys() - bindings.keys() - {VALUE_VAR}
    if free:
        raise OracleInapplicable(f"variables without a base type in scope: {sorted(free)}")
    names = [*bindings, VALUE_VAR]
    sorts = {name: arms[0].base.name for name, arms in bindings.items()}
    sorts[VALUE_VAR] = used.get(VALUE_VAR, "int")

    def domain(sort: str):
        return (False, True) if sort == "bool" else range(-bound, bound + 1)

    # each binding is checked as soon as its name and the names it reads
    # have values, so that an inconsistent prefix prunes the grid beneath it
    index = {name: i for i, name in enumerate(names)}
    checks: list[list[tuple[str, tuple[BaseArm, ...]]]] = [[] for _ in names]
    for name, arms in bindings.items():
        reads = symbols(*(a.ref for a in arms))[0].keys() - {VALUE_VAR}
        checks[max([index[name]] + [index[x] for x in reads if x in index])].append((name, arms))

    def consistent(i: int, asg: dict[str, object]) -> bool:
        return all(
            eval_refinement(a.ref, {**asg, VALUE_VAR: asg[name]}) for name, arms in checks[i] for a in arms
        )

    def grids(i: int, asg: dict[str, object]):
        if i == len(names):
            yield asg
            return
        for v in domain(sorts[names[i]]):
            asg[names[i]] = v
            if consistent(i, asg):
                yield from grids(i + 1, asg)
        del asg[names[i]]

    for asg in grids(0, {}):
        if eval_refinement(lhs, asg) and not eval_refinement(rhs, asg):
            return False
    return True


# ---------------------------------------------------------------------------
# Random well-typed terms
# ---------------------------------------------------------------------------


# the range of the literals `random_term` draws, and how deep it nests beta
# redexes
INT_LO, INT_HI = -8, 8
MAX_LAM_DEPTH = 3


class GenConfig(NamedTuple):
    max_depth: int = 4


def random_term(
    rng: random.Random,
    config: GenConfig = GenConfig(),
    want: str = "int",
    depth: int = 0,
    scope: Optional[list[tuple[str, str]]] = None,
    lam_depth: int = 0,
    names: Optional[NameSource] = None,
) -> Term:
    """Sized generation over the grammar, weighted toward arithmetic."""
    scope = scope if scope is not None else []
    names = names if names is not None else NameSource("g")
    in_scope = [n for n, s in scope if s == want]

    def lit() -> Term:
        if want == "bool":
            return Const(BoolConst(rng.random() < 0.5))
        return Const(IntConst(rng.randint(INT_LO, INT_HI)))

    if depth >= config.max_depth:
        if in_scope and rng.random() < 0.5:
            return Var(rng.choice(in_scope))
        return lit()

    choices: list[tuple[float, str]] = [(2.0, "lit")]
    if in_scope:
        choices.append((2.0, "var"))
    if want == "int":
        choices += [(1.2, "neg"), (2.2, "add"), (2.0, "sub"), (1.2, "mul"), (1.6, "let")]
        if lam_depth < MAX_LAM_DEPTH:
            choices.append((0.9, "beta"))
        choices.append((0.5, "ite"))
    else:
        choices += [(2.0, "cmp")]

    total = sum(w for w, _ in choices)
    pick = rng.random() * total
    kind = choices[-1][1]
    for w, k in choices:
        if pick < w:
            kind = k
            break
        pick -= w

    def sub(w: str = "int", d: int = 1) -> Term:
        return random_term(rng, config, w, depth + d, scope, lam_depth, names)

    if kind == "lit":
        return lit()
    if kind == "var":
        return Var(rng.choice(in_scope))
    if kind == "neg":
        return App(Const(PrimConst("neg")), sub())
    if kind in ("add", "sub", "mul"):
        return App(App(Const(PrimConst(kind)), sub()), sub())
    if kind == "cmp":
        op = rng.choice(["le", "ge", "lt", "gt", "eq"])
        return App(App(Const(PrimConst(op)), sub()), sub())
    if kind == "ite":
        cond = random_term(rng, config, "bool", depth + 1, scope, lam_depth, names)
        return App(App(App(Const(PrimConst("ite")), cond), sub()), sub())
    if kind == "beta":
        binder = names.fresh()
        body = random_term(
            rng, config, "int", depth + 1, scope + [(binder, "int")], lam_depth + 1, names
        )
        return App(Lam(binder, body), sub())
    binder = names.fresh()
    bound = sub()
    body = random_term(
        rng, config, want, depth + 1, scope + [(binder, "int")], lam_depth, names
    )
    return Let(binder, bound, body)


# Candidates drawn per term asked for before `generate_corpus` gives up.
_MAX_ATTEMPTS_FACTOR = 30


def generate_corpus(
    n: int,
    qualifiers: Sequence[Formula],
    seed: int = 0,
    engine: Optional[ValidityEngine] = None,
) -> list[Term]:
    """Closed ANF terms accepted by inference under the qualifier set."""
    rng = random.Random(seed)
    inf = Inferencer(qualifiers, engine)
    out: list[Term] = []
    attempts = 0
    while len(out) < n and attempts < n * _MAX_ATTEMPTS_FACTOR:
        attempts += 1
        cand = normalize(random_term(rng))
        try:
            inf.infer(Env(), cand)
        except LiqError:
            continue
        out.append(cand)
    if len(out) < n:
        raise LiqError(f"generated only {len(out)} of {n} well-typed terms")
    return out


class SuiteReport(NamedTuple):
    trials: int = 0
    violations: int = 0
    stuck: int = 0
    timeouts: int = 0
    recheck_failures: int = 0
    reports: tuple[TrialReport, ...] = ()

    @property
    def ok(self) -> bool:
        """No trial failed, and every trial reached a value or got stuck
        within its fuel: a timed-out trial re-checks only the reducts the
        fuel reached, so it counts as a failure."""
        return not (self.violations or self.stuck or self.timeouts or self.recheck_failures)


def run_subject_reduction(
    trials: int,
    fuel: int = 100,
    qualifiers: Optional[Sequence[Formula]] = None,
    seed: int = 0,
    engine: Optional[ValidityEngine] = None,
) -> SuiteReport:
    """Generate a corpus and run preservation plus reflexive re-check on it."""
    if qualifiers is None:
        qualifiers = default_qualifiers()
    engine = engine if engine is not None else ValidityEngine()
    inf = Inferencer(qualifiers, engine)
    corpus = generate_corpus(trials, qualifiers, seed=seed, engine=engine)
    counts = dict.fromkeys(("trials", "violations", "stuck", "timeouts", "recheck_failures"), 0)
    reports = []
    for term in corpus:
        tr = subject_reduction_trial(term, qualifiers, fuel, inferencer=inf)
        counts["trials"] += 1
        reports.append(tr)
        if tr.stuck:
            counts["stuck"] += 1
        elif not tr.ok:
            counts["violations"] += 1
        if tr.timed_out:
            counts["timeouts"] += 1
        if tr.inferred is not None and not recheck(
            Env(), term, tr.inferred, qualifiers, inferencer=inf
        ):
            counts["recheck_failures"] += 1
    return SuiteReport(**counts, reports=tuple(reports))


def default_qualifiers() -> tuple[Formula, ...]:
    return (parse_qualifier("v >= 0"), parse_qualifier("v <= 0"))


# ---------------------------------------------------------------------------
# Oracle-vs-engine agreement on random base implications
# ---------------------------------------------------------------------------


def random_base_query(rng: random.Random) -> tuple[Env, list[BaseArm], list[BaseArm]]:
    """A random environment of int bindings plus intersections of comparison
    refinements, shaped like the queries subtyping generates."""
    from .syntax import INT, mono

    var_names = ["x", "y"][: rng.randint(0, 2)]

    def expr(vars_ok: list[str]) -> LogicTerm:
        roll = rng.random()
        if roll < 0.45 or not vars_ok:
            return LInt(rng.randint(-3, 3))
        if roll < 0.8:
            return LVar(rng.choice(vars_ok))
        lhs = LVar(rng.choice(vars_ok))
        rhs = LInt(rng.randint(-3, 3))
        return LAdd(lhs, rhs) if rng.random() < 0.5 else LSub(lhs, rhs)

    def cmp(vars_ok: list[str], with_nu: bool) -> Formula:
        op = rng.choice(["=", "<=", ">=", "<", ">"])
        lhs: LogicTerm = LVar(VALUE_VAR) if with_nu else expr(vars_ok)
        if not with_nu and rng.random() < 0.5:
            lhs = expr(vars_ok)
        return FAtom(op, lhs, expr(vars_ok))

    env = Env()
    avail: list[str] = []
    for name in var_names:
        arms = tuple(
            BaseArm(INT, cmp(avail, rng.random() < 0.8))
            for _ in range(rng.randint(1, 2))
        )
        env = env.extend(name, mono(LiquidType(arms)))
        avail.append(name)
    lhs_arms = [BaseArm(INT, cmp(avail, True)) for _ in range(rng.randint(1, 2))]
    rhs_arms = [BaseArm(INT, cmp(avail, True)) for _ in range(rng.randint(1, 2))]
    return env, lhs_arms, rhs_arms


# The coefficients and constants `random_hard_query` draws, and those of
# them that share the factor 2
_HARD_COEFS = (1, -1, 2, -2, 3, -3, 4)
_EVEN_COEFS = (2, -2, 4)


def random_hard_query(rng: random.Random) -> tuple[Env, list[BaseArm], list[BaseArm]]:
    """A random query from the parts of the decision procedure that
    `random_base_query` does not reach.
    - Sums have coefficients and constants in `_HARD_COEFS`, half of them all
      even, so that rows share factors and Fourier-Motzkin combines non-unit
      rows.
    - Seven draws in ten bind three ints `x`, `y`, `z` by comparisons, some
      of them non-unit equalities and some with a product of two variables,
      and up to three bools by `<=>`. One in twenty of these binds one bool
      more than `validity._MAX_BOOL_VARS`, each the last one's equal.
    - The other three in ten bind four ints by equalities over every name
      bound before, and assume one more: a system for Pugh's step.
    - In six draws in ten every comparison of the hypothesis holds at one
      point of [-2, 2] for each int: its constant is set so. The hypothesis
      is then satisfiable in the oracle's grid, so a Valid it refutes
      wrongly shows there whenever the conclusion fails at that point."""
    from .syntax import BOOL, INT, mono
    from .validity import _MAX_BOOL_VARS

    system = rng.random() < 0.3
    names = ("x", "y", "z", "w") if system else ("x", "y", "z")
    point = {x: rng.randint(-2, 2) for x in (*names, VALUE_VAR)} if rng.random() < 0.6 else None

    def linear(scope: list[str], dense: bool) -> LogicTerm:
        coefs = _EVEN_COEFS if rng.random() < 0.5 else _HARD_COEFS
        picked = scope if dense else rng.sample(scope, rng.randint(1, min(3, len(scope))))
        out: LogicTerm = LMul(LInt(rng.choice(coefs)), LVar(picked[0]))
        for x in picked[1:]:
            out = LAdd(out, LMul(LInt(rng.choice(coefs)), LVar(x)))
        if not dense and len(scope) > 1 and rng.random() < 0.15:
            out = LAdd(out, LMul(*(LVar(x) for x in rng.sample(scope, 2))))
        return out

    def atom(scope: list[str], dense: bool = False, at: Optional[str] = None) -> Formula:
        """An equality over every name of `scope` when `dense`, else a
        comparison; one that holds at `point`, with `v` the value of `at`,
        when `at` is given and there is a point."""
        op = "=" if dense or rng.random() < 0.15 else rng.choice(["<=", ">=", "<", ">"])
        coefs = _EVEN_COEFS if rng.random() < 0.5 else _HARD_COEFS
        lhs = linear(scope, dense)
        if at is None or point is None:
            return FAtom(op, lhs, LInt(rng.choice(coefs + (0,))))
        value = eval_refinement(lhs, {**point, VALUE_VAR: point[at]})
        slack = rng.randint(0, 2)
        k = {"=": value, "<=": value + slack, "<": value + 1 + slack,
             ">=": value - slack, ">": value - 1 - slack}[op]
        return FAtom(op, lhs, LInt(k))

    env = Env()
    ints: list[str] = []
    for name in names:
        if system:
            # a box around the point, or around a point of its own
            mid = point[name] if point is not None else rng.randint(-2, 2)
            refs = (FAtom(">=", LVar(VALUE_VAR), LInt(mid - 1)), FAtom("<=", LVar(VALUE_VAR), LInt(mid + 1)))
        else:
            refs = (atom(ints + [VALUE_VAR], at=name),)
        env = env.extend(name, mono(LiquidType(tuple(BaseArm(INT, r) for r in refs))))
        ints.append(name)
    scope = ints + [VALUE_VAR]
    if system:
        lhs = [BaseArm(INT, atom(scope, True, VALUE_VAR)) for _ in range(rng.randint(2, 4))]
        return env, lhs, [BaseArm(INT, atom(scope))]
    roll = rng.random()
    count = _MAX_BOOL_VARS + 1 if roll < 0.05 else 0 if roll < 0.45 else rng.randint(1, 3)
    bools: list[str] = []
    for i in range(count):
        ref = FBoolVar(bools[-1]) if bools and count > 3 else atom(ints)
        env = env.extend(f"p{i}", mono(LiquidType((BaseArm(BOOL, FIff(FBoolVar(VALUE_VAR), ref)),))))
        bools.append(f"p{i}")

    def refinement(at: Optional[str]) -> Formula:
        if bools and rng.random() < 0.25:
            return FIff(FBoolVar(rng.choice(bools)), atom(scope))
        return atom(scope, at=at)

    lhs_arms = [BaseArm(INT, refinement(VALUE_VAR)) for _ in range(rng.randint(1, 2))]
    rhs_arms = [BaseArm(INT, refinement(None)) for _ in range(rng.randint(1, 2))]
    return env, lhs_arms, rhs_arms


class AgreementReport(NamedTuple):
    queries: int = 0
    valid: int = 0
    invalid: int = 0
    unknown: int = 0
    unsound: int = 0  # engine said Valid, oracle has a countermodel
    bad_models: int = 0  # engine said Invalid, its model is not a countermodel


def run_oracle_agreement(
    n: int,
    bound: int = 4,
    seed: int = 0,
    engine: Optional[ValidityEngine] = None,
    draw: Callable[[random.Random], tuple[Env, list[BaseArm], list[BaseArm]]] = random_base_query,
) -> AgreementReport:
    """Check the built-in verdicts on `n` queries of the population `draw`:
    each Valid against finite enumeration, and each Invalid's model, which
    must make the hypothesis true and the conclusion false."""
    from .validity import Invalid, Valid

    rng = random.Random(seed)
    engine = engine if engine is not None else ValidityEngine()
    checker = SubtypeChecker(engine)
    counts = dict.fromkeys(AgreementReport._fields, 0)
    for _ in range(n):
        env, lhs_arms, rhs_arms = draw(rng)
        q = checker.base_subtype_query(env, lhs_arms, rhs_arms)
        verdict = engine.check(q)
        counts["queries"] += 1
        if isinstance(verdict, Valid):
            counts["valid"] += 1
            lhs = lhs_arms[0].ref if len(lhs_arms) == 1 else FAnd(tuple(a.ref for a in lhs_arms))
            rhs = rhs_arms[0].ref if len(rhs_arms) == 1 else FAnd(tuple(a.ref for a in rhs_arms))
            if not semantic_implication_oracle(env, lhs, rhs, bound):
                counts["unsound"] += 1
        elif isinstance(verdict, Invalid):
            counts["invalid"] += 1
            if not _countermodel_of(q, verdict.model):
                counts["bad_models"] += 1
        else:
            counts["unknown"] += 1
    return AgreementReport(**counts)


def _countermodel_of(q: ValidityQuery, model: Optional[tuple[tuple[str, object], ...]]) -> bool:
    """Whether the model gives every variable of q a value of its sort, makes
    q's hypothesis true and its conclusion false."""
    asg = dict(model or ())
    try:
        return eval_refinement(q.hypothesis, asg) and not eval_refinement(q.conclusion, asg)
    except (KeyError, OracleInapplicable):
        return False
