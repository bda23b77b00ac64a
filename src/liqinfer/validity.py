"""Validity checking for implication queries.

The built-in backend is conservative and two-sided honest: it answers Valid
only with a Fourier-Motzkin refutation of the negated query (sound over the
integers because a real refutation is), answers Invalid only with an
explicit verified integer countermodel, and says Unknown otherwise.  The
external backend speaks SMT-LIB v2 to any conformant solver process.

The built-in backend decides on a linear IR of rows, coefficient dicts over
program variables and opaque terms; it builds no formula while deciding. A
hypothesis is compiled once, memoized on the hash-consed formula: its atoms
become rows and its equalities are eliminated exactly, as in the Omega test
(Pugh, CACM 1992): divided by their gcd, and rewritten by Pugh's
symmetric-modulo step until a variable has a unit coefficient and is
substituted away. Each conclusion conjunct is negated straight into rows,
substituted, split into cases where booleans or disjunctions occur, and
refuted by Fourier-Motzkin with gcd tightening. The engine keeps its last
hypothesis alive, so the conclusions asked in a row against it share the
compiled form.

A query is made of refinements (`syntax.Formula`). A product with a side
that has no variables is scaling and stays linear. Any other product is the
uninterpreted ``times``: an opaque term to Fourier-Motzkin, so Valid stays
sound, and congruent to another with equal sides. The query still holds a
real product, so an Invalid model must give each such product the product
of its sides' values.

Inference asks only "Valid?" (`check(q, need_model=False)`): the built-in
walk stops at the first case Fourier-Motzkin does not refute and answers
NOT_PROVED. For the full verdict, that elimination also gives the case's
countermodel, by back-substitution. The answer is Unknown, with its reason,
where the bounds of a variable hold no integer (there are no dark shadows
or splintering), where the products cannot be completed, and where a bound
of the procedure trips.

The engine keeps no verdicts: the subtyping checker answers each repeated
judgement from its memos, one keyed by name and one up to renaming, before
it builds a query. Solver scripts and canonical forms come from one SMT-LIB
printer. A canonical form prints a formula with its variables renamed in
first-occurrence order, each canonical name carrying its sort, so that
alpha-variants print alike and `p <=> q` and `x = y` do not. The subtyping
memo up to renaming keys a base judgement by such forms (`canonical_form`),
and `canonical_key` prints a whole query so, for tests that name the
queries decided.
"""

from __future__ import annotations

import contextlib
import math
import os
import re
from itertools import product
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, NamedTuple, Optional, Union

from .logic import EmbeddingError
from .syntax import (
    FAnd,
    FAtom,
    FBoolVar,
    FFalse,
    FTrue,
    Formula,
    LAdd,
    LInt,
    LiqError,
    LMul,
    LNeg,
    LSub,
    LVar,
    LogicTerm,
    Value,
    is_scaling,
    symbols,
)


class SolverError(LiqError):
    """The external solver could not be launched or spoke garbage."""


class ValidityQuery(NamedTuple):
    hypothesis: Formula
    conclusion: Formula


class Valid(Value):
    """The query holds; one object, since the verdict carries nothing."""


class Invalid(NamedTuple):
    model: Optional[tuple[tuple[str, object], ...]] = None


class Unknown(NamedTuple):
    reason: str = ""


Verdict = Union[Valid, Invalid, Unknown]

VALID = Valid()

# The answer to a caller that reads only Valid when a query is not proved: it
# may be Invalid or Unknown, and telling which would take a countermodel.
NOT_PROVED = Unknown("not proved")

_MAX_BOOL_VARS = 12
_MAX_ALTERNATIVES = 64
_MAX_ROWS = 600
_MAX_COEF = 10**9


# ---------------------------------------------------------------------------
# The linear IR
# ---------------------------------------------------------------------------
#
# A linear form is a coefficient dict and a constant. Its variables are
# program variables, by name, and opaque terms: a product that is not a
# scaling is the uninterpreted ``times`` of its two sides and stands for
# itself, and since terms are hash-consed, one term is one variable. A row is
# a form read as `form <= 0`.

Lin = tuple[dict, int]
Row = Lin


class _PastBound(Exception):
    """A bound of the procedure was passed; the argument is the reason."""


def _conjuncts(f: Formula) -> list[Formula]:
    if isinstance(f, FTrue):
        return []
    if isinstance(f, FAnd):
        return [c for p in f.parts for c in _conjuncts(p)]
    return [f]


def _symbols(*formulas: Formula) -> tuple[dict[str, str], dict[str, int]]:
    """`symbols`, raising EmbeddingError on a variable used at both sorts."""
    sorts, ufs = symbols(*formulas)
    for n, s in sorts.items():
        if s == "both":
            raise EmbeddingError(f"variable {n!r} used at both sorts")
    return sorts, ufs


def _variables(sort: str, *formulas: Formula) -> set[str]:
    """The variables of the formulas of one sort, "int" or "bool"."""
    return {n for n, s in _symbols(*formulas)[0].items() if s == sort}


def _linear(t: LogicTerm, opaque: dict) -> Lin:
    """The linear form of t. Its opaque terms, and those nested in their
    arguments, are added to the keys of `opaque`."""
    if isinstance(t, LVar):
        return {t.name: 1}, 0
    if isinstance(t, LInt):
        return {}, t.value
    if isinstance(t, LNeg):
        c, k = _linear(t.arg, opaque)
        return {v: -a for v, a in c.items()}, -k
    if isinstance(t, (LAdd, LSub)):
        cl, kl = _linear(t.lhs, opaque)
        cr, kr = _linear(t.rhs, opaque)
        sign = 1 if isinstance(t, LAdd) else -1
        for v, a in cr.items():
            cl[v] = cl.get(v, 0) + sign * a
        return cl, kl + sign * kr
    if is_scaling(t):
        # the side without variables has no coefficients
        (cl, kl), (cr, kr) = _linear(t.lhs, opaque), _linear(t.rhs, opaque)
        scale, (c, k) = (kl, (cr, kr)) if not cl else (kr, (cl, kl))
        return {v: scale * a for v, a in c.items()}, scale * k
    opaque[t] = None
    _linear(t.lhs, opaque)
    _linear(t.rhs, opaque)
    return {t: 1}, 0


def _value(form: Lin, asg: dict) -> int:
    """The value of the form; a variable `asg` does not give is 0."""
    coeffs, k = form
    return sum(c * asg.get(v, 0) for v, c in coeffs.items()) + k


def _difference(a: FAtom, opaque: dict) -> Lin:
    """lhs - rhs of an atom, as a linear form."""
    cl, kl = _linear(a.lhs, opaque)
    cr, kr = _linear(a.rhs, opaque)
    for v, c in cr.items():
        cl[v] = cl.get(v, 0) - c
    return {v: c for v, c in cl.items() if c}, kl - kr


# With d = lhs - rhs, an atom `lhs op rhs` holds exactly when every row
# sign*d + offset <= 0 of _HOLDS[op] holds, and fails exactly when one row of
# _FAILS[op] holds. Each entry is (sign, offset).
_HOLDS = {"<=": ((1, 0),), "<": ((1, 1),), ">=": ((-1, 0),), ">": ((-1, 1),), "=": ((1, 0), (-1, 0))}
_FAILS = {"<=": ((-1, 1),), "<": ((-1, 0),), ">=": ((1, 1),), ">": ((1, 0),), "=": ((1, 1), (-1, 1))}


def _rows(d: Lin, signs: tuple[tuple[int, int], ...]) -> list[Row]:
    coeffs, k = d
    return [(coeffs if s == 1 else {v: -c for v, c in coeffs.items()}, s * k + offset)
            for s, offset in signs]


def _substitute(form: Lin, subst: dict) -> Lin:
    """The form with each variable bound in `subst` replaced by its value."""
    coeffs, k = form
    if subst.keys().isdisjoint(coeffs):
        return form
    out: dict = {}
    for v, c in coeffs.items():
        value = subst.get(v)
        if value is None:
            out[v] = out.get(v, 0) + c
        else:
            for w, a in value[0].items():
                out[w] = out.get(w, 0) + c * a
            k += c * value[1]
    out = {v: c for v, c in out.items() if c}
    if any(abs(c) > _MAX_COEF for c in out.values()):
        raise _PastBound("coefficient overflow")
    return out, k


def _mod_hat(a: int, m: int) -> int:
    """Pugh's symmetric modulo: a - m * floor(a / m + 1/2)."""
    return a - m * ((2 * a + m) // (2 * m))


def _solve(eq: Lin, subst: dict) -> bool:
    """Adds the equality `eq = 0`, divided by its gcd, to `subst`, whose
    values mention no bound variable; False when it has no integer solution.
    Its first variable of least coefficient is bound, and replaced in the
    values bound before it: to the rest of the equality when the coefficient
    is a unit, and otherwise by Pugh's step, which leaves an equality of
    smaller coefficients to solve. Pugh's variable is the pair `("$", var)`,
    never a model's name."""
    coeffs, k = _substitute(eq, subst)
    while coeffs:
        g = math.gcd(*coeffs.values())
        if k % g:
            return False
        if g > 1:
            coeffs, k = {v: c // g for v, c in coeffs.items()}, k // g
        var = min(coeffs, key=lambda v: abs(coeffs[v]))
        a = coeffs[var]
        if abs(a) == 1:
            value = ({v: -a * c for v, c in coeffs.items() if v != var}, -a * k)
        else:
            # m * sigma = sum((c mod^ m) * v) + (k mod^ m), where a mod^ m is
            # -sign(a); so var is a unit of it
            m, s = abs(a) + 1, 1 if a > 0 else -1
            value = ({v: s * _mod_hat(c, m) for v, c in coeffs.items() if v != var and _mod_hat(c, m)},
                     s * _mod_hat(k, m))
            value[0]["$", var] = -s * m
        bind = {var: value}
        for v, e in subst.items():
            if var in e[0]:
                subst[v] = _substitute(e, bind)
        subst[var] = value
        if abs(a) == 1:
            return True
        coeffs, k = _substitute((coeffs, k), bind)
    return k == 0


def _congruences(terms: list, subst: dict) -> list[tuple]:
    """Pairs of opaque terms equal by congruence, given the equalities in
    `subst`: products whose sides have equal forms.
    Each pair found is bound in a copy of `subst`, since it can make further
    pairs congruent."""
    subst = dict(subst)
    pairs: list[tuple] = []

    def form(t: LogicTerm) -> Lin:
        return _substitute(_linear(t, {}), subst)

    try:
        changed = True
        while changed:
            changed = False
            for i, t in enumerate(terms):
                for u in terms[i + 1:]:
                    if (t, u) in pairs or form(t) == form(u):
                        continue
                    if form(t.lhs) == form(u.lhs) and form(t.rhs) == form(u.rhs):
                        pairs.append((t, u))
                        _solve(({t: 1, u: -1}, 0), subst)
                        changed = True
    except _PastBound:
        pass  # the pairs found so far are sound
    return pairs


# ---------------------------------------------------------------------------
# Compiled hypotheses
# ---------------------------------------------------------------------------


_NO_TERMS: Mapping = MappingProxyType({})


class _Hypothesis:
    """A hypothesis compiled once, for every conclusion asked against it.

    Its linear atoms become rows. Its equalities, and those that congruence
    adds, are eliminated by `_solve` into `subst`, and `rows` holds the other
    rows after substitution (None when a coefficient overflowed). Its other
    literals (`literals`, with boolean variables `bools`) are split into
    cases per query. `false` when a literal or an equality is false, which
    refutes every case.
    It lives as long as the formula, so it keeps no empty container."""

    __slots__ = ("literals", "bools", "opaque", "subst", "rows", "false")

    def __init__(self, literals: list[Formula]) -> None:
        others: list[Formula] = []
        opaque: dict = {}
        self.false = False
        eqs: list[Lin] = []
        rows: list[Row] = []
        for lit in literals:
            if isinstance(lit, FAtom):
                d = _difference(lit, opaque)
                if lit.op == "=":
                    eqs.append(d)
                else:
                    rows += _rows(d, _HOLDS[lit.op])
            elif isinstance(lit, FFalse):
                self.false = True
            else:
                others.append(lit)
        self.literals, self.opaque = tuple(others), opaque or _NO_TERMS
        self.bools = frozenset(_variables("bool", *others))
        subst: dict = {}
        try:
            self.false |= not all([_solve(d, subst) for d in eqs])
            for t, u in _congruences(list(opaque), subst):
                self.false |= not _solve(({t: 1, u: -1}, 0), subst)
            self.rows: Optional[list[Row]] = [_substitute(r, subst) for r in rows]
        except _PastBound:
            subst, self.rows = {}, None
        self.subst = subst or _NO_TERMS

    def system(self, extra: list[Row]) -> list[Row]:
        """The rows of the hypothesis with `extra` added, all under the
        substitution; _PastBound when a coefficient overflows."""
        if self.rows is None:
            raise _PastBound("coefficient overflow")
        return self.rows + [_substitute(r, self.subst) for r in extra]


def _compile(f: Formula) -> Optional[_Hypothesis]:
    """The hypothesis f compiled, memoized on f; None outside the fragment
    (a variable at both sorts)."""
    memo = f.memo
    if "ir" not in memo:
        try:
            memo["ir"] = _Hypothesis(_conjuncts(f))
        except EmbeddingError:
            memo["ir"] = None
    return memo["ir"]


# ---------------------------------------------------------------------------
# Boolean case splitting
# ---------------------------------------------------------------------------


def _reduce(f: Formula, positive: bool, asg: dict[str, bool], opaque: dict) -> Optional[list[list[Row]]]:
    """Alternatives of row lists equivalent to f, or to its negation unless
    `positive`, under a boolean assignment; None when that is false there."""
    if isinstance(f, FAtom):
        d = _difference(f, opaque)
        if positive:
            return [_rows(d, _HOLDS[f.op])]
        return [[row] for row in _rows(d, _FAILS[f.op])]
    if isinstance(f, (FBoolVar, FTrue, FFalse)):
        value = asg[f.name] if isinstance(f, FBoolVar) else isinstance(f, FTrue)
        return [[]] if value == positive else None
    if not isinstance(f, FAnd):  # `<=>`
        # (l and r) or (not l and not r); negated, r takes the other polarity
        out: list[list[Row]] = []
        for pol in (True, False):
            lhs = _reduce(f.lhs, pol, asg, opaque)
            rhs = _reduce(f.rhs, pol == positive, asg, opaque)
            if lhs is not None and rhs is not None:
                out += [a + b for a in lhs for b in rhs]
        return out or None
    if not positive:
        out = []
        for p in f.parts:
            out += _reduce(p, False, asg, opaque) or ()
        return out or None
    alts: list[list[Row]] = [[]]
    for p in f.parts:
        inner = _reduce(p, True, asg, opaque)
        if inner is None:
            return None
        alts = [a + b for a in alts for b in inner]
        if len(alts) > _MAX_ALTERNATIVES:
            raise _PastBound("alternative bound exceeded")
    return alts


def _tighten(row: Row) -> Row:
    coeffs, k = row
    g = math.gcd(*coeffs.values())
    if g <= 1:
        return row
    # sum(a*x) <= -k  ==>  sum((a/g)*x) <= floor(-k/g), in integers: a
    # float quotient rounds past 2**53 and overflows past 10**308
    return {v: c // g for v, c in coeffs.items()}, -(-k // g)


def _fm_refute(rows: list[Row]) -> Optional[list]:
    """None when Fourier-Motzkin refutes the rows over the reals, with each
    row tightened to the integers it admits (so over the integers too).
    Otherwise the elimination steps `(var, pos, neg)`, first to last, with
    the rows that bound `var` from above and below. _PastBound when a
    coefficient passes _MAX_COEF or a step's rows pass _MAX_ROWS."""
    rows = [_tighten(r) for r in rows]
    steps: list = []
    while True:
        pending = []
        for coeffs, k in rows:
            if not coeffs:
                if k > 0:
                    return None
            else:
                pending.append((coeffs, k))
        if not pending:
            return steps
        # pick the variable with the fewest pos*neg combinations, the first
        # such in order of occurrence: no choice reads a name, so a renaming
        # of the query's variables changes no verdict
        occs: dict = {}
        for coeffs, _ in pending:
            for v, c in coeffs.items():
                p, n = occs.get(v, (0, 0))
                occs[v] = (p + (c > 0), n + (c < 0))
        var = min(occs, key=lambda v: occs[v][0] * occs[v][1])
        pos = [r for r in pending if r[0].get(var, 0) > 0]
        neg = [r for r in pending if r[0].get(var, 0) < 0]
        rest = [r for r in pending if r[0].get(var, 0) == 0]
        if occs[var][0] * occs[var][1] + len(rest) > _MAX_ROWS:
            raise _PastBound("row bound exceeded")
        steps.append((var, pos, neg))
        new_rows = list(rest)
        for pc, pk in pos:
            for nc, nk in neg:
                a, b = pc[var], -nc[var]
                comb = {v: b * c for v, c in pc.items()}
                for v, c in nc.items():
                    comb[v] = comb.get(v, 0) + a * c
                comb = {v: c for v, c in comb.items() if c}  # var cancels
                kk = b * pk + a * nk
                if abs(kk) > _MAX_COEF or any(abs(c) > _MAX_COEF for c in comb.values()):
                    raise _PastBound("coefficient overflow")
                new_rows.append(_tighten((comb, kk)))
        rows = new_rows


# ---------------------------------------------------------------------------
# Countermodels
# ---------------------------------------------------------------------------


def _back_substitute(steps: list) -> Optional[dict]:
    """Values for the variables the steps eliminate, last eliminated first:
    each takes the integer nearest 0 between the bounds its rows give under
    the values already chosen (a variable never eliminated is 0), which the
    later steps keep apart over the reals. None when they hold no integer."""
    asg: dict = {}
    for var, pos, neg in reversed(steps):
        # a row c*var + r <= 0, with r its value while var is unset, bounds
        # var by -r/c: from above when c > 0, from below when c < 0
        hi = min((-_value(row, asg) // row[0][var] for row in pos), default=math.inf)
        lo = max((-(_value(row, asg) // row[0][var]) for row in neg), default=-math.inf)
        if lo > hi:
            return None
        asg[var] = max(lo, min(hi, 0))
    return asg


def _countermodel(rows: list, steps: list, hyp: _Hypothesis, opaque: dict, ints: set) -> Union[dict, str]:
    """The values of the integer variables `ints` in a model of the rows,
    which are under `hyp.subst`, or the reason there is none. The free
    variables take their values from back-substitution. Then each bound one
    takes its binding's value, and each product of `hyp` and `opaque` the
    product of its sides, until the values settle. Where that breaks the
    case, each free variable on a side of a product is tried at values that
    give the product its first value."""
    start = _back_substitute(steps)
    if start is None:
        return "no integer between the bounds"
    subst = hyp.subst
    sides = {t: (_linear(t.lhs, {}), _linear(t.rhs, {})) for t in {**hyp.opaque, **opaque}}
    defined = [*subst, *(t for t in sides if t not in subst)]

    def complete(free: dict) -> Optional[dict]:
        asg = dict(free)
        for _ in defined:  # each pass settles one more link of a chain of definitions
            for v in defined:
                asg[v] = _value(subst[v], asg) if v in subst else math.prod(_value(f, asg) for f in sides[v])
        holds = all(_value(row, asg) <= 0 for row in rows)
        settled = all(asg[v] == _value(f, asg) for v, f in subst.items()) and all(
            asg[t] == math.prod(_value(f, asg) for f in fs) for t, fs in sides.items())
        return {v: asg.get(v, 0) for v in ints} if holds and settled else None

    found = complete(start)
    if found is not None:
        return found
    # the first model, with each product a variable of its own
    first = {**start, **{v: _value(form, start) for v, form in subst.items()}}
    tries: set = set()
    for t, (lhs, rhs) in sides.items():
        c = first.get(t, 0)
        for side, other in ((lhs, rhs), (rhs, lhs)):
            for x, a in side[0].items():
                if x in subst or x in sides:
                    continue
                if x in other[0]:  # a square: a side just past the root of c
                    r = math.isqrt(abs(c))
                    targets: tuple = (r, r + 1, -r, -r - 1)
                else:
                    s = _value(other, first)
                    targets = (c // s, -(-c // s)) if s else ()
                rest = _value(side, first) - a * first.get(x, 0)
                tries.update((str(x), (w - rest) // a, x) for w in targets)
    for _, value, x in sorted(tries):
        found = complete({**start, x: value})
        if found is not None:
            return found
    return "products not completed"


# ---------------------------------------------------------------------------
# The built-in decision procedure
# ---------------------------------------------------------------------------


def builtin_decide(q: ValidityQuery, need_model: bool = True) -> Verdict:
    """Valid, Invalid with a countermodel, or Unknown. With need_model=False
    the caller reads only Valid: the walk stops at the first case it cannot
    refute and answers NOT_PROVED without building a countermodel."""
    hyp = _compile(q.hypothesis)
    if hyp is None:
        return Unknown("hypothesis outside the fragment")
    if hyp.false:
        return VALID
    try:
        ints = _variables("int", q.hypothesis, q.conclusion) if need_model else None
        unknown: Optional[str] = None
        for part in _conjuncts(q.conclusion):
            res = _implies(hyp, part, ints)
            if isinstance(res, Invalid) or res == NOT_PROVED:
                return res
            if isinstance(res, Unknown):
                unknown = res.reason
    except EmbeddingError as e:
        return Unknown(str(e))
    return Unknown(unknown) if unknown is not None else VALID


def _implies(hyp: _Hypothesis, concl: Formula, ints: Optional[set]) -> Verdict:
    """Whether the hypothesis implies one conclusion conjunct: each case of
    the hypothesis with the negated conjunct, one per assignment to their
    boolean variables and alternative of their disjunctions, must be
    refuted. A case that is not gives a countermodel over the integer
    variables `ints`; without them, NOT_PROVED at the first such case."""
    # an atom holds no boolean, as the hypothesis's atoms do not
    names = hyp.bools if isinstance(concl, FAtom) else hyp.bools | _variables("bool", concl)
    if len(names) > _MAX_BOOL_VARS:
        return NOT_PROVED if ints is None else Unknown("bounded reasoning exhausted")
    ordered = sorted(names)
    unknown: Optional[str] = None
    for bits in product((False, True), repeat=len(ordered)):
        asg = dict(zip(ordered, bits))
        opaque: dict = {}
        try:
            alts = _reduce(concl, False, asg, opaque)
            for lit in hyp.literals:
                inner = None if alts is None else _reduce(lit, True, asg, opaque)
                if inner is None:
                    alts = None
                    break
                alts = [a + b for a in alts for b in inner]
                if len(alts) > _MAX_ALTERNATIVES:
                    raise _PastBound("alternative bound exceeded")
        except _PastBound as e:
            if ints is None:
                return NOT_PROVED
            unknown = str(e)
            continue
        if alts is None:
            continue  # the case is false under this assignment
        congruent: list[Row] = []
        if not hyp.opaque.keys() >= opaque.keys():
            for t, u in _congruences(list({**hyp.opaque, **opaque}), hyp.subst):
                congruent += _rows(({t: 1, u: -1}, 0), _HOLDS["="])
        for extra in alts:
            try:
                rows = hyp.system(extra + congruent)
                steps = _fm_refute(rows)
                if steps is None:
                    continue  # refuted
                found = None if ints is None else _countermodel(rows, steps, hyp, opaque, ints)
            except _PastBound as e:
                found = str(e)
            if ints is None:
                return NOT_PROVED
            if not isinstance(found, str):
                return Invalid(tuple(sorted({**asg, **found}.items())))
            unknown = found
    return Unknown(unknown) if unknown is not None else VALID


# ---------------------------------------------------------------------------
# SMT-LIB emission and the external backend
# ---------------------------------------------------------------------------


def _sanitize_names(names: Iterable[str]) -> dict[str, str]:
    out: dict[str, str] = {}
    taken: set[str] = set()
    for n in sorted(names):
        cand = re.sub(r"[^A-Za-z0-9_]", "_", n)
        if not cand or cand[0].isdigit():
            cand = "x_" + cand
        base = cand
        i = 0
        while cand in taken:
            cand = f"{base}_{i}"
            i += 1
        taken.add(cand)
        out[n] = cand
    return out


# The SMT-LIB printer, for solver scripts and canonical forms alike. It asks
# `name(n, sort)` for the printed name of each variable, with sort "int" or
# "bool", and of each uninterpreted symbol, with sort "fn".
Namer = Callable[[str, str], str]


def _smt_term(t: LogicTerm, name: Namer) -> str:
    if isinstance(t, LInt):
        return str(t.value) if t.value >= 0 else f"(- {-t.value})"
    if isinstance(t, LVar):
        return name(t.name, "int")
    if isinstance(t, LNeg):
        return f"(- {_smt_term(t.arg, name)})"
    tag = {LAdd: "+", LSub: "-", LMul: "*"}[type(t)]
    if isinstance(t, LMul) and not is_scaling(t):
        tag = name("times", "fn")
    return f"({tag} {_smt_term(t.lhs, name)} {_smt_term(t.rhs, name)})"


def _smt_formula(f: Formula, name: Namer) -> str:
    if isinstance(f, FTrue):
        return "true"
    if isinstance(f, FFalse):
        return "false"
    if isinstance(f, FAtom):
        return f"({f.op} {_smt_term(f.lhs, name)} {_smt_term(f.rhs, name)})"
    if isinstance(f, FBoolVar):
        return name(f.name, "bool")
    if isinstance(f, FAnd):
        inner = " ".join(_smt_formula(p, name) for p in f.parts)
        return f"(and {inner})" if f.parts else "true"
    return f"(= {_smt_formula(f.lhs, name)} {_smt_formula(f.rhs, name)})"


def emit_smtlib(q: ValidityQuery, nonlinear: bool = False, get_model: bool = False) -> str:
    """SMT-LIB v2 script asserting hypothesis and negated conclusion; an
    unsat answer means the query is valid. A product that is not a scaling
    is written as the uninterpreted ``times``; `nonlinear` prints it as a
    real product, `*` in QF_UFNIA, and declares no ``times``."""
    sorts, ufs = _symbols(q.hypothesis, q.conclusion)
    if nonlinear:
        ufs.pop("times", None)
    uf_keys = {u: (u if u not in sorts else f"{u}!fn") for u in ufs}
    all_names = _sanitize_names(list(sorts) + list(uf_keys.values()))
    names = {n: all_names[n] for n in sorts}
    lines = [f"(set-logic {'QF_UFNIA' if nonlinear else 'QF_UFLIA'})"]
    for v in sorted(sorts):
        smt_sort = "Bool" if sorts[v] == "bool" else "Int"
        lines.append(f"(declare-const {names[v]} {smt_sort})")
    fns = {u: all_names[uf_keys[u]] for u in ufs}
    if nonlinear:
        fns["times"] = "*"
    for u, arity in sorted(ufs.items()):
        args = " ".join(["Int"] * arity)
        lines.append(f"(declare-fun {fns[u]} ({args}) Int)")

    def name(n: str, sort: str) -> str:
        return fns[n] if sort == "fn" else names[n]

    lines.append(f"(assert {_smt_formula(q.hypothesis, name)})")
    lines.append(f"(assert (not {_smt_formula(q.conclusion, name)}))")
    lines.append("(check-sat)")
    if get_model:
        lines.append("(get-model)")
    return "\n".join(lines) + "\n"


def run_solver(cmd: str, script: str, timeout: float) -> str:
    """Run a solver command on an SMT-LIB script; the template may contain
    {file}, otherwise the script is piped through stdin."""
    # imported here: only the external backend runs a solver
    import shlex
    import subprocess
    import tempfile

    path: Optional[str] = None
    try:
        if "{file}" in cmd:
            with tempfile.NamedTemporaryFile("w", suffix=".smt2", delete=False) as fh:
                fh.write(script)
                path = fh.name
            argv = [a.replace("{file}", path) for a in shlex.split(cmd)]
            proc = subprocess.run(
                argv, capture_output=True, text=True, timeout=timeout
            )
        else:
            proc = subprocess.run(
                shlex.split(cmd),
                input=script,
                capture_output=True,
                text=True,
                timeout=timeout,
            )
    except subprocess.TimeoutExpired as e:
        raise TimeoutError(str(e)) from e
    except (OSError, ValueError, OverflowError) as e:  # a timeout past what the OS can wait
        raise SolverError(f"cannot launch solver {cmd!r}: {e}") from e
    finally:
        if path is not None:
            with contextlib.suppress(OSError):
                os.unlink(path)
    return proc.stdout


_MODEL_RE = re.compile(
    r"\(define-fun\s+(\S+)\s+\(\)\s+(Int|Bool)\s+([^()]+|\(-\s*\d+\s*\))\s*\)"
)


def parse_model(output: str) -> dict[str, object]:
    model: dict[str, object] = {}
    for name, sort, raw in _MODEL_RE.findall(output):
        raw = raw.strip()
        if sort == "Bool":
            model[name] = raw == "true"
        else:
            m = re.match(r"\(-\s*(\d+)\s*\)", raw)
            model[name] = -int(m.group(1)) if m else int(raw)
    return model


# ---------------------------------------------------------------------------
# Canonical forms and the engine
# ---------------------------------------------------------------------------


class _Canonical(dict):
    """The renaming of a query's variables to canonical names, given in
    first-occurrence order. A canonical name carries the sort it is first
    printed at, since `p <=> q` and `x = y` print alike in SMT-LIB."""

    def name(self, n: str, sort: str) -> str:
        if sort == "fn":
            return n
        c = self.get(n)
        if c is None:
            c = self[n] = f"{sort[0]}{len(self)}"
        return c


def canonical_form(f: Formula) -> tuple[str, Mapping[str, str]]:
    """f printed by the SMT-LIB printer under `_Canonical` names, and that
    renaming from f's names to the canonical ones, in first-occurrence
    order; memoized on f. A query's key starts with its hypothesis's form,
    and the subtyping memo keys a judgement by the forms of its pieces."""
    memo = f.memo
    form = memo.get("key")
    if form is None:
        renaming = _Canonical()
        form = memo["key"] = (_smt_formula(f, renaming.name), renaming)
    return form


def canonical_key(q: ValidityQuery) -> str:
    """The query printed by the SMT-LIB printer under `_Canonical` names:
    one string for a query and all its alpha-variants, by which tests name
    the queries decided."""
    prefix, renaming = canonical_form(q.hypothesis)
    return f"{prefix} |- {_smt_formula(q.conclusion, _Canonical(renaming).name)}"


class ValidityEngine:
    """Dispatches validity queries to the built-in checker and/or an
    external SMT-LIB solver. It keeps no verdicts: the subtyping checker's
    judgement memos answer repeated queries. An engine serves one thread:
    its counters take no lock."""

    def __init__(
        self,
        backend: str = "builtin",
        smt_cmd: Optional[str] = None,
        timeout: float = 5.0,
        nonlinear_external: bool = False,
    ) -> None:
        if backend not in ("builtin", "external", "both"):
            raise ValueError(f"unknown backend {backend!r}")
        self.backend = backend
        self.smt_cmd = smt_cmd
        self.timeout = timeout
        self.nonlinear_external = nonlinear_external
        # the hypothesis of the last query, kept alive so that the queries
        # asked in a row against one hypothesis (a template's qualifiers)
        # share its compiled form, which is memoized on it
        self._hypothesis: Optional[Formula] = None
        self.stats = {"queries": 0, "external_calls": 0}

    def check(self, q: ValidityQuery, need_model: bool = True) -> Verdict:
        """The verdict on q. A caller that reads only Valid passes
        need_model=False and may get NOT_PROVED for Invalid or Unknown; the
        external backends ignore the flag."""
        self._hypothesis = q.hypothesis
        self.stats["queries"] += 1
        return self._decide(q, need_model)

    def _decide(self, q: ValidityQuery, need_model: bool) -> Verdict:
        if self.backend == "builtin":
            return builtin_decide(q, need_model=need_model)
        if self.backend == "external":
            return self.check_external(q)
        verdict = builtin_decide(q)
        if isinstance(verdict, Unknown) and self.smt_cmd:
            return self.check_external(q)
        return verdict

    def check_external(self, q: ValidityQuery) -> Verdict:
        """One solver process per query: the script asks for a model right
        after the answer, and a `sat` answer reads its model from the same
        output."""
        if not self.smt_cmd:
            return Unknown("no external solver configured")
        script = emit_smtlib(q, nonlinear=self.nonlinear_external, get_model=True)
        self.stats["external_calls"] += 1
        try:
            out = run_solver(self.smt_cmd, script, self.timeout)
        except TimeoutError:
            return Unknown("solver timeout")
        except SolverError:
            return Unknown("solver launch failure")
        answer = ""
        for line in out.splitlines():
            line = line.strip()
            if line in ("sat", "unsat", "unknown"):
                answer = line
                break
        if answer == "unsat":
            return VALID
        if answer == "sat":
            model = parse_model(out)
            return Invalid(tuple(sorted(model.items())) if model else None)
        return Unknown(f"solver answered {answer or 'nothing'}")

    def cache_size(self) -> int:
        """0: the engine keeps no verdicts. Kept for the benchmark's tracer,
        which reads it after every program."""
        return 0

