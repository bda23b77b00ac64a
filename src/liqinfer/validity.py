"""Validity checking for implication queries.

The built-in backend is conservative and two-sided honest: it answers Valid
only with a Fourier-Motzkin refutation of the negated query (sound over the
integers because a real refutation is), answers Invalid only with an
explicit verified integer countermodel, and says Unknown otherwise.  The
external backend speaks SMT-LIB v2 to any conformant solver process.

Inference asks only "Valid?" (`check(q, need_model=False)`): the built-in
walk stops at the first case Fourier-Motzkin does not refute and answers
NOT_PROVED, with no countermodel search.  The bounded model search runs only
for callers that want the full verdict, such as the `check-metatheory`
oracle agreement.
"""

from __future__ import annotations

import contextlib
import math
import os
import re
import shlex
import subprocess
import tempfile
import threading
import zlib
from dataclasses import dataclass
from itertools import product
from typing import Iterable, Optional, Union

from .logic import (
    FAnd,
    FAtom,
    FBoolVar,
    FFalse,
    FIff,
    FImplies,
    FNot,
    FTrue,
    Formula,
    LAdd,
    LApp,
    LInt,
    LMul,
    LNeg,
    LSub,
    LVar,
    LogicTerm,
    formula_ufs,
    formula_vars,
    term_vars,
)
from .syntax import LiqError


class SolverError(LiqError):
    """The external solver could not be launched or spoke garbage."""


@dataclass(frozen=True)
class ValidityQuery:
    hypothesis: Formula
    conclusion: Formula


@dataclass(frozen=True)
class Valid:
    pass


@dataclass(frozen=True)
class Invalid:
    model: Optional[tuple[tuple[str, object], ...]] = None


@dataclass(frozen=True)
class Unknown:
    reason: str = ""


Verdict = Union[Valid, Invalid, Unknown]

# The answer to a caller that reads only Valid when a query is not proved: it
# may be Invalid or Unknown, and telling which would take a model search.
NOT_PROVED = Unknown("not proved")

_MAX_BOOL_VARS = 12
_MAX_ALTERNATIVES = 64
_MAX_ROWS = 600
_MAX_COEF = 10**9
_MAX_MODEL_EVALS = 60_000


# ---------------------------------------------------------------------------
# Formula flattening and negation
# ---------------------------------------------------------------------------


def _flatten_conj(f: Formula) -> Optional[list[Formula]]:
    if isinstance(f, FTrue):
        return []
    if isinstance(f, FAnd):
        out: list[Formula] = []
        for p in f.parts:
            inner = _flatten_conj(p)
            if inner is None:
                return None
            out.extend(inner)
        return out
    if isinstance(f, (FAtom, FBoolVar, FIff, FFalse, FNot)):
        return [f]
    return None  # implications and the like fall outside the fragment


def _negate(f: Formula) -> Optional[list[list[Formula]]]:
    """Branches whose disjunction is equivalent to the negation of f."""
    if isinstance(f, FTrue):
        return []
    if isinstance(f, FFalse):
        return [[]]
    if isinstance(f, FAtom):
        l, r = f.lhs, f.rhs
        if f.op == "=":
            return [[FAtom("<=", l, LSub(r, LInt(1)))], [FAtom(">=", l, LAdd(r, LInt(1)))]]
        flip = {"<=": FAtom(">=", l, LAdd(r, LInt(1))),
                ">=": FAtom("<=", l, LSub(r, LInt(1))),
                "<": FAtom(">=", l, r),
                ">": FAtom("<=", l, r)}
        return [[flip[f.op]]]
    if isinstance(f, FBoolVar):
        return [[FNot(f)]]
    if isinstance(f, FNot):
        return [[f.arg]]
    if isinstance(f, FIff):
        neg_r = _negate(f.rhs)
        neg_l = _negate(f.lhs)
        if neg_r is None or neg_l is None:
            return None
        branches = [[f.lhs] + nb for nb in neg_r]
        branches += [nb + [f.rhs] for nb in neg_l]
        return branches
    if isinstance(f, FAnd):
        out: list[list[Formula]] = []
        for p in f.parts:
            inner = _negate(p)
            if inner is None:
                return None
            out.extend(inner)
        return out
    return None


# ---------------------------------------------------------------------------
# Boolean case splitting
# ---------------------------------------------------------------------------


def _bool_names(f: Formula, acc: set[str]) -> None:
    if isinstance(f, FBoolVar):
        acc.add(f.name)
    elif isinstance(f, FNot):
        _bool_names(f.arg, acc)
    elif isinstance(f, FAnd):
        for p in f.parts:
            _bool_names(p, acc)
    elif isinstance(f, (FIff, FImplies)):
        _bool_names(f.lhs, acc)
        _bool_names(f.rhs, acc)


class _OutsideFragment(Exception):
    pass


def _known(f: Formula, asg: dict[str, bool]) -> Optional[bool]:
    if isinstance(f, FTrue):
        return True
    if isinstance(f, FFalse):
        return False
    if isinstance(f, FBoolVar):
        return asg[f.name]
    if isinstance(f, FNot):
        inner = _known(f.arg, asg)
        return None if inner is None else not inner
    return None


def _reduce(f: Formula, asg: dict[str, bool]) -> Optional[list[list[FAtom]]]:
    """Alternatives of linear-atom lists equivalent to f under a boolean
    assignment; None means f is false there."""
    val = _known(f, asg)
    if val is True:
        return [[]]
    if val is False:
        return None
    if isinstance(f, FAtom):
        return [[f]]
    if isinstance(f, FNot):
        if isinstance(f.arg, FAtom):
            branches = _negate(f.arg)
            assert branches is not None
            return [list(b) for b in branches]  # type: ignore[arg-type]
        raise _OutsideFragment()
    if isinstance(f, FIff):
        lval = _known(f.lhs, asg)
        rval = _known(f.rhs, asg)
        if lval is not None:
            return _reduce(f.rhs, asg) if lval else _reduce(FNot(f.rhs), asg)
        if rval is not None:
            return _reduce(f.lhs, asg) if rval else _reduce(FNot(f.lhs), asg)
        pos_l, pos_r = _reduce(f.lhs, asg), _reduce(f.rhs, asg)
        neg_l, neg_r = _reduce(FNot(f.lhs), asg), _reduce(FNot(f.rhs), asg)
        out: list[list[FAtom]] = []
        if pos_l is not None and pos_r is not None:
            out.extend([a + b for a in pos_l for b in pos_r])
        if neg_l is not None and neg_r is not None:
            out.extend([a + b for a in neg_l for b in neg_r])
        return out or None
    if isinstance(f, FAnd):
        alts: list[list[FAtom]] = [[]]
        for p in f.parts:
            inner = _reduce(p, asg)
            if inner is None:
                return None
            alts = [a + b for a in alts for b in inner]
            if len(alts) > _MAX_ALTERNATIVES:
                raise _OutsideFragment()
        return alts
    raise _OutsideFragment()


# ---------------------------------------------------------------------------
# Congruence closure over uninterpreted subterms, then linearization
# ---------------------------------------------------------------------------


class _Linearizer:
    """Maps maximal uninterpreted subterms to canonical variables, merging
    congruent terms first."""

    def __init__(self, atoms: list[FAtom]) -> None:
        self.opaque: list[LogicTerm] = []
        self.parent: dict[int, int] = {}
        self._collect_atoms(atoms)
        self._close(atoms)

    def _collect(self, t: LogicTerm) -> None:
        if isinstance(t, LApp) or (isinstance(t, LMul) and not self._linear_mul(t)):
            if t not in self.opaque:
                self.opaque.append(t)
            if isinstance(t, LApp):
                for a in t.args:
                    self._collect(a)
            else:
                self._collect(t.lhs)
                self._collect(t.rhs)
        elif isinstance(t, LNeg):
            self._collect(t.arg)
        elif isinstance(t, (LAdd, LSub, LMul)):
            self._collect(t.lhs)
            self._collect(t.rhs)

    @staticmethod
    def _linear_mul(t: LMul) -> bool:
        return isinstance(t.lhs, LInt) or isinstance(t.rhs, LInt)

    def _collect_atoms(self, atoms: list[FAtom]) -> None:
        for a in atoms:
            self._collect(a.lhs)
            self._collect(a.rhs)

    def _find(self, i: int) -> int:
        while self.parent.get(i, i) != i:
            self.parent[i] = self.parent.get(self.parent[i], self.parent[i])
            i = self.parent[i]
        return i

    def _union(self, i: int, j: int) -> None:
        ri, rj = self._find(i), self._find(j)
        if ri != rj:
            self.parent[max(ri, rj)] = min(ri, rj)

    def _close(self, atoms: list[FAtom]) -> None:
        # seed equalities between whole opaque terms stated directly
        pairs: list[tuple[LogicTerm, LogicTerm]] = []
        for a in atoms:
            if a.op == "=":
                pairs.append((a.lhs, a.rhs))
        changed = True
        while changed:
            changed = False
            for l, r in pairs:
                if l in self.opaque and r in self.opaque:
                    i, j = self.opaque.index(l), self.opaque.index(r)
                    if self._find(i) != self._find(j):
                        self._union(i, j)
                        changed = True
            # congruence: equal argument classes force equal application classes
            for i, t in enumerate(self.opaque):
                for j in range(i + 1, len(self.opaque)):
                    u = self.opaque[j]
                    if self._find(i) == self._find(j):
                        continue
                    if self._congruent(t, u):
                        self._union(i, j)
                        changed = True

    def _congruent(self, t: LogicTerm, u: LogicTerm) -> bool:
        if isinstance(t, LApp) and isinstance(u, LApp):
            if t.fn != u.fn or len(t.args) != len(u.args):
                return False
            return all(self._args_eq(a, b) for a, b in zip(t.args, u.args))
        if isinstance(t, LMul) and isinstance(u, LMul):
            return self._args_eq(t.lhs, u.lhs) and self._args_eq(t.rhs, u.rhs)
        return False

    def _args_eq(self, a: LogicTerm, b: LogicTerm) -> bool:
        if a == b:
            return True
        if a in self.opaque and b in self.opaque:
            return self._find(self.opaque.index(a)) == self._find(self.opaque.index(b))
        return False

    def var_for(self, t: LogicTerm) -> str:
        return f"#u{self._find(self.opaque.index(t))}"

    def occurrences(self) -> list[tuple[str, LogicTerm]]:
        return [(self.var_for(t), t) for t in self.opaque if isinstance(t, (LApp, LMul))]


Row = tuple[dict[str, int], int]  # sum(coef*var) + const <= 0


class _FMOverflow(Exception):
    pass


def _lin(t: LogicTerm, lz: _Linearizer) -> tuple[dict[str, int], int]:
    if isinstance(t, (LApp, LMul)) and t in lz.opaque:
        return {lz.var_for(t): 1}, 0
    if isinstance(t, LInt):
        return {}, t.value
    if isinstance(t, LVar):
        return {t.name: 1}, 0
    if isinstance(t, LNeg):
        c, k = _lin(t.arg, lz)
        return {v: -a for v, a in c.items()}, -k
    if isinstance(t, (LAdd, LSub)):
        cl, kl = _lin(t.lhs, lz)
        cr, kr = _lin(t.rhs, lz)
        sign = 1 if isinstance(t, LAdd) else -1
        out = dict(cl)
        for v, a in cr.items():
            out[v] = out.get(v, 0) + sign * a
        return {v: a for v, a in out.items() if a != 0}, kl + sign * kr
    if isinstance(t, LMul):
        if isinstance(t.lhs, LInt):
            c, k = _lin(t.rhs, lz)
            return {v: t.lhs.value * a for v, a in c.items()}, t.lhs.value * k
        if isinstance(t.rhs, LInt):
            c, k = _lin(t.lhs, lz)
            return {v: t.rhs.value * a for v, a in c.items()}, t.rhs.value * k
    raise _OutsideFragment()


def _atom_rows(a: FAtom, lz: _Linearizer) -> list[Row]:
    cl, kl = _lin(a.lhs, lz)
    cr, kr = _lin(a.rhs, lz)
    diff = dict(cl)
    for v, c in cr.items():
        diff[v] = diff.get(v, 0) - c
    diff = {v: c for v, c in diff.items() if c != 0}
    k = kl - kr  # lhs - rhs = sum(diff) + k
    if a.op == "<=":
        return [(diff, k)]
    if a.op == "<":
        return [(diff, k + 1)]
    if a.op in (">=", ">"):
        neg = {v: -c for v, c in diff.items()}
        return [(neg, -k + (1 if a.op == ">" else 0))]
    if a.op == "=":
        neg = {v: -c for v, c in diff.items()}
        return [(diff, k), (neg, -k)]
    raise _OutsideFragment()


def _tighten(row: Row) -> Row:
    coeffs, k = row
    if not coeffs:
        return row
    g = 0
    for c in coeffs.values():
        g = math.gcd(g, abs(c))
    if g <= 1:
        return row
    # sum(a*x) <= -k  ==>  sum((a/g)*x) <= floor(-k/g)
    return {v: c // g for v, c in coeffs.items()}, -math.floor(-k / g)


def _fm_refute(rows: list[Row]) -> Optional[bool]:
    """True if the system is unsatisfiable over the reals (hence the
    integers); False if real-satisfiable; None on overflow."""
    rows = [_tighten(r) for r in rows]
    try:
        while True:
            pending = []
            for coeffs, k in rows:
                if not coeffs:
                    if k > 0:
                        return True
                else:
                    pending.append((coeffs, k))
            if not pending:
                return False
            # pick the variable with the fewest pos*neg combinations
            occs: dict[str, tuple[int, int]] = {}
            for coeffs, _ in pending:
                for v, c in coeffs.items():
                    p, n = occs.get(v, (0, 0))
                    occs[v] = (p + (c > 0), n + (c < 0))
            var = min(sorted(occs), key=lambda v: occs[v][0] * occs[v][1])
            pos = [r for r in pending if r[0].get(var, 0) > 0]
            neg = [r for r in pending if r[0].get(var, 0) < 0]
            rest = [r for r in pending if r[0].get(var, 0) == 0]
            if occs[var][0] * occs[var][1] + len(rest) > _MAX_ROWS:
                raise _FMOverflow()
            new_rows = list(rest)
            for pc, pk in pos:
                for nc, nk in neg:
                    a, b = pc[var], -nc[var]
                    comb: dict[str, int] = {}
                    for v, c in pc.items():
                        comb[v] = comb.get(v, 0) + b * c
                    for v, c in nc.items():
                        comb[v] = comb.get(v, 0) + a * c
                    comb.pop(var, None)
                    comb = {v: c for v, c in comb.items() if c != 0}
                    if any(abs(c) > _MAX_COEF for c in comb.values()):
                        raise _FMOverflow()
                    kk = b * pk + a * nk
                    if abs(kk) > _MAX_COEF:
                        raise _FMOverflow()
                    new_rows.append(_tighten((comb, kk)))
            rows = new_rows
    except _FMOverflow:
        return None


# ---------------------------------------------------------------------------
# Bounded countermodel search
# ---------------------------------------------------------------------------


def _candidate_values(rows: list[Row]) -> list[int]:
    consts = {0, 1, -1}
    for coeffs, k in rows:
        for d in (-k, k):
            if abs(d) <= 40:
                consts.update((d, d - 1, d + 1))
    consts.update(range(-6, 7))
    return sorted(consts)


def _search_model(
    atoms: list[FAtom], lz: _Linearizer, seed: int
) -> Optional[dict[str, int]]:
    rows: list[Row] = []
    for a in atoms:
        rows.extend(_atom_rows(a, lz))
    # every variable of the branch and every opaque class gets a value, also
    # those that occur only inside an opaque term
    sorts: dict[str, str] = {}
    for a in atoms:
        term_vars(a.lhs, sorts)
        term_vars(a.rhs, sorts)
    var_set = set(sorts) | {lz.var_for(t) for t in lz.opaque}
    for coeffs, _ in rows:
        var_set.update(coeffs)
    variables = sorted(var_set)
    if not variables:
        return {} if all(k <= 0 for c, k in rows if not c) else None
    values = _candidate_values(rows)
    total = len(values) ** len(variables)

    def ok(asg: dict[str, int]) -> bool:
        for coeffs, k in rows:
            if sum(c * asg[v] for v, c in coeffs.items()) + k > 0:
                return False
        # congruence consistency of opaque occurrences, and a product is the
        # product of its arguments' values
        table: dict[tuple, int] = {}
        for var, t in lz.occurrences():
            key = _occurrence_key(t, lz, asg)
            if key[0] == "*" and key[1] * key[2] != asg[var]:
                return False
            if key in table and table[key] != asg[var]:
                return False
            table[key] = asg[var]
        return True

    if total <= _MAX_MODEL_EVALS:
        for combo in product(values, repeat=len(variables)):
            asg = dict(zip(variables, combo))
            if ok(asg):
                return asg
        return None
    rng_state = seed or 1
    for _ in range(_MAX_MODEL_EVALS // max(len(rows), 1) + 500):
        asg = {}
        for v in variables:
            rng_state = (1103515245 * rng_state + 12345) % (1 << 31)
            asg[v] = values[rng_state % len(values)]
        if ok(asg):
            return asg
    return None


def _occurrence_key(t: LogicTerm, lz: _Linearizer, asg: dict[str, int]) -> tuple:
    """Symbol and argument values of an opaque occurrence under a full
    assignment; a product's arguments come sorted, since it commutes."""

    def ev(u: LogicTerm) -> int:
        if u in lz.opaque:
            return asg[lz.var_for(u)]
        if isinstance(u, LInt):
            return u.value
        if isinstance(u, LVar):
            return asg[u.name]
        if isinstance(u, LNeg):
            return -ev(u.arg)
        l, r = ev(u.lhs), ev(u.rhs)
        if isinstance(u, LAdd):
            return l + r
        if isinstance(u, LSub):
            return l - r
        return l * r

    if isinstance(t, LApp):
        return (t.fn,) + tuple(ev(a) for a in t.args)
    return ("*",) + tuple(sorted((ev(t.lhs), ev(t.rhs))))


# ---------------------------------------------------------------------------
# The built-in decision procedure
# ---------------------------------------------------------------------------


def builtin_decide(q: ValidityQuery, need_model: bool = True) -> Verdict:
    """Valid, Invalid with a countermodel, or Unknown. With need_model=False
    the caller reads only Valid: the walk stops at the first branch it cannot
    refute and answers NOT_PROVED without searching for a countermodel."""
    hyp = _flatten_conj(q.hypothesis)
    if hyp is None:
        return Unknown("hypothesis outside the conjunctive fragment")
    concl = _flatten_conj(q.conclusion)
    if concl is None:
        return Unknown("conclusion outside the conjunctive fragment")
    seed = zlib.crc32(repr(q).encode()) if need_model else 0
    unknown: Optional[str] = None
    for part in concl:
        res = _implies(hyp, part, seed, need_model)
        if isinstance(res, Invalid) or res == NOT_PROVED:
            return res
        if isinstance(res, Unknown):
            unknown = res.reason
    return Unknown(unknown) if unknown is not None else Valid()


def _implies(hyp: list[Formula], concl: Formula, seed: int, need_model: bool) -> Verdict:
    branches = _negate(concl)
    if branches is None:
        return Unknown("conclusion outside the fragment") if need_model else NOT_PROVED
    unknown: Optional[str] = None
    for extra in branches:
        res = _branch_sat(hyp + list(extra), seed, need_model)
        if res == "unknown":
            if not need_model:
                return NOT_PROVED
            unknown = "bounded reasoning exhausted"
        elif res != "unsat":
            bools, ints = res
            model = tuple(sorted({**bools, **ints}.items()))
            return Invalid(tuple((k, v) for k, v in model if not k.startswith("#")))
    return Unknown(unknown) if unknown is not None else Valid()


def _branch_sat(literals: list[Formula], seed: int, need_model: bool):
    """The cases of one branch: "unsat" when every case is refuted, else a
    (bools, ints) model or "unknown"; without need_model, "unknown" at the
    first case not refuted."""
    names: set[str] = set()
    for f in literals:
        _bool_names(f, names)
    if len(names) > _MAX_BOOL_VARS:
        return "unknown"
    ordered = sorted(names)
    saw_unknown = False
    for bits in product((False, True), repeat=len(ordered)):
        asg = dict(zip(ordered, bits))
        try:
            alts: list[list[FAtom]] = [[]]
            dead = False
            for f in literals:
                inner = _reduce(f, asg)
                if inner is None:
                    dead = True
                    break
                alts = [a + b for a in alts for b in inner]
                if len(alts) > _MAX_ALTERNATIVES:
                    raise _OutsideFragment()
            if dead:
                continue
        except _OutsideFragment:
            if not need_model:
                return "unknown"
            saw_unknown = True
            continue
        for atoms in alts:
            try:
                lz = _Linearizer(atoms)
                rows: list[Row] = []
                for a in atoms:
                    rows.extend(_atom_rows(a, lz))
            except _OutsideFragment:
                if not need_model:
                    return "unknown"
                saw_unknown = True
                continue
            refuted = _fm_refute(rows)
            if refuted is True:
                continue
            if not need_model:
                return "unknown"
            model = _search_model(atoms, lz, seed)
            if model is not None:
                return asg, model
            saw_unknown = True
    return "unknown" if saw_unknown else "unsat"


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


def _smt_term(t: LogicTerm, names: dict[str, str]) -> str:
    if isinstance(t, LInt):
        return str(t.value) if t.value >= 0 else f"(- {-t.value})"
    if isinstance(t, LVar):
        return names[t.name]
    if isinstance(t, LNeg):
        return f"(- {_smt_term(t.arg, names)})"
    if isinstance(t, LAdd):
        return f"(+ {_smt_term(t.lhs, names)} {_smt_term(t.rhs, names)})"
    if isinstance(t, LSub):
        return f"(- {_smt_term(t.lhs, names)} {_smt_term(t.rhs, names)})"
    if isinstance(t, LMul):
        return f"(* {_smt_term(t.lhs, names)} {_smt_term(t.rhs, names)})"
    args = " ".join(_smt_term(a, names) for a in t.args)
    return f"({t.fn} {args})"


def _smt_formula(f: Formula, names: dict[str, str]) -> str:
    if isinstance(f, FTrue):
        return "true"
    if isinstance(f, FFalse):
        return "false"
    if isinstance(f, FAtom):
        return f"({f.op} {_smt_term(f.lhs, names)} {_smt_term(f.rhs, names)})"
    if isinstance(f, FBoolVar):
        return names[f.name]
    if isinstance(f, FNot):
        return f"(not {_smt_formula(f.arg, names)})"
    if isinstance(f, FAnd):
        inner = " ".join(_smt_formula(p, names) for p in f.parts)
        return f"(and {inner})" if f.parts else "true"
    if isinstance(f, FImplies):
        return f"(=> {_smt_formula(f.lhs, names)} {_smt_formula(f.rhs, names)})"
    return f"(= {_smt_formula(f.lhs, names)} {_smt_formula(f.rhs, names)})"


def emit_smtlib(q: ValidityQuery, nonlinear: bool = False, get_model: bool = False) -> str:
    """SMT-LIB v2 script asserting hypothesis and negated conclusion; an
    unsat answer means the query is valid."""
    sorts = formula_vars(q.hypothesis, {})
    formula_vars(q.conclusion, sorts)
    ufs = formula_ufs(q.hypothesis, {})
    formula_ufs(q.conclusion, ufs)
    uf_keys = {u: (u if u not in sorts else f"{u}!fn") for u in ufs}
    all_names = _sanitize_names(list(sorts) + list(uf_keys.values()))
    names = {n: all_names[n] for n in sorts}
    lines = [f"(set-logic {'QF_UFNIA' if nonlinear else 'QF_UFLIA'})"]
    for v in sorted(sorts):
        smt_sort = "Bool" if sorts[v] == "bool" else "Int"
        lines.append(f"(declare-const {names[v]} {smt_sort})")
    fn_names = {u: all_names[uf_keys[u]] for u in ufs}
    for u, arity in sorted(ufs.items()):
        args = " ".join(["Int"] * arity)
        lines.append(f"(declare-fun {fn_names[u]} ({args}) Int)")
    renamed = dict(names)

    def walk_term(t: LogicTerm) -> LogicTerm:
        if isinstance(t, LApp):
            return LApp(fn_names[t.fn], tuple(walk_term(a) for a in t.args))
        if isinstance(t, LNeg):
            return LNeg(walk_term(t.arg))
        if isinstance(t, (LAdd, LSub, LMul)):
            return type(t)(walk_term(t.lhs), walk_term(t.rhs))
        return t

    def walk(f: Formula) -> Formula:
        if isinstance(f, FAtom):
            return FAtom(f.op, walk_term(f.lhs), walk_term(f.rhs))
        if isinstance(f, FNot):
            return FNot(walk(f.arg))
        if isinstance(f, FAnd):
            return FAnd(tuple(walk(p) for p in f.parts))
        if isinstance(f, (FImplies, FIff)):
            return type(f)(walk(f.lhs), walk(f.rhs))
        return f

    lines.append(f"(assert {_smt_formula(walk(q.hypothesis), renamed)})")
    lines.append(f"(assert (not {_smt_formula(walk(q.conclusion), renamed)}))")
    lines.append("(check-sat)")
    if get_model:
        lines.append("(get-model)")
    return "\n".join(lines) + "\n"


def run_solver(cmd: str, script: str, timeout: float) -> str:
    """Run a solver command on an SMT-LIB script; the template may contain
    {file}, otherwise the script is piped through stdin."""
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
    except (OSError, ValueError) as e:
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
# Cache and engine
# ---------------------------------------------------------------------------


def canonical_key(q: ValidityQuery, names: Optional[dict[str, str]] = None) -> str:
    """Serialization with variables renamed in first-occurrence order, so
    alpha-variant queries share one cache entry. When `names` is given, it
    receives the renaming from the query's names to the canonical ones."""
    mapping: dict[str, str] = {} if names is None else names

    def name(n: str) -> str:
        if n not in mapping:
            mapping[n] = f"v{len(mapping)}"
        return mapping[n]

    def st(t: LogicTerm) -> str:
        if isinstance(t, LInt):
            return str(t.value)
        if isinstance(t, LVar):
            return name(t.name)
        if isinstance(t, LNeg):
            return f"(neg {st(t.arg)})"
        if isinstance(t, LApp):
            return f"({t.fn} {' '.join(st(a) for a in t.args)})"
        tag = {LAdd: "+", LSub: "-", LMul: "*"}[type(t)]
        return f"({tag} {st(t.lhs)} {st(t.rhs)})"

    def sf(f: Formula) -> str:
        if isinstance(f, FTrue):
            return "T"
        if isinstance(f, FFalse):
            return "F"
        if isinstance(f, FAtom):
            return f"({f.op} {st(f.lhs)} {st(f.rhs)})"
        if isinstance(f, FBoolVar):
            return name(f.name)
        if isinstance(f, FNot):
            return f"(not {sf(f.arg)})"
        if isinstance(f, FAnd):
            return f"(and {' '.join(sf(p) for p in f.parts)})"
        tag = "=>" if isinstance(f, FImplies) else "<=>"
        return f"({tag} {sf(f.lhs)} {sf(f.rhs)})"

    return f"{sf(q.hypothesis)} |- {sf(q.conclusion)}"


def _rename_model(verdict: Verdict, names: dict[str, str], back: bool = False) -> Verdict:
    """The verdict with its model's variables renamed by `names` (by its
    inverse when `back`); names it does not cover (an external solver's
    SMT-LIB names) stay as they are."""
    if not isinstance(verdict, Invalid) or not verdict.model:
        return verdict
    if back:
        names = {c: n for n, c in names.items()}
    return Invalid(tuple(sorted((names.get(n, n), v) for n, v in verdict.model)))


class ValidityEngine:
    """Dispatches validity queries to the built-in checker and/or an
    external SMT-LIB solver, memoizing by canonical query serialization.
    Models are cached under the canonical names and handed back in the
    names of the query that asked."""

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
        self._cache: dict[str, Verdict] = {}
        self._lock = threading.Lock()
        self.stats = {"queries": 0, "cache_hits": 0, "external_calls": 0}

    def check(self, q: ValidityQuery, need_model: bool = True) -> Verdict:
        """The verdict on q. A caller that reads only Valid passes
        need_model=False and may get NOT_PROVED for Invalid or Unknown; the
        external backends ignore the flag."""
        names: dict[str, str] = {}
        key = canonical_key(q, names)
        with self._lock:
            self.stats["queries"] += 1
            cached = self._cache.get(key)
            if cached is not None and (not need_model or cached != NOT_PROVED):
                self.stats["cache_hits"] += 1
                return _rename_model(cached, names, back=True)
        verdict = self._decide(q, need_model)
        with self._lock:
            self._cache[key] = _rename_model(verdict, names)
        return verdict

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
        if not self.smt_cmd:
            return Unknown("no external solver configured")
        script = emit_smtlib(q, nonlinear=self.nonlinear_external)
        with self._lock:
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
            return Valid()
        if answer == "sat":
            model = self._external_model(q)
            return Invalid(model)
        return Unknown(f"solver answered {answer or 'nothing'}")

    def _external_model(self, q: ValidityQuery) -> Optional[tuple[tuple[str, object], ...]]:
        script = emit_smtlib(q, nonlinear=self.nonlinear_external, get_model=True)
        try:
            out = run_solver(self.smt_cmd, script, self.timeout)  # type: ignore[arg-type]
        except (TimeoutError, SolverError):
            return None
        model = parse_model(out)
        return tuple(sorted(model.items())) if model else None

    def cache_size(self) -> int:
        with self._lock:
            return len(self._cache)


def check_valid(q: ValidityQuery, backend: str = "builtin", **kw) -> Verdict:
    """One-shot convenience wrapper around ValidityEngine."""
    return ValidityEngine(backend=backend, **kw).check(q)
