"""Small-step call-by-value evaluation.

Values are constants (including partially applied primitives) and
lambda abstractions.  Evaluation contexts decompose applications left to
right and let-bound terms before bodies; the decomposition is unique, so
stepping is deterministic.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Union

from .anf import _all_names
from .syntax import (
    App,
    BoolConst,
    Const,
    Constant,
    IntConst,
    Lam,
    Let,
    NameSource,
    PartialPrim,
    PrimConst,
    Term,
    TyAbs,
    TyInst,
    Value,
    Var,
    render_term,
    subst_term,
)

ARITH = {"add", "sub", "mul"}
COMPARE = {"le", "ge", "lt", "gt", "eq"}


def is_value(t: Term) -> bool:
    return isinstance(t, (Const, Lam))


class Next(NamedTuple):
    term: Term


class AtValue(Value):
    """The term is a value; one object, since it has no fields."""


class Stuck(NamedTuple):
    redex: Term
    reason: str


StepOutcome = Union[Next, AtValue, Stuck]


def delta(c: Constant, v: Term, names: Optional[NameSource] = None) -> Optional[Term]:
    """The interpretation of a primitive applied to one more value, or None
    when the application is stuck (only reachable on ill-typed terms)."""
    if names is None:
        names = NameSource("fx")
    if isinstance(c, PrimConst):
        op = c.op
        if op == "neg":
            if isinstance(v, Const) and isinstance(v.const, IntConst):
                return Const(IntConst(-v.const.value))
            return None
        if op in ARITH or op in COMPARE:
            if isinstance(v, Const) and isinstance(v.const, IntConst):
                return Const(PartialPrim(op, (v,)))
            return None
        if op == "ite":
            if isinstance(v, Const) and isinstance(v.const, BoolConst):
                return Const(PartialPrim(op, (v,)))
            return None
        if op == "fix":
            # eta-delayed unrolling keeps call-by-value unfolding finite per step
            x = names.fresh()
            return App(v, Lam(x, App(App(Const(PrimConst("fix")), v), Var(x))))
        return None
    if isinstance(c, PartialPrim):
        op = c.op
        if op in ARITH or op in COMPARE:
            if not (isinstance(v, Const) and isinstance(v.const, IntConst)):
                return None
            a = c.args[0].const.value  # type: ignore[union-attr]
            b = v.const.value
            if op == "add":
                return Const(IntConst(a + b))
            if op == "sub":
                return Const(IntConst(a - b))
            if op == "mul":
                return Const(IntConst(a * b))
            table = {"le": a <= b, "ge": a >= b, "lt": a < b, "gt": a > b, "eq": a == b}
            return Const(BoolConst(table[op]))
        if op == "ite":
            if len(c.args) == 1:
                return Const(PartialPrim(op, c.args + (v,)))
            cond = c.args[0]
            assert isinstance(cond, Const) and isinstance(cond.const, BoolConst)
            return c.args[1] if cond.const.value else v
        return None
    return None  # literals are not functions


def step(t: Term, names: Optional[NameSource] = None) -> StepOutcome:
    """One leftmost evaluation step of a closed term."""
    if names is None:
        names = NameSource("fx", used=_all_names(t))
    if is_value(t):
        return AtValue()
    if isinstance(t, App):
        if not is_value(t.fun):
            inner = step(t.fun, names)
            if isinstance(inner, Next):
                return Next(App(inner.term, t.arg))
            return inner if isinstance(inner, Stuck) else Stuck(t, "non-value head does not step")
        if not is_value(t.arg):
            inner = step(t.arg, names)
            if isinstance(inner, Next):
                return Next(App(t.fun, inner.term))
            return inner if isinstance(inner, Stuck) else Stuck(t, "non-value argument does not step")
        if isinstance(t.fun, Lam):
            return Next(subst_term(t.arg, t.fun.binder, t.fun.body))
        assert isinstance(t.fun, Const)
        out = delta(t.fun.const, t.arg, names)
        if out is None:
            return Stuck(t, f"constant application is undefined: {render_term(t)}")
        return Next(out)
    if isinstance(t, Let):
        if is_value(t.bound):
            return Next(subst_term(t.bound, t.binder, t.body))
        inner = step(t.bound, names)
        if isinstance(inner, Next):
            return Next(Let(t.binder, inner.term, t.body))
        return inner if isinstance(inner, Stuck) else Stuck(t, "non-value binding does not step")
    if isinstance(t, Var):
        return Stuck(t, f"free variable {t.name!r}")
    if isinstance(t, (TyAbs, TyInst)):
        return Stuck(t, "explicit type nodes do not evaluate; erase first")
    return Stuck(t, "no rule applies")


class Done(NamedTuple):
    value: Term
    steps: int


class Timeout(NamedTuple):
    last: Term
    steps: int


class StuckAt(NamedTuple):
    redex: Term
    reason: str
    steps: int


EvalResult = Union[Done, Timeout, StuckAt]


def evaluate(t: Term, fuel: int) -> EvalResult:
    """Iterate step at most `fuel` times."""
    names = NameSource("fx", used=_all_names(t))
    cur = t
    for i in range(fuel):
        out = step(cur, names)
        if isinstance(out, AtValue):
            return Done(cur, i)
        if isinstance(out, Stuck):
            return StuckAt(out.redex, out.reason, i)
        cur = out.term
    if is_value(cur):
        return Done(cur, fuel)
    return Timeout(cur, fuel)
