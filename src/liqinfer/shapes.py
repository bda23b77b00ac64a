"""Damas-Milner shape inference (algorithm W) over the term language, plus
elaboration: explicit type abstractions at generalizing lets and explicit
instantiations at polymorphic variable and constant uses. Shapes are the
refinement-free simple types that liquid intersection types refine;
inference templates are generated from them.

Unification variables are union-find cells ranked by let level (Remy, INRIA
RR-1766, 1992). Binding a cell lowers the free cells of its type to the
cell's level, in the walk of the occurs check, and a let's bound expression
is inferred one level deeper. So the cells of its type still deeper than
the let are those no binding of the environment reaches, and generalization
walks the type alone. It names them in first-occurrence order, domain
before codomain. Of two free cells the left is bound to the right: the cell
kept is the one whose `?n` error messages print.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from .anf import _all_names
from .syntax import (
    App,
    Arrow,
    Const,
    CONSTANTS,
    Env,
    INT,
    Lam,
    Let,
    LiqError,
    NameSource,
    PartialPrim,
    PrimConst,
    SimpleType,
    Term,
    TyAbs,
    TyInst,
    TyVar,
    Var,
    render_simple_type,
    shape_of,
)


class ShapeError(LiqError):
    """Unification failure, occurs-check failure or an unbound variable."""


@dataclass(frozen=True)
class ShapeScheme:
    qvars: tuple[str, ...]
    ty: SimpleType


ShapeEnv = dict[str, ShapeScheme]


def shape_env(env: Env) -> ShapeEnv:
    """Lift shape erasure to environments."""
    return {name: ShapeScheme(s.qvars, shape_of(s.body)) for name, s in env.bindings}


@dataclass
class Elaboration:
    term: Term
    scheme: ShapeScheme
    shapes: dict[int, ShapeScheme] = field(default_factory=dict)

    def shape_at(self, node: Term) -> ShapeScheme:
        return self.shapes[id(node)]


def constant_shape(c) -> ShapeScheme:
    if isinstance(c, PartialPrim):
        base = constant_shape(PrimConst(c.op))
        ty = base.ty
        for _ in c.args:
            if not isinstance(ty, Arrow):
                raise ShapeError("over-applied primitive constant")
            ty = ty.cod
        return ShapeScheme(base.qvars, ty)
    sch = CONSTANTS.type_of(c)
    return ShapeScheme(sch.qvars, shape_of(sch.body))


class _Cell:
    """A unification variable. `level` is the let depth it belongs to, `n`
    its number in messages (`?n`)."""

    __slots__ = ("n", "level", "link", "name")

    def __init__(self, n: int, level: int) -> None:
        self.n, self.level = n, level
        self.link: Optional[SimpleType] = None  # the type it is bound to
        self.name: Optional[str] = None  # the type variable it is generalized as


def _repr(t):
    """The representative of t: t itself unless t is a bound cell."""
    while isinstance(t, _Cell) and t.link is not None:
        t = t.link
    return t


def _occurs_lowering(cell: _Cell, t) -> bool:
    """Whether `cell` occurs in t; lowers every free cell of t to the level
    of `cell` on the way, since binding `cell` to t puts them at its depth."""
    t = _repr(t)
    if t is cell:
        return True
    if isinstance(t, _Cell):
        t.level = min(t.level, cell.level)
    elif isinstance(t, Arrow):
        return _occurs_lowering(cell, t.dom) or _occurs_lowering(cell, t.cod)
    return False


def _read(t, unbound) -> SimpleType:
    """t with each cell read through its links, and `unbound(cell)` at the end."""
    t = _repr(t)
    if isinstance(t, _Cell):
        return unbound(t)
    if isinstance(t, Arrow):
        return Arrow(t.binder, _read(t.dom, unbound), _read(t.cod, unbound))
    return t


def _show(t) -> str:
    return render_simple_type(_read(t, lambda c: TyVar(f"?{c.n}")))


def _final(c: _Cell) -> SimpleType:
    return TyVar(c.name) if c.name is not None else INT  # unconstrained shapes default to int


def _copy(t, fresh: dict):
    """t with each quantified cell or type variable name in `fresh` replaced."""
    t = _repr(t)
    if isinstance(t, _Cell):
        return fresh.get(t, t)
    if isinstance(t, TyVar):
        return fresh.get(t.name, t)
    if isinstance(t, Arrow):
        return Arrow(t.binder, _copy(t.dom, fresh), _copy(t.cod, fresh))
    return t


class _W:
    def __init__(self) -> None:
        self.counter = 0
        self.level = 0
        self.tyvars = NameSource("a")
        self.binders = NameSource("x")
        self.types: dict[int, Union[SimpleType, ShapeScheme]] = {}

    def fresh(self) -> _Cell:
        self.counter += 1
        return _Cell(self.counter, self.level)

    def unify(self, a, b) -> None:
        a, b = _repr(a), _repr(b)
        if a is b or isinstance(a, TyVar) and a == b:  # bases are interned
            return
        if isinstance(a, _Cell):
            if _occurs_lowering(a, b):
                raise ShapeError(f"occurs check failed: ?{a.n} in {_show(b)}")
            a.link = b
        elif isinstance(b, _Cell):
            self.unify(b, a)
        elif isinstance(a, Arrow) and isinstance(b, Arrow):
            self.unify(a.dom, b.dom)
            self.unify(a.cod, b.cod)
        else:
            raise ShapeError(f"cannot unify {_show(a)} with {_show(b)}")

    def _instantiate(self, sch: ShapeScheme, node: Term) -> tuple[SimpleType, Term]:
        self.types[id(node)] = sch
        if not sch.qvars:
            return sch.ty, node
        fresh = {q: self.fresh() for q in sch.qvars}
        for q in sch.qvars:  # first quantifier instantiated innermost
            node = TyInst(fresh[q], node)
            self.types[id(node)] = fresh[q]
        return _copy(sch.ty, fresh), node

    def _deeper(self, t, acc: list[_Cell]) -> None:
        t = _repr(t)
        if isinstance(t, _Cell):
            if t.level > self.level and t not in acc:
                acc.append(t)
        elif isinstance(t, Arrow):
            self._deeper(t.dom, acc)
            self._deeper(t.cod, acc)

    def generalize(self, ty: SimpleType, term: Term) -> tuple[ShapeScheme, Term]:
        """The scheme of `term`'s type `ty` over its cells deeper than the
        current level, each named by a fresh type variable, and the term
        wrapped in one type abstraction per name. The scheme quantifies over
        the cells; `finalize_scheme` prints their names."""
        gen: list[_Cell] = []
        self._deeper(ty, gen)
        for cell in gen:
            cell.name = self.tyvars.fresh()
        for cell in reversed(gen):
            term = TyAbs(cell.name, term)
            self.types[id(term)] = ty
        return ShapeScheme(tuple(gen), ty), term

    def infer_generalized(self, env: ShapeEnv, t: Term) -> tuple[ShapeScheme, Term]:
        """Infers t one level deeper, then generalizes at this level."""
        self.level += 1
        ty, term = self.infer(env, t)
        self.level -= 1
        return self.generalize(ty, term)

    def infer(self, env: ShapeEnv, t: Term) -> tuple[SimpleType, Term]:
        if isinstance(t, Var):
            sch = env.get(t.name)
            if sch is None:
                raise ShapeError(f"unbound variable {t.name!r}")
            return self._instantiate(sch, Var(t.name, pos=t.pos))
        if isinstance(t, Const):
            return self._instantiate(constant_shape(t.const), Const(t.const, pos=t.pos))
        if isinstance(t, Lam):
            u = self.fresh()
            body_ty, body = self.infer({**env, t.binder: ShapeScheme((), u)}, t.body)
            node = Lam(t.binder, body, pos=t.pos)
            arrow = Arrow(t.binder, u, body_ty)
            self.types[id(node)] = arrow
            return arrow, node
        if isinstance(t, App):
            fun_ty, fun = self.infer(env, t.fun)
            arg_ty, arg = self.infer(env, t.arg)
            res = self.fresh()
            self.unify(fun_ty, Arrow(self.binders.fresh(), arg_ty, res))
            node = App(fun, arg, pos=t.pos)
            self.types[id(node)] = res
            return res, node
        if isinstance(t, Let):
            sch, bound = self.infer_generalized(env, t.bound)
            body_ty, body = self.infer({**env, t.binder: sch}, t.body)
            node = Let(t.binder, bound, body, pos=t.pos)
            self.types[id(node)] = body_ty
            return body_ty, node
        raise ShapeError("explicit type nodes are inserted by elaboration; erase first")

    def finalize_scheme(self, sch: Union[SimpleType, ShapeScheme]) -> ShapeScheme:
        if isinstance(sch, ShapeScheme):
            qvars = tuple(q.name if isinstance(q, _Cell) else q for q in sch.qvars)
            return ShapeScheme(qvars, _read(sch.ty, _final))
        return ShapeScheme((), _read(sch, _final))

    def finalize_term(self, t: Term, table: dict[int, ShapeScheme]) -> Term:
        if isinstance(t, (Var, Const)):
            node = t  # built by `infer` for this occurrence alone
        elif isinstance(t, Lam):
            node = Lam(t.binder, self.finalize_term(t.body, table), pos=t.pos)
        elif isinstance(t, App):
            node = App(self.finalize_term(t.fun, table), self.finalize_term(t.arg, table), pos=t.pos)
        elif isinstance(t, Let):
            bound, body = self.finalize_term(t.bound, table), self.finalize_term(t.body, table)
            node = Let(t.binder, bound, body, pos=t.pos)
        elif isinstance(t, TyAbs):
            node = TyAbs(t.tyvar, self.finalize_term(t.body, table), pos=t.pos)
        else:
            node = TyInst(_read(t.ty, _final), self.finalize_term(t.body, table), pos=t.pos)
        recorded = self.types.get(id(t))
        if recorded is not None:
            table[id(node)] = self.finalize_scheme(recorded)
        return node


def elaborate(senv: ShapeEnv, term: Term) -> Elaboration:
    """Infer shapes and insert explicit type abstraction and instantiation."""
    w = _W()
    names = _all_names(term)
    w.binders.reserve(names)
    w.tyvars.reserve(names)
    sch, elab = w.infer_generalized(senv, term)
    table: dict[int, ShapeScheme] = {}
    final = w.finalize_term(elab, table)
    return Elaboration(final, w.finalize_scheme(sch), table)


def w_infer(senv: ShapeEnv, term: Term) -> ShapeScheme:
    """Principal ML shape, generalized against the environment."""
    return elaborate(senv, term).scheme


def erase(t: Term) -> Term:
    """Drop explicit type abstractions and instantiations; a term that holds
    none comes back unchanged, the same object."""
    if isinstance(t, (TyAbs, TyInst)):
        return erase(t.body)
    if isinstance(t, Lam):
        body = erase(t.body)
        return t if body is t.body else Lam(t.binder, body, pos=t.pos)
    if isinstance(t, App):
        fun, arg = erase(t.fun), erase(t.arg)
        return t if fun is t.fun and arg is t.arg else App(fun, arg, pos=t.pos)
    if isinstance(t, Let):
        bound, body = erase(t.bound), erase(t.body)
        return t if bound is t.bound and body is t.body else Let(t.binder, bound, body, pos=t.pos)
    return t
