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

from functools import cache
from typing import NamedTuple, Optional

from .anf import _all_names
from .syntax import (
    App,
    Arrow,
    BOOL,
    BoolConst,
    Const,
    CONSTANTS,
    Env,
    INT,
    IntConst,
    Lam,
    Let,
    LiqError,
    NameSource,
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


class ShapeScheme(NamedTuple):
    qvars: tuple[str, ...]
    ty: SimpleType


ShapeEnv = dict[str, ShapeScheme]


def shape_env(env: Env) -> ShapeEnv:
    """Lift shape erasure to environments."""
    return {name: ShapeScheme(s.qvars, shape_of(s.body)) for name, s in env.bindings}


class Elaboration(NamedTuple):
    term: Term
    scheme: ShapeScheme


_LITERAL_SHAPES = {IntConst: ShapeScheme((), INT), BoolConst: ShapeScheme((), BOOL)}


@cache
def _prim_shape(op: str) -> ShapeScheme:
    """The shape of a primitive's scheme, built once per primitive."""
    sch = CONSTANTS.type_of(PrimConst(op))
    return ShapeScheme(sch.qvars, shape_of(sch.body))


def constant_shape(c) -> ShapeScheme:
    """A literal's base type, or the shape of a primitive less the
    arguments a partial application holds."""
    literal = _LITERAL_SHAPES.get(c.__class__)
    if literal is not None:
        return literal
    base = _prim_shape(c.op)
    if isinstance(c, PrimConst):
        return base
    ty = base.ty
    for _ in c.args:
        if not isinstance(ty, Arrow):
            raise ShapeError("over-applied primitive constant")
        ty = ty.cod
    return ShapeScheme(base.qvars, ty)


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


def _finalize(t) -> Term:
    """The term the pre-term `t` stands for, its shapes read through their
    cells. A pre-term is a term class and its fields, with pre-terms for
    sub-terms and unread shapes; a constant stands for itself."""
    if not isinstance(t, tuple):
        return t
    fields = list(t[1:])
    for i, f in enumerate(fields):
        if isinstance(f, tuple):
            fields[i] = _finalize(f)
        elif isinstance(f, (_Cell, Arrow)):
            fields[i] = _read(f, _final)
    return t[0](*fields)


class _W:
    """Algorithm W over one term. `infer` returns a term's type and its
    elaboration as a pre-term (`_finalize`), while cells are being bound."""

    def __init__(self) -> None:
        self.counter = 0
        self.level = 0
        self.tyvars = NameSource("a")
        self.binders = NameSource("x")

    def fresh(self) -> _Cell:
        self.counter += 1
        return _Cell(self.counter, self.level)

    def unify(self, a, b) -> None:
        a, b = _repr(a), _repr(b)
        if a is b:  # shapes are interned
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

    def _instantiate(self, sch: ShapeScheme, node) -> tuple[SimpleType, tuple]:
        if not sch.qvars:
            return sch.ty, node
        fresh = {q: self.fresh() for q in sch.qvars}
        for q in sch.qvars:  # first quantifier instantiated innermost
            node = (TyInst, fresh[q], node)
        return _copy(sch.ty, fresh), node

    def _deeper(self, t, acc: list[_Cell]) -> None:
        t = _repr(t)
        if isinstance(t, _Cell):
            if t.level > self.level and t not in acc:
                acc.append(t)
        elif isinstance(t, Arrow):
            self._deeper(t.dom, acc)
            self._deeper(t.cod, acc)

    def generalize(self, ty: SimpleType, term: tuple) -> tuple[ShapeScheme, tuple]:
        """The scheme of `term`'s type `ty` over its cells deeper than the
        current level, each named by a fresh type variable, and the term
        wrapped in one type abstraction per name. The scheme quantifies over
        the cells; `elaborate` prints their names."""
        gen: list[_Cell] = []
        self._deeper(ty, gen)
        for cell in gen:
            cell.name = self.tyvars.fresh()
        for cell in reversed(gen):
            term = (TyAbs, cell.name, term)
        return ShapeScheme(tuple(gen), ty), term

    def infer_generalized(self, env: ShapeEnv, t: Term) -> tuple[ShapeScheme, tuple]:
        """Infers t one level deeper, then generalizes at this level."""
        self.level += 1
        ty, term = self.infer(env, t)
        self.level -= 1
        return self.generalize(ty, term)

    def infer(self, env: ShapeEnv, t: Term) -> tuple[SimpleType, tuple]:
        if isinstance(t, Var):
            sch = env.get(t.name)
            if sch is None:
                raise ShapeError(f"unbound variable {t.name!r}")
            return self._instantiate(sch, (Var, t.name, sch.ty))
        if isinstance(t, Const):
            return self._instantiate(constant_shape(t.const), t)
        if isinstance(t, Lam):
            u = self.fresh()
            body_ty, body = self.infer({**env, t.binder: ShapeScheme((), u)}, t.body)
            arrow = Arrow(t.binder, u, body_ty)
            return arrow, (Lam, t.binder, body, arrow)
        if isinstance(t, App):
            fun_ty, fun = self.infer(env, t.fun)
            arg_ty, arg = self.infer(env, t.arg)
            res = self.fresh()
            self.unify(fun_ty, Arrow(self.binders.fresh(), arg_ty, res))
            return res, (App, fun, arg, res)
        if isinstance(t, Let):
            sch, bound = self.infer_generalized(env, t.bound)
            body_ty, body = self.infer({**env, t.binder: sch}, t.body)
            return body_ty, (Let, t.binder, bound, body, body_ty)
        raise ShapeError("explicit type nodes are inserted by elaboration; erase first")


def elaborate(senv: ShapeEnv, term: Term) -> Elaboration:
    """Infer shapes and insert explicit type abstraction and instantiation.
    Each `Var`, `Lam`, `App` and `Let` node carries its finalized shape; a
    variable's is that of its scheme before instantiation."""
    w = _W()
    names = _all_names(term)
    w.binders.reserve(names)
    w.tyvars.reserve(names)
    sch, elab = w.infer_generalized(senv, term)
    qvars = tuple(cell.name for cell in sch.qvars)
    return Elaboration(_finalize(elab), ShapeScheme(qvars, _read(sch.ty, _final)))


def w_infer(senv: ShapeEnv, term: Term) -> ShapeScheme:
    """Principal ML shape, generalized against the environment."""
    return elaborate(senv, term).scheme


def erase(t: Term) -> Term:
    """Drop explicit type abstractions and instantiations, and the shapes of
    the nodes; a term that holds none comes back unchanged, the same object."""
    if isinstance(t, (TyAbs, TyInst)):
        return erase(t.body)
    if isinstance(t, Var):
        return t if t.shape is None else Var(t.name)
    if isinstance(t, Lam):
        body = erase(t.body)
        return t if body is t.body and t.shape is None else Lam(t.binder, body)
    if isinstance(t, App):
        fun, arg = erase(t.fun), erase(t.arg)
        return t if fun is t.fun and arg is t.arg and t.shape is None else App(fun, arg)
    if isinstance(t, Let):
        bound, body = erase(t.bound), erase(t.body)
        return t if bound is t.bound and body is t.body and t.shape is None else Let(t.binder, bound, body)
    return t
