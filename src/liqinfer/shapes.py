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

Only final shapes are hash-consed (Filliatre and Conchon, ML 2006). While W
runs, an arrow that may hold a cell is a plain `_Fn` record, as the cells
are, made for one elaboration and shared with nothing else (Kiselyov, "How
OCaml type checker works", 2013); finalizing reads each node's shape
through its cells and interns it once. An interned shape holds no cell, so
the occurs check and generalization stop at one. W binds each scope's
variable in one environment dict and restores the binding on the way out,
so a chain of `n` lets elaborates in time linear in `n`. It reads a type
abstraction or instantiation as its body and a node's shape not at all,
so an elaborated term elaborates to the very term its erasure does.

An application of a function whose type is already a final arrow unifies
that arrow's domain with the argument's type and takes its codomain: it
builds no result cell and no expected arrow. Every application still takes
a cell number and asks for a binder name, so the `?n` of messages and the
names printed are those of the general path. Names avoid every name of the
term, but the term's names are collected (`anf._all_names`) only when one
is printed: the binder of an expected arrow that a free cell is bound to,
or a generalized cell. The turns of the applications whose binder is never
read are drawn and dropped when the next binder is named, so each name is
the one that naming every application in order gives.
"""

from __future__ import annotations

from functools import cache
from operator import itemgetter
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


class _Fn:
    """An arrow shape that may hold cells, made by W: a plain record of one
    elaboration, never interned. `final` keeps its interned shape once W is
    done and `_shape` has read it. An application's expected arrow has no
    binder (None) when it is unified part by part, so nothing reads it."""

    __slots__ = ("binder", "dom", "cod", "final")

    def __init__(self, binder: Optional[str], dom, cod) -> None:
        self.binder, self.dom, self.cod = binder, dom, cod
        self.final: Optional[Arrow] = None


_ARROWS = (Arrow, _Fn)


def _repr(t):
    """The representative of t: t itself unless t is a bound cell."""
    while t.__class__ is _Cell and t.link is not None:
        t = t.link
    return t


def _occurs_lowering(cell: _Cell, t) -> bool:
    """Whether `cell` occurs in t; lowers every free cell of t to the level
    of `cell` on the way, since binding `cell` to t puts them at its depth."""
    t = _repr(t)
    if t is cell:
        return True
    if t.__class__ is _Cell:
        t.level = min(t.level, cell.level)
    elif t.__class__ is _Fn:
        return _occurs_lowering(cell, t.dom) or _occurs_lowering(cell, t.cod)
    return False  # an interned shape holds no cell


def _show(t) -> str:
    """t as messages print it, a free cell as `?n`."""
    t = _repr(t)
    if t.__class__ is _Cell:
        return f"?{t.n}"
    if isinstance(t, _ARROWS):
        dom = f"({_show(t.dom)})" if isinstance(_repr(t.dom), _ARROWS) else _show(t.dom)
        return f"{dom} -> {_show(t.cod)}"
    return render_simple_type(t)


def _shape(t) -> SimpleType:
    """The final shape of t, read through its cells: a generalized cell is
    its type variable, any other free cell defaults to int. Only the final
    shape is interned, once per `_Fn`; an interned shape is its own."""
    while t.__class__ is _Cell:
        if t.link is None:
            return TyVar(t.name) if t.name is not None else INT
        t = t.link
    if t.__class__ is not _Fn:
        return t
    if t.final is None:
        t.final = Arrow(t.binder, _shape(t.dom), _shape(t.cod))
    return t.final


def _copy(t, fresh: dict):
    """t with each quantified cell or type variable name in `fresh` replaced."""
    t = _repr(t)
    if t.__class__ is _Cell:
        return fresh.get(t, t)
    if t.__class__ is TyVar:
        return fresh.get(t.name, t)
    if isinstance(t, _ARROWS):
        return _Fn(t.binder, _copy(t.dom, fresh), _copy(t.cod, fresh))
    return t


# The builders of `_finalize`. A pre-term is a tuple whose first item is the
# builder of its node: it takes the pre-term and returns the finalized node,
# calling the builders of the sub-terms itself, so that finalizing adds one
# frame per level of nesting and no more.


def _var(p: tuple) -> Var:
    return Var(p[1], _shape(p[2]))


def _lam(p: tuple) -> Lam:
    body = p[2]
    return Lam(p[1], body[0](body), _shape(p[3]))


def _app(p: tuple) -> App:
    fun, arg = p[1], p[2]
    return App(fun[0](fun), arg[0](arg), _shape(p[3]))


def _let(p: tuple) -> Let:
    bound, body = p[2], p[3]
    return Let(p[1], bound[0](bound), body[0](body), _shape(p[4]))


def _tyabs(p: tuple) -> TyAbs:
    body = p[2]
    return TyAbs(p[1], body[0](body))


def _tyinst(p: tuple) -> TyInst:
    body = p[2]
    return TyInst(_shape(p[1]), body[0](body))


_built = itemgetter(1)  # the builder of a node that is final as it stands: a constant


def _finalize(p: tuple) -> Term:
    """The term the pre-term `p` stands for, once W is done: each node is
    built by its class's builder above, with its shape read through its
    cells (`_shape`), interned, and returned as it is where no cell was
    read."""
    return p[0](p)


class _W:
    """Algorithm W over one term. `infer` returns a term's type and its
    elaboration as a pre-term (`_finalize`), while cells are being bound.
    A type W builds is a cell, a `_Fn` or an interned shape of the
    environment or a constant; none of the first two enters a hash-cons
    table, and only `_finalize` interns the shapes they stand for. Binder
    and type-variable names are drawn only when one will be printed, from
    name sources made then over the term's names (`_name_sources`)."""

    def __init__(self, term: Term) -> None:
        self.term = term
        self.counter = 0
        self.level = 0
        self.asked = 0  # binder names asked for, one per application, not yet drawn
        self.binders: Optional[NameSource] = None
        self.tyvars: Optional[NameSource] = None

    def fresh(self) -> _Cell:
        self.counter += 1
        return _Cell(self.counter, self.level)

    def _name_sources(self) -> None:
        """The binder and type-variable name sources, which avoid the
        term's names: made when the first name is printed."""
        names = _all_names(self.term)
        self.binders, self.tyvars = NameSource("x", names), NameSource("a", names)

    def binder(self) -> str:
        """The binder name of the application W is at. The names asked for
        by the applications since the last one drawn, whose binders are
        never read, are drawn and dropped first."""
        if self.binders is None:
            self._name_sources()
        for _ in range(self.asked):
            name = self.binders.fresh()
        self.asked = 0
        return name

    def unify(self, a, b) -> None:
        a, b = _repr(a), _repr(b)
        if a is b:  # a cell, or an interned shape
            return
        if a.__class__ is _Cell:
            if _occurs_lowering(a, b):
                raise ShapeError(f"occurs check failed: ?{a.n} in {_show(b)}")
            a.link = b
        elif b.__class__ is _Cell:
            self.unify(b, a)
        elif isinstance(a, _ARROWS) and isinstance(b, _ARROWS):
            self.unify(a.dom, b.dom)
            self.unify(a.cod, b.cod)
        else:
            raise ShapeError(f"cannot unify {_show(a)} with {_show(b)}")

    def _instantiate(self, sch: ShapeScheme, node: tuple) -> tuple[SimpleType, tuple]:
        """A copy of a polymorphic scheme's type over fresh cells, and the
        node wrapped in one instantiation per quantifier."""
        fresh = {q: self.fresh() for q in sch.qvars}
        for q in sch.qvars:  # first quantifier instantiated innermost
            node = (_tyinst, fresh[q], node)
        return _copy(sch.ty, fresh), node

    def _deeper(self, t, acc: list[_Cell]) -> None:
        t = _repr(t)
        if t.__class__ is _Cell:
            if t.level > self.level and t not in acc:
                acc.append(t)
        elif t.__class__ is _Fn:
            self._deeper(t.dom, acc)
            self._deeper(t.cod, acc)

    def generalize(self, ty, term: tuple) -> tuple[ShapeScheme, tuple]:
        """The scheme of `term`'s type `ty` over its cells deeper than the
        current level, each named by a fresh type variable, and the term
        wrapped in one type abstraction per name. The scheme quantifies over
        the cells; `elaborate` prints their names, drawn here from a source
        made when the first name is printed."""
        gen: list[_Cell] = []
        self._deeper(ty, gen)
        if gen and self.tyvars is None:
            self._name_sources()
        for cell in gen:
            cell.name = self.tyvars.fresh()
        for cell in reversed(gen):
            term = (_tyabs, cell.name, term)
        return ShapeScheme(tuple(gen), ty), term

    def infer(self, env: ShapeEnv, t: Term) -> tuple[SimpleType, tuple]:
        """t's type and pre-term. A `let`'s bound term is inferred one level
        deeper and generalized here; a `\\` or a `let` binds its variable in
        `env` and restores the binding it shadowed. An application whose
        function type is a final arrow takes its codomain and makes no
        cell; one whose function type is a free cell binds it to the
        expected arrow, whose binder is named then. On an error `env` is
        left as it is: `elaborate` drops it, a copy of the caller's."""
        cls = t.__class__
        if cls is Var:
            sch = env.get(t.name)
            if sch is None:
                raise ShapeError(f"unbound variable {t.name!r}")
            node = (_var, t.name, sch.ty)
            return self._instantiate(sch, node) if sch.qvars else (sch.ty, node)
        if cls is Const:
            sch = constant_shape(t.const)
            return self._instantiate(sch, (_built, t)) if sch.qvars else (sch.ty, (_built, t))
        if cls is App:
            fun_ty, fun = self.infer(env, t.fun)
            arg_ty, arg = self.infer(env, t.arg)
            # the result cell's number and binder name are taken even where
            # neither is made, so later ones are those of the general path
            self.counter += 1
            self.asked += 1
            f = _repr(fun_ty)
            if f.__class__ is Arrow:  # a known function: its codomain is the result
                self.unify(f.dom, arg_ty)
                return f.cod, (_app, fun, arg, f.cod)
            res = _Cell(self.counter, self.level)
            # only a free cell becomes the expected arrow, binder and all;
            # any other function type is unified with it part by part
            binder = self.binder() if f.__class__ is _Cell else None
            self.unify(f, _Fn(binder, arg_ty, res))
            return res, (_app, fun, arg, res)
        if cls is Let:
            self.level += 1
            ty, bound = self.infer(env, t.bound)
            self.level -= 1
            sch, bound = self.generalize(ty, bound)
            x = t.binder
            shadowed = env.get(x)
            env[x] = sch
            body_ty, body = self.infer(env, t.body)
            if shadowed is None:
                del env[x]
            else:
                env[x] = shadowed
            return body_ty, (_let, x, bound, body, body_ty)
        if cls is Lam:
            u = self.fresh()
            x = t.binder
            shadowed = env.get(x)
            env[x] = ShapeScheme((), u)
            body_ty, body = self.infer(env, t.body)
            if shadowed is None:
                del env[x]
            else:
                env[x] = shadowed
            arrow = _Fn(x, u, body_ty)
            return arrow, (_lam, x, body, arrow)
        return self.infer(env, t.body)  # a type abstraction or instantiation


def elaborate(senv: ShapeEnv, term: Term) -> Elaboration:
    """Infer shapes and insert explicit type abstraction and instantiation.
    Each `Var`, `Lam`, `App` and `Let` node carries its finalized shape; a
    variable's is that of its scheme before instantiation. An elaborated
    term elaborates to itself: W reads only its erasure. The term's names
    are collected only if W prints a name, which must avoid them."""
    w = _W(term)
    w.level = 1  # the term is inferred as a let's bound term at the top level
    ty, pre = w.infer(dict(senv), term)
    w.level = 0
    sch, pre = w.generalize(ty, pre)
    qvars = tuple(cell.name for cell in sch.qvars)
    return Elaboration(_finalize(pre), ShapeScheme(qvars, _shape(sch.ty)))


def w_infer(senv: ShapeEnv, term: Term) -> ShapeScheme:
    """Principal ML shape, generalized against the environment."""
    return elaborate(senv, term).scheme
