"""Damas-Milner shape inference (algorithm W) over the term language, plus
elaboration: explicit type abstractions at generalizing lets and explicit
instantiations at polymorphic variable and constant uses.

Shapes are the refinement-free simple types that liquid intersection types
refine; inference templates are generated from them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

from .syntax import (
    App,
    Arrow,
    Base,
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


def _is_uvar(t: SimpleType) -> bool:
    return isinstance(t, TyVar) and t.name.startswith("?")


class _W:
    def __init__(self) -> None:
        self.subst: dict[str, SimpleType] = {}
        self.gen_named: dict[str, str] = {}
        self.counter = 0
        self.tyvars = NameSource("a")
        self.binders = NameSource("x")
        self.types: dict[int, Union[SimpleType, ShapeScheme]] = {}
        # schemes without unification variables, by id (the value keeps the
        # id from being reused): the substitution only ever binds
        # unification variables, so these stay ground
        self.ground: dict[int, ShapeScheme] = {}

    def fresh(self) -> TyVar:
        self.counter += 1
        return TyVar(f"?{self.counter}")

    def resolve(self, t: SimpleType) -> SimpleType:
        if isinstance(t, TyVar) and t.name in self.subst:
            return self.resolve(self.subst[t.name])
        if isinstance(t, Arrow):
            return Arrow(t.binder, self.resolve(t.dom), self.resolve(t.cod))
        return t

    def _occurs(self, name: str, t: SimpleType) -> bool:
        t = self.resolve(t)
        if isinstance(t, TyVar):
            return t.name == name
        if isinstance(t, Arrow):
            return self._occurs(name, t.dom) or self._occurs(name, t.cod)
        return False

    def unify(self, a: SimpleType, b: SimpleType) -> None:
        a, b = self.resolve(a), self.resolve(b)
        if _is_uvar(a):
            if not (_is_uvar(b) and b.name == a.name):
                if self._occurs(a.name, b):
                    raise ShapeError(f"occurs check failed: {a.name} in {render_simple_type(b)}")
                self.subst[a.name] = b
            return
        if _is_uvar(b):
            self.unify(b, a)
            return
        if isinstance(a, Base) and isinstance(b, Base) and a.name == b.name:
            return
        if isinstance(a, TyVar) and isinstance(b, TyVar) and a.name == b.name:
            return
        if isinstance(a, Arrow) and isinstance(b, Arrow):
            self.unify(a.dom, b.dom)
            self.unify(a.cod, b.cod)
            return
        raise ShapeError(
            f"cannot unify {render_simple_type(a)} with {render_simple_type(b)}"
        )

    def _instantiate(self, sch: ShapeScheme, node: Term) -> tuple[SimpleType, Term]:
        if not sch.qvars:
            return sch.ty, node
        mapping = {q: self.fresh() for q in sch.qvars}
        elab = node
        for q in sch.qvars:  # first quantifier instantiated innermost
            elab = TyInst(mapping[q], elab)
            self.types[id(elab)] = mapping[q]
        return _replace_tyvars(sch.ty, mapping), elab

    def _free_uvars(self, t: SimpleType, acc: list[str]) -> None:
        t = self.resolve(t)
        if isinstance(t, TyVar):
            if t.name.startswith("?") and t.name not in acc:
                acc.append(t.name)
        elif isinstance(t, Arrow):
            self._free_uvars(t.dom, acc)
            self._free_uvars(t.cod, acc)

    def env_uvars(self, env: ShapeEnv) -> set[str]:
        """Free unification variables of the environment; ground schemes are
        skipped, so the cost follows the open schemes, not the size of env."""
        acc: list[str] = []
        for sch in env.values():
            if id(sch) in self.ground:
                continue
            inner: list[str] = []
            self._free_uvars(sch.ty, inner)
            if not inner:
                self.ground[id(sch)] = sch
            acc.extend(u for u in inner if u not in sch.qvars)
        return set(acc)

    def generalize(self, env: ShapeEnv, ty: SimpleType, term: Term) -> tuple[ShapeScheme, Term]:
        """The scheme of `term`'s type `ty` over the unification variables
        free in it and not in env, each named by a fresh type variable, and
        the term wrapped in one type abstraction per name."""
        resolved = self.resolve(ty)
        outside = self.env_uvars(env)
        gen: list[str] = []
        self._free_uvars(resolved, gen)
        gen = [u for u in gen if u not in outside]
        rigid: list[str] = []
        for u in gen:
            if u in self.gen_named:
                raise ShapeError("type variable generalized twice")
            name = self.tyvars.fresh()
            self.gen_named[u] = name
            rigid.append(name)
        for name in reversed(rigid):
            term = TyAbs(name, term)
            self.types[id(term)] = resolved
        return ShapeScheme(tuple(gen), resolved), term

    def infer(self, env: ShapeEnv, t: Term) -> tuple[SimpleType, Term]:
        if isinstance(t, Var):
            sch = env.get(t.name)
            if sch is None:
                raise ShapeError(f"unbound variable {t.name!r}")
            node = Var(t.name, pos=t.pos)
            self.types[id(node)] = sch
            ty, elab = self._instantiate(sch, node)
            return ty, elab
        if isinstance(t, Const):
            sch = constant_shape(t.const)
            node = Const(t.const, pos=t.pos)
            self.types[id(node)] = sch
            return self._instantiate(sch, node)
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
            sch, bound = self.generalize(env, *self.infer(env, t.bound))
            body_ty, body = self.infer({**env, t.binder: sch}, t.body)
            node = Let(t.binder, bound, body, pos=t.pos)
            self.types[id(node)] = body_ty
            return body_ty, node
        raise ShapeError("explicit type nodes are inserted by elaboration; erase first")

    def finalize_type(self, t: SimpleType) -> SimpleType:
        t = self.resolve(t)
        if isinstance(t, TyVar):
            if t.name in self.gen_named:
                return TyVar(self.gen_named[t.name])
            if t.name.startswith("?"):
                return INT  # unconstrained shapes default to int
        if isinstance(t, Arrow):
            return Arrow(t.binder, self.finalize_type(t.dom), self.finalize_type(t.cod))
        return t

    def finalize_scheme(self, sch: Union[SimpleType, ShapeScheme]) -> ShapeScheme:
        if isinstance(sch, ShapeScheme):
            qvars = tuple(self.gen_named.get(q, q) for q in sch.qvars)
            return ShapeScheme(qvars, self.finalize_type(sch.ty))
        return ShapeScheme((), self.finalize_type(sch))

    def finalize_term(self, t: Term, table: dict[int, ShapeScheme]) -> Term:
        if isinstance(t, Var):
            node = Var(t.name, pos=t.pos)
        elif isinstance(t, Const):
            node = Const(t.const, pos=t.pos)
        elif isinstance(t, Lam):
            node = Lam(t.binder, self.finalize_term(t.body, table), pos=t.pos)
        elif isinstance(t, App):
            node = App(
                self.finalize_term(t.fun, table),
                self.finalize_term(t.arg, table),
                pos=t.pos,
            )
        elif isinstance(t, Let):
            node = Let(
                t.binder,
                self.finalize_term(t.bound, table),
                self.finalize_term(t.body, table),
                pos=t.pos,
            )
        elif isinstance(t, TyAbs):
            node = TyAbs(t.tyvar, self.finalize_term(t.body, table), pos=t.pos)
        else:
            node = TyInst(self.finalize_type(t.ty), self.finalize_term(t.body, table), pos=t.pos)
        recorded = self.types.get(id(t))
        if recorded is not None:
            table[id(node)] = self.finalize_scheme(recorded)
        return node


def _replace_tyvars(t: SimpleType, mapping: dict[str, SimpleType]) -> SimpleType:
    if isinstance(t, TyVar):
        return mapping.get(t.name, t)
    if isinstance(t, Arrow):
        return Arrow(t.binder, _replace_tyvars(t.dom, mapping), _replace_tyvars(t.cod, mapping))
    return t


def elaborate(senv: ShapeEnv, term: Term) -> Elaboration:
    """Infer shapes and insert explicit type abstraction and instantiation."""
    w = _W()
    _reserve_names(w, term)
    sch, elab = w.generalize(senv, *w.infer(senv, term))
    table: dict[int, ShapeScheme] = {}
    final = w.finalize_term(elab, table)
    return Elaboration(final, w.finalize_scheme(sch), table)


def w_infer(senv: ShapeEnv, term: Term) -> ShapeScheme:
    """Principal ML shape, generalized against the environment."""
    return elaborate(senv, term).scheme


def _reserve_names(w: _W, term: Term) -> None:
    from .anf import _all_names

    names = _all_names(term)
    w.binders.reserve(names)
    w.tyvars.reserve(names)


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
