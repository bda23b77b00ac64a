"""A-normalization: every application gets a variable or constant in both
the function and the argument position, with intermediates let-bound.

Keeping applications atomic means the refinement substitution performed by
the application case of inference only ever substitutes variables or
constants, which stays inside the decidable logic.
"""

from __future__ import annotations

from typing import Callable

from .syntax import App, Const, Lam, Let, NameSource, Term, TyAbs, TyInst, Var


def _all_names(t: Term) -> set[str]:
    names: set[str] = set()

    def walk(u: Term) -> None:
        if isinstance(u, Var):
            names.add(u.name)
        elif isinstance(u, Lam):
            names.add(u.binder)
            walk(u.body)
        elif isinstance(u, App):
            walk(u.fun)
            walk(u.arg)
        elif isinstance(u, Let):
            names.add(u.binder)
            walk(u.bound)
            walk(u.body)
        elif isinstance(u, (TyAbs, TyInst)):
            walk(u.body)

    walk(t)
    return names


def normalize(term: Term) -> Term:
    """Bind every non-atomic sub-expression of an application with a let."""
    return _norm(term, NameSource("t", used=_all_names(term)))


def is_atom(t: Term) -> bool:
    return isinstance(t, (Var, Const))


def _norm(t: Term, names: NameSource) -> Term:
    if is_atom(t):
        return t
    if isinstance(t, Lam):
        return Lam(t.binder, _norm(t.body, names))
    if isinstance(t, Let):
        return Let(t.binder, _norm(t.bound, names), _norm(t.body, names))
    if isinstance(t, App):
        return _name(t.fun, names, lambda f: _name(t.arg, names, lambda a: App(f, a)))
    if isinstance(t, TyAbs):
        return TyAbs(t.tyvar, _norm(t.body, names))
    return TyInst(t.ty, _norm(t.body, names))


def _name(t: Term, names: NameSource, k: Callable[[Term], Term]) -> Term:
    if is_atom(t):
        return k(t)
    nt = _norm(t, names)
    fresh = names.fresh()
    return Let(fresh, nt, k(Var(fresh)))


def is_anf(t: Term) -> bool:
    """True when every application is atomic in both positions."""
    if is_atom(t):
        return True
    if isinstance(t, Lam):
        return is_anf(t.body)
    if isinstance(t, Let):
        return is_anf(t.bound) and is_anf(t.body)
    if isinstance(t, App):
        return is_atom(t.fun) and is_atom(t.arg)
    if isinstance(t, (TyAbs, TyInst)):
        return is_anf(t.body)
    return False
