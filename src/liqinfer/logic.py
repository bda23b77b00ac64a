"""The formula of an environment, for the validity engine.

Refinements already are formulas of the engine's logic (`syntax.Formula`),
so a base arm's refinement needs no translation. What is left here is the
environment Γ and its embedding [[Γ]]: `embed_env` conjoins the
refinements of the bindings refinements can see (`visible_bindings`), each
with its value variable renamed to the bound name. Each environment node
keeps its formula, which `embed_env` builds from its parent's
(`_extend_formula`) in one loop up to the nearest node that has one.
"""

from __future__ import annotations

from typing import Iterable

from .syntax import (
    BaseArm,
    Env,
    FAnd,
    FTrue,
    Formula,
    LiqError,
    TRUE,
    Var,
    VALUE_VAR,
    base_arms,
    subst_refinement,
)


class EmbeddingError(LiqError):
    """A query falls outside the engine's fragment: a variable is used at
    both sorts."""


def conj(parts: list[Formula]) -> Formula:
    flat: list[Formula] = []
    for p in parts:
        if isinstance(p, FTrue):
            continue
        if isinstance(p, FAnd):
            flat.extend(p.parts)
        else:
            flat.append(p)
    if not flat:
        return TRUE
    if len(flat) == 1:
        return flat[0]
    return FAnd(tuple(flat))


def visible_bindings(env: Env) -> dict[str, tuple[BaseArm, ...]]:
    """The base arms of each binding refinements can see under `env`, in
    the order of the bindings: for each name its last binding, kept when it
    is a monomorphic base type (`base_arms`). One walk over the bindings."""
    last: dict = {}
    for name, scheme in env.bindings:
        last.pop(name, None)
        last[name] = scheme
    return {name: arms for name, scheme in last.items() if (arms := base_arms(scheme))}


def _renamed(bindings: Iterable[tuple[str, tuple[BaseArm, ...]]]) -> list[Formula]:
    return [subst_refinement(a.ref, {VALUE_VAR: Var(name)}) for name, arms in bindings for a in arms]


def _extend_formula(f: Formula, node: Env) -> Formula:
    """The formula of `node` from its parent's, `f`. A binding of a name the
    parent's refinements cannot see adds its conjuncts, or nothing; one that
    shadows or hides a visible name rebuilds the formula."""
    if node.parent.sort_of(node.name) is None:
        arms = base_arms(node.scheme)
        return conj([f, *_renamed([(node.name, arms)])]) if arms else f
    return conj(_renamed(visible_bindings(node).items()))


def embed_env(env: Env) -> Formula:
    """[[env]]: the conjunction over `visible_bindings(env)` of their
    refinements with the value variable renamed to the bound name. Built
    once per environment node, from its parent's formula, and kept on the
    node. A loop, not a recursion: environments grow deeper than the
    recursion limit."""
    f = getattr(env, "_formula", None)
    if f is not None:  # the common case, read on every query
        return f
    chain = []
    node = env
    while node.parent is not None and (f := getattr(node, "_formula", None)) is None:
        chain.append(node)
        node = node.parent
    if node.parent is None:
        f = TRUE
    for node in reversed(chain):
        f = _extend_formula(f, node)
        object.__setattr__(node, "_formula", f)
    return f
