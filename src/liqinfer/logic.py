"""The formula of an environment, for the validity engine.

Refinements already are formulas of the engine's logic (`syntax.Formula`),
so a base arm's refinement needs no translation. What is left here is the
environment: `embed_env` conjoins the refinements of the base bindings in
scope, each with its value variable renamed to the bound name.
"""

from __future__ import annotations

from .syntax import (
    Env,
    FAnd,
    FTrue,
    Formula,
    LiqError,
    BaseBinding,
    TRUE,
    Var,
    VALUE_VAR,
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


def _binding_conjuncts(b: BaseBinding) -> tuple[Formula, ...]:
    parts = b.embedded
    if parts is None:
        rename = {VALUE_VAR: Var(b.name)}
        parts = b.embedded = tuple(subst_refinement(a.ref, rename) for a in b.arms)
    return parts


def embed_env(env: Env) -> Formula:
    """Conjunction over the base bindings of `env.scope()` of their
    refinements with the value variable renamed to the bound name; other
    bindings contribute nothing. Only the last binding of a name counts
    (shadowing), and one of a non-base type hides the name.

    Built once per scope, and shared by every environment with that scope:
    from the prefix scope's formula when the scope appends one binding to
    it, otherwise from the conjuncts each binding keeps. Each environment
    node keeps it as well, so a later call reads one slot."""
    f = env.embedded
    if f is not None:
        return f
    scope = env.scope()
    f = scope.embedded
    if f is None:
        prefix = scope.prefix
        if prefix is not None and prefix.embedded is not None:
            last = next(reversed(scope.bindings.values()))
            f = conj([prefix.embedded, *_binding_conjuncts(last)])
        else:
            f = conj([p for b in scope.bindings.values() for p in _binding_conjuncts(b)])
        scope.embedded = f
    env.embedded = f
    return f
