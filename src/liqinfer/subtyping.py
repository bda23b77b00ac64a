"""Algorithmic subtyping and well-formedness for liquid intersection types.

Base-to-base subtyping reduces to one validity query; function targets use
the closure of elimination, intersection introduction and arrow subtyping:
an intersection of arrows is below an arrow when the arms whose domains
accept the target domain jointly yield a codomain below the target codomain.
Subtyping asks the validity engine only "Valid?" (need_model=False), so no
countermodel is searched for on the inference path; any other answer, a
proved Invalid or an Unknown alike, is conservatively read as "not a
subtype". A checker decides each judgement once and answers repeats from
two memos: one keyed by name, and behind it one that keys a base judgement
up to a renaming of its names (see `SubtypeChecker`). A base target refined
by Top at every arm is settled without a query: every value satisfies
{v | true}; the Top type of the source's base shape is settled before the
memos, with no environment formula and no memo entry. `is_subtype` hands
two liquid types straight to `_sub`, the memos' one entry, and logs every
judgement it is asked.
Well-formedness keeps no memo: `wf_check` walks the type on every call,
reading Γ's sorts only at its free program variables (inference keeps the
verdicts per template, `inference._Template`).
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Union

from .logic import conj, embed_env
from .syntax import (
    BOOL,
    Base,
    BaseArm,
    Env,
    Formula,
    FunArm,
    INT,
    LiquidType,
    Scheme,
    TRUE,
    Var,
    VarArm,
    VALUE_VAR,
    base_top,
    make_type,
    mono,
    render_scheme,
    subst_liquid,
    subst_tyvar_liquid,
)
from .validity import Valid, ValidityEngine, ValidityQuery, canonical_form


class LogEntry(NamedTuple):
    kind: str  # "wf" or "sub"
    description: str
    verdict: bool


# The Top type {v : b | true} of each base shape b, hash-consed: every type
# of shape b is below it (the Top rule).
_TOPS = {INT: base_top(INT), BOOL: base_top(BOOL)}


class SubtypeChecker:
    """Well-formedness and subtyping judgements under one validity engine.

    A judgement Γ ⊢ τ₁ <: τ₂ depends on Γ only through Γ's formula,
    `embed_env(Γ)`: its base queries read Γ through that formula alone, and
    the rest of Γ serves only to pick a binder name for an arrow's codomain
    that no binding of Γ uses and no codomain binds (`_fresh_binder`).
    Binder names do not matter: the formula and the types mention only
    names bound in Γ, as well-formedness guarantees, so such a binder avoids
    capture, and the queries made under two choices differ only by a
    renaming of that bound variable. Both choices get the same verdicts:
    the built-in procedure proves a query exactly when it proves each of
    its renamings (a property `tests/test_validity.py` checks), and within
    one checker the memo up to renaming below answers a renamed repeat with
    the first verdict. The checker therefore decides each judgement once,
    keyed by (Γ's formula, τ₁, τ₂), and answers repeats from that memo for
    as long as it lives: across the `infer` calls of one `Inferencer`, too.

    A base judgement misses that memo at every level of a let chain, whose
    bindings are fresh names. Its verdict is the engine's on
    `base_subtype_query`, which commutes with renaming: the query conjoins
    Γ's formula with τ₁'s refinements and concludes τ₂'s. So a second memo
    keys a base judgement up to a renaming of all its names
    (`_renamed_key`): the canonical forms of Γ's formula and of τ₁'s and
    τ₂'s refinements, each printed once by the engine's canonical printer
    and kept on its formula or type, with the places of τ₁'s and τ₂'s names
    in the numbering Γ's form starts. Equal keys mean the two queries are
    renamings of each other, with one verdict; this memo answers the second
    without building or asking the query, and the engine keeps no verdicts
    of its own. An arrow judgement keeps the first key only, since it
    decomposes into base judgements. The memo keyed by name comes first:
    its key costs a tuple, and it answers the repeats that need no
    renaming.

    The Top rule: once the shapes agree, a base target whose every arm is
    refined by Top holds under any environment, with no query. Such a query
    would have the conclusion `true`, which the engine answers Valid anyway.
    A target that mixes a Top arm with an informative one still goes to the
    engine. `_sub` settles the commonest case, the Top type of the source's
    base shape, before it reads Γ's formula or the memos.
    """

    def __init__(
        self,
        engine: ValidityEngine,
        log: Optional[list[LogEntry]] = None,
    ) -> None:
        self.engine = engine
        self.log = log
        self._judged: dict[tuple[Formula, LiquidType, LiquidType], bool] = {}
        self._renamed: dict[tuple, bool] = {}

    # -- well-formedness ----------------------------------------------------

    def wf_check(self, env: Env, s: Union[Scheme, LiquidType]) -> bool:
        t = s if isinstance(s, LiquidType) else s.body
        ok = self._wf_type(t, {x: env.sort_of(x) for x in t.free})
        if self.log is not None:
            self.log.append(LogEntry("wf", f"{_env_str(env)} |- {_render(s)}", ok))
        return ok

    def _wf_type(self, t: LiquidType, sorts: dict[str, Optional[str]]) -> bool:
        """Whether t's refinements read each name at its sort: `sorts` maps
        t's free program variables to their sort in Γ, or None."""
        for arm in t.arms:
            if isinstance(arm, BaseArm):
                # a variable used at both sorts matches no sort in scope
                scope = {**sorts, VALUE_VAR: arm.base.name}
                if any(scope.get(x) != sort for x, sort in arm.ref.sorts.items()):
                    return False
            elif isinstance(arm, VarArm):
                continue
            else:
                if not self._wf_type(arm.dom, sorts):
                    return False
                dom_shape = arm.dom.shape
                sort = dom_shape.name if isinstance(dom_shape, Base) else None
                if not self._wf_type(arm.cod, {**sorts, arm.binder: sort}):
                    return False
        return True

    # -- subtyping ----------------------------------------------------------

    def is_subtype(
        self,
        env: Env,
        a: Union[Scheme, LiquidType],
        b: Union[Scheme, LiquidType],
    ) -> bool:
        if a.__class__ is LiquidType and b.__class__ is LiquidType:
            ok = self._sub(env, a, b)
        else:
            ok = self._sub_scheme(env, a, b)
        if self.log is not None:
            self.log.append(LogEntry("sub", f"{_env_str(env)} |- {_render(a)} < {_render(b)}", ok))
        return ok

    def _sub_scheme(
        self, env: Env, a: Union[Scheme, LiquidType], b: Union[Scheme, LiquidType]
    ) -> bool:
        qvars_a = a.qvars if isinstance(a, Scheme) else ()
        qvars_b = b.qvars if isinstance(b, Scheme) else ()
        if len(qvars_a) != len(qvars_b):
            return False
        body_a = a.body if isinstance(a, Scheme) else a
        body_b = b.body if isinstance(b, Scheme) else b
        for qa, qb in zip(qvars_a, qvars_b):
            if qa != qb:
                body_b = subst_tyvar_liquid(body_b, qb, LiquidType((VarArm(qa),)))
        return self._sub(env, body_a, body_b)

    def _sub(self, env: Env, a: LiquidType, b: LiquidType) -> bool:
        if a is b or b is _TOPS.get(a.shape):
            return True  # reflexivity and the Top rule need no solver support
        f = embed_env(env)
        key = (f, a, b)
        known = self._judged.get(key)
        if known is None:
            if a.shape is b.shape and b.arms[0].__class__ is BaseArm:
                renamed = _renamed_key(f, a, b)
                known = self._renamed.get(renamed)
                if known is None:
                    known = self._renamed[renamed] = self._decide(env, a, b)
            else:
                known = self._decide(env, a, b)
            self._judged[key] = known
        return known

    def _decide(self, env: Env, a: LiquidType, b: LiquidType) -> bool:
        if a.shape != b.shape:
            return False
        first = b.arms[0]
        if isinstance(first, BaseArm):
            if all(arm.ref is TRUE for arm in b.arms):
                return True  # the Top rule
            lhs = [arm for arm in a.arms if isinstance(arm, BaseArm)]
            rhs = [arm for arm in b.arms if isinstance(arm, BaseArm)]
            q = self.base_subtype_query(env, lhs, rhs)
            return isinstance(self.engine.check(q, need_model=False), Valid)
        if isinstance(first, VarArm):
            return a.arms == b.arms
        return all(
            self._sub_arrow(env, list(a.arms), arm)  # each target arm independently
            for arm in b.arms
            if isinstance(arm, FunArm)
        )

    def _sub_arrow(self, env: Env, lhs_arms: list, rhs: FunArm) -> bool:
        survivors = [arm for arm in lhs_arms if self._sub(env, rhs.dom, arm.dom)]
        if not survivors:
            return False
        binder = self._fresh_binder(env, rhs, survivors)
        env2 = env.extend(binder, mono(rhs.dom))
        cods = []
        for arm in survivors:
            cod = arm.cod if arm.binder == binder else subst_liquid(arm.cod, {arm.binder: Var(binder)})
            cods.extend(cod.arms)
        target = rhs.cod if rhs.binder == binder else subst_liquid(rhs.cod, {rhs.binder: Var(binder)})
        return self._sub(env2, make_type(cods), target)

    def _fresh_binder(self, env: Env, rhs: FunArm, survivors: list) -> str:
        """The target's binder, unless Γ binds it or a survivor's codomain
        mentions it under another binder: renaming that binder to it could
        capture (`subst_liquid` does not rename inner binders)."""
        if env.lookup(rhs.binder) is None and not any(
            arm.binder != rhs.binder and rhs.binder in _type_vars(arm.cod) for arm in survivors
        ):
            return rhs.binder
        taken: set[str] = set()
        for arm in survivors + [rhs]:
            taken |= _type_vars(arm.cod)
        i = 0
        while env.lookup(f"{rhs.binder}%{i}") is not None or f"{rhs.binder}%{i}" in taken:
            i += 1
        return f"{rhs.binder}%{i}"

    def base_subtype_query(self, env: Env, lhs_arms: list, rhs_arms: list) -> ValidityQuery:
        hyp = conj([embed_env(env)] + [a.ref for a in lhs_arms])
        concl = conj([a.ref for a in rhs_arms])
        return ValidityQuery(hyp, concl)


def _renamed_key(f: Formula, a: LiquidType, b: LiquidType) -> tuple:
    """The key of the base judgement f |- a <: b up to a renaming of its
    names: the canonical forms of f and of the conjunctions of a's and b's
    refinements, and where each name of a and then of b stands in the
    numbering f's form starts (its canonical name there, or its rank among
    the names f does not mention)."""
    prefix, numbered = canonical_form(f)
    text_a, names_a = _refinement_form(a)
    text_b, names_b = _refinement_form(b)
    fresh: dict[str, int] = {}
    places = tuple([numbered.get(x) or fresh.setdefault(x, len(fresh)) for x in names_a + names_b])
    return prefix, text_a, text_b, places, a.shape


def _refinement_form(t: LiquidType) -> tuple[str, tuple[str, ...]]:
    """The canonical form of the conjunction of a base type's refinements,
    the part of a subtyping query the type makes, with its names in
    first-occurrence order; kept on the type."""
    try:
        return t._canonical
    except AttributeError:
        text, renaming = canonical_form(conj([arm.ref for arm in t.arms]))
        form = (text, tuple(renaming))
        object.__setattr__(t, "_canonical", form)
        return form


def _type_vars(t: LiquidType) -> set[str]:
    out: set[str] = set()
    for arm in t.arms:
        if isinstance(arm, BaseArm):
            out.update(arm.ref.sorts)
        elif isinstance(arm, FunArm):
            out.add(arm.binder)
            out |= _type_vars(arm.dom)
            out |= _type_vars(arm.cod)
    return out


def _render(s: Union[Scheme, LiquidType]) -> str:
    return render_scheme(s if isinstance(s, Scheme) else mono(s))


def _env_str(env: Env) -> str:
    return ", ".join(f"{n}:{render_scheme(s)}" for n, s in env.bindings) or "-"
