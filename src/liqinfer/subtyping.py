"""Algorithmic subtyping and well-formedness for liquid intersection types.

Base-to-base subtyping reduces to one validity query; function targets use
the closure of elimination, intersection introduction and arrow subtyping:
an intersection of arrows is below an arrow when the arms whose domains
accept the target domain jointly yield a codomain below the target codomain.
Subtyping asks the validity engine only "Valid?" (need_model=False), so no
countermodel is searched for on the inference path; any other answer, a
proved Invalid or an Unknown alike, is conservatively read as "not a
subtype".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from .logic import DEFAULT_CONFIG, EmbedConfig, conj, embed_env, embed_refinement
from .syntax import (
    Base,
    BaseArm,
    Env,
    FunArm,
    IllFoundedType,
    LiquidType,
    Scheme,
    Var,
    VarArm,
    VALUE_VAR,
    make_type,
    mono,
    refinement_sorts_ok,
    refinement_vars,
    render_scheme,
    shape_of,
    subst_liquid,
    subst_tyvar_liquid,
)
from .validity import Valid, ValidityEngine, ValidityQuery


@dataclass(frozen=True)
class WellFormedC:
    env: Env
    scheme: Scheme


@dataclass(frozen=True)
class SubtypeC:
    env: Env
    lhs: Scheme
    rhs: Scheme


Constraint = Union[WellFormedC, SubtypeC]


@dataclass
class LogEntry:
    kind: str  # "wf" or "sub"
    description: str
    verdict: bool


def env_sorts(env: Env) -> dict[str, str]:
    """Base sorts of bindings usable inside refinements."""
    sorts: dict[str, str] = {}
    for name, sch in env.bindings:
        if sch.qvars:
            sorts.pop(name, None)
            continue
        arms = sch.body.arms
        if all(isinstance(a, BaseArm) for a in arms):
            sorts[name] = arms[0].base.name
        else:
            sorts.pop(name, None)  # later non-base binding shadows
    return sorts


class SubtypeChecker:
    def __init__(
        self,
        engine: ValidityEngine,
        config: EmbedConfig = DEFAULT_CONFIG,
        log: Optional[list[LogEntry]] = None,
    ) -> None:
        self.engine = engine
        self.config = config
        self.log = log

    # -- well-formedness ----------------------------------------------------

    def wf_check(self, env: Env, s: Union[Scheme, LiquidType]) -> bool:
        if isinstance(s, LiquidType):
            s = mono(s)
        ok = self._wf_type(s.body, env_sorts(env))
        if self.log is not None:
            self.log.append(LogEntry("wf", f"{_env_str(env)} |- {render_scheme(s)}", ok))
        return ok

    def _wf_type(self, t: LiquidType, sorts: dict[str, str]) -> bool:
        for arm in t.arms:
            if isinstance(arm, BaseArm):
                if not refinement_sorts_ok(arm.ref, {**sorts, VALUE_VAR: arm.base.name}):
                    return False
            elif isinstance(arm, VarArm):
                continue
            else:
                if not self._wf_type(arm.dom, sorts):
                    return False
                inner = dict(sorts)
                dom_shape = shape_of(arm.dom)
                if isinstance(dom_shape, Base):
                    inner[arm.binder] = dom_shape.name
                else:
                    inner.pop(arm.binder, None)
                if not self._wf_type(arm.cod, inner):
                    return False
        return True

    # -- subtyping ----------------------------------------------------------

    def is_subtype(
        self,
        env: Env,
        a: Union[Scheme, LiquidType],
        b: Union[Scheme, LiquidType],
    ) -> bool:
        if isinstance(a, LiquidType):
            a = mono(a)
        if isinstance(b, LiquidType):
            b = mono(b)
        ok = self._sub_scheme(env, a, b)
        if self.log is not None:
            self.log.append(
                LogEntry("sub", f"{_env_str(env)} |- {render_scheme(a)} < {render_scheme(b)}", ok)
            )
        return ok

    def _sub_scheme(self, env: Env, a: Scheme, b: Scheme) -> bool:
        if len(a.qvars) != len(b.qvars):
            return False
        body_b = b.body
        for qa, qb in zip(a.qvars, b.qvars):
            if qa != qb:
                body_b = subst_tyvar_liquid(body_b, qb, LiquidType((VarArm(qa),)))
        return self._sub(env, a.body, body_b)

    def _sub(self, env: Env, a: LiquidType, b: LiquidType) -> bool:
        if a == b:
            return True  # reflexivity needs no solver support
        if shape_of(a) != shape_of(b):
            return False
        first = b.arms[0]
        if isinstance(first, BaseArm):
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
        taken = set(env.names())
        for arm in survivors + [rhs]:
            taken |= _type_vars(arm.cod)
        if rhs.binder not in env.names():
            return rhs.binder
        i = 0
        while f"{rhs.binder}%{i}" in taken:
            i += 1
        return f"{rhs.binder}%{i}"

    def base_subtype_query(self, env: Env, lhs_arms: list, rhs_arms: list) -> ValidityQuery:
        hyp = conj(
            [embed_env(env, self.config)]
            + [embed_refinement(a.ref, self.config) for a in lhs_arms]
        )
        concl = conj([embed_refinement(a.ref, self.config) for a in rhs_arms])
        return ValidityQuery(hyp, concl)

    # -- constraint simplification ------------------------------------------

    def simplify(self, c: Constraint) -> list[Constraint]:
        if isinstance(c, WellFormedC):
            out: list[Constraint] = []
            for arm in c.scheme.body.arms:
                if isinstance(arm, (BaseArm, VarArm)):
                    out.append(WellFormedC(c.env, mono(LiquidType((arm,)))))
                else:
                    out.extend(self.simplify(WellFormedC(c.env, mono(arm.dom))))
                    inner_env = c.env.extend(arm.binder, mono(arm.dom))
                    out.extend(self.simplify(WellFormedC(inner_env, mono(arm.cod))))
            return out
        if shape_of(c.lhs) != shape_of(c.rhs):
            raise IllFoundedType("subtype constraint between different shapes")
        lhs_arms, rhs_arms = c.lhs.body.arms, c.rhs.body.arms
        if all(isinstance(a, BaseArm) for a in lhs_arms) and all(
            isinstance(a, BaseArm) for a in rhs_arms
        ):
            return [c]
        if len(rhs_arms) > 1:
            out = []
            for arm in rhs_arms:
                out.extend(
                    self.simplify(SubtypeC(c.env, c.lhs, Scheme(c.rhs.qvars, LiquidType((arm,)))))
                )
            return out
        rhs = rhs_arms[0]
        if isinstance(rhs, VarArm):
            return []  # alpha < alpha is an axiom
        if isinstance(rhs, FunArm) and len(lhs_arms) == 1 and isinstance(lhs_arms[0], FunArm):
            lhs = lhs_arms[0]
            out = self.simplify(SubtypeC(c.env, mono(rhs.dom), mono(lhs.dom)))
            binder = rhs.binder
            cod_l = lhs.cod if lhs.binder == binder else subst_liquid(lhs.cod, {lhs.binder: Var(binder)})
            inner = c.env.extend(binder, mono(rhs.dom))
            out.extend(self.simplify(SubtypeC(inner, mono(cod_l), mono(rhs.cod))))
            return out
        return [c]  # intersection-of-arrows below an arrow needs arm selection


def _type_vars(t: LiquidType) -> set[str]:
    out: set[str] = set()
    for arm in t.arms:
        if isinstance(arm, BaseArm):
            out |= refinement_vars(arm.ref)
        elif isinstance(arm, FunArm):
            out.add(arm.binder)
            out |= _type_vars(arm.dom)
            out |= _type_vars(arm.cod)
    return out


def _env_str(env: Env) -> str:
    return ", ".join(f"{n}:{render_scheme(s)}" for n, s in env.bindings) or "-"
