"""Embedding of refinement expressions, terms and environments into
quantifier-free formulas over equality, uninterpreted functions and linear
integer arithmetic.

Exact multiplication embeds through the uninterpreted symbol ``times`` unless
the target solver supports nonlinear arithmetic, in which case a real product
term is emitted (see EmbedConfig).

Logic terms and formulas are hash-consed like the types of `syntax`
(`Interned`): equality is identity, and values are built only by calling
their classes with positional fields.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from .syntax import (
    AddExp,
    App,
    BoolConst,
    BoolRef,
    BoolVarRef,
    CmpRef,
    ConjRef,
    Const,
    Env,
    IffRef,
    IntConst,
    IntExp,
    IntExpr,
    Lam,
    LiqError,
    MulExp,
    NameSource,
    NegExp,
    PartialPrim,
    PrimConst,
    Refinement,
    BaseArm,
    BaseBinding,
    SubExp,
    Term,
    TopRef,
    Var,
    VarExp,
    VALUE_VAR,
    Value,
    interned,
)


class EmbeddingError(LiqError):
    """A term or refinement falls outside the embeddable fragment."""


# ---------------------------------------------------------------------------
# Logic terms and formulas (quantifier-free by construction)
# ---------------------------------------------------------------------------


@interned
class LInt(Value):
    value: int


@interned
class LVar(Value):
    name: str


@interned
class LNeg(Value):
    arg: "LogicTerm"


@interned
class LAdd(Value):
    lhs: "LogicTerm"
    rhs: "LogicTerm"


@interned
class LSub(Value):
    lhs: "LogicTerm"
    rhs: "LogicTerm"


@interned
class LMul(Value):
    lhs: "LogicTerm"
    rhs: "LogicTerm"


@interned
class LApp(Value):
    """Application of an uninterpreted function symbol."""

    fn: str
    args: tuple["LogicTerm", ...]


LogicTerm = Union[LInt, LVar, LNeg, LAdd, LSub, LMul, LApp]


class _Formula(Value):
    """Base of the formula classes. `memo` keeps what the validity engine
    derives from a formula (its cache-key prefix, its compiled rows) in a
    slot that is not a field, as `_Arm.embedded` does for arms: every
    occurrence of the formula shares it, and it dies with the formula."""

    __slots__ = ("_memo",)

    @property
    def memo(self) -> dict:
        try:
            return self._memo
        except AttributeError:
            memo: dict = {}
            object.__setattr__(self, "_memo", memo)
            return memo


@interned
class FTrue(_Formula):
    pass


@interned
class FFalse(_Formula):
    pass


@interned
class FAtom(_Formula):
    op: str  # = <= >= < >
    lhs: LogicTerm
    rhs: LogicTerm


@interned
class FBoolVar(_Formula):
    name: str


@interned
class FNot(_Formula):
    arg: "Formula"


@interned
class FAnd(_Formula):
    parts: tuple["Formula", ...]


@interned
class FImplies(_Formula):
    lhs: "Formula"
    rhs: "Formula"


@interned
class FIff(_Formula):
    lhs: "Formula"
    rhs: "Formula"


Formula = Union[FTrue, FFalse, FAtom, FBoolVar, FNot, FAnd, FImplies, FIff]

TRUE = FTrue()
FALSE = FFalse()


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


@dataclass(frozen=True)
class EmbedConfig:
    """nonlinear_mul selects real products instead of the uninterpreted
    ``times`` symbol; only meaningful for solvers that support it."""

    nonlinear_mul: bool = False


DEFAULT_CONFIG = EmbedConfig()


# ---------------------------------------------------------------------------
# Embedding
# ---------------------------------------------------------------------------


def embed_int_expr(e: IntExpr, config: EmbedConfig = DEFAULT_CONFIG) -> LogicTerm:
    if isinstance(e, IntExp):
        return LInt(e.value)
    if isinstance(e, VarExp):
        return LVar(e.name)
    if isinstance(e, NegExp):
        inner = embed_int_expr(e.arg, config)
        if isinstance(inner, LInt):
            return LInt(-inner.value)
        return LNeg(inner)
    if isinstance(e, AddExp):
        return LAdd(embed_int_expr(e.lhs, config), embed_int_expr(e.rhs, config))
    if isinstance(e, SubExp):
        return LSub(embed_int_expr(e.lhs, config), embed_int_expr(e.rhs, config))
    if isinstance(e, MulExp):
        lhs = embed_int_expr(e.lhs, config)
        rhs = embed_int_expr(e.rhs, config)
        if isinstance(lhs, LInt) and isinstance(rhs, LInt):
            return LInt(lhs.value * rhs.value)
        if isinstance(lhs, LInt) or isinstance(rhs, LInt):
            return LMul(lhs, rhs)  # scaling by a constant stays linear
        if config.nonlinear_mul:
            return LMul(lhs, rhs)
        return LApp("times", (lhs, rhs))
    raise EmbeddingError(f"not an integer expression: {e!r}")


def embed_refinement(r: Refinement, config: EmbedConfig = DEFAULT_CONFIG) -> Formula:
    if isinstance(r, TopRef):
        return TRUE
    if isinstance(r, BoolRef):
        return TRUE if r.value else FALSE
    if isinstance(r, CmpRef):
        return FAtom(r.op, embed_int_expr(r.lhs, config), embed_int_expr(r.rhs, config))
    if isinstance(r, BoolVarRef):
        return FBoolVar(r.name)
    if isinstance(r, IffRef):
        return FIff(embed_refinement(r.lhs, config), embed_refinement(r.rhs, config))
    if isinstance(r, ConjRef):
        return conj([embed_refinement(p, config) for p in r.parts])
    raise EmbeddingError(f"not a boolean refinement expression: {r!r}")


_PRIM_BINOPS = {"add": LAdd, "sub": LSub}


def embed_term(t: Term, names: Optional[NameSource] = None,
               config: EmbedConfig = DEFAULT_CONFIG) -> LogicTerm:
    """Translate a term into the logic.  Arithmetic maps directly; lambda
    abstractions become fresh uninterpreted constants and applications with
    non-arithmetic heads go through the uninterpreted binary ``app``."""
    if names is None:
        names = NameSource("lam")
    if isinstance(t, Var):
        return LVar(t.name)
    if isinstance(t, Const):
        c = t.const
        if isinstance(c, IntConst):
            return LInt(c.value)
        if isinstance(c, BoolConst):
            return LInt(1 if c.value else 0)  # boolean values as 0/1 terms
        if isinstance(c, (PrimConst, PartialPrim)):
            return LVar(f"prim_{c.op}")
        raise EmbeddingError(f"cannot embed constant {c!r}")
    if isinstance(t, Lam):
        return LVar(names.fresh())
    if isinstance(t, App):
        spine, args = t.fun, [t.arg]
        while isinstance(spine, App):
            args.insert(0, spine.arg)
            spine = spine.fun
        if isinstance(spine, Const) and isinstance(spine.const, PrimConst):
            op = spine.const.op
            if op == "neg" and len(args) == 1:
                return LNeg(embed_term(args[0], names, config))
            if op in _PRIM_BINOPS and len(args) == 2:
                ctor = _PRIM_BINOPS[op]
                return ctor(embed_term(args[0], names, config), embed_term(args[1], names, config))
            if op == "mul" and len(args) == 2:
                lhs = embed_term(args[0], names, config)
                rhs = embed_term(args[1], names, config)
                if isinstance(lhs, LInt) and isinstance(rhs, LInt):
                    return LInt(lhs.value * rhs.value)
                if isinstance(lhs, LInt) or isinstance(rhs, LInt) or config.nonlinear_mul:
                    return LMul(lhs, rhs)
                return LApp("times", (lhs, rhs))
        acc = embed_term(spine, names, config)
        for a in args:
            acc = LApp("app", (acc, embed_term(a, names, config)))
        return acc
    raise EmbeddingError("only variables, constants and application chains embed")


def rename_formula(f: Formula, mapping: dict[str, str]) -> Formula:
    def rt(t: LogicTerm) -> LogicTerm:
        if isinstance(t, LVar):
            return LVar(mapping.get(t.name, t.name))
        if isinstance(t, LInt):
            return t
        if isinstance(t, LNeg):
            return LNeg(rt(t.arg))
        if isinstance(t, LApp):
            return LApp(t.fn, tuple(rt(a) for a in t.args))
        return type(t)(rt(t.lhs), rt(t.rhs))

    if isinstance(f, (FTrue, FFalse)):
        return f
    if isinstance(f, FAtom):
        return FAtom(f.op, rt(f.lhs), rt(f.rhs))
    if isinstance(f, FBoolVar):
        return FBoolVar(mapping.get(f.name, f.name))
    if isinstance(f, FNot):
        return FNot(rename_formula(f.arg, mapping))
    if isinstance(f, FAnd):
        return FAnd(tuple(rename_formula(p, mapping) for p in f.parts))
    return type(f)(rename_formula(f.lhs, mapping), rename_formula(f.rhs, mapping))


def embed_arm(arm: BaseArm, config: EmbedConfig = DEFAULT_CONFIG) -> Formula:
    """`embed_refinement` of the arm's refinement, memoized on the arm."""
    f = arm.embedded.get(config)
    if f is None:
        f = arm.embedded[config] = embed_refinement(arm.ref, config)
    return f


def _binding_conjuncts(b: BaseBinding, config: EmbedConfig) -> tuple[Formula, ...]:
    parts = b.embedded.get(config)
    if parts is None:
        rename = {VALUE_VAR: b.name}
        parts = b.embedded[config] = tuple(rename_formula(embed_arm(a, config), rename) for a in b.arms)
    return parts


def embed_env(env: Env, config: EmbedConfig = DEFAULT_CONFIG) -> Formula:
    """Conjunction over the base bindings of `env.scope()` of their
    refinements with the value variable renamed to the bound name; other
    bindings contribute nothing. Only the last binding of a name counts
    (shadowing), and one of a non-base type hides the name.

    Built once per scope and config, and shared by every environment with
    that scope: from the prefix scope's formula when the scope appends one
    binding to it, otherwise from the conjuncts each binding keeps."""
    scope = env.scope()
    f = scope.embedded.get(config)
    if f is None:
        prefix = scope.prefix
        if prefix is not None and config in prefix.embedded:
            last = next(reversed(scope.bindings.values()))
            f = conj([prefix.embedded[config], *_binding_conjuncts(last, config)])
        else:
            f = conj([p for b in scope.bindings.values() for p in _binding_conjuncts(b, config)])
        scope.embedded[config] = f
    return f


# ---------------------------------------------------------------------------
# Variable and symbol collection (used by the validity engine and SMT-LIB)
# ---------------------------------------------------------------------------


def term_vars(t: LogicTerm, acc: dict[str, str]) -> None:
    if isinstance(t, LVar):
        prev = acc.get(t.name)
        if prev == "bool":
            raise EmbeddingError(f"variable {t.name!r} used at both sorts")
        acc[t.name] = "int"
    elif isinstance(t, LNeg):
        term_vars(t.arg, acc)
    elif isinstance(t, (LAdd, LSub, LMul)):
        term_vars(t.lhs, acc)
        term_vars(t.rhs, acc)
    elif isinstance(t, LApp):
        for a in t.args:
            term_vars(a, acc)


def formula_vars(f: Formula, acc: Optional[dict[str, str]] = None) -> dict[str, str]:
    """Free variables with their sorts ("int" or "bool")."""
    if acc is None:
        acc = {}
    if isinstance(f, (FTrue, FFalse)):
        return acc
    if isinstance(f, FAtom):
        term_vars(f.lhs, acc)
        term_vars(f.rhs, acc)
        return acc
    if isinstance(f, FBoolVar):
        prev = acc.get(f.name)
        if prev == "int":
            raise EmbeddingError(f"variable {f.name!r} used at both sorts")
        acc[f.name] = "bool"
        return acc
    if isinstance(f, FNot):
        return formula_vars(f.arg, acc)
    if isinstance(f, FAnd):
        for p in f.parts:
            formula_vars(p, acc)
        return acc
    formula_vars(f.lhs, acc)
    formula_vars(f.rhs, acc)
    return acc


def formula_ufs(f: Formula, acc: Optional[dict[str, int]] = None) -> dict[str, int]:
    """Uninterpreted function symbols with arities."""
    if acc is None:
        acc = {}

    def tw(t: LogicTerm) -> None:
        if isinstance(t, LApp):
            acc[t.fn] = len(t.args)
            for a in t.args:
                tw(a)
        elif isinstance(t, LNeg):
            tw(t.arg)
        elif isinstance(t, (LAdd, LSub, LMul)):
            tw(t.lhs)
            tw(t.rhs)

    if isinstance(f, FAtom):
        tw(f.lhs)
        tw(f.rhs)
    elif isinstance(f, FNot):
        formula_ufs(f.arg, acc)
    elif isinstance(f, FAnd):
        for p in f.parts:
            formula_ufs(p, acc)
    elif isinstance(f, (FImplies, FIff)):
        formula_ufs(f.lhs, acc)
        formula_ufs(f.rhs, acc)
    return acc
