"""Embedding of refinement expressions and environments into
quantifier-free formulas over equality, uninterpreted functions and linear
integer arithmetic.

The vocabulary is what the embedding builds. Terms are integer literals,
variables, negation, sum, difference, scaling by a constant (`LMul`) and
applications of uninterpreted symbols. Formulas are true, false, comparison
atoms, boolean variables, conjunction and `<=>`; there is no negation or
implication, since the validity engine negates a conclusion itself.

A product of two non-constants embeds as an application of the uninterpreted
symbol ``times``, as in Liquid Types. How a solver sees ``times`` is the
SMT-LIB emitter's choice (`validity.emit_smtlib`).

Logic terms and formulas are hash-consed like the types of `syntax`
(`Interned`): equality is identity, and values are built only by calling
their classes with positional fields.
"""

from __future__ import annotations

from typing import Union

from .syntax import (
    AddExp,
    BoolRef,
    BoolVarRef,
    CmpRef,
    ConjRef,
    Env,
    IffRef,
    IntExp,
    IntExpr,
    LiqError,
    MulExp,
    NegExp,
    Refinement,
    BaseArm,
    BaseBinding,
    SubExp,
    TopRef,
    VarExp,
    VALUE_VAR,
    Value,
    interned,
)


class EmbeddingError(LiqError):
    """A refinement falls outside the embeddable fragment."""


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
    """Scaling by a constant: one side is an `LInt`."""

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
class FAnd(_Formula):
    parts: tuple["Formula", ...]


@interned
class FIff(_Formula):
    lhs: "Formula"
    rhs: "Formula"


Formula = Union[FTrue, FFalse, FAtom, FBoolVar, FAnd, FIff]

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


# ---------------------------------------------------------------------------
# Embedding
# ---------------------------------------------------------------------------


def embed_int_expr(e: IntExpr) -> LogicTerm:
    if isinstance(e, IntExp):
        return LInt(e.value)
    if isinstance(e, VarExp):
        return LVar(e.name)
    if isinstance(e, NegExp):
        inner = embed_int_expr(e.arg)
        if isinstance(inner, LInt):
            return LInt(-inner.value)
        return LNeg(inner)
    if isinstance(e, AddExp):
        return LAdd(embed_int_expr(e.lhs), embed_int_expr(e.rhs))
    if isinstance(e, SubExp):
        return LSub(embed_int_expr(e.lhs), embed_int_expr(e.rhs))
    if isinstance(e, MulExp):
        lhs = embed_int_expr(e.lhs)
        rhs = embed_int_expr(e.rhs)
        if isinstance(lhs, LInt) and isinstance(rhs, LInt):
            return LInt(lhs.value * rhs.value)
        if isinstance(lhs, LInt) or isinstance(rhs, LInt):
            return LMul(lhs, rhs)  # scaling by a constant stays linear
        return LApp("times", (lhs, rhs))
    raise EmbeddingError(f"not an integer expression: {e!r}")


def embed_refinement(r: Refinement) -> Formula:
    if isinstance(r, TopRef):
        return TRUE
    if isinstance(r, BoolRef):
        return TRUE if r.value else FALSE
    if isinstance(r, CmpRef):
        return FAtom(r.op, embed_int_expr(r.lhs), embed_int_expr(r.rhs))
    if isinstance(r, BoolVarRef):
        return FBoolVar(r.name)
    if isinstance(r, IffRef):
        return FIff(embed_refinement(r.lhs), embed_refinement(r.rhs))
    if isinstance(r, ConjRef):
        return conj([embed_refinement(p) for p in r.parts])
    raise EmbeddingError(f"not a boolean refinement expression: {r!r}")


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
    if isinstance(f, FAnd):
        return FAnd(tuple(rename_formula(p, mapping) for p in f.parts))
    return FIff(rename_formula(f.lhs, mapping), rename_formula(f.rhs, mapping))


def embed_arm(arm: BaseArm) -> Formula:
    """`embed_refinement` of the arm's refinement, memoized on the arm."""
    try:
        return arm.embedded
    except AttributeError:
        f = embed_refinement(arm.ref)
        object.__setattr__(arm, "embedded", f)
        return f


def _binding_conjuncts(b: BaseBinding) -> tuple[Formula, ...]:
    parts = b.embedded
    if parts is None:
        rename = {VALUE_VAR: b.name}
        parts = b.embedded = tuple(rename_formula(embed_arm(a), rename) for a in b.arms)
    return parts


def embed_env(env: Env) -> Formula:
    """Conjunction over the base bindings of `env.scope()` of their
    refinements with the value variable renamed to the bound name; other
    bindings contribute nothing. Only the last binding of a name counts
    (shadowing), and one of a non-base type hides the name.

    Built once per scope, and shared by every environment with that scope:
    from the prefix scope's formula when the scope appends one binding to
    it, otherwise from the conjuncts each binding keeps."""
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
    return f


# ---------------------------------------------------------------------------
# Symbols (for the validity engine and SMT-LIB)
# ---------------------------------------------------------------------------


def symbols(*formulas: Formula) -> tuple[dict[str, str], dict[str, int]]:
    """The variables of the formulas with their sorts ("int" or "bool"), and
    their uninterpreted function symbols with their arities."""
    sorts: dict[str, str] = {}
    ufs: dict[str, int] = {}
    todo: list = list(formulas)
    while todo:
        x = todo.pop()
        if isinstance(x, (LVar, FBoolVar)):
            sort = "int" if isinstance(x, LVar) else "bool"
            if sorts.setdefault(x.name, sort) != sort:
                raise EmbeddingError(f"variable {x.name!r} used at both sorts")
        elif isinstance(x, LApp):
            ufs[x.fn] = len(x.args)
            todo += x.args
        elif isinstance(x, LNeg):
            todo.append(x.arg)
        elif isinstance(x, FAnd):
            todo += x.parts
        elif isinstance(x, (FAtom, FIff, LAdd, LSub, LMul)):
            todo += (x.lhs, x.rhs)
    return sorts, ufs
