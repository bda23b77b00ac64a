"""Template-based inference of liquid intersection types.

Each binding form gets a fresh template enumerating every combination of
qualifiers over the base positions of its ML shape; well-formedness filters
arms whose refinements mention out-of-scope variables (the temporary type),
and subtyping against the inferred body keeps only the sound arms.  An
intersection emptied by filtering collapses to the top-refined skeleton of
the shape; an application with no accepting arm is an inference failure.

Each binding rule has one code path. A λ tries the temporary type's arms,
and if none is sound the top-refined skeleton's arm unless they include
it, inferring its body once per distinct domain of each. A `let`, and a
β-redex `(\\x. e2) e1`, which only evaluation makes, keep the sound arms
among the temporary type's and the top arm.

An `Inferencer` builds the template of each shape once, keyed by the shape
itself, binder names and all, and keeps it for its life. `fresh` itself
stays a pure function of the shape and the qualifiers.

A template also keeps its temporary type per sorts of its free program
variables in the environment, the only part of the environment its wf
verdicts read (see `SubtypeChecker`), so it asks them once per such key:
once in all for a closed template, whose arms mention no program
variable. While a constraint log is attached, every use asks them again,
so that the log holds each judgement where it is made.

It also infers each non-atomic node once per environment: `_infer` keeps
its answer, a scheme or a failure's text, under (environment, elaborated
node), an exact O(1) key: both are hash-consed, and a node carries the
shapes of all nodes under it. Each top-level `infer` starts a generation
and keeps only the entries it or the one before touched, so the reducts of
a term share their subterms while the memo stays small.

And it keeps the outcome of each `let`'s filter (`_filter_template`) for
its life: the scheme of the kept arms, or the fact that no arm fits, under
(the inner environment's formula `embed_env`, the body's type, the
temporary type), all hash-consed; the temporary type's shape, binders
included, fixes the template and with it the candidates. The key is exact
by the argument that lets `SubtypeChecker` key an arrow judgement by (Γ's
formula, τ₁, τ₂): every judgement of the filter reads Γ only through its
formula, apart from the name of a codomain's binder, and a renaming
changes no verdict. Reducts rebuild `let` nodes under environments that
differ only in bindings that add no conjunct, such as a function-typed
one, which the (environment, node) memo tells apart and this one does
not. A failure's message is rendered from each call's own term.

Both memos are off while a constraint log is attached, since a memo hit
logs nothing.
"""

from __future__ import annotations

from itertools import product
from typing import Optional, Sequence, Union

from .logic import embed_env
from .shapes import elaborate, shape_env
from .subtyping import LogEntry, SubtypeChecker
from .syntax import (
    App,
    Base,
    BaseArm,
    BoolConst,
    Const,
    CONSTANTS,
    Env,
    Formula,
    FunArm,
    IntConst,
    Lam,
    Let,
    LiqError,
    LiquidType,
    PartialPrim,
    PrimConst,
    Scheme,
    SimpleType,
    Term,
    TyAbs,
    TyInst,
    TyVar,
    Var,
    VarArm,
    make_type,
    mono,
    render_term,
    subst_liquid,
    subst_tyvar_liquid,
    top_skeleton,
)
from .validity import ValidityEngine


class InferenceFailure(LiqError):
    """The algorithm required a non-empty intersection and none survived."""


class ArmCapExceeded(LiqError):
    """A fresh template would exceed the configured arm cap."""


# ---------------------------------------------------------------------------
# Fresh templates
# ---------------------------------------------------------------------------


def _count_base(shape: SimpleType) -> int:
    if isinstance(shape, Base):
        return 1
    if isinstance(shape, TyVar):
        return 0
    return _count_base(shape.dom) + _count_base(shape.cod)


def _arm_with(shape: SimpleType, quals) -> Union[BaseArm, FunArm, VarArm]:
    if isinstance(shape, Base):
        return BaseArm(shape, next(quals))
    if isinstance(shape, TyVar):
        return VarArm(shape.name)
    dom = LiquidType((_arm_with(shape.dom, quals),))
    cod = LiquidType((_arm_with(shape.cod, quals),))
    return FunArm(shape.binder, dom, cod)


def fresh(shape: SimpleType, qualifiers: Sequence[Formula], max_arms: int = 4096) -> LiquidType:
    """One arm per function from the base positions of the shape into the
    qualifier set; |Q|^k arms for k positions.  The empty product collapses
    to the top skeleton."""
    k = _count_base(shape)
    quals = tuple(dict.fromkeys(qualifiers))  # dedupe, keep order
    if k == 0:
        return LiquidType((_arm_with(shape, iter(())),))
    if not quals:
        return top_skeleton(shape)
    count = len(quals) ** k
    if count > max_arms:
        raise ArmCapExceeded(
            f"fresh template needs {count} arms, above the cap of {max_arms}"
        )
    arms = [_arm_with(shape, iter(combo)) for combo in product(quals, repeat=k)]
    return make_type(arms)


def temporary_type(
    singles: Sequence[LiquidType], checker: SubtypeChecker, env: Env, shape: SimpleType
) -> LiquidType:
    """The well-formedness survivors of a fresh template, given as one-arm
    types; an emptied intersection collapses to the top skeleton."""
    arms = [single.arms[0] for single in singles if checker.wf_check(env, single)]
    return make_type(arms) if arms else top_skeleton(shape)


def _strip_ty(t: Term) -> Term:
    while isinstance(t, (TyAbs, TyInst)):
        t = t.body
    return t


class _Template:
    """The fresh template of one shape, its arms as one-arm types, its top
    skeleton and its temporary types. A temporary type fixes the arms that
    both binding rules try, its own and then `top` unless they include it:
    the λ rule's, and the let rule's, which also types a β-redex. So the
    filter memo is keyed by the temporary type.

    This is the one memo of well-formedness verdicts. Well-formedness of τ
    reads Γ's sorts only at τ's free program variables (`LiquidType.free`):
    the value variable and an arrow's binder are bound inside τ and read
    nowhere else. Each arm's free program variables are among the
    template's, so the sort of each of those in an environment (or None)
    fixes every wf verdict there, and with them the temporary type: `temps`
    keeps it under that key, which is () for a closed template."""

    __slots__ = ("template", "singles", "shape", "top", "temps")

    def __init__(self, template: LiquidType, shape: SimpleType) -> None:
        self.template = template
        self.singles = tuple(LiquidType((arm,)) for arm in template.arms)
        self.shape = shape
        self.top = top_skeleton(shape)
        self.temps: dict[tuple[Optional[str], ...], LiquidType] = {}

    def temporary(self, checker: SubtypeChecker, env: Env) -> LiquidType:
        """The temporary type under `env`, made once per key; at every use
        while the checker logs, so that each wf judgement is logged."""
        key = tuple([env.sort_of(x) for x in self.template.free])
        temp = self.temps.get(key)
        if temp is None or checker.log is not None:
            temp = self.temps[key] = temporary_type(self.singles, checker, env, self.shape)
        return temp


# ---------------------------------------------------------------------------
# The inference algorithm
# ---------------------------------------------------------------------------


class Inferencer:
    """The inference algorithm under one qualifier set and one subtyping
    checker, with the memos it keeps: the template of each shape
    (`_templates`), each node's answer per environment over the last two
    generations (`_memo`, `_old`), and each filter's outcome per (Γ's
    formula, body, temporary type) for its life (`_filtered`). The last two
    are off while a constraint log is attached; see the module docstring
    for why each is exact. The λ rule tries the top arm only when the
    temporary type's arms fail and do not include it, and a β-redex is
    typed by the let rule (`_infer_let`)."""

    def __init__(
        self,
        qualifiers: Sequence[Formula],
        engine: Optional[ValidityEngine] = None,
        max_arms: int = 4096,
        constraint_log: Optional[list[LogEntry]] = None,
    ) -> None:
        self.qualifiers = tuple(dict.fromkeys(qualifiers))
        self.engine = engine if engine is not None else ValidityEngine()
        self.max_arms = max_arms
        self.checker = SubtypeChecker(self.engine, constraint_log)
        self._templates: dict[SimpleType, _Template] = {}
        # `_infer`'s answers per (env, node), of this generation and the last
        self._memo, self._old = None, {}
        # `_filter_template`'s outcomes, kept for the inferencer's life; None
        # switches the memo off
        self._filtered: Optional[dict[tuple, Union[Scheme, bool]]] = {}

    def infer(self, env: Env, term: Term) -> Scheme:
        """The scheme of a plain or an elaborated term, which is elaborated
        afresh, so template shapes stay aligned with its type abstractions.
        Elaboration reads an elaborated term as its erasure, so none is
        erased first."""
        elab = elaborate(shape_env(env), term)
        self._age()
        return self._infer(env, elab.term)

    def _age(self) -> None:
        """Start a generation of the memo; none while a log is attached."""
        self._old = self._memo if self._memo is not None else {}
        self._memo = {} if self.checker.log is None else None

    def _template(self, shape: SimpleType) -> _Template:
        """The template of `shape`, built on first use."""
        tpl = self._templates.get(shape)
        if tpl is None:
            template = fresh(shape, self.qualifiers, self.max_arms)
            tpl = self._templates[shape] = _Template(template, shape)
        return tpl

    def _infer(self, env: Env, t: Term) -> Scheme:
        if isinstance(t, Var):
            bound = env.lookup(t.name)
            if bound is None:
                raise InferenceFailure(f"unbound variable {t.name!r}")
            if not bound.qvars and isinstance(t.shape, Base):
                return t.self_type
            return bound
        if isinstance(t, Const):
            if isinstance(t.const, PartialPrim):
                return self._partial_type(env, t.const)
            return CONSTANTS.type_of(t.const)
        # the memo, checked here, as a wrapper would cost a frame per level
        memo = self._memo
        if memo is not None:
            key = (env, t)
            known = memo.get(key) or self._old.get(key)
            if known is not None:
                memo[key] = known
                if isinstance(known, str):
                    raise InferenceFailure(known)
                return known
        try:
            if isinstance(t, Lam):
                sch = self._infer_lam(env, t)
            elif isinstance(t, App):
                sch = self._infer_app(env, t)
            elif isinstance(t, Let):
                sch = self._infer_let(env, t, t.binder, t.bound, t.body)
            elif isinstance(t, TyAbs):
                inner = self._infer(env, t.body)
                sch = Scheme((t.tyvar,) + inner.qvars, inner.body)
            else:
                sch = self._infer_inst(env, t)
        except InferenceFailure as e:
            if memo is not None:
                memo[key] = str(e)
            raise
        if memo is not None:
            memo[key] = sch
        return sch

    def _mono_body(self, sch: Scheme, t: Term) -> LiquidType:
        if sch.qvars:
            raise InferenceFailure(
                f"polymorphic type where a monomorphic one is required: {render_term(t)}"
            )
        return sch.body

    def _infer_lam(self, env: Env, t: Lam) -> Scheme:
        tpl = self._template(t.shape)
        arms = tpl.temporary(self.checker, env).arms
        top_arm = tpl.top.arms[0]
        # the temporary type's arms, then the top arm unless it was one of them
        for tried in (arms, () if top_arm in arms else (top_arm,)):
            # one body inference per distinct domain of the arms tried
            bodies: dict[LiquidType, Optional[LiquidType]] = {}
            for arm in tried:
                assert isinstance(arm, FunArm)
                if arm.dom in bodies:
                    continue
                try:
                    sch = self._infer(env.extend(arm.binder, mono(arm.dom)), t.body)
                    bodies[arm.dom] = self._mono_body(sch, t.body)
                except InferenceFailure:
                    bodies[arm.dom] = None
            survivors = [
                arm for arm in tried
                if bodies[arm.dom] is not None
                and self.checker.is_subtype(env.extend(arm.binder, mono(arm.dom)), bodies[arm.dom], arm.cod)
            ]
            if survivors:
                return mono(make_type(survivors))
        raise InferenceFailure(f"no template arm fits {render_term(t)}")

    def _infer_app(self, env: Env, t: App) -> Scheme:
        if isinstance(t.fun, Lam):
            # a beta redex, which only evaluation makes (normalization
            # let-binds lambda heads), is typed by the let rule, so the
            # argument keeps its precise type
            return self._infer_let(env, t, t.fun.binder, t.arg, t.fun.body)
        fun = self._infer(env, t.fun)
        if fun.qvars:
            raise InferenceFailure(
                f"polymorphic function must be instantiated before application: {render_term(t)}"
            )
        arg = self._infer(env, t.arg)
        arg_body = self._mono_body(arg, t.arg)
        return mono(self.apply_result(env, fun.body, arg_body, t.arg, t))

    def apply_result(
        self,
        env: Env,
        fun_type: LiquidType,
        arg_type: LiquidType,
        arg_term: Term,
        at: Optional[Term] = None,
    ) -> LiquidType:
        """Codomains of the arms whose domain accepts the argument, with the
        argument substituted, intersected."""
        where = at if at is not None else arg_term  # rendered only in errors
        arms = [a for a in fun_type.arms if isinstance(a, FunArm)]
        if not arms:
            raise InferenceFailure(f"application of a non-function in {render_term(where)}")
        survivors = [a for a in arms if self.checker.is_subtype(env, arg_type, a.dom)]
        if not survivors:
            raise InferenceFailure(
                f"no function arm accepts the argument in {render_term(where)}"
            )
        atom = _strip_ty(arg_term)
        out = []
        for arm in survivors:
            if isinstance(atom, (Var, Const)):
                cod = subst_liquid(arm.cod, {arm.binder: atom})
            elif arm.binder in arm.cod.free:
                raise InferenceFailure(
                    f"non-atomic argument flows into refinements in {render_term(where)}"
                )
            else:
                cod = arm.cod
            out.extend(cod.arms)
        return make_type(out)

    def _infer_let(self, env: Env, t: Term, binder: str, bound: Term, body: Term) -> Scheme:
        """The let rule, for `let binder = bound in body` and for the redex
        `(\\binder. body) bound`; `t` is the term itself, for messages."""
        inner_env = env.extend(binder, self._infer(env, bound))
        body_type = self._mono_body(self._infer(inner_env, body), body)
        return self._filter_template(env, inner_env, body_type, t)

    def _filter_template(self, env: Env, inner_env: Env, body: LiquidType, t: Term) -> Scheme:
        tpl = self._template(t.shape)
        temp = tpl.temporary(self.checker, env)  # wf under the outer env
        # the outcome per (Γ's formula, body, temporary type), kept while no
        # log is attached: the kept arms' scheme, or False when no arm fits
        filtered = self._filtered if self.checker.log is None else None
        key = (embed_env(inner_env), body, temp)
        sch = filtered.get(key) if filtered is not None else None
        if sch is None:
            # the candidates: the temporary type's arms, then the top-refined
            # skeleton unless it is one of them; keeping it whenever it is
            # derivable makes let results stable under evaluation, which
            # substitutes ever more precise types for the bound variable
            arms = temp.arms
            candidates = [single for single in tpl.singles if single.arms[0] in arms]
            if tpl.top not in candidates:
                candidates.append(tpl.top)
            keep = [
                c.arms[0] for c in candidates if self.checker.is_subtype(inner_env, body, c)
            ]
            sch = mono(make_type(keep)) if keep else False
            if filtered is not None:
                filtered[key] = sch
        if sch is False:
            raise InferenceFailure(f"no template arm fits {render_term(t)}")
        return sch

    def _infer_inst(self, env: Env, t: TyInst) -> Scheme:
        instance = self._template(t.ty).temporary(self.checker, env)
        inner = self._infer(env, t.body)
        if not inner.qvars:
            raise InferenceFailure(
                f"instantiation of a monomorphic term: {render_term(t)}"
            )
        alpha, rest = inner.qvars[0], inner.qvars[1:]
        return Scheme(rest, subst_tyvar_liquid(inner.body, alpha, instance))

    def _partial_type(self, env: Env, c: PartialPrim) -> Scheme:
        if c.op == "ite":
            sch = CONSTANTS.type_of(PrimConst("ite"))
            body = sch.body
            for _ in c.args:
                arm = body.arms[0]
                assert isinstance(arm, FunArm)
                body = arm.cod
            return Scheme(sch.qvars, body)
        cur = CONSTANTS.type_of(PrimConst(c.op)).body
        for arg in c.args:
            if not (isinstance(arg, Const) and isinstance(arg.const, (IntConst, BoolConst))):
                raise InferenceFailure("partially applied primitive with a non-literal argument")
            arg_type = CONSTANTS.type_of(arg.const).body
            cur = self.apply_result(env, cur, arg_type, arg)
        return mono(cur)
