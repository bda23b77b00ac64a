"""Core syntax: lambda terms, ML simple types, refinements and the
intersection-of-refinements type algebra.

A refinement is a formula of the validity engine's logic (`Formula`, over
integer terms `LogicTerm`), as in Liquid Types: subtyping hands a base
arm's refinement to the engine as it is, and `logic` only conjoins an
environment's refinements.

Types are kept in a canonical form throughout: an intersection is a
non-empty tuple of arms, deduplicated and sorted by printed form, all
sharing one simple-type shape.

Refinements, constants, shapes, liquid types, terms and environments are
hash-consed (`Interned`): calling a class returns the one live instance
with those fields, so equality is identity and hashing is O(1). The
metaclass builds each of these classes from its annotations, with one
generated constructor that runs in one Python frame, and a value is made
only by calling its class with positional fields: nothing copies a value or
sets a field of one. An arm's and a type's shape is set when it is built,
by its class's `__post_init__`, and an intersection whose arms differ in
shape cannot be built. An arrow shape's binder is one of its fields,
so two shapes that differ only in binders are two values, which keep apart
the templates and terms made from them; they agree as shapes when their
bare shapes (`bare`), with every binder blank, are one object.

A value derived from hash-consed inputs lives in a slot of its
shortest-lived input, never of a permanent value: an arm's printed form on
the arm, a literal's scheme on the literal, a variable node's self-type on
the node, a one-binding substitution's result on the substituted atom,
not on the type, which may be a primitive's scheme and live for good, an
arrow's bare shape on the arrow, and an environment's formula on the
environment node, built from its parent's. It is then built once per input
and dies with it, and no table keeps it.
"""

from __future__ import annotations

import weakref
from _weakref import _remove_dead_weakref
from functools import cached_property, lru_cache
from operator import attrgetter
from types import CodeType, FunctionType, MappingProxyType
from typing import Any, Callable, Hashable, Iterable, Mapping, Optional, Sequence, Union

VALUE_VAR = "v"

PRIM_SURFACE = {
    "neg": "-",
    "add": "+",
    "sub": "sub",
    "mul": "*",
    "le": "<=",
    "ge": ">=",
    "lt": "<",
    "gt": ">",
    "eq": "=",
    "ite": "if",
    "fix": "fix",
}


class LiqError(Exception):
    """Base class for every error raised by this package."""


class IllFoundedType(LiqError):
    """Arms of an intersection do not share a single simple-type shape."""


# ---------------------------------------------------------------------------
# Hash-consing
# ---------------------------------------------------------------------------
#
# A weak table maps a key to a weak reference to its value, so an entry dies
# with its value: nothing in a table keeps a value alive.


def _dropper(table: dict) -> Callable[[_KeyedRef], None]:
    """The weak-reference callback that removes a dead value's entry. It
    binds the remover, which module teardown may already have cleared."""
    return lambda ref, remove=_remove_dead_weakref: remove(table, ref.key)


class _KeyedRef(weakref.ref):
    """`weakref.KeyedRef` without its constructors written in Python."""

    __slots__ = ("key",)


def _weak_put(table: dict, key: Hashable, obj: Any, drop: Callable) -> Any:
    """The live value under `key`, after putting `obj` there if there was
    none. Atomic: `setdefault` inserts only into an empty slot, and a dead
    entry whose callback has not run yet is removed only while still dead."""
    new = _KeyedRef(obj, drop)
    new.key = key
    while True:
        ref = table.setdefault(key, new)
        if ref is new:
            return obj
        live = ref()
        if live is not None:
            return live
        _remove_dead_weakref(table, key)


class Interned(type):
    """Metaclass of the hash-consed value classes, which it builds from
    their annotations. The annotated names are the fields, in order, kept
    in slots; the values the class body gives the trailing ones are their
    defaults. Each class gets one generated constructor (`_constructor`):
    calling the class with its fields, positionally, returns the one live
    instance with those fields, from a weak table per class keyed by the
    field tuple, with no exception: an arrow's binder is a field like any
    other. A new value runs its class's `__post_init__`, if there is one,
    before it enters the table: that is where an arm's and a type's shape
    is set, and where a value that cannot be built, such as an
    intersection of mixed shapes, is refused. Instances are immutable;
    equality and hashing are those of `object`: identity."""

    def __new__(mcs, name: str, bases: tuple, ns: dict) -> Interned:
        own = tuple(ns.get("__annotations__", ()))
        given = tuple(f for f in own if f in ns)
        if given != own[len(own) - len(given):]:
            raise TypeError(f"{name}: the fields with defaults must come last")
        if any(f.startswith("_") for f in own):
            raise TypeError(f"{name}: a field's name must not start with '_'")
        defaults = tuple(ns.pop(f) for f in given)
        ns["__slots__"] = tuple(ns.get("__slots__", ())) + own
        cls = super().__new__(mcs, name, bases, ns)
        cls._table: dict = {}
        cls._fields = own
        cls.__new__ = _constructor(cls, defaults)
        return cls


def _constructor(cls: Interned, defaults: tuple) -> Callable[..., Any]:
    """The `__new__` of `cls`, so that building a value runs one Python
    frame (and `__post_init__`, where the class has one, on a new value).
    It takes the fields positionally, with their defaults, and returns the
    live instance with those fields if there is one. Otherwise it makes
    one, sets each slot through the slot's descriptor, which bypasses the
    immutable `__setattr__`, runs the class's `__post_init__`, and inserts
    it with an atomic `setdefault`; only a constructor that loses a race
    to another thread goes on to `_weak_put`. Its code is shared with the
    classes of as many fields, with or without `__post_init__` alike; its
    parameters are renamed to the fields and its file after the class, so
    that messages, profiles and tracebacks tell the classes apart."""
    fields = cls._fields
    post_init = getattr(cls, "__post_init__", None)
    table = cls._table
    ns = {
        "_get": table.get,
        "_setdefault": table.setdefault,
        "_new": object.__new__,
        "_KeyedRef": _KeyedRef,
        "_drop": _dropper(table),
        "_weak_put": _weak_put,
        "_table": table,
        "_post_init": post_init,
    }
    ns.update((f"_set_{i}", getattr(cls, f).__set__) for i, f in enumerate(fields))
    code = _constructor_code(len(fields), post_init is not None)
    code = code.replace(
        co_varnames=("_cls", *fields, *code.co_varnames[1 + len(fields):]),
        co_filename=f"<{cls.__qualname__}.__new__>",
    )
    return FunctionType(code, ns, "__new__", defaults)


@lru_cache(maxsize=None)
def _constructor_code(arity: int, post_init: bool) -> CodeType:
    """The code of the constructors of `arity` fields, with or without a
    `__post_init__`, written out and compiled once: compiling is most of
    the cost of making a class. Its parameters are `_0`, `_1`, ..., which
    `_constructor` renames to the fields; its other names start with `_`,
    which no field's may."""
    args = "".join(f"_{i}, " for i in range(arity))
    lines = [
        f"def __new__(_cls, {args}/):",
        f"    _key = ({args})",
        "    _ref = _get(_key)",
        "    if _ref is not None:",
        "        _obj = _ref()",
        "        if _obj is not None:",
        "            return _obj",
        "    _obj = _new(_cls)",
    ]
    lines += [f"    _set_{i}(_obj, _{i})" for i in range(arity)]
    if post_init:
        lines.append("    _post_init(_obj)")
    lines += [
        "    _ref = _KeyedRef(_obj, _drop)",
        "    _ref.key = _key",
        "    if _setdefault(_key, _ref) is _ref:",
        "        return _obj",
        "    return _weak_put(_table, _key, _obj, _drop)",
    ]
    ns: dict = {}
    exec("\n".join(lines), ns)
    return ns["__new__"].__code__


class Value(metaclass=Interned):
    """Base of the hash-consed classes; see `Interned`."""

    __slots__ = ("__weakref__",)

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"


# ---------------------------------------------------------------------------
# Refinements: quantifier-free formulas
# ---------------------------------------------------------------------------
#
# A refinement is a formula of the validity engine's logic, handed to it as it
# is. Integer terms are literals, variables, negation, sum, difference and
# product. Formulas are true, false, comparison atoms, boolean variables,
# conjunction and `<=>`; there is no negation or implication, since the
# validity engine negates a conclusion itself.
#
# A product with a side that has no variables is scaling (`is_scaling`). Any
# other product only ever appears in the exact-product refinement of the
# multiplication primitive; its readers treat it as the uninterpreted
# ``times`` (`symbols`, and the validity engine).


class LInt(Value):
    value: int


class LVar(Value):
    """An int-sorted variable (a program variable or the value variable)."""

    name: str


class LNeg(Value):
    arg: "LogicTerm"


class LAdd(Value):
    lhs: "LogicTerm"
    rhs: "LogicTerm"


class LSub(Value):
    lhs: "LogicTerm"
    rhs: "LogicTerm"


class LMul(Value):
    lhs: "LogicTerm"
    rhs: "LogicTerm"


LogicTerm = Union[LInt, LVar, LNeg, LAdd, LSub, LMul]


class _Formula(Value):
    """Base of the formula classes. `memo` keeps what the validity module
    derives from a formula (its canonical form, its compiled rows) in a slot
    that is not a field: every occurrence of the formula shares it, and it
    dies with the formula."""

    __slots__ = ("_memo",)

    @property
    def memo(self) -> dict:
        try:
            return self._memo
        except AttributeError:
            memo: dict = {}
            object.__setattr__(self, "_memo", memo)
            return memo

    @property
    def sorts(self) -> Mapping[str, str]:
        """The variables of the formula with their sorts (`symbols`),
        computed once per formula; read-only."""
        memo = self.memo
        sorts = memo.get("sorts")
        if sorts is None:
            sorts = memo["sorts"] = MappingProxyType(symbols(self)[0])
        return sorts


class FTrue(_Formula):
    """The empty refinement; satisfied by every value."""


class FFalse(_Formula):
    pass


class FAtom(_Formula):
    """Comparison between two integer terms; op is one of = <= >= < >."""

    op: str
    lhs: LogicTerm
    rhs: LogicTerm


class FBoolVar(_Formula):
    """A bool-sorted variable used as a propositional atom."""

    name: str


class FAnd(_Formula):
    """Conjunction; appears only in derived refinements, never in qualifiers."""

    parts: tuple["Formula", ...]


class FIff(_Formula):
    lhs: "Formula"
    rhs: "Formula"


Formula = Union[FTrue, FFalse, FAtom, FBoolVar, FAnd, FIff]

TRUE = FTrue()
FALSE = FFalse()


def symbols(*formulas: Union[Formula, LogicTerm]) -> tuple[dict[str, str], dict[str, int]]:
    """The variables of the formulas or terms with their sorts, "int" or
    "bool" ("both" for one used at both), and the uninterpreted symbols with
    their arities: ``times``, 2, when a product is not a scaling."""
    sorts: dict[str, str] = {}
    ufs: dict[str, int] = {}
    todo: list = list(formulas)
    while todo:
        x = todo.pop()
        if isinstance(x, (LVar, FBoolVar)):
            sort = "int" if isinstance(x, LVar) else "bool"
            if sorts.setdefault(x.name, sort) != sort:
                sorts[x.name] = "both"
        elif isinstance(x, LNeg):
            todo.append(x.arg)
        elif isinstance(x, FAnd):
            todo += x.parts
        elif isinstance(x, (FAtom, FIff, LAdd, LSub, LMul)):
            if isinstance(x, LMul) and not is_scaling(x):
                ufs["times"] = 2
            todo += (x.lhs, x.rhs)
    return sorts, ufs


def is_scaling(p: LMul) -> bool:
    """Whether a side of the product has no variables."""
    return not symbols(p.lhs)[0] or not symbols(p.rhs)[0]


# ---------------------------------------------------------------------------
# Terms and constants
# ---------------------------------------------------------------------------


class IntConst(Value):
    value: int
    __slots__ = ("_scheme",)  # ty(c), kept by `ConstantTable.type_of`


class BoolConst(Value):
    value: bool
    __slots__ = ("_scheme",)


class PrimConst(Value):
    op: str


class PartialPrim(Value):
    """A primitive applied to a strict prefix of its arguments.

    Produced only by the evaluator; args are closed value terms.
    """

    op: str
    args: tuple["Term", ...]


Constant = Union[IntConst, BoolConst, PrimConst, PartialPrim]


class Var(Value):
    name: str
    shape: Optional["SimpleType"] = None
    __slots__ = ("_self", "_substs")  # `_substs`: see `subst_liquid`

    @property
    def self_type(self) -> Scheme:
        """`{v = name}` at the node's base shape, the type of a variable
        bound to a monomorphic base type; built once per node."""
        try:
            return self._self
        except AttributeError:
            if self.shape.name == "int":
                ref = FAtom("=", LVar(VALUE_VAR), LVar(self.name))
            else:
                ref = FIff(FBoolVar(VALUE_VAR), FBoolVar(self.name))
            scheme = mono(LiquidType((BaseArm(self.shape, ref),)))
            object.__setattr__(self, "_self", scheme)
            return scheme


class Const(Value):
    const: Constant
    __slots__ = ("_substs",)


class Lam(Value):
    binder: str
    body: "Term"
    shape: Optional["SimpleType"] = None


class App(Value):
    fun: "Term"
    arg: "Term"
    shape: Optional["SimpleType"] = None


class Let(Value):
    binder: str
    bound: "Term"
    body: "Term"
    shape: Optional["SimpleType"] = None


class TyAbs(Value):
    """Explicit type abstraction; inserted by elaboration, never parsed."""

    tyvar: str
    body: "Term"


class TyInst(Value):
    """Explicit type instantiation at a simple type; inserted by elaboration."""

    ty: "SimpleType"
    body: "Term"


Term = Union[Var, Const, Lam, App, Let, TyAbs, TyInst]


def subst_term(value: Term, name: str, t: Term) -> Term:
    """Capture-avoiding substitution [value/name]t.

    Binders are globally unique after parsing, so a shadowing binder can only
    be `name` itself, which stops the substitution.
    """
    if isinstance(t, Var):
        return value if t.name == name else t
    if isinstance(t, Const):
        if isinstance(t.const, PartialPrim):
            args = tuple(subst_term(value, name, a) for a in t.const.args)
            return Const(PartialPrim(t.const.op, args))
        return t
    if isinstance(t, Lam):
        if t.binder == name:
            return t
        return Lam(t.binder, subst_term(value, name, t.body))
    if isinstance(t, App):
        return App(subst_term(value, name, t.fun), subst_term(value, name, t.arg))
    if isinstance(t, Let):
        bound = subst_term(value, name, t.bound)
        body = t.body if t.binder == name else subst_term(value, name, t.body)
        return Let(t.binder, bound, body)
    if isinstance(t, TyAbs):
        return TyAbs(t.tyvar, subst_term(value, name, t.body))
    return TyInst(t.ty, subst_term(value, name, t.body))


# ---------------------------------------------------------------------------
# Simple types (ML shapes)
# ---------------------------------------------------------------------------


class Base(Value):
    name: str  # "int" or "bool"


class TyVar(Value):
    name: str


class Arrow(Value):
    """Function shape; the binder names the domain for dependent refinements.
    Two arrows that differ only in binders are two values with one shape
    (`bare`)."""

    binder: str
    dom: "SimpleType"
    cod: "SimpleType"
    __slots__ = ("_bare",)


SimpleType = Union[Base, TyVar, Arrow]


def bare(shape: SimpleType) -> SimpleType:
    """The shape with every binder blank, hash-consed, so that two shapes
    agree up to their binders exactly when their bare shapes are one object.
    Kept in a slot of the arrow it came from; a blank arrow is its own."""
    if shape.__class__ is not Arrow:
        return shape
    try:
        return shape._bare
    except AttributeError:
        out = Arrow("", bare(shape.dom), bare(shape.cod))
        if out is not shape:  # a blank arrow in its own slot would be a cycle
            object.__setattr__(shape, "_bare", out)
        return out


INT = Base("int")
BOOL = Base("bool")


# ---------------------------------------------------------------------------
# Liquid intersection types
# ---------------------------------------------------------------------------


class _Arm(Value):
    """Base of the arm classes. `shape`, the simple type of the arm, is set
    by each class's `__post_init__` when the arm is built. Values derived
    from an arm are computed on first use and kept in slots that are not
    fields, so repr ignores them. Since arms are hash-consed, every
    occurrence of an arm shares them."""

    __slots__ = ("_rendered", "shape")

    @property
    def rendered(self) -> str:
        """The printed form, the canonical sort key of `make_type`."""
        try:
            return self._rendered
        except AttributeError:
            text = render_arm(self)
            object.__setattr__(self, "_rendered", text)
            return text


_set_arm_shape = _Arm.shape.__set__


class BaseArm(_Arm):
    base: Base
    ref: Formula

    def __post_init__(self) -> None:
        _set_arm_shape(self, self.base)


class FunArm(_Arm):
    binder: str
    dom: "LiquidType"
    cod: "LiquidType"

    def __post_init__(self) -> None:
        _set_arm_shape(self, Arrow(self.binder, self.dom.shape, self.cod.shape))


class VarArm(_Arm):
    name: str

    def __post_init__(self) -> None:
        _set_arm_shape(self, TyVar(self.name))


Arm = Union[BaseArm, FunArm, VarArm]


class _Type(Value):
    """Base of `LiquidType`: `shape`, the simple type every arm shares
    (`shape_of`), set when the type is built, and values derived from a type
    kept in slots on first use, as `_Arm` does for arms."""

    # `_canonical`: the canonical form of a base type's refinements, set by
    # `subtyping`
    __slots__ = ("shape", "_free", "_canonical")

    @property
    def free(self) -> tuple[str, ...]:
        """The program variables free in the refinements, sorted: those of
        each base arm other than the value variable, and those of an arrow's
        domain and of its codomain other than its binder."""
        try:
            return self._free
        except AttributeError:
            free = _type_free_vars(self)
            object.__setattr__(self, "_free", free)
            return free


_set_type_shape = _Type.shape.__set__


class LiquidType(_Type):
    """A canonical intersection: deduplicated arms sorted by printed form.
    Its arms share one shape, up to binders: one whose arms differ in shape
    cannot be built (`IllFoundedType`). Its shape is its first arm's."""

    arms: tuple[Arm, ...]

    def __post_init__(self) -> None:
        arms = self.arms
        if not arms:
            raise IllFoundedType("a type must have at least one arm")
        shape = arms[0].shape
        for a in arms[1:]:
            if a.shape is not shape and bare(a.shape) is not bare(shape):
                raise IllFoundedType("arms with differing shapes")
        _set_type_shape(self, shape)


class Scheme(Value):
    qvars: tuple[str, ...]
    body: LiquidType


def _type_free_vars(t: LiquidType) -> tuple[str, ...]:
    out: set[str] = set()
    for arm in t.arms:
        if isinstance(arm, BaseArm):
            out.update(arm.ref.sorts)
        elif isinstance(arm, FunArm):
            out.update(arm.dom.free)
            out.update(x for x in arm.cod.free if x != arm.binder)
    out.discard(VALUE_VAR)
    return tuple(sorted(out))


# The canonical type of each tuple of arms `make_type` was given, while that
# type lives.
_made: dict = {}
_drop_made = _dropper(_made)


def make_type(arms: Iterable[Arm]) -> LiquidType:
    """Canonicalize: flatten is implicit (arms are arms), dedupe, order by
    printed form, and require a common shape.  A base arm refined by `true`
    is absorbed by any other base arm. Memoized per tuple of arms."""
    todo = tuple(arms)
    ref = _made.get(todo)
    if ref is not None:
        made = ref()
        if made is not None:
            return made
    if not todo:
        raise IllFoundedType("empty intersection")
    shape = bare(todo[0].shape)
    for a in todo:
        if bare(a.shape) is not shape:
            raise IllFoundedType(
                f"arm shapes differ: {render_simple_type(a.shape)}"
                f" vs {render_simple_type(shape)}"
            )
    uniq = list(dict.fromkeys(todo))
    # the shapes agree, so every arm has the first one's class
    if len(uniq) > 1 and uniq[0].__class__ is BaseArm:
        informative = [a for a in uniq if a.ref is not TRUE]
        if informative:
            uniq = informative
    uniq.sort(key=_render_key)
    return _weak_put(_made, todo, LiquidType(tuple(uniq)), _drop_made)


_render_key = attrgetter("rendered")


def intersect(a: LiquidType, b: LiquidType) -> LiquidType:
    return make_type(a.arms + b.arms)


def shape_of(t: Union[LiquidType, Scheme]) -> SimpleType:
    """The unique simple type T with t :: T; quantifiers are erased. Set
    when the type is built (`LiquidType.shape`), so it never fails: a type
    whose arms differ in shape cannot be built."""
    return t.body.shape if isinstance(t, Scheme) else t.shape


def well_founded(t: Union[LiquidType, Scheme, Arm], shape: SimpleType) -> bool:
    """Derivability of t :: shape: t's bare shape is the shape's. Every
    part of t has a shape, and a type's is each of its arms', since a type
    whose arms differ in shape cannot be built."""
    if isinstance(t, Scheme):
        t = t.body
    return bare(t.shape) is bare(shape)


def base_top(base: Base) -> LiquidType:
    return LiquidType((BaseArm(base, TRUE),))


def top_skeleton(shape: SimpleType) -> LiquidType:
    """The shape refined with `true` at every base position."""
    if isinstance(shape, Base):
        return base_top(shape)
    if isinstance(shape, TyVar):
        return LiquidType((VarArm(shape.name),))
    return LiquidType(
        (FunArm(shape.binder, top_skeleton(shape.dom), top_skeleton(shape.cod)),)
    )


def mono(t: LiquidType) -> Scheme:
    return Scheme((), t)


# ---------------------------------------------------------------------------
# Environments and substitutions
# ---------------------------------------------------------------------------


def base_arms(scheme: Scheme) -> tuple[BaseArm, ...]:
    """The arms of a binding refinements can see, a monomorphic scheme
    whose arms are all base arms; () for any other binding."""
    arms = scheme.body.arms
    # the arms share one shape, so the first's class is every arm's
    if scheme.qvars or arms[0].__class__ is not BaseArm:
        return ()
    return arms


class Env(Value):
    """Ordered bindings; order is significant (no exchange). `Env()` is the
    empty environment.

    Persistent and hash-consed: `extend` returns in O(1) the one live node
    with that parent, name and scheme, so an environment shares every
    prefix with the ones it was extended from, and equal binding sequences
    are one object. A node keeps one derived value, its formula, which
    `logic.embed_env` builds once, on first use, from its parent's. Every
    other question walks the bindings: `lookup` whether and how a name is
    bound, since every binding carries a scheme, and `sort_of` the sort at
    which refinements see it.
    """

    parent: Optional[Env] = None
    name: Optional[str] = None
    scheme: Optional[Scheme] = None

    __slots__ = ("_formula",)  # set by `logic.embed_env`

    def extend(self, name: str, scheme: Scheme) -> "Env":
        return Env(self, name, scheme)

    @property
    def bindings(self) -> tuple[tuple[str, Scheme], ...]:
        out = []
        node = self
        while node.parent is not None:
            out.append((node.name, node.scheme))
            node = node.parent
        return tuple(reversed(out))

    def lookup(self, name: str) -> Optional[Scheme]:
        node = self
        while node.parent is not None:
            if node.name == name:
                return node.scheme
            node = node.parent
        return None

    def sort_of(self, name: str) -> Optional[str]:
        """The base sort ("int" or "bool") at which refinements see `name`:
        that of its last binding, or None when there is none or it is not a
        monomorphic base type (`base_arms`)."""
        scheme = self.lookup(name)
        arms = base_arms(scheme) if scheme is not None else ()
        return arms[0].base.name if arms else None

    def __repr__(self) -> str:
        return f"Env(bindings={self.bindings!r})"


ValueSubst = Sequence[tuple[str, Term]]


def subst_refinement(r: Formula, rho: Mapping[str, Term]) -> Formula:
    """r with each variable that `rho` binds replaced by its value, which
    must be a variable or a literal of the variable's sort."""
    if isinstance(r, (LVar, FBoolVar)):
        t = rho.get(r.name)
        if t is None:
            return r
        if isinstance(t, Var):
            return type(r)(t.name)
        if isinstance(t, Const) and isinstance(t.const, IntConst if isinstance(r, LVar) else BoolConst):
            value = t.const.value
            return LInt(value) if isinstance(r, LVar) else TRUE if value else FALSE
        raise LiqError(f"cannot substitute a non-atomic term for {r.name} in a refinement")
    if isinstance(r, FAtom):
        return FAtom(r.op, subst_refinement(r.lhs, rho), subst_refinement(r.rhs, rho))
    if isinstance(r, (LInt, FTrue, FFalse)):
        return r
    if isinstance(r, LNeg):
        # a negative literal, which only evaluation makes, under a negation
        # is the positive literal: `- -3` gets {v = 3}, one formula with `3`
        arg = subst_refinement(r.arg, rho)
        return LInt(-arg.value) if isinstance(arg, LInt) and arg.value < 0 else LNeg(arg)
    if isinstance(r, FAnd):
        return FAnd(tuple(subst_refinement(p, rho) for p in r.parts))
    return type(r)(subst_refinement(r.lhs, rho), subst_refinement(r.rhs, rho))


def _subst_arm(a: Arm, rho: dict[str, Term]) -> Arm:
    if isinstance(a, BaseArm):
        return BaseArm(a.base, subst_refinement(a.ref, rho))
    if isinstance(a, VarArm):
        return a
    # the binder scopes over the codomain only: a domain that mentions the
    # binder's name means an outer variable of that name
    inner = {n: t for n, t in rho.items() if n != a.binder}
    return FunArm(a.binder, subst_liquid(a.dom, rho), subst_liquid(a.cod, inner))


def subst_liquid(t: LiquidType, rho: Mapping[str, Term]) -> LiquidType:
    """t with the atoms of `rho` substituted into its refinements. The
    result of a one-binding substitution is kept on the atom, the value it
    lives no longer than, keyed by the type and the substituted name."""
    d = dict(rho)
    if not d:
        return t
    if len(d) == 1:
        ((name, atom),) = d.items()
        if atom.__class__ is Var or atom.__class__ is Const:
            try:
                kept = atom._substs
            except AttributeError:
                kept = {}
                object.__setattr__(atom, "_substs", kept)
            out = kept.get((t, name))
            if out is None:
                out = kept[t, name] = make_type(_subst_arm(a, d) for a in t.arms)
            return out
    return make_type(_subst_arm(a, d) for a in t.arms)


def subst_type(rho: ValueSubst, s: Scheme) -> Scheme:
    """Pointwise substitution of value terms inside refinement expressions;
    type variables are left unchanged."""
    names = [n for n, _ in rho]
    if len(set(names)) != len(names):
        raise LiqError("substitution domain variables must be distinct")
    return Scheme(s.qvars, subst_liquid(s.body, dict(rho)))


def subst_tyvar_liquid(t: LiquidType, rho: Mapping[str, LiquidType]) -> LiquidType:
    """Replace each type variable in `rho`'s domain with its type, all at
    once (arm splicing): a replacement is not substituted into again."""
    arms: list[Arm] = []
    for a in t.arms:
        if isinstance(a, VarArm) and a.name in rho:
            arms.extend(rho[a.name].arms)
        elif isinstance(a, FunArm):
            arms.append(
                FunArm(a.binder, subst_tyvar_liquid(a.dom, rho), subst_tyvar_liquid(a.cod, rho))
            )
        else:
            arms.append(a)
    return make_type(arms)


# ---------------------------------------------------------------------------
# The constant table ty(c)
# ---------------------------------------------------------------------------


def _literal_type(c: Union[IntConst, BoolConst]) -> LiquidType:
    """`{v = c}` at the literal's base type."""
    if isinstance(c, BoolConst):
        return LiquidType((BaseArm(BOOL, FIff(FBoolVar(VALUE_VAR), TRUE if c.value else FALSE)),))
    # a negative literal is carried as a negation, as the parser reads it back
    literal = LNeg(LInt(-c.value)) if c.value < 0 else LInt(c.value)
    return LiquidType((BaseArm(INT, FAtom("=", LVar(VALUE_VAR), literal)),))


# The schemes of the primitives, printed: each text is its scheme's canonical
# printed form. Multiplication has one arm per pair of signs and an exact arm.
PRIM_SCHEMES = {
    "neg": "(a: {v : int | true} -> {v : int | (v=-a)})",
    "add": "(a: {v : int | true} -> (b: {v : int | true} -> {v : int | (v=(a + b))}))",
    "sub": "(a: {v : int | true} -> (b: {v : int | true} -> {v : int | (v=(a - b))}))",
    "mul": "(a: {v : int | (v<=0)} -> (b: {v : int | (v<=0)} -> {v : int | (v>=0)}))"
           " /\\ (a: {v : int | (v<=0)} -> (b: {v : int | (v>=0)} -> {v : int | (v<=0)}))"
           " /\\ (a: {v : int | (v>=0)} -> (b: {v : int | (v<=0)} -> {v : int | (v<=0)}))"
           " /\\ (a: {v : int | (v>=0)} -> (b: {v : int | (v>=0)} -> {v : int | (v>=0)}))"
           " /\\ (a: {v : int | true} -> (b: {v : int | true} -> {v : int | (v=(a * b))}))",
    "le": "(a: {v : int | true} -> (b: {v : int | true} -> {v : bool | (v <=> (a<=b))}))",
    "ge": "(a: {v : int | true} -> (b: {v : int | true} -> {v : bool | (v <=> (a>=b))}))",
    "lt": "(a: {v : int | true} -> (b: {v : int | true} -> {v : bool | (v <=> (a<b))}))",
    "gt": "(a: {v : int | true} -> (b: {v : int | true} -> {v : bool | (v <=> (a>b))}))",
    "eq": "(a: {v : int | true} -> (b: {v : int | true} -> {v : bool | (v <=> (a=b))}))",
    "ite": "forall a. (c: {v : bool | true} -> (t: a -> (e: a -> a)))",
    "fix": "forall a. (f: (x: a -> a) -> a)",
}


class ConstantTable:
    """Maps constants to their refined type schemes."""

    @cached_property
    def _prims(self) -> dict[str, Scheme]:
        # imported on first use: the parser imports this module
        from .parser import parse_scheme

        return {op: parse_scheme(text) for op, text in PRIM_SCHEMES.items()}

    def type_of(self, c: Constant) -> Scheme:
        if isinstance(c, (IntConst, BoolConst)):
            # built once per literal and kept on it
            try:
                return c._scheme
            except AttributeError:
                scheme = mono(_literal_type(c))
                object.__setattr__(c, "_scheme", scheme)
                return scheme
        if isinstance(c, PrimConst):
            return self._prims[c.op]
        raise LiqError(f"no table entry for partially applied constant {c}")


CONSTANTS = ConstantTable()


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------


def _render_term(t: LogicTerm) -> str:
    if isinstance(t, LInt):
        return str(t.value)
    if isinstance(t, LVar):
        return t.name
    if isinstance(t, LNeg):
        inner = _render_term(t.arg)
        if isinstance(t.arg, LVar) or isinstance(t.arg, LInt) and t.arg.value >= 0:
            return f"-{inner}"
        return f"-({inner})"  # not `--`, which opens a comment
    op = {LAdd: "+", LSub: "-", LMul: "*"}[type(t)]
    return f"({_render_term(t.lhs)} {op} {_render_term(t.rhs)})"


def render_refinement(r: Formula) -> str:
    if isinstance(r, (FTrue, FFalse)):
        return "true" if r is TRUE else "false"
    if isinstance(r, FAtom):
        return f"({_render_term(r.lhs)}{r.op}{_render_term(r.rhs)})"
    if isinstance(r, FBoolVar):
        return r.name
    if isinstance(r, FIff):
        return f"({render_refinement(r.lhs)} <=> {render_refinement(r.rhs)})"
    return "(" + " && ".join(render_refinement(p) for p in r.parts) + ")"


def render_arm(a: Arm) -> str:
    if isinstance(a, BaseArm):
        return f"{{{VALUE_VAR} : {a.base.name} | {render_refinement(a.ref)}}}"
    if isinstance(a, VarArm):
        return a.name
    return f"({a.binder}: {render_type(a.dom)} -> {render_type(a.cod)})"


def render_type(t: LiquidType) -> str:
    return " /\\ ".join(a.rendered for a in t.arms)


def render_scheme(s: Scheme) -> str:
    if s.qvars:
        return f"forall {' '.join(s.qvars)}. {render_type(s.body)}"
    return render_type(s.body)


def render_simple_type(t: SimpleType) -> str:
    if isinstance(t, Base):
        return t.name
    if isinstance(t, TyVar):
        return t.name
    dom = render_simple_type(t.dom)
    if isinstance(t.dom, Arrow):
        dom = f"({dom})"
    return f"{dom} -> {render_simple_type(t.cod)}"


def render_constant(c: Constant) -> str:
    if isinstance(c, IntConst):
        return str(c.value)
    if isinstance(c, BoolConst):
        return "true" if c.value else "false"
    if isinstance(c, PrimConst):
        return PRIM_SURFACE[c.op]
    inner = " ".join(render_term(a) for a in c.args)
    return f"<{PRIM_SURFACE[c.op]} {inner}>"


def _atom(t: Term) -> str:
    s = render_term(t)
    if isinstance(t, (Var, Const)):
        return s
    return f"({s})"


def render_term(t: Term) -> str:
    if isinstance(t, Var):
        return t.name
    if isinstance(t, Const):
        return render_constant(t.const)
    if isinstance(t, Lam):
        return f"\\{t.binder}. {render_term(t.body)}"
    if isinstance(t, App):
        fun = render_term(t.fun) if isinstance(t.fun, (Var, Const, App)) else f"({render_term(t.fun)})"
        return f"{fun} {_atom(t.arg)}"
    if isinstance(t, Let):
        return f"let {t.binder} = {render_term(t.bound)} in {render_term(t.body)}"
    if isinstance(t, TyAbs):
        return f"[/\\{t.tyvar}]{_atom(t.body)}"
    return f"[{render_simple_type(t.ty)}]{_atom(t.body)}"


# ---------------------------------------------------------------------------
# Fresh names
# ---------------------------------------------------------------------------


class NameSource:
    """Deterministic fresh-name supply that avoids a set of taken names."""

    def __init__(self, prefix: str, used: Optional[Iterable[str]] = None) -> None:
        self.prefix = prefix
        self.used = set(used or ())
        self.counter = 0

    def fresh(self, base: Optional[str] = None) -> str:
        if base is not None:
            if base not in self.used:
                self.used.add(base)
                return base
            i = 0
            while f"{base}%{i}" in self.used:
                i += 1
            self.used.add(f"{base}%{i}")
            return f"{base}%{i}"
        while True:
            cand = f"{self.prefix}{self.counter}"
            self.counter += 1
            if cand not in self.used:
                self.used.add(cand)
                return cand
