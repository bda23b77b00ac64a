"""Hash-consed values and the subtyping-judgement memo: equal parts give one
object (an arrow's binder is one of its parts, and shapes that differ only
in binders have one bare shape), the intern tables hold no value alive, a value derived from hash-consed
inputs is the one a fresh derivation builds and dies with the input it is
kept on, and a checker that answers from its memo answers exactly as a
fresh one does."""

import contextlib
import gc
import io
import os
import subprocess
import sys
import textwrap
import threading
from itertools import product
from pathlib import Path

import pytest
from hypothesis import assume, given, reject, settings, strategies as st

from liqinfer import syntax, validity
from liqinfer.inference import Inferencer
from liqinfer.metatheory import run_subject_reduction
from liqinfer.parser import parse_scheme
from liqinfer.shapes import elaborate
from liqinfer.subtyping import SubtypeChecker
from liqinfer.syntax import (
    BOOL,
    FALSE,
    INT,
    App,
    Arrow,
    Base,
    BaseArm,
    BoolConst,
    CONSTANTS,
    Const,
    Env,
    FAnd,
    FAtom,
    FBoolVar,
    FFalse,
    FIff,
    FTrue,
    FunArm,
    IllFoundedType,
    IntConst,
    LAdd,
    Lam,
    Let,
    LInt,
    LiqError,
    LiquidType,
    LMul,
    LNeg,
    LSub,
    LVar,
    PartialPrim,
    PrimConst,
    Scheme,
    TRUE,
    TyAbs,
    TyInst,
    TyVar,
    Var,
    VarArm,
    VALUE_VAR,
    bare,
    base_top,
    make_type,
    mono,
    subst_liquid,
    subst_refinement,
)
from liqinfer.validity import Invalid, Unknown, Valid, ValidityEngine, ValidityQuery
from test_env import let_chain
from test_shortcuts import nested_chain

# -- specs: plain descriptions of values, built twice ----------------------
#
# A spec is a leaf (int, bool or str) or a tuple (class, *child specs); a
# tuple field of a value is the spec ("tuple", *child specs).


def build(spec):
    if not isinstance(spec, tuple):
        # a fresh but equal string, so that interning cannot lean on the
        # identity of the strings it is given
        return "".join(list(spec)) if isinstance(spec, str) else spec
    head, *parts = spec
    args = [build(p) for p in parts]
    return tuple(args) if head == "tuple" else head(*args)


def count_leaves(spec) -> int:
    return sum(map(count_leaves, spec[1:])) if isinstance(spec, tuple) else 1


def change_leaf(spec, i):
    """`spec` with its `i`-th leaf, counted depth first, changed."""
    def walk(spec):
        nonlocal i
        if isinstance(spec, tuple):
            return (spec[0], *map(walk, spec[1:]))
        i -= 1
        if i != -1:
            return spec
        return spec + "'" if isinstance(spec, str) else spec + 1
    return walk(spec)


def fits(obj, spec) -> bool:
    """Whether `obj` holds the parts `spec` describes, field by field. A
    term spec that leaves out the shape describes a node without one."""
    if not isinstance(spec, tuple):
        return type(obj) is type(spec) and obj == spec
    head, *parts = spec
    if head == "tuple":
        return isinstance(obj, tuple) and len(obj) == len(parts) and all(map(fits, obj, parts))
    fields = field_names(obj)
    if type(obj) is not head or fields is None:
        return False
    parts += [None] * (len(fields) - len(parts))
    return all(fits(getattr(obj, f), part) for f, part in zip(fields, parts))


def field_names(x):
    """The fields of a hash-consed value; None for anything else."""
    return type(x)._fields if isinstance(x, syntax.Value) else None


def value_classes() -> list[type]:
    """`Value` and every class derived from it, each with its own generated
    constructor."""
    out, todo = [], [syntax.Value]
    while todo:
        cls = todo.pop()
        out.append(cls)
        todo += cls.__subclasses__()
    return out


def ref_eq(x, y) -> bool:
    """Structural equality, walked field by field down to the leaves, which
    alone are compared with `==`."""
    fields = field_names(x)
    if fields is not None or field_names(y) is not None:
        return type(x) is type(y) and all(ref_eq(getattr(x, f), getattr(y, f)) for f in fields)
    if isinstance(x, tuple) or isinstance(y, tuple):
        return (
            isinstance(x, tuple) and isinstance(y, tuple)
            and len(x) == len(y) and all(ref_eq(a, b) for a, b in zip(x, y))
        )
    assert isinstance(x, (int, str, type(None))), f"no fields known for {type(x).__name__}"
    return type(x) is type(y) and x == y


names = st.sampled_from((VALUE_VAR, "x", "y"))
int_exprs = st.recursive(
    st.one_of(st.tuples(st.just(LInt), st.integers(-2, 2)), st.tuples(st.just(LVar), names)),
    lambda sub: st.one_of(
        st.tuples(st.just(LNeg), sub),
        st.tuples(st.sampled_from((LAdd, LSub, LMul)), sub, sub),
    ),
    max_leaves=4,
)
refinements = st.recursive(
    st.one_of(
        st.just((FTrue,)),
        st.just((FFalse,)),
        st.tuples(st.just(FAtom), st.sampled_from(("=", "<=", ">=")), int_exprs, int_exprs),
        st.tuples(st.just(FBoolVar), names),
    ),
    lambda sub: st.one_of(
        st.tuples(st.just(FIff), sub, sub),
        st.lists(sub, min_size=1, max_size=2).map(lambda ps: (FAnd, ("tuple", *ps))),
    ),
    max_leaves=4,
)
bases = st.tuples(st.just(Base), st.sampled_from(("int", "bool")))
# shapes, some of whose arrows differ in binder names alone
simple_types = st.recursive(
    st.one_of(bases, st.tuples(st.just(TyVar), names)),
    lambda sub: st.tuples(st.just(Arrow), names, sub, sub),
    max_leaves=3,
)


def liquid_types_at(shape):
    """Intersections of one or two arms, each of the shape spec `shape` (the
    arrows' binders aside)."""
    if shape[0] is Base:
        arm = st.tuples(st.just(BaseArm), st.just(shape), refinements)
    elif shape[0] is TyVar:
        arm = st.just((VarArm, shape[1]))
    else:
        arm = st.tuples(st.just(FunArm), names, liquid_types_at(shape[2]), liquid_types_at(shape[3]))
    return st.lists(arm, min_size=1, max_size=2).map(lambda arms: (LiquidType, ("tuple", *arms)))


liquid_types = simple_types.flatmap(liquid_types_at)
# intersections whose arms are drawn with no regard to their shapes, which
# cannot be built when they differ (`spec_shape`)
any_liquid_types = st.recursive(
    st.lists(
        st.one_of(st.tuples(st.just(BaseArm), bases, refinements), st.tuples(st.just(VarArm), names)),
        min_size=1, max_size=2,
    ).map(lambda arms: (LiquidType, ("tuple", *arms))),
    lambda sub: st.lists(st.tuples(st.just(FunArm), names, sub, sub), min_size=1, max_size=2).map(
        lambda arms: (LiquidType, ("tuple", *arms))
    ),
    max_leaves=3,
)
schemes = st.tuples(st.just(Scheme), st.lists(names, max_size=2).map(lambda q: ("tuple", *q)), liquid_types)


def spec_shape(spec):
    """The shape of a type spec with its binders left out, as nested tuples;
    None when the arms of some intersection in it differ in shape."""
    shapes = set()
    for arm in spec[1][1:]:
        if arm[0] is BaseArm:
            shapes.add(arm[1][1])
        elif arm[0] is VarArm:
            shapes.add(("var", arm[1]))
        else:
            dom, cod = spec_shape(arm[2]), spec_shape(arm[3])
            if dom is None or cod is None:
                return None
            shapes.add((dom, cod))
    return shapes.pop() if len(shapes) == 1 else None


def rebind(spec, data):
    """A shape spec with each arrow's binder drawn anew."""
    if spec[0] is not Arrow:
        return spec
    return (Arrow, data.draw(names), rebind(spec[2], data), rebind(spec[3], data))


def alike(s, t) -> bool:
    """Whether two shapes are equal with their binders ignored, walked
    down to the bases and type variables."""
    if isinstance(s, Arrow) and isinstance(t, Arrow):
        return alike(s.dom, t.dom) and alike(s.cod, t.cod)
    return type(s) is type(t) and not isinstance(s, Arrow) and s.name == t.name


def _shaped(*parts):
    """A term spec with its shape or without one."""
    return st.one_of(st.tuples(*parts), st.tuples(*parts, simple_types))


terms = st.recursive(
    st.one_of(
        _shaped(st.just(Var), names),
        st.tuples(st.just(Const), st.tuples(st.just(IntConst), st.integers(-1, 1))),
    ),
    lambda sub: st.one_of(
        _shaped(st.just(Lam), names, sub),
        _shaped(st.just(App), sub, sub),
        _shaped(st.just(Let), names, sub, sub),
        st.tuples(st.just(TyAbs), names, sub),
        st.tuples(st.just(TyInst), simple_types, sub),
    ),
    max_leaves=4,
)
values = st.one_of(refinements, liquid_types.map(lambda t: t[1][1]), liquid_types, schemes, terms)


class TestHashConsing:
    @settings(max_examples=200, deadline=None)
    @given(values, values)
    def test_equal_parts_give_one_object_and_equality_is_structural(self, s1, s2):
        one, two = build(s1), build(s2)
        assert fits(one, s1) and fits(two, s2)
        assert build(s1) is one and build(s2) is two
        assert (one == two) == ref_eq(one, two) == (one is two)
        if one == two:
            assert hash(one) == hash(two)

    @settings(max_examples=200, deadline=None)
    @given(values, st.data())
    def test_a_value_with_one_part_changed_is_another_object(self, spec, data):
        """Every field enters the key: changing one leaf of a spec, such as
        a binder, a name or a literal, builds another object."""
        n = count_leaves(spec)
        assume(n > 0)
        other = change_leaf(spec, data.draw(st.integers(0, n - 1)))
        one = build(spec)
        try:
            two = build(other)
        except IllFoundedType:
            reject()  # the changed base or type variable set one arm's shape apart
        assert fits(one, spec) and fits(two, other)
        assert one is not two

    @settings(max_examples=300, deadline=None)
    @given(any_liquid_types)
    def test_a_type_whose_arms_differ_in_shape_cannot_be_built(self, spec):
        """A type is built exactly when the arms of every intersection in it
        share one shape; any other raises `IllFoundedType` as it is built."""
        if spec_shape(spec) is None:
            with pytest.raises(IllFoundedType):
                build(spec)
        else:
            assert fits(build(spec), spec)

    def test_a_term_keeps_the_binder_names_of_its_shape(self):
        shapes = [Arrow("a", INT, Arrow("c", INT, INT)), Arrow("a", INT, Arrow("d", INT, INT))]
        assert bare(shapes[0]) is bare(shapes[1])
        nodes = [Lam("x", Var("x"), shape) for shape in shapes]
        assert nodes[0] is not nodes[1]
        assert [n.shape.cod.binder for n in nodes] == ["c", "d"]
        assert Lam("x", Var("x"), Arrow("a", INT, Arrow("c", INT, INT))) is nodes[0]
        assert TyInst(shapes[0], Var("f")) is not TyInst(shapes[1], Var("f"))

    @settings(max_examples=300, deadline=None)
    @given(simple_types, simple_types, st.booleans(), st.data())
    def test_bare_shapes_are_one_object_exactly_when_the_shapes_agree(self, s1, s2, rebound, data):
        """Two shapes have one bare shape exactly when they are equal with
        their binders ignored; half the pairs differ in binders alone."""
        if rebound:
            s2 = rebind(s1, data)
        one, two = build(s1), build(s2)
        assert (bare(one) is bare(two)) == alike(one, two)
        assert alike(bare(one), one) and bare(bare(one)) is bare(one)

    def test_intern_tables_shrink_once_the_values_are_dropped(self):
        """The final shapes elaboration interns drain with the rest (no
        cell is ever interned: `test_shapes.TestNoCellIsInterned`)."""
        tables = [FAtom._table, BaseArm._table, LiquidType._table, syntax._made, Lam._table, Env._table, Arrow._table]

        def sizes():
            gc.collect()
            return [len(t) for t in tables]

        before = sizes()
        kept = []
        for i in range(50):
            name = f"gc_probe_{i}"
            arm = BaseArm(INT, FAtom(">=", LVar(VALUE_VAR), LVar(name)))
            t = make_type([arm, BaseArm(INT, TRUE)])
            kept.append((t, FAtom("=", LVar(name), LInt(i))))
            kept.append((Lam(name, Var(name), Arrow(name, INT, INT)), Env().extend(name, mono(t))))
            kept.append(elaborate({}, Lam(name, Var(name))))
        grown = sizes()
        assert all(g > b for g, b in zip(grown, before)), (before, grown)
        del kept, arm, t
        assert sizes() == before

    def test_threads_building_and_dropping_values_share_one_object(self):
        """Interning is an atomic get-or-insert: threads that build equal
        values at once, while others drop theirs, all get one object."""

        def work(kept):
            for i in range(3000):
                FAtom(">=", LVar(f"race_{i % 40}"), LInt(i % 3))  # dropped at once
                if i % 2:
                    kept.append(((i % 40, i % 3), FAtom(">=", LVar(f"race_{i % 40}"), LInt(i % 3))))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            results = [[] for _ in range(8)]
            threads = [threading.Thread(target=work, args=(kept,)) for kept in results]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        seen = {}
        for kept in results:
            assert len(kept) == 1500
            for parts, obj in kept:
                assert seen.setdefault(parts, obj) is obj
        assert len(seen) == 60  # odd i modulo 120

    def test_memo_slots_are_shared_by_every_occurrence(self):
        arm = BaseArm(INT, FAtom(">=", LVar(VALUE_VAR), LInt(0)))
        assert arm.rendered == "{v : int | (v>=0)}"
        again = BaseArm(Base("int"), FAtom(">=", LVar("v"), LInt(0)))
        assert again is arm and again.rendered is arm.rendered
        assert again.ref.memo is arm.ref.memo


# -- the generated constructors -----------------------------------------------


def keeping(kept, new):
    """A class's constructor `new`, keeping every value it returns."""
    def wrapper(cls, *fields):
        kept.append(new(cls, *fields))
        return kept[-1]

    return wrapper


@pytest.fixture(scope="module")
def live():
    """One live value of each class derived from `Value`, taken from its
    table after `demos/sign.ml` is inferred and the elaboration golden's
    terms are elaborated, with every value built meanwhile held."""
    from test_golden_elaboration import elaborations

    from liqinfer import cli

    kept = []
    with pytest.MonkeyPatch.context() as mp:
        for cls in value_classes():
            mp.setattr(cls, "__new__", keeping(kept, cls.__dict__["__new__"]))
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main([str(Path(__file__).parents[1] / "demos" / "sign.ml")]) == 0
        elaborations()
    values = {}
    for cls in value_classes():
        for ref in cls._table.values():
            x = ref()
            if x is not None:
                values[cls] = x
                break
    yield values
    del kept


def frames_run(build) -> tuple[list, list]:
    """The code objects of the Python frames that `build()` runs directly,
    and of those that these run directly in turn, each in order."""
    calls = []
    # a collection would run `gc.callbacks`, whose frames are not the build's
    collecting = gc.isenabled()
    gc.disable()
    sys.setprofile(lambda frame, event, arg: calls.append(frame) if event == "call" else None)
    try:
        build()
    finally:
        sys.setprofile(None)
        if collecting:
            gc.enable()
    outer, *inner = calls
    first = [f for f in inner if f.f_back is outer]
    return [f.f_code for f in first], [f.f_code for f in inner if f.f_back in first]


class TestConstructors:
    def test_every_concrete_class_has_a_live_value(self, live):
        assert {cls.__name__ for cls in value_classes() if cls not in live} == {"Value", "_Formula", "_Arm", "_Type"}

    def test_each_class_rebuilds_its_live_values_from_positional_fields_only(self, live):
        """A generated constructor whose locals a field's name shadowed
        would read a field back wrong, or return another object."""
        for cls, x in live.items():
            fields = [getattr(x, f) for f in cls._fields]
            assert cls(*fields) is x, cls
            if fields:
                with pytest.raises(TypeError):
                    cls(**dict(zip(cls._fields, fields)))

    def test_a_value_that_lives_is_built_in_one_python_frame(self, live):
        for cls, x in live.items():
            fields = [getattr(x, f) for f in cls._fields]
            assert frames_run(lambda: cls(*fields)) == ([cls.__new__.__code__], []), cls

    def test_a_new_value_is_built_in_one_python_frame_and_its_post_init(self, live):
        """The entry of a live value is lifted out of its class's table for
        the build, so that the constructor makes a new value, and is put
        back after it."""
        for cls, x in live.items():
            key = tuple(getattr(x, f) for f in cls._fields)
            held = cls._table.pop(key)
            try:
                ctors, inner = frames_run(lambda: cls(*key))
            finally:
                cls._table[key] = held
            post = [cls.__post_init__.__code__] if hasattr(cls, "__post_init__") else []
            assert (ctors, inner) == ([cls.__new__.__code__], post), cls
            assert cls(*key) is x


# -- values derived from hash-consed inputs --------------------------------

atoms = st.one_of(
    _shaped(st.just(Var), names),
    st.tuples(st.just(Const), st.tuples(st.just(IntConst), st.integers(-2, 2))),
    st.tuples(st.just(Const), st.tuples(st.just(BoolConst), st.booleans())),
)


def substituted(t, name, atom):
    """[atom/name]t as the definition reads: through every arm, the binder
    of an arrow scoping over its codomain only."""
    def arm(a):
        if isinstance(a, BaseArm):
            return BaseArm(a.base, subst_refinement(a.ref, {name: atom}))
        if isinstance(a, VarArm):
            return a
        return FunArm(a.binder, walk(a.dom), a.cod if a.binder == name else walk(a.cod))

    def walk(t):
        return make_type(arm(a) for a in t.arms)

    return walk(t)


class TestDerivedValues:
    def test_a_literal_scheme_is_the_one_a_fresh_derivation_builds(self):
        for text, c in [
            ("{v : int | (v=5)}", IntConst(5)),
            ("{v : int | (v=-3)}", IntConst(-3)),
            ("{v : bool | (v <=> true)}", BoolConst(True)),
            ("{v : bool | (v <=> false)}", BoolConst(False)),
        ]:
            kept = CONSTANTS.type_of(c)
            assert parse_scheme(text) is kept and CONSTANTS.type_of(c) is kept

    def test_a_self_type_is_the_one_a_fresh_derivation_builds(self):
        for text, node in [("{v : int | (v=x)}", Var("x", INT)), ("{v : bool | (v <=> p)}", Var("p", BOOL))]:
            kept = node.self_type
            assert parse_scheme(text) is kept and node.self_type is kept
        env = Env().extend("x", mono(base_top(INT)))
        assert Inferencer(()).infer(env, Var("x")) is Var("x", INT).self_type

    @settings(max_examples=300, deadline=None)
    @given(liquid_types, names, atoms)
    def test_a_kept_substitution_is_the_one_a_fresh_derivation_builds(self, spec, name, atom_spec):
        t, atom = build(spec), build(atom_spec)
        try:
            expected = substituted(t, name, atom)
        except LiqError:
            # a literal of the other sort
            with pytest.raises(LiqError):
                subst_liquid(t, {name: atom})
            return
        assert subst_liquid(t, {name: atom}) is expected
        assert subst_liquid(t, {name: build(atom_spec)}) is expected

    def test_derived_values_die_with_the_values_they_are_kept_on(self):
        """Literal schemes, self-types and substitutions are kept on values
        that a trial drops: after criterion-5 traffic the term, scheme and
        type tables are back at their sizes after a warm-up. It runs in a
        fresh interpreter, where no other test holds a term alive."""
        probe = textwrap.dedent(
            """
            import gc
            from liqinfer.metatheory import run_subject_reduction
            from liqinfer.syntax import Const, LiquidType, Scheme, Var

            def sizes():
                gc.collect()
                return [len(cls._table) for cls in (Var, Scheme, LiquidType, Const)]

            assert run_subject_reduction(10, fuel=100, seed=7).ok
            warm = sizes()
            for seed in range(3):
                assert run_subject_reduction(20, fuel=100, seed=seed).ok
            print(*warm)
            print(*sizes())
            """
        )
        src = str(Path(syntax.__file__).parents[1])
        proc = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": src}, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        warm, after = proc.stdout.splitlines()
        assert after == warm, "Var, Scheme, LiquidType and Const tables grew"


# -- printed forms ----------------------------------------------------------

BASE_ARM = BaseArm(INT, FAtom("<=", LVar("v"), LInt(0)))
FUN_ARM = FunArm("x", LiquidType((BASE_ARM,)), LiquidType((BaseArm(BOOL, FIff(FBoolVar("v"), FALSE)),)))
TWO_ARMS = make_type([FUN_ARM, FunArm("x", base_top(INT), LiquidType((BaseArm(BOOL, FBoolVar("v")),)))])

# A repr prints the class and every field, `Name(field=value, ...)`. The
# texts are fixed, since logs and failing tests show them.
REPRS = [
    (
        lambda: ValidityQuery(
            FAnd((FAtom(">=", LVar("x"), LNeg(LInt(3))), FIff(FBoolVar("p"), TRUE))),
            FAtom("=", LVar("v"), LMul(LAdd(LVar("x"), LInt(1)), LSub(LVar("y"), LVar("x")))),
        ),
        "ValidityQuery(hypothesis=FAnd(parts=(FAtom(op='>=', lhs=LVar(name='x'),"
        " rhs=LNeg(arg=LInt(value=3))), FIff(lhs=FBoolVar(name='p'), rhs=FTrue()))),"
        " conclusion=FAtom(op='=', lhs=LVar(name='v'),"
        " rhs=LMul(lhs=LAdd(lhs=LVar(name='x'), rhs=LInt(value=1)),"
        " rhs=LSub(lhs=LVar(name='y'), rhs=LVar(name='x')))))",
    ),
    (
        lambda: BASE_ARM,
        "BaseArm(base=Base(name='int'), ref=FAtom(op='<=', lhs=LVar(name='v'),"
        " rhs=LInt(value=0)))",
    ),
    (
        lambda: FUN_ARM,
        "FunArm(binder='x', dom=LiquidType(arms=(BaseArm(base=Base(name='int'),"
        " ref=FAtom(op='<=', lhs=LVar(name='v'), rhs=LInt(value=0))),)),"
        " cod=LiquidType(arms=(BaseArm(base=Base(name='bool'),"
        " ref=FIff(lhs=FBoolVar(name='v'), rhs=FFalse())),)))",
    ),
    (
        lambda: VarArm("a"),
        "VarArm(name='a')",
    ),
    (
        lambda: TWO_ARMS,
        "LiquidType(arms=(FunArm(binder='x',"
        " dom=LiquidType(arms=(BaseArm(base=Base(name='int'), ref=FAtom(op='<=',"
        " lhs=LVar(name='v'), rhs=LInt(value=0))),)),"
        " cod=LiquidType(arms=(BaseArm(base=Base(name='bool'),"
        " ref=FIff(lhs=FBoolVar(name='v'), rhs=FFalse())),))), FunArm(binder='x',"
        " dom=LiquidType(arms=(BaseArm(base=Base(name='int'), ref=FTrue()),)),"
        " cod=LiquidType(arms=(BaseArm(base=Base(name='bool'),"
        " ref=FBoolVar(name='v')),)))))",
    ),
    (
        lambda: Scheme(("a",), TWO_ARMS),
        "Scheme(qvars=('a',), body=LiquidType(arms=(FunArm(binder='x',"
        " dom=LiquidType(arms=(BaseArm(base=Base(name='int'), ref=FAtom(op='<=',"
        " lhs=LVar(name='v'), rhs=LInt(value=0))),)),"
        " cod=LiquidType(arms=(BaseArm(base=Base(name='bool'),"
        " ref=FIff(lhs=FBoolVar(name='v'), rhs=FFalse())),))), FunArm(binder='x',"
        " dom=LiquidType(arms=(BaseArm(base=Base(name='int'), ref=FTrue()),)),"
        " cod=LiquidType(arms=(BaseArm(base=Base(name='bool'),"
        " ref=FBoolVar(name='v')),))))))",
    ),
    (
        lambda: Lam("x", App(Const(PrimConst("neg")), Var("x", INT), INT), Arrow("x", INT, INT)),
        "Lam(binder='x', body=App(fun=Const(const=PrimConst(op='neg')),"
        " arg=Var(name='x', shape=Base(name='int')), shape=Base(name='int')),"
        " shape=Arrow(binder='x', dom=Base(name='int'), cod=Base(name='int')))",
    ),
    (
        lambda: Arrow("f", Arrow("x", TyVar("a"), BOOL), INT),
        "Arrow(binder='f', dom=Arrow(binder='x', dom=TyVar(name='a'),"
        " cod=Base(name='bool')), cod=Base(name='int'))",
    ),
    (
        lambda: Invalid((("x", 1), ("p", True))),
        "Invalid(model=(('x', 1), ('p', True)))",
    ),
    (
        lambda: Invalid(),
        "Invalid(model=None)",
    ),
    (
        lambda: Unknown("not proved"),
        "Unknown(reason='not proved')",
    ),
    (
        lambda: Unknown(),
        "Unknown(reason='')",
    ),
    (
        lambda: Valid(),
        "Valid()",
    ),
    (
        lambda: Const(IntConst(-2)),
        "Const(const=IntConst(value=-2))",
    ),
    (
        lambda: Const(BoolConst(True)),
        "Const(const=BoolConst(value=True))",
    ),
    (
        lambda: Const(PartialPrim("add", (Const(IntConst(1)),))),
        "Const(const=PartialPrim(op='add', args=(Const(const=IntConst(value=1)),)))",
    ),
    (
        lambda: TyAbs("a", TyInst(TyVar("a"), Var("f"))),
        "TyAbs(tyvar='a', body=TyInst(ty=TyVar(name='a'), body=Var(name='f',"
        " shape=None)))",
    ),
    (
        lambda: Let("y", Var("x"), Var("y")),
        "Let(binder='y', bound=Var(name='x', shape=None), body=Var(name='y',"
        " shape=None), shape=None)",
    ),
]


@pytest.mark.parametrize("build, text", REPRS)
def test_repr_prints_every_field(build, text):
    assert repr(build()) == text


# -- the judgement memo ----------------------------------------------------

BINDERS = ("x", "y")


def _cmp(op, rhs):
    return FAtom(op, LVar(VALUE_VAR), rhs)


def _int_type(refs):
    return LiquidType(tuple(BaseArm(INT, r) for r in refs)) if refs else base_top(INT)


# refinements over the value variable, literals and the names in `scope`
def _refs(scope):
    atoms = [st.integers(-1, 1).map(LInt)] + [st.just(LVar(n)) for n in scope]
    ref = st.builds(_cmp, st.sampled_from(("=", "<=", ">=", "<")), st.one_of(*atoms))
    return st.lists(ref, max_size=2, unique=True)


@st.composite
def arrow_types(draw, scope, nested=False):
    """Function types `b: int -> ...` of one or two arms whose refinements
    mention the names in `scope`. A codomain may also mention its binder, or,
    when nested, is itself such a function type. Binders are named like the
    environment's bindings, so that the checker must rename them."""
    arms = []
    for _ in range(draw(st.integers(1, 2))):
        binder = draw(st.sampled_from(BINDERS))
        dom = _int_type(draw(_refs(scope)))
        inner = scope + (binder,)
        cod = draw(arrow_types(inner)) if nested else _int_type(draw(_refs(inner)))
        arms.append(FunArm(binder, dom, cod))
    return make_type(arms)


KINDS = (
    lambda scope: st.builds(_int_type, _refs(scope)),
    arrow_types,
    lambda scope: arrow_types(scope, nested=True),
)


@st.composite
def environments(draw):
    """Environments extended from one another, base bindings shadowing
    earlier ones and non-base bindings hiding them."""
    hiding = mono(LiquidType((FunArm("a", base_top(INT), base_top(INT)),)))
    envs = [Env()]
    for _ in range(draw(st.integers(1, 5))):
        parent = envs[draw(st.integers(0, len(envs) - 1))]
        name = draw(st.sampled_from(BINDERS))
        if draw(st.booleans()):
            scheme = hiding
        else:
            # a refinement may mention any name bound before it, as inference
            # guarantees: the formula of an environment mentions only its names
            scheme = mono(_int_type(draw(_refs(tuple(sorted({n for n, _ in parent.bindings}))))))
        envs.append(parent.extend(name, scheme))
    return envs


@st.composite
def judgements(draw):
    """Pairs of types of one shape, each judged under every environment of
    `environments` that binds the names its refinements mention, in a
    random order."""
    envs = draw(environments())
    pairs = []
    for _ in range(draw(st.integers(1, 4))):
        scope = tuple(sorted(draw(st.sets(st.sampled_from(BINDERS)))))
        kind = draw(st.sampled_from(KINDS))
        pairs.append((scope, draw(kind(scope)), draw(kind(scope))))
    items = [(env, lhs, rhs) for env in envs for scope, lhs, rhs in pairs if {n for n, _ in env.bindings} >= set(scope)]
    return draw(st.permutations(items))


@st.composite
def base_judgements(draw):
    """Pairs of int types judged under the environments of `environments`,
    whose refinements mention the names each environment binds."""
    items = []
    for env in draw(environments()):
        scope = tuple(sorted({n for n, _ in env.bindings}))
        for _ in range(draw(st.integers(1, 3))):
            items.append((env, _int_type(draw(_refs(scope))), _int_type(draw(_refs(scope)))))
    return draw(st.permutations(items))


class TestJudgementMemo:
    @settings(max_examples=100, deadline=None)
    @given(judgements())
    def test_a_warm_checker_answers_like_a_fresh_one(self, items):
        warm = SubtypeChecker(ValidityEngine())
        for env, lhs, rhs in items + items:
            fresh = SubtypeChecker(ValidityEngine())
            assert warm.is_subtype(env, lhs, rhs) == fresh.is_subtype(env, lhs, rhs)

    def test_a_renamed_binder_renames_the_inner_domain_that_names_it(self):
        """In `y: {v=1} -> (y: {v=0} /\\ {v=y} -> {v=y})` the inner domain's
        `y` is the outer binder. Under an environment that binds `y` the
        checker renames the outer binder, and that `y` must follow it; then
        the inner domain contradicts the outer one under both environments."""
        top = base_top(INT)
        lhs = make_type([FunArm("x", top, make_type([FunArm("x", top, top)]))])
        inner = FunArm(
            "y",
            _int_type([_cmp("=", LInt(0)), _cmp("=", LVar("y"))]),
            _int_type([_cmp("=", LVar("y"))]),
        )
        rhs = make_type([FunArm("y", _int_type([_cmp("=", LInt(1))]), make_type([inner]))])
        hidden = Env().extend("y", mono(LiquidType((FunArm("a", top, top),))))
        for env in (Env(), hidden):
            assert SubtypeChecker(ValidityEngine()).is_subtype(env, lhs, rhs)

    def test_renamed_binders_share_one_judgement(self):
        """`x` is bound in one environment and not in the other, so the
        arrow's binder is renamed under the first only; both have the same
        formula, so the second judgement is answered from the memo."""
        ge = _int_type([_cmp(">=", LInt(0))])
        lhs = make_type([FunArm("x", base_top(INT), _int_type([_cmp(">=", LVar("x"))]))])
        rhs = make_type([FunArm("x", ge, _int_type([_cmp(">=", LInt(0))]))])
        hidden = Env().extend("x", mono(LiquidType((VarArm("a"),))))
        checker = SubtypeChecker(ValidityEngine())
        assert checker.is_subtype(hidden, lhs, rhs)
        queries = checker.engine.stats["queries"]
        assert checker.is_subtype(Env(), lhs, rhs)
        assert checker.engine.stats["queries"] == queries


# -- the memo up to renaming ----------------------------------------------

# An injective renaming of the environment's names. Each new name sorts
# where its old one did against every other name a judgement prints, so
# that a canonical type's arms keep their order. An arrow binder renamed to
# `x#` sorts where `x` does against every other name, so an arrow
# judgement's codomains seldom conjoin their arms in another order.
RENAMING = {"x": "x1", "y": "y1"}
# changes of the names in a type: none, a swap, and one put for the other
CHANGES = ({}, {"x": Var("y"), "y": Var("x")}, {"x": Var("y")}, {"y": Var("x")})


def rename_type(t, rho):
    """t with the free occurrences of the names `rho` binds replaced, made
    canonical at every level (`make_type`); the generators build types
    whose arms are not sorted."""
    arms = []
    for arm in t.arms:
        if isinstance(arm, BaseArm):
            arm = BaseArm(arm.base, subst_refinement(arm.ref, rho))
        elif isinstance(arm, FunArm):
            inner = {n: x for n, x in rho.items() if n != arm.binder}
            arm = FunArm(arm.binder, rename_type(arm.dom, rho), rename_type(arm.cod, inner))
        arms.append(arm)
    return make_type(arms)


def rename(env, lhs, rhs, renaming):
    """The judgement with every name its environment binds renamed: the
    bindings, and their free occurrences in the types and the bindings'
    schemes; an arrow's binder and its occurrences stay."""
    rho = {name: Var(new) for name, new in renaming.items()}
    out = Env()
    for name, scheme in env.bindings:
        out = out.extend(renaming[name], Scheme(scheme.qvars, rename_type(scheme.body, rho)))
    return out, rename_type(lhs, rho), rename_type(rhs, rho)


class _Counting(SubtypeChecker):
    """A checker that records the target of each judgement it decides."""

    def __init__(self, engine):
        super().__init__(engine)
        self.decided = []

    def _decide(self, env, a, b):
        self.decided.append(b)
        return super()._decide(env, a, b)

    def base_decisions(self):
        return [b for b in self.decided if isinstance(b.arms[0], BaseArm)]


def fresh_answer(env, lhs, rhs):
    return SubtypeChecker(ValidityEngine()).is_subtype(env, lhs, rhs)


class TestRenamedJudgements:
    @settings(max_examples=100, deadline=None)
    @given(judgements(), base_judgements())
    def test_a_renamed_judgement_is_answered_from_the_memo(self, items, base_items):
        """Asked again under a renaming of its environment's names, a
        judgement gets the answer a fresh checker gives, and a base
        judgement is answered from the memo, with no query. (An arrow
        judgement is decided again. The binders it picks for its codomains
        depend on the names Γ binds, so its base judgements may conjoin
        their arms in another order, and then be other queries.)

        A base judgement with the names of one or both of its types alone
        changed (`x` and `y` swapped, or one put for the other) is another
        judgement, and each of its pieces is often a renaming of the
        original's: it too gets a fresh checker's answer, so the memo does
        not conflate judgements that differ in which names coincide."""
        items = [rename(*judgement, {n: n for n in BINDERS}) for judgement in items + base_items]
        warm = _Counting(ValidityEngine())
        for judgement in items:
            assert warm.is_subtype(*judgement) == fresh_answer(*judgement)
        for judgement in items:
            env, lhs, rhs = rename(*judgement, RENAMING)
            warm.decided.clear()
            queries = warm.engine.stats["queries"]
            assert warm.is_subtype(env, lhs, rhs) == fresh_answer(env, lhs, rhs)
            if isinstance(rhs.arms[0], BaseArm):
                assert warm.decided == []
                assert warm.engine.stats["queries"] == queries
        for env, lhs, rhs in items:
            if isinstance(rhs.arms[0], BaseArm):
                for rho, sigma in product(CHANGES, CHANGES):
                    judgement = env, rename_type(lhs, rho), rename_type(rhs, sigma)
                    assert warm.is_subtype(*judgement) == fresh_answer(*judgement)

    def test_a_renaming_into_the_name_of_an_arrow_binder(self):
        """`y` renamed to `x`, the binder of the arrow: the domain's `x` is
        then the environment's, the codomain's the binder's, and the checker
        renames the binder to `x#`. Every base judgement is a renaming of
        one asked before."""
        ge1 = _int_type([_cmp(">=", LInt(1))])

        def judgement(name):
            env = Env().extend(name, mono(_int_type([_cmp("=", LInt(1))])))
            lhs = make_type([FunArm("x", _int_type([_cmp(">=", LVar(name))]), _int_type([_cmp(">=", LVar("x"))]))])
            return env, lhs, make_type([FunArm("x", ge1, ge1)])

        checker = _Counting(ValidityEngine())
        assert checker.is_subtype(*judgement("y"))
        checker.decided.clear()
        assert checker.is_subtype(*judgement("x"))
        assert checker.engine.stats["queries"] == 2
        assert checker.base_decisions() == []
        assert fresh_answer(*judgement("x"))

    def test_iff_and_integer_equality_are_two_entries(self):
        """`q <=> p` and `y = x` print alike in SMT-LIB but for the sorts of
        their names; the judgement under each is decided."""
        bool_top = LiquidType((BaseArm(BOOL, TRUE),))
        iff_p = LiquidType((BaseArm(BOOL, FIff(FBoolVar(VALUE_VAR), FBoolVar("p"))),))
        bools = Env().extend("p", mono(bool_top)).extend("q", mono(iff_p))
        ints = Env().extend("x", mono(base_top(INT))).extend("y", mono(_int_type([_cmp("=", LVar("x"))])))
        lhs, rhs = _int_type([_cmp(">=", LInt(0))]), _int_type([_cmp(">=", LInt(1))])
        checker = _Counting(ValidityEngine())
        for env in (bools, ints):
            assert not checker.is_subtype(env, lhs, rhs)
        assert len(checker.base_decisions()) == 2
        assert checker.engine.stats["queries"] == 2

    def test_judgements_that_differ_in_which_names_coincide_are_two_entries(self):
        """`v = x` is below `v >= x` and not below `v >= y`: the two targets
        print alike up to renaming and differ only in whether the name they
        mention is the source's."""
        env = Env().extend("x", mono(base_top(INT))).extend("y", mono(base_top(INT)))
        eq_x = _int_type([_cmp("=", LVar("x"))])
        checker = _Counting(ValidityEngine())
        assert checker.is_subtype(env, eq_x, _int_type([_cmp(">=", LVar("x"))]))
        assert not checker.is_subtype(env, eq_x, _int_type([_cmp(">=", LVar("y"))]))
        assert len(checker.base_decisions()) == 2


class TestQueryCounts:
    def test_chains_ask_the_engine_each_query_once(self, monkeypatch, tmp_path, capsys):
        """A nested chain and a let chain, each 20 deep: each level's base
        judgements are renamings of the level before's, so the engine is
        asked no query twice, up to renaming. Keyed by name alone, the memo
        lets the renamed repeats through to the engine, which decides the
        same set of queries, and the output is the same."""
        from liqinfer import cli, subtyping

        decided: list[str] = []
        decide = validity.builtin_decide

        def recording(q, need_model=True):
            decided.append(validity.canonical_key(q))
            return decide(q, need_model=need_model)

        monkeypatch.setattr(validity, "builtin_decide", recording)
        engines = []
        make_engine = cli._make_engine
        monkeypatch.setattr(cli, "_make_engine", lambda args: engines.append(make_engine(args)) or engines[-1])
        files = {"nested": nested_chain(20), "let": let_chain(20)}
        for name, body in files.items():
            (tmp_path / f"{name}.ml").write_text(f"Qualifiers {{ v >= 0, v <= 0 }}\nval f = {body}\n")
        runs = {}
        for renaming in (True, False):
            if not renaming:
                monkeypatch.setattr(subtyping, "_renamed_key", lambda f, a, b: (f, a, b))
            for name in files:
                decided.clear()
                code = cli.main([str(tmp_path / f"{name}.ml"), "--json"])
                out = capsys.readouterr()
                assert code == 0, out.err
                assert len(decided) == engines[-1].stats["queries"], name
                runs[renaming, name] = (out.out, out.err), list(decided)
        for name in files:
            (answers, keys), (plain, plain_keys) = runs[True, name], runs[False, name]
            assert answers == plain, name
            assert len(keys) == len(set(keys)) > 0, name
            assert set(plain_keys) == set(keys), name
            assert len(plain_keys) > len(keys), name

    def test_the_memo_cuts_queries_and_keeps_every_decision(self, monkeypatch, filter_memo_off):
        """Criterion-5 traffic re-checks every reduct: without the memo it
        asks the engine more than three times as many queries, and the
        engine decides the same set of queries, up to renaming. The
        inference memo and the filter memo are off in both runs, so that
        every repeated judgement reaches this memo."""
        monkeypatch.setattr(Inferencer, "_age", lambda self: None)
        filter_memo_off()
        decided: set[str] = set()
        decide = validity.builtin_decide

        def recording(q, need_model=True):
            decided.add(validity.canonical_key(q))
            return decide(q, need_model=need_model)

        monkeypatch.setattr(validity, "builtin_decide", recording)
        runs = {}
        for memo in (True, False):
            if not memo:
                monkeypatch.setattr(
                    SubtypeChecker, "_sub",
                    lambda self, env, a, b: a is b or SubtypeChecker._decide(self, env, a, b),
                )
            engine = ValidityEngine()
            decided.clear()
            assert run_subject_reduction(40, fuel=100, seed=7, engine=engine).ok
            runs[memo] = engine.stats["queries"], frozenset(decided)
        (with_memo, keys), (without, plain_keys) = runs[True], runs[False]
        assert without >= 3 * with_memo, (with_memo, without)
        assert plain_keys == keys, (len(keys), len(plain_keys))
