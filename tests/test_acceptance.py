"""Acceptance criteria, one test per criterion, each printing a pass line.

Criteria that need a real SMT-LIB solver run it when one is configured
(LIQINFER_SMT_CMD or a known binary on PATH) and otherwise record the
built-in result plus an explicit skip note for the external lane.
"""

import json
import os
import random
import shutil
import time

from liqinfer.anf import normalize
from liqinfer.cli import main
from liqinfer.inference import Inferencer, fresh
from liqinfer.metatheory import (
    generate_corpus,
    random_base_query,
    recheck,
    semantic_implication_oracle,
    subject_reduction_trial,
)
from liqinfer.parser import parse_program, parse_term
from liqinfer.shapes import w_infer
from liqinfer.subtyping import SubtypeChecker
from liqinfer.syntax import (
    Arrow,
    BaseArm,
    FAtom,
    FAnd,
    Env,
    FunArm,
    INT,
    LInt,
    LiquidType,
    LVar,
    VALUE_VAR,
    intersect,
    make_type,
    mono,
    render_arm,
    shape_of,
)
from liqinfer.validity import Unknown, Valid, ValidityEngine

GE = FAtom(">=", LVar(VALUE_VAR), LInt(0))
LE = FAtom("<=", LVar(VALUE_VAR), LInt(0))
Y5 = FAtom("=", LVar("y"), LInt(5))
SIGN_QUALIFIERS = (GE, LE)

SIGN_FILE = """Qualifiers
{
   v >= 0,
   v <= 0
}

val mul = \\x . * x x
val neg = \\x. - x
"""

MUL_ARMS = {
    "(x: {v : int | (v>=0)} -> {v : int | (v>=0)})",
    "(x: {v : int | (v<=0)} -> {v : int | (v>=0)})",
}
NEG_ARMS = {
    "(x: {v : int | (v>=0)} -> {v : int | (v<=0)})",
    "(x: {v : int | (v<=0)} -> {v : int | (v>=0)})",
}

_shared: dict = {}


def external_solver_cmd():
    cmd = os.environ.get("LIQINFER_SMT_CMD")
    if cmd:
        return cmd
    for candidate in ("z3 -in", "cvc5 --lang smt2 -", "cvc4 --lang smt2 -"):
        if shutil.which(candidate.split()[0]):
            return candidate
    return None


def base(*refs):
    return make_type([BaseArm(INT, r) for r in refs])


def _cli_arm_sets(tmp_path, capsys, extra=()):
    path = tmp_path / "sign.ml"
    path.write_text(SIGN_FILE)
    code = main([str(path), "--json", *extra])
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out)
    return {b["name"]: set(b["arms"]) for b in payload["bindings"]}


def test_criterion_1_golden_reproduction(tmp_path, capsys):
    start = time.monotonic()
    got = _cli_arm_sets(tmp_path, capsys)
    elapsed = time.monotonic() - start
    assert got["mul"] == MUL_ARMS
    assert got["neg"] == NEG_ARMS
    assert elapsed < 10.0, f"builtin run took {elapsed:.1f}s"
    cmd = external_solver_cmd()
    if cmd:
        got_ext = _cli_arm_sets(tmp_path, capsys, ("--backend", "both", "--smt-cmd", cmd))
        assert got_ext["mul"] == MUL_ARMS and got_ext["neg"] == NEG_ARMS
        note = f"external solver {cmd!r} agrees"
    else:
        note = "external lane skipped: no SMT solver in this environment"
    print(f"\nPASS criterion 1: golden arm sets reproduced in {elapsed:.2f}s ({note})")


def test_criterion_2_fresh_cardinality():
    shape = Arrow("x", INT, INT)
    for n in (1, 2, 3):
        quals = [GE, LE, Y5][:n]
        assert len(fresh(shape, quals).arms) == n * n
    four = fresh(shape, SIGN_QUALIFIERS)
    listed4 = make_type(
        [
            FunArm("x", base(GE), base(GE)),
            FunArm("x", base(GE), base(LE)),
            FunArm("x", base(LE), base(GE)),
            FunArm("x", base(LE), base(LE)),
        ]
    )
    assert four == listed4
    nine = fresh(shape, [GE, LE, Y5])
    listed9 = make_type(
        [
            FunArm("x", base(dq), base(cq))
            for dq in (GE, LE, Y5)
            for cq in (GE, LE, Y5)
        ]
    )
    assert nine == listed9
    print("\nPASS criterion 2: fresh templates have |Q|^2 arms (1, 4, 9 exactly)")


def test_criterion_3_well_formedness_filtering(engine):
    quals = [GE, LE, Y5]
    term = normalize(parse_term("\\x. - x"))
    shape = w_infer({}, term).ty
    template = fresh(shape, quals)
    assert len(template.arms) == 9
    checker = SubtypeChecker(engine)
    wf_arms = [a for a in template.arms if checker.wf_check(Env(), LiquidType((a,)))]
    expected_wf = {
        render_arm(FunArm("x", base(dq), base(cq)))
        for dq in (GE, LE)
        for cq in (GE, LE)
    }
    assert {render_arm(a) for a in wf_arms} == expected_wf
    final = Inferencer(quals, engine).infer(Env(), term)
    assert {render_arm(a) for a in final.body.arms} == NEG_ARMS
    print("\nPASS criterion 3: template filtering 9 -> 4 (well-formedness) -> 2 (subtyping)")


def test_criterion_4_derivation_queries(engine):
    env = Env().extend("x", mono(base(GE)))
    checker = SubtypeChecker(engine)
    from liqinfer.syntax import LNeg, TRUE

    q1 = checker.base_subtype_query(
        env, [BaseArm(INT, FAtom("=", LVar(VALUE_VAR), LVar("x")))], [BaseArm(INT, TRUE)]
    )
    q2 = checker.base_subtype_query(
        env,
        [BaseArm(INT, FAtom("=", LVar(VALUE_VAR), LNeg(LVar("x"))))],
        [BaseArm(INT, LE)],
    )
    assert engine.check(q1) == Valid()
    assert engine.check(q2) == Valid()
    cmd = external_solver_cmd()
    if cmd:
        ext = ValidityEngine(backend="external", smt_cmd=cmd)
        assert ext.check(q1) == Valid() and ext.check(q2) == Valid()
        note = "both backends"
    else:
        note = "builtin backend; external lane skipped (no solver installed)"
    print(f"\nPASS criterion 4: the two worked-derivation queries are Valid ({note})")


def test_criterion_5_subject_reduction_suite():
    start = time.monotonic()
    engine = ValidityEngine()
    inferencer = Inferencer(SIGN_QUALIFIERS, engine)
    corpus = generate_corpus(500, SIGN_QUALIFIERS, seed=2026, engine=engine)
    violations = stuck = timeouts = 0
    for term in corpus:
        report = subject_reduction_trial(term, SIGN_QUALIFIERS, fuel=100, inferencer=inferencer)
        assert report.well_typed
        if report.stuck:
            stuck += 1
        elif not report.ok:
            violations += 1
        if report.timed_out:
            timeouts += 1
    elapsed = time.monotonic() - start
    _shared["corpus"] = corpus
    _shared["engine"] = engine
    _shared["inferencer"] = inferencer
    assert violations == 0, f"{violations} preservation violations"
    assert stuck == 0, f"{stuck} stuck states"
    assert elapsed < 60.0, f"suite took {elapsed:.1f}s"
    print(
        f"\nPASS criterion 5: 500 trials, 0 violations, 0 stuck"
        f" ({timeouts} fuel timeouts) in {elapsed:.1f}s"
    )


def test_criterion_6_inference_soundness():
    engine = _shared.get("engine") or ValidityEngine()
    inferencer = _shared.get("inferencer") or Inferencer(SIGN_QUALIFIERS, engine)
    corpus = _shared.get("corpus")
    if corpus is None:
        corpus = generate_corpus(500, SIGN_QUALIFIERS, seed=2026, engine=engine)
    golden = [normalize(term) for _, term in parse_program(SIGN_FILE).bindings]
    checked = 0
    for term in golden + list(corpus):
        inferred = inferencer.infer(Env(), term)
        assert recheck(Env(), term, inferred, SIGN_QUALIFIERS, inferencer=inferencer)
        checked += 1
    print(f"\nPASS criterion 6: inferred types re-check on all {checked} corpus terms")


def test_criterion_7_oracle_soundness():
    engine = ValidityEngine()
    checker = SubtypeChecker(engine)
    cmd = external_solver_cmd()
    external = ValidityEngine(backend="external", smt_cmd=cmd) if cmd else None
    rng = random.Random(404)
    unsound = 0
    agreements = disagreements = 0
    for _ in range(200):
        env, lhs_arms, rhs_arms = random_base_query(rng)
        q = checker.base_subtype_query(env, lhs_arms, rhs_arms)
        verdict = engine.check(q)
        lhs = lhs_arms[0].ref if len(lhs_arms) == 1 else FAnd(tuple(a.ref for a in lhs_arms))
        rhs = rhs_arms[0].ref if len(rhs_arms) == 1 else FAnd(tuple(a.ref for a in rhs_arms))
        oracle_true = semantic_implication_oracle(env, lhs, rhs, 4)
        if isinstance(verdict, Valid) and not oracle_true:
            unsound += 1
        if external is not None and not isinstance(verdict, Unknown):
            ext = external.check_external(q)
            if not isinstance(ext, Unknown):
                agreements += 1
                if isinstance(verdict, Valid) != isinstance(ext, Valid):
                    disagreements += 1
    assert unsound == 0, f"{unsound} unsound Valid answers"
    assert disagreements == 0
    if external is not None:
        note = f"external agreement on {agreements} answered queries, 0 disagreements"
    else:
        note = "external agreement lane skipped (no solver installed)"
    print(f"\nPASS criterion 7: 200 queries, builtin never Valid against the oracle ({note})")


def test_criterion_8_intersection_algebra():
    from test_syntax import random_type

    engine = ValidityEngine()
    checker = SubtypeChecker(engine)
    rng = random.Random(808)
    env = Env()
    laws = 0
    for i in range(1000):
        a = random_type(rng)
        b = random_type(rng)
        c = random_type(rng)
        same = shape_of(a) == shape_of(b) == shape_of(c)
        assert intersect(a, a) == a
        if same:
            assert intersect(a, b) == intersect(b, a)
            assert intersect(a, intersect(b, c)) == intersect(intersect(a, b), c)
        assert checker.is_subtype(env, a, a)
        if same:
            both = intersect(a, b)
            assert checker.is_subtype(env, both, a)
            assert checker.is_subtype(env, both, b)
            lhs = checker.is_subtype(env, c, both)
            rhs = checker.is_subtype(env, c, a) and checker.is_subtype(env, c, b)
            assert lhs == rhs
        laws += 1
    assert laws == 1000
    print("\nPASS criterion 8: intersection algebra and subtyping laws on 1000 random types")
