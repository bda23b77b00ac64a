"""Tests of the benchmark's own code: input generation, what the system
under test receives, span accounting, answer checks and the comparison
verdicts.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
REPO = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(REPO / "src"))

import compare  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _digest(programs) -> str:
    h = hashlib.sha1()
    for prog in programs:
        h.update(f"{prog.label}\t{prog.probe}\t{prog.text}\n".encode())
    return h.hexdigest()


# -- generation ---------------------------------------------------------------


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs_other_seed_other_inputs(workload):
    a = workloads.generate(workload, 5)
    assert _digest(a) == _digest(workloads.generate(workload, 5))
    assert _digest(a) != _digest(workloads.generate(workload, 6))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seeds_reorder_one_population(workload):
    a, b = workloads.generate(workload, 1), workloads.generate(workload, 2)
    assert [p.label for p in a] != [p.label for p in b]
    assert sorted((p.label, p.text) for p in a) == sorted((p.label, p.text) for p in b)


def test_inputs_do_not_depend_on_the_hash_seed():
    code = (
        "import sys, hashlib; sys.path[:0] = [sys.argv[1], sys.argv[2]]; import workloads; "
        "print(hashlib.sha1(repr([p.text for w in workloads.WORKLOADS "
        "for p in workloads.generate(w, 3)]).encode()).hexdigest())"
    )
    outs = set()
    for hash_seed in ("0", "1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": hash_seed}
        proc = subprocess.run([sys.executable, "-c", code, str(BENCH), str(REPO / "src")],
                              env=env, capture_output=True, text=True, check=True)
        outs.add(proc.stdout.strip())
    assert len(outs) == 1


def test_deep_holds_one_probe_per_depth_past_the_recursion_limit():
    probes = [p.label for p in workloads.generate("deep", 1) if p.probe]
    assert sorted(probes) == sorted(f"deep/probe{d}" for d in workloads.PROBE_DEPTHS)


def test_corpus_sources_parse_back_to_the_generated_terms():
    import random

    from liqinfer.anf import normalize
    from liqinfer.metatheory import GenConfig, random_term
    from liqinfer.parser import parse_program
    from liqinfer.semantics import Done, evaluate

    rng = random.Random(9)
    for _ in range(40):
        term = random_term(rng, GenConfig())
        text = f"{workloads.SIGN_QUALIFIERS}val t = {workloads.term_source(term)}\n"
        parsed = parse_program(text).bindings[0][1]
        want, got = evaluate(normalize(term), 500), evaluate(normalize(parsed), 500)
        if isinstance(want, Done):
            assert isinstance(got, Done) and got.value == want.value


# -- the program receives only source text -------------------------------------


def test_corpus_program_receives_only_its_source_text(monkeypatch):
    from liqinfer import cli

    seen = []
    parse = cli.parse_program

    def recording(text):
        seen.append(text)
        return parse(text)

    monkeypatch.setattr(cli, "parse_program", recording)
    prog = workloads.generate("corpus", 2)[0]
    run.CorpusRunner(run.Checks()).run(prog)
    assert seen == [prog.text]
    assert all(isinstance(t, str) for t in seen)


def test_cli_program_receives_only_a_file_of_its_source_text(monkeypatch, tmp_path):
    from liqinfer import cli

    seen = []
    main = cli.main

    def recording(argv):
        seen.append(list(argv))
        return main(argv)

    monkeypatch.setattr(cli, "main", recording)
    prog = next(p for p in workloads.generate("wide", 2) if "a1q3" in p.label)
    path = tmp_path / "p.ml"
    path.write_text(prog.text, encoding="utf-8")
    outcome = run.CliRunner(run.Checks()).run(workloads.Program(prog.text, prog.label, path=str(path)))
    assert seen == [[str(path), "--json"]]
    assert path.read_text(encoding="utf-8") == prog.text
    assert outcome.arms > 0 and not outcome.failed


# -- answer checks ------------------------------------------------------------


def test_holds_reads_printed_refinements():
    assert run.holds("true", -5)
    assert run.holds("(v>=0)", 0) and not run.holds("(v>=0)", -1)
    assert run.holds("(v<=-1)", -1) and not run.holds("(v<=-1)", 0)
    assert run.holds("(v=0)", 0) and not run.holds("(v=0)", 3)
    assert run.holds("(v>=x)", 1) is None


def test_evaluation_check_catches_a_wrong_arm():
    from liqinfer.parser import parse_program, parse_scheme

    term = parse_program("Qualifiers { }\nval f = \\x. - x\n").bindings[0][1]
    good = parse_scheme("(x: {v : int | (v>=0)} -> {v : int | (v<=0)})").body.arms[0]
    bad = parse_scheme("(x: {v : int | (v>=1)} -> {v : int | (v>=0)})").body.arms[0]
    assert run.check_arm_by_evaluation(term, good) is None
    assert "outside" in run.check_arm_by_evaluation(term, bad)


def test_an_exception_is_counted_as_a_failure_not_raised(monkeypatch):
    from liqinfer import cli

    def deep_failure(argv):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(cli, "main", deep_failure)
    outcome = run.CliRunner(run.Checks()).run(workloads.Program("", "p", path="p.ml"))
    assert outcome.failed and outcome.verdict == "failed: RecursionError"


def test_without_sources_the_benchmark_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(REPO / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "wide", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# -- spans --------------------------------------------------------------------


def test_self_time_is_span_time_minus_child_time():
    t = spans.Tracer()
    t.enabled = True
    root = t.begin_program(0)
    outer = t.open(t._name_id("a"))
    inner = t.open(t._name_id("a"))
    t.close(inner)
    leaf = t.open(t._name_id("b"))
    t.close(leaf)
    t.close(outer)
    t.end_program(root)
    layers = t.layer_times(spans.PROGRAM)
    dur = lambda i: t.end[i] - t.start[i]  # noqa: E731
    assert layers["a"]["calls"] == 2
    assert layers["a"]["s"] == pytest.approx(dur(outer))  # the nested "a" is not counted twice
    assert layers["a"]["self_s"] == pytest.approx(dur(outer) - dur(leaf))
    assert layers["b"]["self_s"] == pytest.approx(dur(leaf))
    assert t.layer_times(spans.VERIFY)["a"]["calls"] == 0


def test_a_probe_leaves_no_spans_and_no_counts(monkeypatch):
    from liqinfer import cli

    class ParseOnly:
        def run(self, prog):
            cli.parse_program(prog.text)
            return run.Outcome("exit 0")

    monkeypatch.setattr(run, "make_runner", lambda workload, checks: ParseOnly())
    text = f"{workloads.SIGN_QUALIFIERS}val f = \\x. x\n"
    programs = [workloads.Program(text, "timed"), workloads.Program(text, "probe", probe=True)]
    t = spans.Tracer()
    t.install()
    t.enabled = True
    try:
        result = run.sweep("deep", programs, run.Checks(), 1.0, passes=1, tracer=t)
    finally:
        t.uninstall()
    assert result.attempted == 1 and result.first_attempted == 2
    assert t.enabled
    assert t.layer_times()["parser"]["calls"] == 1
    assert t.layer_times(spans.PROGRAM)["parser"]["calls"] == 1


def test_tracer_restores_every_wrapped_function():
    import importlib

    def lookup(module, path):
        owner = importlib.import_module(module)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        return owner.__dict__[attr]

    before = [lookup(m, p) for m, p, _ in spans.WRAP_POINTS]
    t = spans.Tracer()
    t.install()
    try:
        assert all(lookup(m, p) is not f for (m, p, _), f in zip(spans.WRAP_POINTS, before))
    finally:
        t.uninstall()
    assert [lookup(m, p) for m, p, _ in spans.WRAP_POINTS] == before


# -- comparison ---------------------------------------------------------------


def test_verdict_better_needs_nine_tenths_of_ten_pairs_and_a_gap():
    parent = [10.0, 10.2, 9.9, 10.1, 10.0, 9.8, 10.3, 10.1, 9.9, 10.0]
    faster = [p * 0.8 for p in parent]
    assert compare.verdict(parent, faster, "lower", 0.1)[0] == "better"
    assert compare.verdict(parent[:9], faster[:9], "lower", 0.1)[0] != "better"
    assert compare.verdict(parent, [p * 1.25 for p in parent], "higher", 0.1)[0] == "better"


def test_verdict_worse_beyond_the_bound():
    parent = [10.0, 10.2, 9.9, 10.1, 10.0, 9.8, 10.3, 10.1, 9.9, 10.0]
    assert compare.verdict(parent, [p * 1.2 for p in parent], "lower", 0.1)[0] == "worse"
    assert compare.verdict(parent, [p * 0.8 for p in parent], "higher", 0.1)[0] == "worse"


def test_verdict_unchanged_and_unresolved():
    parent = [10.0, 10.2, 9.9, 10.1, 10.0, 9.8, 10.3, 10.1, 9.9, 10.0]
    assert compare.verdict(parent, [p * 1.02 for p in parent], "lower", 0.1)[0] == "unchanged"
    noisy = [6.0, 14.0, 7.0, 13.0, 10.0, 8.0, 12.0, 9.0, 11.0, 10.0]
    assert compare.verdict(noisy, [n * 1.02 for n in noisy], "lower", 0.1)[0] == "unresolved"
    # a wide spread still reads unchanged when every run of the change is better
    assert compare.verdict(noisy[:5], [5.0, 5.1, 5.2, 5.3, 5.4], "lower", 0.1)[0] == "unchanged"


def test_compare_pairs_runs_by_seed_and_reports_digests():
    spec = {"workloads": [{"name": "w"}],
            "end_to_end": [{"name": "m", "unit": "s", "better": "lower", "bound": 0.1}]}

    def rec(seed, value, digest):
        return {"workload": "w", "seed": seed, "trace": 0, "digest": digest,
                "result": {"metrics": {"m": {"value": value, "unit": "s"}}}}

    parent = {"w": [rec(s, 1.0 + s / 100, "d") for s in range(10)]}
    change = {"w": [rec(s, 2.0, "d" if s else "x") for s in range(10)]}
    lines = compare.compare(parent, change, spec)
    assert "identical digests in 9 of 10" in lines[0]
    assert lines[1].split()[-1] == "worse"
    shuffled = {"w": list(reversed(change["w"]))}
    assert "same seeds" in compare.compare(parent, shuffled, spec)[0]


def test_benchmark_json_names_every_metric_the_runner_prints():
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    e2e = {m["name"] for m in spec["end_to_end"]}
    assert e2e == {"setup_s", "programs_per_s", "program_s_p50", "program_s_tail",
                   "answered_frac", "peak_rss_mb", "arms_out"}
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    source = (BENCH / "run.py").read_text()
    for m in spec["per_layer"]:
        assert f'"{m["name"]}"' in source, m["name"]
