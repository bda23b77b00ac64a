"""The liqinfer benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload corpus|wide|deep --seed N --seconds S --trace 0|1

Run it from the root of a checkout: the system under test is imported from
`./src`, nowhere else. Load is one process, one thread and a closed loop
with one client: each program starts when the previous one has answered.

With `--trace 0` the run prints the end-to-end metrics; with `--trace 1` it
prints the per-layer metrics of `spans.py` instead. The last line of
standard output is one JSON object with the keys `correct`, `attempted`,
`failed` and `metrics`. Work files (generated sources, span dumps) go to
`./.perfbench_out/`.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Optional

import workloads
from calibrate import Speed
from spans import PROGRAM, VERIFY
from workloads import Program

ROOT = os.getcwd()
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
SPEC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCHMARK.json")

# The tail percentile of each workload, fixed so that two runs always
# compare the same percentile. On corpus, p95 leaves 12 of 240 samples
# beyond it. On wide and deep, with 11 samples a pass, p90 would rest on
# the costliest file alone; p75 leaves 8 samples beyond it in a run of 3
# passes and 11 or more in one of 4 or more.
TAIL_PERCENTILE = {"corpus": 95, "wide": 75, "deep": 75}

SETUP_REPEATS = 15
SETUP_SPEED_SAMPLES = 10

# The golden arm sets of demos/sign.ml (acceptance criterion 1), written by
# hand, not produced by the inferencer.
SIGN_GOLDEN = {
    "mul": {
        "(x: {v : int | (v>=0)} -> {v : int | (v>=0)})",
        "(x: {v : int | (v<=0)} -> {v : int | (v>=0)})",
    },
    "neg": {
        "(x: {v : int | (v>=0)} -> {v : int | (v<=0)})",
        "(x: {v : int | (v<=0)} -> {v : int | (v>=0)})",
    },
}

CLI_EXITS = range(0, 5)


def import_system() -> None:
    """Put the checkout's `src` first on the path and import the package
    from there; exit non-zero when the checkout has no sources."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "liqinfer", "__init__.py")):
        raise SystemExit(f"error: no liqinfer sources under {src}; run from the root of a checkout")
    sys.path.insert(0, src)
    import liqinfer
    import liqinfer.cli  # noqa: F401
    import liqinfer.metatheory  # noqa: F401

    if os.path.dirname(os.path.dirname(os.path.abspath(liqinfer.__file__))) != src:
        raise SystemExit(f"error: liqinfer was imported from {liqinfer.__file__}, not {src}")


def spec_run_seconds() -> int:
    """`run_seconds` of BENCHMARK.json: how long one run measures."""
    with open(SPEC, encoding="utf-8") as f:
        return json.load(f)["run_seconds"]


def setup(workload: str, seed: int) -> list[Program]:
    """Everything before the first timed program: the inputs from the seed,
    and for the CLI workloads their files on disk."""
    import_system()
    programs = workloads.generate(workload, seed)
    if workload != "corpus":
        folder = os.path.join(OUT_DIR, f"{workload}-{seed}")
        os.makedirs(folder, exist_ok=True)
        for i, prog in enumerate(programs):
            path = os.path.join(folder, f"p{i}.ml")
            with open(path, "w", encoding="utf-8") as f:
                f.write(prog.text)
            programs[i] = Program(prog.text, prog.label, prog.probe, path)
    return programs


def measure_setup(workload: str, seed: int) -> float:
    """Median, at reference speed, of the set-up time of fresh processes:
    from launch until they have imported the system and written the inputs.
    Each process then takes its own calibration samples (see calibrate.py)
    and reports them with the moment its set-up ended, on the system-wide
    monotonic clock, and exits."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-only",
           "--workload", workload, "--seed", str(seed)]
    times = []
    for _ in range(SETUP_REPEATS):
        launched = time.clock_gettime(time.CLOCK_MONOTONIC)
        out = subprocess.run(cmd, cwd=ROOT, check=True, capture_output=True, text=True).stdout
        report = json.loads(out.splitlines()[-1])
        times.append((report["ready"] - launched) * report["factor"])
    return statistics.median(times)


def setup_only(workload: str, seed: int) -> dict:
    """The child's side of `measure_setup`."""
    setup(workload, seed)
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)
    speed = Speed()
    for _ in range(SETUP_SPEED_SAMPLES):
        speed.sample()
    return {"ready": ready, "factor": speed.factor}


# ---------------------------------------------------------------------------
# Running one program
# ---------------------------------------------------------------------------


@dataclass
class Outcome:
    verdict: str  # rendered schemes, or "exit N", or "failed: <exception>"
    arms: int = 0
    failed: bool = False
    bindings: list = field(default_factory=list)  # (name, printed type) per val


class Checks:
    """Correctness of the outputs, judged without trusting the inferencer's
    own answer: golden sets, re-checking, and the small-step evaluator."""

    def __init__(self) -> None:
        self.problems: list[str] = []
        self.rechecked = 0
        self.trials = 0

    def fail(self, what: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(what)
        else:
            self.problems[-1] = "... and more"


class CorpusRunner:
    """check-metatheory traffic: parse, normalize and infer with one shared
    engine; typed terms also get a subject-reduction trial (fuel 100) and a
    re-check of their scheme."""

    def __init__(self, checks: Checks) -> None:
        from liqinfer.validity import ValidityEngine
        from liqinfer.inference import Inferencer
        from liqinfer.metatheory import default_qualifiers

        self.checks = checks
        self.inferencer = Inferencer(default_qualifiers(), ValidityEngine())

    def run(self, prog: Program) -> Outcome:
        from liqinfer import cli, metatheory
        from liqinfer.inference import ArmCapExceeded
        from liqinfer.parser import ParseError
        from liqinfer.syntax import Env, LiqError

        try:
            program = cli.parse_program(prog.text)
            term = cli.normalize(program.bindings[0][1])
            scheme = self.inferencer.infer(Env(), term)
        except ParseError:
            return Outcome("exit 1")
        except ArmCapExceeded:
            return Outcome("exit 4")
        except LiqError:
            return Outcome("exit 2")
        except Exception as e:  # anything but a documented exit is a failure
            return Outcome(f"failed: {type(e).__name__}", failed=True)
        quals = program.qualifiers
        try:
            report = metatheory.subject_reduction_trial(term, quals, 100, inferencer=self.inferencer)
            rechecked = metatheory.recheck(Env(), term, scheme, quals, inferencer=self.inferencer)
        except Exception as e:
            return Outcome(f"failed: {type(e).__name__}", failed=True)
        self.checks.trials += 1
        if report.stuck:
            self.checks.fail(f"{prog.label}: stuck state: {report.failure}")
        elif not report.ok:
            self.checks.fail(f"{prog.label}: preservation violated: {report.failure}")
        self.checks.rechecked += 1
        if not rechecked:
            self.checks.fail(f"{prog.label}: inferred scheme fails re-check")
        return Outcome(cli.render_scheme(scheme), arms=len(scheme.body.arms))


class CliRunner:
    """`liqinfer FILE --json` traffic, in process, a fresh engine per file."""

    def __init__(self, checks: Checks) -> None:
        self.checks = checks

    def run(self, prog: Program) -> Outcome:
        from liqinfer import cli

        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main([prog.path, "--json"])
        except Exception as e:  # anything but a documented exit is a failure
            return Outcome(f"failed: {type(e).__name__}", failed=True)
        if code not in CLI_EXITS:
            return Outcome(f"failed: exit {code}", failed=True)
        if code != 0:
            return Outcome(f"exit {code}")
        bindings = [(b["name"], b["type"], len(b["arms"])) for b in json.loads(out.getvalue())["bindings"]]
        return Outcome(
            "\n".join(f"{name} : {ty}" for name, ty, _ in bindings),
            arms=sum(n for _, _, n in bindings),
            bindings=[(name, ty) for name, ty, _ in bindings],
        )

    def verify(self, prog: Program, outcome: Outcome) -> None:
        """Every printed scheme must pass `metatheory.recheck` against its
        binding, under the printed schemes of the bindings before it, and
        every arm must hold when the binding is applied to small integers
        its domains admit and evaluated by the small-step evaluator."""
        from liqinfer import metatheory
        from liqinfer.anf import normalize
        from liqinfer.inference import Inferencer
        from liqinfer.parser import parse_program, parse_scheme
        from liqinfer.syntax import Env
        from liqinfer.validity import ValidityEngine

        program = parse_program(prog.text)
        if [n for n, _ in program.bindings] != [n for n, _ in outcome.bindings]:
            self.checks.fail(f"{prog.label}: printed bindings do not match the program")
            return
        inferencer = Inferencer(program.qualifiers, ValidityEngine())
        env = Env()
        for (name, term), (_, printed) in zip(program.bindings, outcome.bindings):
            scheme = parse_scheme(printed)
            self.checks.rechecked += 1
            if not metatheory.recheck(env, normalize(term), scheme, program.qualifiers,
                                      inferencer=inferencer):
                self.checks.fail(f"{prog.label}: {name} : {printed} fails re-check")
            for arm in scheme.body.arms:
                problem = check_arm_by_evaluation(term, arm)
                if problem:
                    self.checks.fail(f"{prog.label}: {name}: {problem}")
            env = env.extend(name, scheme)


# Integers tried as arguments when an arm is checked by evaluation.
EVAL_ARGS = (-3, -1, 0, 1, 3)
EVAL_FUEL = 5000
_REFINEMENT = re.compile(r"\(v(>=|<=|<|>|=)(-?\d+)\)")


def holds(refinement: str, n: int) -> Optional[bool]:
    """Truth of a printed refinement `true` or `(v OP k)` at v = n; None for
    any other form."""
    if refinement == "true":
        return True
    m = _REFINEMENT.fullmatch(refinement)
    if not m:
        return None
    k = int(m.group(2))
    return {">=": n >= k, "<=": n <= k, "<": n < k, ">": n > k, "=": n == k}[m.group(1)]


def check_arm_by_evaluation(term, arm) -> Optional[str]:
    """Apply the closed `term` to the first integer of EVAL_ARGS each
    domain of the curried int arrow `arm` admits, evaluate with
    `metatheory.step`, and test the result against the codomain. Returns a
    description of the first violation, or None."""
    from liqinfer import metatheory
    from liqinfer.semantics import AtValue, Stuck
    from liqinfer.syntax import App, BaseArm, Const, FunArm, IntConst, render_arm, render_refinement

    args = []
    while isinstance(arm, FunArm):
        dom = arm.dom.arms[0] if len(arm.dom.arms) == 1 else None
        if not isinstance(dom, BaseArm):
            return None
        admitted = [n for n in EVAL_ARGS if holds(render_refinement(dom.ref), n)]
        if not admitted:
            return None
        args.append(admitted[0])
        cod = arm.cod.arms
        arm = cod[0] if len(cod) == 1 else None
    if not isinstance(arm, BaseArm) or holds(render_refinement(arm.ref), 0) is None:
        return None
    cur = term
    for n in args:
        cur = App(cur, Const(IntConst(n)))
    for _ in range(EVAL_FUEL):
        out = metatheory.step(cur)
        if isinstance(out, AtValue):
            break
        if isinstance(out, Stuck):
            return f"applied to {args} it is stuck: {out.reason}"
        cur = out.term
    else:
        return None  # out of fuel: nothing to judge
    if not (isinstance(cur, Const) and isinstance(cur.const, IntConst)):
        return f"applied to {args} it evaluates to a non-integer"
    if not holds(render_refinement(arm.ref), cur.const.value):
        return f"applied to {args} it evaluates to {cur.const.value}, outside {render_arm(arm)}"
    return None


def check_sign_golden(checks: Checks) -> None:
    from liqinfer import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main([os.path.join(ROOT, "demos", "sign.ml"), "--json"])
    got = {b["name"]: set(b["arms"]) for b in json.loads(out.getvalue())["bindings"]} if code == 0 else {}
    if got != SIGN_GOLDEN:
        checks.fail(f"demos/sign.ml: exit {code}, arms {got} differ from the golden sets")


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------


@dataclass
class Sweep:
    """What one sweep of whole passes over the population measured. The
    first pass is the fixed input set: the only pass with the probes, and
    the one the digest, `arms_out` and `answered_frac` are taken over; every
    later pass must repeat its answers."""

    samples: list[float] = field(default_factory=list)  # seconds per timed program
    busy_s: float = 0.0  # wall time of the timed programs
    attempted: int = 0  # timed programs, every pass
    failed: int = 0
    passes: int = 0
    first_attempted: int = 0  # first pass, probes included
    first_failed: int = 0
    arms: int = 0
    fixed: list[tuple[Program, Outcome]] = field(default_factory=list)
    verdicts: dict[str, str] = field(default_factory=dict)  # first-pass answer by label
    speed: Speed = field(default_factory=Speed)  # sampled before and after every program
    sampled_before: list[int] = field(default_factory=list)  # speed sample before each timed program

    @property
    def programs_per_s(self) -> float:
        """At reference speed (see calibrate.py)."""
        return self.attempted / sum(self.scaled_samples())

    @property
    def digest(self) -> str:
        """SHA-1 over the first pass's answers in label order, so it is the
        same for every seed."""
        h = hashlib.sha1()
        for label in sorted(self.verdicts):
            h.update(f"{label}\t{self.verdicts[label]}\n".encode("utf-8"))
        return h.hexdigest()

    def scaled_samples(self) -> list[float]:
        return [s * self.speed.factor_at(k) for s, k in zip(self.samples, self.sampled_before)]


def make_runner(workload: str, checks: Checks):
    return CorpusRunner(checks) if workload == "corpus" else CliRunner(checks)


def sweep(workload: str, programs: list[Program], checks: Checks, seconds: float,
          passes: int | None = None, tracer=None) -> Sweep:
    """Whole passes over the population, each from a fresh state (a new
    shared engine for `corpus`): exactly `passes` of them, or else the
    first and then more while another one, and the checks of the CLI
    answers after the sweep (about one more pass), are expected to end
    within `seconds`. Probes run in the first pass only, untimed."""
    result = Sweep()
    started = time.perf_counter()
    last = 0.0
    checks_after = 0 if workload == "corpus" else 1  # passes' worth
    while (result.passes < passes if passes is not None else
           not result.passes
           or time.perf_counter() - started + last * (1 + checks_after) <= seconds):
        pass_started = time.perf_counter()
        runner = make_runner(workload, checks)
        first = not result.passes
        before = result.speed.sample()
        for prog in programs:
            if prog.probe and not first:
                continue
            with tracer.program_scope(result.first_attempted, prog.probe) if tracer else contextlib.nullcontext():
                t0 = time.perf_counter()
                outcome = runner.run(prog)
                dt = time.perf_counter() - t0
            after = result.speed.sample()
            if not prog.probe:
                result.attempted += 1
                result.failed += outcome.failed
                result.busy_s += dt
                result.samples.append(dt)
                result.sampled_before.append(before)
            before = after
            if not first and outcome.verdict != result.verdicts[prog.label]:
                checks.fail(f"{prog.label}: answer differs from the first pass's")
            if first:
                result.verdicts[prog.label] = outcome.verdict
                result.first_attempted += 1
                result.first_failed += outcome.failed
                result.arms += outcome.arms
                result.fixed.append((prog, outcome))
        result.passes += 1
        last = time.perf_counter() - pass_started
    return result


def verify_fixed_set(workload: str, result: Sweep, checks: Checks, tracer=None) -> None:
    """Re-check and evaluate the CLI answers of the fixed input set (corpus
    programs are checked inline, as check-metatheory does). Traced under
    `verify` root spans when a tracer is given."""
    if workload == "corpus":
        return
    runner = CliRunner(checks)
    for pid, (prog, outcome) in enumerate(result.fixed):
        if not prog.probe and outcome.bindings:
            span = tracer.begin_program(pid, VERIFY) if tracer else None
            runner.verify(prog, outcome)
            if tracer:
                tracer.end_program(span)


def percentile(samples: list[float], p: int) -> float:
    return statistics.quantiles(samples, n=100, method="inclusive")[p - 1]


def end_to_end(workload: str, seed: int, programs, seconds: float, checks: Checks) -> dict:
    setup_s = measure_setup(workload, seed)
    result = sweep(workload, programs, checks, seconds)
    verify_fixed_set(workload, result, checks)
    samples = result.scaled_samples()
    p = TAIL_PERCENTILE[workload]
    tail = percentile(samples, p)
    beyond = sum(s > tail for s in samples)
    metrics = {
        "setup_s": (setup_s, "s"),
        "programs_per_s": (result.programs_per_s, "1/s"),
        "program_s_p50": (statistics.median(samples), "s"),
        "program_s_tail": (tail, "s"),
        "answered_frac": (1 - result.first_failed / result.first_attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "arms_out": (result.arms, "count"),
    }
    probes = sum(prog.probe for prog in programs)
    print(f"workload {workload}  seed {seed}  passes {result.passes}  timed programs {result.attempted}"
          f"  first pass {result.first_attempted} programs ({probes} probes),"
          f" {result.first_failed} failed")
    print(f"speed factor {result.speed.factor:.4f}; unscaled:"
          f" programs_per_s {result.attempted / result.busy_s:.6g},"
          f" program_s_p50 {statistics.median(result.samples):.6g}")
    print(f"program_s_tail is p{p}: {beyond} of {len(samples)} samples beyond it")
    print(f"digest {workload} {seed} {result.digest}")
    return {"attempted": result.attempted, "failed": result.failed, "metrics": metrics}


def scaled(layers: dict[str, dict[str, float]], factor: float) -> dict[str, dict[str, float]]:
    return {name: {"calls": row["calls"], "s": row["s"] * factor, "self_s": row["self_s"] * factor}
            for name, row in layers.items()}


def traced(workload: str, seed: int, programs, seconds: float, checks: Checks) -> dict:
    """Per-layer numbers over one pass of the population. Each round makes
    one untraced pass and one traced pass, both from a fresh state, and
    checks the traced answers; counts come from the first round (they repeat
    exactly), times are at reference speed and medians over rounds."""
    from spans import Tracer

    tracer = Tracer()
    tracer.install()
    rounds = []
    started = time.perf_counter()
    try:
        while not rounds or time.perf_counter() - started + rounds[-1]["round_s"] <= seconds:
            t0 = time.perf_counter()
            plain = sweep(workload, programs, checks, seconds, passes=1)
            tracer.reset()
            tracer.enabled = True
            try:
                with_trace = sweep(workload, programs, checks, seconds, passes=1, tracer=tracer)
                counted = dict(tracer.counters), tracer.max_cache_entries
                verify_fixed_set(workload, with_trace, checks, tracer)
            finally:
                tracer.enabled = False
            if not rounds:
                if plain.digest != with_trace.digest:
                    checks.fail("tracing changed the answers")
                os.makedirs(OUT_DIR, exist_ok=True)
                tracer.write(os.path.join(OUT_DIR, f"spans-{workload}-{seed}.tsv"))
                counters, cache_entries = counted
                digest = with_trace.digest
            rounds.append({
                "layers": scaled(tracer.layer_times(PROGRAM), with_trace.speed.factor),
                "plain_pps": plain.programs_per_s,
                "traced_pps": with_trace.programs_per_s,
                "round_s": time.perf_counter() - t0,
            })
    finally:
        tracer.uninstall()

    def med(layer: str, key: str) -> float:
        return statistics.median(r["layers"].get(layer, {}).get(key, 0.0) for r in rounds)

    def calls(layer: str) -> int:
        return rounds[0]["layers"].get(layer, {}).get("calls", 0)

    layers = rounds[0]["layers"]
    queries, decides = calls("validity.check"), calls("validity.decide")
    c = counters.get
    verdicts = c("validity.valid", 0) + c("validity.invalid", 0)
    metrics = {
        "validity.queries": (queries, "count"),
        "validity.cache_hits": (queries - decides, "count"),
        "validity.hit_ratio": ((queries - decides) / queries if queries else 0.0, "ratio"),
        "validity.cache_entries": (cache_entries, "count"),
        "validity.decide.calls": (decides, "count"),
        "validity.decide.s": (med("validity.decide", "s"), "s"),
        "validity.key.s": (med("validity.key", "s"), "s"),
        "validity.key.bytes": (c("validity.key.bytes", 0) / queries if queries else 0.0, "bytes"),
        "validity.check.self_s": (med("validity.check", "self_s"), "s"),
        "validity.valid": (c("validity.valid", 0), "count"),
        "validity.invalid": (c("validity.invalid", 0), "count"),
        "validity.unknown": (c("validity.unknown", 0), "count"),
        "validity.decided_ratio": (verdicts / decides if decides else 0.0, "ratio"),
        "logic.embed_env.calls": (calls("logic.embed_env"), "count"),
        "logic.embed_env.s": (med("logic.embed_env", "s"), "s"),
        "logic.embed_env.conjuncts": (
            c("logic.embed_env.conjuncts", 0) / calls("logic.embed_env")
            if calls("logic.embed_env") else 0.0, "count"),
        "subtyping.is_subtype.calls": (calls("subtyping.is_subtype"), "count"),
        "subtyping.is_subtype.self_s": (med("subtyping.is_subtype", "self_s"), "s"),
        "subtyping.wf_check.calls": (calls("subtyping.wf_check"), "count"),
        "subtyping.base_query.calls": (calls("subtyping.base_query"), "count"),
        "subtyping.base_query.self_s": (med("subtyping.base_query", "self_s"), "s"),
        "inference.infer.self_s": (med("inference.infer", "self_s"), "s"),
        "inference.template_arms": (c("inference.template_arms", 0), "count"),
        "inference.wf_kept": (c("inference.wf_kept", 0), "count"),
        "inference.wf_ratio": (
            c("inference.wf_kept", 0) / c("inference.template_arms", 0)
            if c("inference.template_arms", 0) else 0.0, "ratio"),
        "parser.s": (med("parser", "s"), "s"),
        "anf.s": (med("anf", "s"), "s"),
        "anf.nodes_out": (c("anf.nodes_out", 0), "count"),
        "shapes.s": (med("shapes", "s"), "s"),
        "semantics.steps": (calls("semantics.step"), "count"),
        "semantics.step.s": (med("semantics.step", "s"), "s"),
        "metatheory.recheck.calls": (calls("metatheory.recheck"), "count"),
        "metatheory.recheck.s": (med("metatheory.recheck", "s"), "s"),
        "syntax.make_type.calls": (calls("syntax.make_type"), "count"),
        "syntax.make_type.s": (med("syntax.make_type", "s"), "s"),
        "syntax.render.s": (med("syntax.render", "s"), "s"),
        "trace.rounds": (len(rounds), "count"),
        "trace.programs_per_s": (statistics.median(r["traced_pps"] for r in rounds), "1/s"),
        "trace.untraced_programs_per_s": (statistics.median(r["plain_pps"] for r in rounds), "1/s"),
    }
    metrics["trace.overhead_programs_per_s"] = (
        metrics["trace.untraced_programs_per_s"][0] - metrics["trace.programs_per_s"][0], "1/s")
    program_s = med("program", "s")
    print(f"workload {workload}  seed {seed}  traced rounds {len(rounds)}")
    print("self-time shares of the traced programs:")
    shares = sorted(((med(name, "self_s"), name) for name in layers if layers[name]["calls"]),
                    reverse=True)
    for self_s, name in shares:
        print(f"  {name:28s} {self_s:9.4f} s  {self_s / program_s:6.1%}")
    print(f"digest {workload} {seed} {digest}")
    return {"attempted": with_trace.attempted, "failed": with_trace.failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=None,
                    help="seconds to measure (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.setup_only:
        print(json.dumps(setup_only(args.workload, args.seed)))
        return 0
    seconds = args.seconds if args.seconds is not None else spec_run_seconds()
    programs = setup(args.workload, args.seed)
    checks = Checks()
    check_sign_golden(checks)
    run = traced if args.trace else end_to_end
    out = run(args.workload, args.seed, programs, seconds, checks)
    for problem in checks.problems:
        print(f"INCORRECT: {problem}")
    print(f"checks: {checks.trials} subject-reduction trials, {checks.rechecked} schemes re-checked,"
          f" {len(checks.problems)} problems")
    for name, (value, unit) in out["metrics"].items():
        print(f"  {name:34s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": not checks.problems,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in out["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
