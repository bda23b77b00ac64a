import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from liqinfer.cli import main
from liqinfer.parser import parse_scheme
from liqinfer.syntax import render_scheme

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


@pytest.fixture()
def sign_file(tmp_path):
    path = tmp_path / "sign.ml"
    path.write_text(SIGN_FILE)
    return str(path)


def run_cli(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr()
    return code, out.out, out.err


def arm_set(line):
    _, _, rhs = line.partition(" : ")
    return {a.strip() for a in rhs.split("/\\")}


class TestGoldenRun:
    def test_sign_example_arm_sets(self, sign_file, capsys):
        code, out, err = run_cli(capsys, sign_file)
        assert code == 0, err
        lines = [l for l in out.splitlines() if l.strip()]
        assert lines[0].startswith("mul : ")
        assert lines[1].startswith("neg : ")
        assert arm_set(lines[0]) == MUL_ARMS
        assert arm_set(lines[1]) == NEG_ARMS

    def test_byte_identical_across_runs(self, sign_file, capsys):
        _, out1, _ = run_cli(capsys, sign_file)
        _, out2, _ = run_cli(capsys, sign_file)
        assert out1 == out2

    def test_json_round_trips_through_type_parser(self, sign_file, capsys):
        code, out, _ = run_cli(capsys, sign_file, "--json")
        assert code == 0
        payload = json.loads(out)
        assert [b["name"] for b in payload["bindings"]] == ["mul", "neg"]
        for binding in payload["bindings"]:
            sch = parse_scheme(binding["type"])
            assert render_scheme(sch) == binding["type"]
            assert len(binding["arms"]) == 2

    def test_json_round_trips_a_negated_compound_term(self, tmp_path, capsys):
        path = tmp_path / "neg.ml"
        path.write_text("Qualifiers { v >= -(x + 1), v >= 0 }\nval f = \\x. + x 1\n")
        code, out, _ = run_cli(capsys, str(path), "--json")
        assert code == 0
        printed = json.loads(out)["bindings"][0]["type"]
        assert "(v>=-((x + 1)))" in printed
        assert render_scheme(parse_scheme(printed)) == printed

    def test_emit_anf(self, sign_file, capsys):
        code, out, _ = run_cli(capsys, sign_file, "--emit-anf")
        assert code == 0
        assert "-- anf: val mul = \\x. let t0 = * x in t0 x" in out

    def test_emit_constraints(self, sign_file, capsys):
        code, out, _ = run_cli(capsys, sign_file, "--emit-constraints")
        assert code == 0
        assert "-- wf:" in out and "-- sub:" in out


ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"


class TestConstraintGoldens:
    """`--emit-constraints` prints every logged judgement, answers from the
    checker's memos included, in a fixed order; each golden pins it line for
    line. `scope.ml` has a qualifier over `y`, which is out of scope before
    `val y` and in scope after it. `chain.ml` is a three-deep let chain whose
    Top judgements and closed-template wf verdicts inference settles
    without asking: they log as asked ones do. In `fallback.ml` no arm of
    either λ's template fits, so each falls back to its top-refined
    skeleton, whose arm is not in the template. In `curried.ml` an outer
    λ's arm fits when its codomain's arm is among those the inner λ kept,
    and that verdict logs as the judgement it settles."""

    @pytest.mark.parametrize(
        "source, golden",
        [
            (ROOT / "demos" / "sign.ml", GOLDEN / "sign.constraints"),
            (GOLDEN / "scope.ml", GOLDEN / "scope.constraints"),
            (GOLDEN / "chain.ml", GOLDEN / "chain.constraints"),
            (GOLDEN / "fallback.ml", GOLDEN / "fallback.constraints"),
            (GOLDEN / "curried.ml", GOLDEN / "curried.constraints"),
        ],
        ids=["sign", "scope", "chain", "fallback", "curried"],
    )
    def test_emit_constraints_matches_golden(self, source, golden, capsys):
        code, out, err = run_cli(capsys, str(source), "--emit-constraints")
        assert code == 0, err
        assert out.splitlines() == golden.read_text().splitlines()

    def test_a_lambda_infers_its_body_once_per_domain(self, tmp_path, capsys):
        """The top arm of this λ has the domain `a0` of its template's one
        arm, so both share one inference of the body, and no subtyping
        judgement is logged twice. The one wf line that repeats is the int
        template of the two `let`s that ANF makes, logged at each."""
        path = tmp_path / "lam.ml"
        path.write_text("Qualifiers { v = 7 }\nval f = \\x. let y = + 1 2 in y\n")
        code, out, err = run_cli(capsys, str(path), "--emit-constraints")
        assert code == 0, err
        lines = out.splitlines()
        sub = [line for line in lines if line.startswith("-- sub:")]
        assert len(lines) == 12 and len(sub) == 8
        assert len(set(sub)) == len(sub)

    def test_chain_golden_logs_settled_judgements(self):
        lines = (GOLDEN / "chain.constraints").read_text().splitlines()
        wf = [line for line in lines if line.startswith("-- wf:")]
        top = [line for line in lines if line.endswith("< {v : int | true}  [ok]")]
        assert len(wf) > len(set(wf)) and len(top) >= 9

    def test_scope_golden_logs_memo_hits_and_out_of_scope_arms(self):
        lines = (GOLDEN / "scope.constraints").read_text().splitlines()
        wf = [line for line in lines if line.startswith("-- wf:")]
        assert len(wf) > len(set(wf))  # repeated judgements still log
        assert any("(y=5)" in line and line.endswith("[fail]") for line in wf)
        assert any("(y=5)" in line and line.endswith("[ok]") for line in wf)


def _recording_solver(tmp_path):
    """A solver that appends each script it reads to a log, followed by a
    separator line, and answers unknown."""
    import stat

    log = tmp_path / "scripts.smt2"
    solver = tmp_path / "record.sh"
    solver.write_text(f"#!/bin/sh\ncat >> '{log}'\necho ';; ----' >> '{log}'\necho unknown\n")
    solver.chmod(solver.stat().st_mode | stat.S_IEXEC)
    return str(solver), log


class TestSolverScripts:
    """The scripts `demos/sign.ml` sends to an external solver. `mul` squares
    its argument, so its queries hold the product `x * x`."""

    def run(self, tmp_path, capsys, *flags):
        solver, log = _recording_solver(tmp_path)
        sign = str(ROOT / "demos" / "sign.ml")
        code, _, err = run_cli(capsys, sign, "--backend", "external", "--smt-cmd", solver, *flags)
        assert code == 0, err
        return log.read_text()

    def test_default_scripts_match_golden(self, tmp_path, capsys):
        assert self.run(tmp_path, capsys) == (GOLDEN / "sign.external.smt2").read_text()

    def test_nonlinear_scripts_hold_real_products(self, tmp_path, capsys):
        scripts = self.run(tmp_path, capsys, "--nonlinear")
        assert "(* x x)" in scripts and "(set-logic QF_UFNIA)" in scripts
        assert "times" not in scripts


class TestQualifierScope:
    def test_out_of_scope_qualifier_filtered(self, tmp_path, capsys):
        # a qualifier mentioning an unbound y only prunes template arms
        path = tmp_path / "scoped.ml"
        path.write_text("Qualifiers { v >= 0, v <= 0, y = 5 }\nval neg = \\x. - x\n")
        code, out, _ = run_cli(capsys, str(path))
        assert code == 0
        assert arm_set(out.splitlines()[0]) == NEG_ARMS


class TestExitCodes:
    def test_empty_program(self, tmp_path, capsys):
        path = tmp_path / "empty.ml"
        path.write_text("Qualifiers { }\n")
        code, out, _ = run_cli(capsys, str(path))
        assert code == 0 and out.strip() == ""

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "/nonexistent/input.ml")
        assert code == 1 and "cannot read" in err

    def test_parse_error(self, tmp_path, capsys):
        path = tmp_path / "bad.ml"
        path.write_text("Qualifiers { v >= } val a = 1")
        code, _, err = run_cli(capsys, str(path))
        assert code == 1 and "parse error" in err

    @pytest.mark.parametrize("name", ["fix", "let", "if"])
    def test_reserved_word_as_val_name(self, tmp_path, capsys, name):
        # a later use of the name would parse as the keyword or primitive
        path = tmp_path / "reserved.ml"
        path.write_text(f"Qualifiers {{ v >= 0 }}\nval {name} = 2\nval b = 3\n")
        code, out, err = run_cli(capsys, str(path))
        assert code == 1 and out == ""
        assert err.strip() == f"parse error: 2:5: {name!r} cannot be used as a binder"

    def test_a_val_name_shadows_the_primitive_it_spells(self, tmp_path, capsys):
        path = tmp_path / "shadow.ml"
        path.write_text(f"{SIGN_FILE}val b = mul\nval c = neg 3\n")
        code, out, err = run_cli(capsys, str(path))
        assert code == 0, err
        lines = out.splitlines()
        assert lines[2] == "b : " + lines[0].partition(" : ")[2]
        assert lines[3] == "c : {v : int | (v<=0)}"

    def test_inference_failure(self, tmp_path, capsys):
        path = tmp_path / "selfapp.ml"
        path.write_text("Qualifiers { }\nval w = \\x. x x\n")
        code, _, err = run_cli(capsys, str(path))
        assert code == 2 and "inference failure" in err

    def test_solver_misconfiguration(self, tmp_path, capsys):
        path = tmp_path / "ok.ml"
        path.write_text("Qualifiers { }\nval a = 1\n")
        code, _, err = run_cli(capsys, str(path), "--backend", "external")
        assert code == 3 and "solver" in err
        code, _, err = run_cli(
            capsys, str(path), "--backend", "external", "--smt-cmd", "/nonexistent/z9"
        )
        assert code == 3

    def test_arm_cap_exceeded(self, tmp_path, capsys):
        path = tmp_path / "wide.ml"
        path.write_text("Qualifiers { v >= 0, v <= 0 }\nval f = \\x. \\y. + x y\n")
        code, _, err = run_cli(capsys, str(path), "--max-arms", "4")
        assert code == 4 and "cap" in err

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--bogus"], "liqinfer: error: unrecognized arguments: --bogus"),
            (["--max-arms", "x"], "liqinfer infer: error: argument --max-arms: invalid int value: 'x'"),
            (["--max-arms", "0"], "liqinfer infer: error: argument --max-arms: must be at least 1, got 0"),
            (["--max-arms", "-5"], "liqinfer infer: error: argument --max-arms: must be at least 1, got -5"),
            (["--prover-timeout", "-1"],
             "liqinfer infer: error: argument --prover-timeout: must be above 0, got -1.0"),
            (["--prover-timeout", "nan"],
             "liqinfer infer: error: argument --prover-timeout: must be above 0, got nan"),
            (["check-metatheory", "--bound", "-1"],
             "liqinfer check-metatheory: error: argument --bound: must be at least 0, got -1"),
            (["check-metatheory", "--trials", "-3"],
             "liqinfer check-metatheory: error: argument --trials: must be at least 1, got -3"),
            (["check-metatheory", "--trials", "0"],
             "liqinfer check-metatheory: error: argument --trials: must be at least 1, got 0"),
            (["check-metatheory", "--fuel", "-1"],
             "liqinfer check-metatheory: error: argument --fuel: must be at least 1, got -1"),
            (["check-metatheory", "--fuel", "0"],
             "liqinfer check-metatheory: error: argument --fuel: must be at least 1, got 0"),
            (["check-metatheory", "--prover-timeout", "0"],
             "liqinfer check-metatheory: error: argument --prover-timeout: must be above 0, got 0.0"),
            (["check-metatheory", "--bound", "x"],
             "liqinfer check-metatheory: error: argument --bound: invalid int value: 'x'"),
        ],
        ids=["unknown-option", "max-arms-not-int", "max-arms-0", "max-arms-negative",
             "prover-timeout-negative", "prover-timeout-nan", "bound-negative", "trials-negative",
             "trials-0", "fuel-negative", "fuel-0", "meta-prover-timeout-0", "bound-not-int"],
    )
    def test_usage_error(self, sign_file, capsys, flags, message):
        """A usage error exits 1, the code of unusable input, with
        argparse's one-line message: not 2, an inference failure's code,
        no run that ends in the arm cap, and no traceback."""
        argv = flags if flags[0] == "check-metatheory" else [sign_file, *flags]
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (1, "", message + "\n")
        proc = subprocess.run(
            [sys.executable, "-m", "liqinfer", *argv],
            capture_output=True, text=True, env=SRC_ENV, timeout=120,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", message + "\n")

    def test_one_parser_serves_every_call(self, sign_file, capsys, monkeypatch):
        """In one process the parser is built once, and a usage error leaves
        it as it was: the calls after it print and exit as the ones before."""
        from liqinfer import cli

        built = [0]
        init = cli._Parser.__init__

        def counting(self, *args, **kwargs):
            built[0] += 1
            init(self, *args, **kwargs)

        monkeypatch.setattr(cli._Parser, "__init__", counting)
        cli._build_parser.cache_clear()
        calls = [[sign_file, "--json"], [sign_file, "--max-arms", "0"], ["check-metatheory", "--trials", "x"]]
        before = [run_cli(capsys, *argv) for argv in calls]
        parsers = built[0]
        after = [run_cli(capsys, *argv) for argv in reversed(calls)][::-1]
        assert parsers > 0 and built[0] == parsers
        assert after == before
        assert [code for code, _, _ in before] == [0, 1, 1]

    def test_mock_solver_accepted_as_external(self, tmp_path, capsys):
        import stat

        solver = tmp_path / "mock.sh"
        solver.write_text("#!/bin/sh\necho unknown\n")
        solver.chmod(solver.stat().st_mode | stat.S_IEXEC)
        path = tmp_path / "ok.ml"
        path.write_text("Qualifiers { }\nval a = 1\n")
        # backend=both consults the mock only on builtin Unknown; inference succeeds
        code, out, err = run_cli(capsys, str(path), "--backend", "both", "--smt-cmd", str(solver))
        assert code == 0, err
        assert out.splitlines()[0].startswith("a : ")


def nested_chain(depth):
    return "\\x. " + "(+ 1 " * depth + "x" + ")" * depth


class TestTooDeep:
    """Nesting past the recursion limit ends in a documented exit code, not
    a traceback: in the parser at 420, in normalization at 260."""

    @pytest.mark.parametrize("depth, code", [(420, 1), (260, 2)])
    def test_deep_nesting_exit_code(self, tmp_path, capsys, depth, code):
        path = tmp_path / "deep.ml"
        path.write_text(f"Qualifiers {{ v >= 0, v <= 0 }}\nval p = {nested_chain(depth)}\n")
        got, out, err = run_cli(capsys, str(path))
        assert got == code, err
        assert out == ""
        assert len(err.splitlines()) == 1 and "nested too deeply" in err


ROOT = Path(__file__).resolve().parents[1]
SRC_ENV = {**os.environ, "PYTHONPATH": str(ROOT / "src")}


class TestModuleEntryPoint:
    def test_python_m_liqinfer_runs_the_cli(self):
        proc = subprocess.run(
            [sys.executable, "-m", "liqinfer", str(ROOT / "demos" / "sign.ml")],
            capture_output=True, text=True, env=SRC_ENV, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert arm_set(lines[0]) == MUL_ARMS and lines[0].startswith("mul : ")
        assert arm_set(lines[1]) == NEG_ARMS and lines[1].startswith("neg : ")


    @pytest.mark.parametrize("flags", [[], ["--json"], ["--emit-constraints"]])
    def test_a_closed_stdout_ends_quietly(self, flags):
        """A reader that is gone before any output (`| head -0`) ends the
        run with exit 0 and no traceback."""
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "liqinfer", str(ROOT / "demos" / "sign.ml"), *flags],
                stdout=write_end, stderr=subprocess.PIPE, text=True, env=SRC_ENV, timeout=120,
            )
        finally:
            os.close(write_end)
        assert "Traceback" not in proc.stderr, proc.stderr
        assert proc.stderr == "" and proc.returncode == 0

    def test_start_up_imports_no_dataclasses_inspect_or_solver_modules(self):
        """What the CLI loads at start-up: `metatheory` and `semantics` load
        for `check-metatheory` or on first access to their exports, the
        solver-only modules in `run_solver`, and no class is built by
        `dataclasses`, not even in `metatheory`."""
        probe = (
            "import sys, liqinfer.cli; "
            "print(sorted({'liqinfer.metatheory', 'liqinfer.semantics'} & set(sys.modules))); "
            "from liqinfer import run_subject_reduction, step; "
            "print(sorted({'dataclasses', 'inspect', 'subprocess', 'shlex'} & set(sys.modules)))"
        )
        proc = subprocess.run(
            [sys.executable, "-S", "-c", probe], capture_output=True, text=True, env=SRC_ENV, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["[]", "[]"]


class TestMetatheorySubcommand:
    def test_small_run(self, capsys):
        code, out, _ = run_cli(
            capsys, "check-metatheory", "--trials", "10", "--fuel", "40", "--seed", "2"
        )
        assert code == 0
        assert "oracle agreement: 10 queries" in out
        assert "subject reduction: 10 trials, 0 violations, 0 stuck" in out
        assert "metatheory checks passed" in out

    def test_fuel_too_small_for_every_trial_fails(self, capsys):
        """A trial that runs out of fuel re-checks only the reducts it
        reached, so the suite fails with one line per such trial."""
        code, out, _ = run_cli(capsys, "check-metatheory", "--trials", "3", "--fuel", "1", "--bound", "2")
        assert code == 2
        assert "subject reduction: 3 trials, 0 violations, 0 stuck, 3 timeouts, 0 recheck failures" in out
        timed_out = [line for line in out.splitlines() if line.startswith("  timed out: ")]
        assert len(timed_out) == 3 and all(line.endswith(": no value within fuel 1") for line in timed_out)
        assert "metatheory checks passed" not in out


class TestSolverEnvVar:
    def test_env_var_supplies_default_command(self, tmp_path, capsys, monkeypatch):
        import stat

        solver = tmp_path / "mock.sh"
        solver.write_text("#!/bin/sh\necho unsat\n")
        solver.chmod(solver.stat().st_mode | stat.S_IEXEC)
        monkeypatch.setenv("LIQINFER_SMT_CMD", str(solver))
        path = tmp_path / "ok.ml"
        path.write_text("Qualifiers { }\nval a = 1\n")
        code, out, err = run_cli(capsys, str(path), "--backend", "both")
        assert code == 0, err
        assert out.startswith("a : ")
