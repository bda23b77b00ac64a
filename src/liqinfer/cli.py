"""Command-line driver: parse a tiny-ML file, normalize, infer a liquid
intersection type for every val binding, and print the results.

Exit codes: 0 success, 1 parse error (including unreadable input) or
usage error (an unknown option, or an option value of the wrong type or
out of range: `--max-arms`, `--trials` and `--fuel` below 1, `--bound`
below 0, `--prover-timeout` not above 0; argparse's one-line message goes
to stderr), 2 inference failure, 3 solver error (a `--prover-timeout` past
what the system can wait is one), 4 arm-cap exceeded. Input nested too
deeply for the interpreter's recursion limit ends in 1 when the parser
hits the limit and in 2 when normalization or inference does. A reader
that closes standard output early ends the run with 0: what it did not
read is not written.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import Callable, Optional

from .anf import normalize
from .inference import ArmCapExceeded, Inferencer
from .parser import ParseError, parse_program
from .subtyping import LogEntry
from .syntax import Env, LiqError, render_refinement, render_scheme, render_term
from .validity import SolverError, ValidityEngine, run_solver

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_INFER = 2
EXIT_SOLVER = 3
EXIT_CAP = 4

SMT_CMD_ENV = "LIQINFER_SMT_CMD"

TOO_DEEP = "nested too deeply (Python recursion limit reached)"


class UsageError(Exception):
    """A command line that argparse rejects, with argparse's message."""


class _Parser(argparse.ArgumentParser):
    """An argument parser that raises `UsageError` where argparse would
    print the usage and exit 2, the code of an inference failure."""

    def error(self, message: str) -> None:
        raise UsageError(f"{self.prog}: error: {message}")


def _bounded(kind: type, low: float, strict: bool = False) -> Callable[[str], float]:
    """An option type: a value of `kind` (int or float) at least `low`, or
    above it when `strict`; argparse reports any other as a usage error."""

    def parse(text: str) -> float:
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid {kind.__name__} value: {text!r}") from None
        if not (value > low if strict else value >= low):  # NaN fails both
            raise argparse.ArgumentTypeError(f"must be {'above' if strict else 'at least'} {low}, got {value}")
        return value

    return parse


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared by every
    later `main` call in the process: parsing leaves it as it was."""
    parser = _Parser(
        prog="liqinfer",
        description="Infer liquid intersection types for tiny-ML programs.",
    )
    sub = parser.add_subparsers(dest="command")

    infer_p = sub.add_parser("infer", help="infer types for every val binding in a file")
    infer_p.add_argument("file", help="tiny-ML input file")
    _engine_flags(infer_p)
    infer_p.add_argument("--emit-anf", action="store_true",
                         help="also print the A-normalized program")
    infer_p.add_argument("--emit-constraints", action="store_true",
                         help="also print generated atomic constraints with verdicts")
    infer_p.add_argument("--json", action="store_true",
                         help="machine-readable output (bindings with arm lists)")
    infer_p.add_argument("--max-arms", type=_bounded(int, 1), default=4096,
                         help="cap on fresh template size, at least 1 (default 4096)")

    meta_p = sub.add_parser("check-metatheory",
                            help="run the subject-reduction and oracle-agreement suites")
    meta_p.add_argument("--trials", type=_bounded(int, 1), default=100)
    meta_p.add_argument("--fuel", type=_bounded(int, 1), default=100)
    meta_p.add_argument("--bound", type=_bounded(int, 0), default=4)
    meta_p.add_argument("--seed", type=int, default=0)
    _engine_flags(meta_p)
    return parser


def _engine_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--smt-cmd", default=None,
                   help="external solver command template; {file} expands to a "
                        f"script path, otherwise stdin is used (default ${SMT_CMD_ENV})")
    p.add_argument("--backend", choices=("builtin", "external", "both"), default="builtin")
    p.add_argument("--prover-timeout", type=_bounded(float, 0, strict=True), default=5.0,
                   help="seconds per external query (default 5)")
    p.add_argument("--nonlinear", action="store_true",
                   help="in scripts for the external solver, write products of two "
                        "non-constants as real products (QF_UFNIA) instead of the "
                        "uninterpreted times symbol")


def _make_engine(args: argparse.Namespace) -> ValidityEngine:
    cmd = args.smt_cmd or os.environ.get(SMT_CMD_ENV)
    engine = ValidityEngine(
        backend=args.backend,
        smt_cmd=cmd,
        timeout=args.prover_timeout,
        nonlinear_external=args.nonlinear,
    )
    if args.backend in ("external", "both"):
        if not cmd:
            raise SolverError("external backend selected but no solver command given "
                              f"(use --smt-cmd or ${SMT_CMD_ENV})")
        probe = "(set-logic QF_UFLIA)\n(check-sat)\n"
        run_solver(cmd, probe, args.prover_timeout)
    return engine


def _run_infer(args: argparse.Namespace) -> int:
    try:
        with open(args.file, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as e:
        print(f"error: cannot read {args.file}: {e}", file=sys.stderr)
        return EXIT_PARSE
    try:
        program = parse_program(text)
    except ParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except RecursionError:
        print(f"parse error: {TOO_DEEP}", file=sys.stderr)
        return EXIT_PARSE
    try:
        engine = _make_engine(args)
    except (SolverError, TimeoutError) as e:
        print(f"solver error: {e}", file=sys.stderr)
        return EXIT_SOLVER

    log: Optional[list[LogEntry]] = [] if args.emit_constraints else None
    inferencer = Inferencer(
        program.qualifiers,
        engine,
        max_arms=args.max_arms,
        constraint_log=log,
    )
    env = Env()
    results = []
    for name, term in program.bindings:
        try:
            anf_term = normalize(term)
            if args.emit_anf:
                print(f"-- anf: val {name} = {render_term(anf_term)}")
            scheme = inferencer.infer(env, anf_term)
        except RecursionError:
            print(f"inference failure at {name!r}: {TOO_DEEP}", file=sys.stderr)
            return EXIT_INFER
        except ArmCapExceeded as e:
            print(f"arm cap exceeded at {name!r}: {e}", file=sys.stderr)
            return EXIT_CAP
        except LiqError as e:
            print(f"inference failure at {name!r}: {e}", file=sys.stderr)
            return EXIT_INFER
        results.append((name, scheme))
        env = env.extend(name, scheme)

    if args.emit_constraints and log is not None:
        for entry in log:
            print(f"-- {entry.kind}: {entry.description}  [{'ok' if entry.verdict else 'fail'}]")
    if args.json:
        from .syntax import render_arm

        payload = {
            "qualifiers": [render_refinement(q) for q in program.qualifiers],
            "bindings": [
                {
                    "name": name,
                    "type": render_scheme(scheme),
                    "arms": [render_arm(a) for a in scheme.body.arms],
                    "quantifiers": list(scheme.qvars),
                }
                for name, scheme in results
            ],
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for name, scheme in results:
            print(f"{name} : {render_scheme(scheme)}")
    return EXIT_OK


def _run_metatheory(args: argparse.Namespace) -> int:
    # imported here: inferring the types of a file does not need them
    from .metatheory import (
        default_qualifiers,
        random_base_query,
        random_hard_query,
        run_oracle_agreement,
        run_subject_reduction,
    )

    try:
        engine = _make_engine(args)
    except (SolverError, TimeoutError) as e:
        print(f"solver error: {e}", file=sys.stderr)
        return EXIT_SOLVER
    qualifiers = default_qualifiers()
    print(f"qualifiers: {', '.join(render_refinement(q) for q in qualifiers)}")

    agreements = []
    for label, draw in (("oracle agreement", random_base_query), ("hard oracle agreement", random_hard_query)):
        agreement = run_oracle_agreement(args.trials, bound=args.bound, seed=args.seed, engine=engine, draw=draw)
        print(
            f"{label}: {agreement.queries} queries, "
            f"{agreement.valid} valid, {agreement.invalid} invalid, "
            f"{agreement.unknown} unknown, {agreement.unsound} unsound, "
            f"{agreement.bad_models} bad models"
        )
        agreements.append(agreement)

    suite = run_subject_reduction(
        args.trials, fuel=args.fuel, qualifiers=qualifiers, seed=args.seed, engine=engine,
    )
    print(
        f"subject reduction: {suite.trials} trials, "
        f"{suite.violations} violations, {suite.stuck} stuck, "
        f"{suite.timeouts} timeouts, {suite.recheck_failures} recheck failures"
    )
    if any(a.unsound or a.bad_models for a in agreements) or not suite.ok:
        for tr in suite.reports:
            if not tr.ok:
                print(f"  failed: {render_term(tr.term)}: {tr.failure}")
            elif tr.timed_out:
                print(f"  timed out: {render_term(tr.term)}: no value within fuel {tr.steps}")
        return EXIT_INFER
    print("metatheory checks passed")
    return EXIT_OK


def main(argv: Optional[list[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] not in ("infer", "check-metatheory", "-h", "--help"):
        argv = ["infer"] + argv
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as e:
        print(e, file=sys.stderr)
        return EXIT_PARSE
    try:
        if args.command == "infer":
            code = _run_infer(args)
        elif args.command == "check-metatheory":
            code = _run_metatheory(args)
        else:
            parser.print_help()
            code = EXIT_PARSE
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone; point stdout at devnull so that the flush at
        # shutdown does not fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_OK
    return code


if __name__ == "__main__":
    sys.exit(main())
