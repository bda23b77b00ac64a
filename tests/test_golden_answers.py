"""The printed answer of every program in one pass of the benchmark's three
populations, against a golden: the inferred scheme of each binding, or the
exit code. Inference only, with no subject-reduction trials.

`corpus` programs share one inferencer, as the benchmark runs them; `wide`
and `deep` files each go through `liqinfer FILE --json`. To print the
answers afresh:

    PYTHONPATH=src python tests/test_golden_answers.py > tests/golden/answers.txt
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden" / "answers.txt"
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402

from liqinfer import cli  # noqa: E402
from liqinfer.inference import ArmCapExceeded, Inferencer  # noqa: E402
from liqinfer.metatheory import default_qualifiers  # noqa: E402
from liqinfer.parser import ParseError  # noqa: E402
from liqinfer.syntax import Env, LiqError  # noqa: E402
from liqinfer.validity import ValidityEngine  # noqa: E402

SEED = 1


def _corpus_answer(inferencer: Inferencer, text: str) -> list[str]:
    try:
        program = cli.parse_program(text)
        scheme = inferencer.infer(Env(), cli.normalize(program.bindings[0][1]))
    except ParseError:
        return ["exit 1"]
    except ArmCapExceeded:
        return ["exit 4"]
    except LiqError:
        return ["exit 2"]
    return [f"t : {cli.render_scheme(scheme)}"]


def _cli_answer(path: str, text: str) -> list[str]:
    with open(path, "w") as fh:
        fh.write(text)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main([path, "--json"])
    if code != 0:
        return [f"exit {code}"]
    return [f"{b['name']} : {b['type']}" for b in json.loads(out.getvalue())["bindings"]]


def answers() -> list[str]:
    """One line per binding or exit code, each led by its program's label."""
    lines: list[str] = []
    inferencer = Inferencer(default_qualifiers(), ValidityEngine())
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "program.ml")
        for workload in workloads.WORKLOADS:
            for prog in workloads.generate(workload, SEED):
                if workload == "corpus":
                    got = _corpus_answer(inferencer, prog.text)
                else:
                    got = _cli_answer(path, prog.text)
                lines += [f"{prog.label}\t{answer}" for answer in got]
    return lines


def test_answers_match_the_golden():
    assert answers() == GOLDEN.read_text().splitlines()


if __name__ == "__main__":
    print("\n".join(answers()))
