"""Every input to `cli.main` ends in a documented exit code (0-4) and no
traceback: criterion-5 terms rendered to source, random qualifier blocks,
and byte-mutated copies of the demo programs."""

import contextlib
import io
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from liqinfer.cli import main
from liqinfer.metatheory import GenConfig, random_term
from liqinfer.syntax import render_term

ROOT = Path(__file__).parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.ml"))

SIGN_QUALIFIERS = "Qualifiers { v >= 0, v <= 0 }\n"


def run_main(source: bytes) -> tuple[int, str]:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.ml"
        path.write_bytes(source)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                # a small arm cap keeps each example fast; exit 4 is documented
                code = main([str(path), "--max-arms", "64"])
            except BaseException as e:  # noqa: BLE001 - nothing may escape
                pytest.fail(f"{type(e).__name__} escaped cli.main: {e}")
    return code, err.getvalue()


# criterion-5 terms: the generator of the subject-reduction suite
terms = st.integers(0, 2**32).map(lambda seed: render_term(random_term(random.Random(seed), GenConfig())))
programs = terms.map(lambda src: (SIGN_QUALIFIERS + f"val f = {src}\n").encode())

# qualifier blocks: well-formed refinements and stray tokens alike
atoms = st.sampled_from(("v", "x", "0", "1", "-2", "true", "false", "(v + 1)", "(x * v)", "(", ")"))
ops = st.sampled_from(("=", "<=", ">=", "<", ">", "<=>", "&&", "+", "*", ""))
qualifiers = st.lists(st.tuples(atoms, ops, atoms).map(" ".join), max_size=4).map(", ".join)
qualifier_programs = st.tuples(qualifiers, st.sampled_from(("\\x. + x 1", "\\x. \\y. sub x y", "3"))).map(
    lambda qb: f"Qualifiers {{ {qb[0]} }}\nval f = {qb[1]}\n".encode()
)


@st.composite
def mutated_demos(draw):
    data = bytearray(draw(st.sampled_from(DEMOS)).read_bytes())
    for _ in range(draw(st.integers(1, 6))):
        pos = draw(st.integers(0, len(data)))
        kind = draw(st.sampled_from(("replace", "insert", "delete")))
        byte = draw(st.integers(0, 255))
        if kind == "insert" or pos == len(data):
            data.insert(pos, byte)
        elif kind == "replace":
            data[pos] = byte
        else:
            del data[pos]
    return bytes(data)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.one_of(programs, qualifier_programs, mutated_demos()))
def test_every_input_ends_in_a_documented_exit(source):
    code, err = run_main(source)
    assert code in range(5), (code, err)
    assert "Traceback" not in err


def test_the_demos_are_found():
    assert DEMOS, "no demos/*.ml to mutate"


@pytest.mark.parametrize(
    "source",
    [
        b"\xff\xfe" + SIGN_QUALIFIERS.encode(),  # not UTF-8
        b"Qualifiers { v >= 0 }\nval f = \\x. + x \x00\n",
        "Qualifiers { v >= 0 }\nval f = \\x. + x 1\u00b2\n".encode(),  # a digit int() rejects
        (SIGN_QUALIFIERS + "val f = " + "9" * 5000 + "\n").encode(),  # past int()'s digit limit
        ("Qualifiers { v >= " + "9" * 5000 + " }\nval f = 1\n").encode(),
    ],
)
def test_malformed_bytes_and_literals_are_parse_errors(source):
    code, err = run_main(source)
    assert code == 1, err
    assert "Traceback" not in err


def test_a_240_deep_chain_gets_a_type(tmp_path):
    """Depth headroom: a chain of 240 nested additions, which the parser,
    normalization, elaboration and inference all recurse through, gets a
    type in a fresh interpreter. One more frame per level of nesting in any
    of them ends it in exit 1 or 2 instead."""
    path = tmp_path / "deep.ml"
    chain = "(+ 1 " * 240 + "x" + ")" * 240
    path.write_text(f"{SIGN_QUALIFIERS}val f = \\x. {chain}\n")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, "-m", "liqinfer", str(path)], capture_output=True, text=True, env=env, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("f : (x: ")
