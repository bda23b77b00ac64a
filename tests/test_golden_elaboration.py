"""Shape elaboration, printed against a golden: for each term, the elaborated
term with its type abstractions and instantiations, its finalized scheme, and
the shape every `Lam` and `Let` node carries, in pre-order. The names of
inserted type variables and arrow binders are part of what is pinned.

The terms are the bindings of `demos/sign.ml`, each elaborated against the
schemes of those before it; the first 100 terms of the criterion-5 corpus
(seed 2026) and a few let-polymorphic terms, each followed by the reducts of
its first 20 evaluation steps; and, last, the messages the CLI prints for
three ill-shaped programs, with the `?n` numbers of unification variables.
To print the golden afresh:

    PYTHONPATH=src python tests/test_golden_elaboration.py > tests/golden/elaborated.txt
"""

from __future__ import annotations

import contextlib
import io
import os
import tempfile
from pathlib import Path

from liqinfer import cli
from liqinfer.anf import _all_names, normalize
from liqinfer.metatheory import generate_corpus
from liqinfer.parser import parse_program, parse_term
from liqinfer.semantics import Next, step
from liqinfer.shapes import ShapeScheme, elaborate
from liqinfer.syntax import (
    App,
    FAtom,
    LInt,
    LVar,
    Lam,
    Let,
    NameSource,
    Term,
    TyAbs,
    TyInst,
    VALUE_VAR,
    Var,
    render_simple_type,
    render_term,
)

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden" / "elaborated.txt"
SIGN_QUALIFIERS = (FAtom(">=", LVar(VALUE_VAR), LInt(0)), FAtom("<=", LVar(VALUE_VAR), LInt(0)))
CORPUS_TERMS = 100
STEPS = 20
# nested generalization, cells of the environment that must stay monomorphic,
# instantiations of `if` and `fix`, and an unconstrained cell that defaults
# to int
POLYMORPHIC = (
    "\\f. \\x. f (f x)",
    "\\x. \\y. y",
    "let id = \\z. z in let k = \\a. \\b. a in k (id id) (id 3)",
    "\\x. let y = x in let f = \\z. y in f",
    "\\x. let f = \\y. + x y in f",
    "let twice = \\f. \\x. f (f x) in twice twice (\\n. + n 1) 0",
    "let app = \\f. \\x. f x in app (\\b. if b 1 2) true",
    "fix (\\f. \\n. if (<= n 0) 0 (f (sub n 1)))",
    "(\\x. 3) (\\y. y)",
)
# the last names the cell that a unification of two cells keeps
ILL_SHAPED = (
    "val f = \\x. x x",
    "val g = \\x. + x true",
    "val h = \\f. \\g. \\x. let a = f (g x) in g (f x) x",
)


def erase(t: Term) -> Term:
    """The reference erasure: t without its type abstractions and
    instantiations or the shapes of its nodes; a term that holds none comes
    back as the same object."""
    if isinstance(t, (TyAbs, TyInst)):
        return erase(t.body)
    if isinstance(t, Var):
        return t if t.shape is None else Var(t.name)
    if isinstance(t, Lam):
        return Lam(t.binder, erase(t.body))
    if isinstance(t, App):
        return App(erase(t.fun), erase(t.arg))
    if isinstance(t, Let):
        return Let(t.binder, erase(t.bound), erase(t.body))
    return t


def _scheme(s: ShapeScheme) -> str:
    body = render_simple_type(s.ty)
    return f"forall {' '.join(s.qvars)}. {body}" if s.qvars else body


def _binders(t: Term):
    """The `Lam` and `Let` nodes of t, in pre-order."""
    stack = [t]
    while stack:
        node = stack.pop()
        if isinstance(node, (Lam, Let)):
            yield node
        if isinstance(node, App):
            stack += [node.arg, node.fun]
        elif isinstance(node, Let):
            stack += [node.body, node.bound]
        elif isinstance(node, (Lam, TyAbs, TyInst)):
            stack.append(node.body)


def _elaborated(label: str, senv: dict, term: Term) -> tuple[list[str], ShapeScheme]:
    elab = elaborate(senv, erase(term))
    lines = [f"{label}\t{render_term(elab.term)}", f"  : {_scheme(elab.scheme)}"]
    lines += [f"  {type(n).__name__} {render_simple_type(n.shape)}" for n in _binders(elab.term)]
    return lines, elab.scheme


def _cli_message(path: str, binding: str) -> str:
    with open(path, "w") as fh:
        fh.write(f"Qualifiers {{ v >= 0, v <= 0 }}\n{binding}\n")
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main([path])
    return f"{binding}\texit {code}: {err.getvalue().strip()}"


def elaborations() -> list[str]:
    lines: list[str] = []
    senv: dict[str, ShapeScheme] = {}
    program = parse_program((ROOT / "demos" / "sign.ml").read_text())
    for name, term in program.bindings:
        out, senv[name] = _elaborated(f"sign/{name}", senv, normalize(term))
        lines += out
    corpus = generate_corpus(CORPUS_TERMS, SIGN_QUALIFIERS, seed=2026)
    closed = [(f"corpus/{i}", t) for i, t in enumerate(corpus)]
    closed += [(f"poly/{i}", normalize(parse_term(s))) for i, s in enumerate(POLYMORPHIC)]
    for label, term in closed:
        lines += _elaborated(label, {}, term)[0]
        names = NameSource("fx", used=_all_names(term))
        for k in range(1, STEPS + 1):
            out = step(term, names)
            if not isinstance(out, Next):
                break
            term = out.term
            lines += _elaborated(f"{label}.{k}", {}, term)[0]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "program.ml")
        lines += [_cli_message(path, binding) for binding in ILL_SHAPED]
    return lines


def test_elaborations_match_the_golden():
    assert elaborations() == GOLDEN.read_text().splitlines()


if __name__ == "__main__":
    print("\n".join(elaborations()))
