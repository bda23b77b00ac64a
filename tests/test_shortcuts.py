"""Every shortcut off, the same answers: `liqinfer FILE --json` on the sign
demo, criterion-5 terms, small forms of the benchmark's `wide` and `deep`
files and a qualifier set that mentions a program variable prints the same
output and failure texts with every shortcut of the `shortcuts_off`
fixture switched off, and the built-in procedure decides the same queries,
compared by canonical key (McKeeman, *Differential testing for software*,
Digital Technical Journal 1998)."""

import random
from pathlib import Path

from liqinfer import cli, validity
from liqinfer.metatheory import GenConfig, random_term
from liqinfer.subtyping import SubtypeChecker
from liqinfer.syntax import PRIM_SURFACE, App, BoolConst, Const, IntConst, Lam, Var
from test_env import let_chain

ROOT = Path(__file__).resolve().parents[1]

SIGN = "Qualifiers { v >= 0, v <= 0 }\n"


def term_source(t) -> str:
    """Surface syntax for a criterion-5 term; a negative literal `-k` is the
    negation primitive applied to `k`, as the surface has no such literal."""
    if isinstance(t, Var):
        return t.name
    if isinstance(t, Const):
        c = t.const
        if isinstance(c, IntConst):
            return str(c.value) if c.value >= 0 else f"(- {-c.value})"
        if isinstance(c, BoolConst):
            return "true" if c.value else "false"
        return PRIM_SURFACE[c.op]
    if isinstance(t, Lam):
        return f"(\\{t.binder}. {term_source(t.body)})"
    if isinstance(t, App):
        return f"({term_source(t.fun)} {term_source(t.arg)})"
    return f"(let {t.binder} = {term_source(t.bound)} in {term_source(t.body)})"


def nested_chain(depth: int) -> str:
    """`\\x. (+ 1 (sub 2 (* 3 ... x)))`, `depth` deep."""
    ops = ("+", "sub", "*")
    return "\\x. " + "".join(f"({ops[i % 3]} {1 + i % 3} " for i in range(depth)) + "x" + ")" * depth


def sources():
    yield "sign", (ROOT / "demos" / "sign.ml").read_text()
    rng = random.Random(7)
    for i in range(60):
        yield f"corpus/{i}", f"{SIGN}val t = {term_source(random_term(rng, GenConfig()))}\n"
    yield "wide/add3", "Qualifiers { v >= 0, v <= 0, v >= 1 }\nval add3 = \\x.\\y.\\z. + x (+ y z)\n"
    yield "wide/let", "Qualifiers { v >= 0, v <= 0, v = 0 }\nval f = \\x.\\y. let z = sub x y in * z x\n"
    yield "deep/nested", f"{SIGN}val f = {nested_chain(12)}\n"
    yield "deep/let", f"{SIGN}val f0 = {nested_chain(6)}\nval f1 = {let_chain(12)}\n"
    # a polymorphic `val` used at an instance, and a λ whose domain is a type
    # variable, so that its top arm's domain is its template arm's
    yield "poly/instance", "Qualifiers { v >= 0 }\nval id = \\z. z\nval a = id 5\n"
    yield "poly/lam", "Qualifiers { v = 7 }\nval f = \\x. let y = + 1 2 in y\n"
    # `x` is unbound at `f` and an int at `g` and `h`
    yield "open", (
        "Qualifiers { v >= 0, v >= x, v <= x }\n"
        "val f = \\y. + y 1\nval x = 3\nval g = \\y. let z = + x y in z\n"
        "val h = \\x.\\z. let w = sub z x in + x w\n"
    )


def test_every_shortcut_off_gives_the_same_answers_and_decisions(shortcuts_off, monkeypatch, tmp_path, capsys):
    decided: set[str] = set()
    decide = validity.builtin_decide

    def recording(q, need_model=True):
        decided.add(validity.canonical_key(q))
        return decide(q, need_model=need_model)

    monkeypatch.setattr(validity, "builtin_decide", recording)
    judged = [0]
    judge = SubtypeChecker._decide

    def counting(self, env, a, b):
        judged[0] += 1
        return judge(self, env, a, b)

    monkeypatch.setattr(SubtypeChecker, "_decide", counting)
    files = []
    for i, (name, text) in enumerate(sources()):
        path = tmp_path / f"{i}.ml"
        path.write_text(text)
        files.append((name, path))
    runs, judgements = [], []
    for switch in (None, shortcuts_off):
        if switch is not None:
            switch()
        run = {}
        judged[0] = 0
        for name, path in files:
            decided.clear()
            code = cli.main([str(path), "--json"])
            out = capsys.readouterr()
            run[name] = code, out.out, out.err, frozenset(decided)
        runs.append(run)
        judgements.append(judged[0])
    fast, plain = runs
    assert [n for n in fast if fast[n] != plain[n]] == []
    # the switch reached the judgements: more of them were decided afresh
    assert judgements[0] < judgements[1], judgements
    # the inputs reach the engine and both outcomes
    assert all(fast[n][3] for n in fast if not n.startswith("corpus/"))
    assert sum(bool(fast[n][3]) for n in fast) > 20
    assert {code for code, *_ in fast.values()} == {0, 2}
