"""Input generators for the three benchmark workloads.

A workload is a *population*: a fixed list of tiny-ML programs drawn once
from POPULATION_SEED, so that its cost does not depend on the run's seed.
The run's `--seed` decides the order in which the programs arrive. Drawing
a fresh population per seed made the run-to-run spread of throughput and
per-program latency 15-70% over 2-5 seeds (one add3-family file alone takes
3-5 s depending on its qualifier set). The seed does not respell names
either: the built-in checker seeds its countermodel search from the printed
query and enumerates variables in name order, so a respelled binder can
change how long a query takes.

Each `Program.text` is source text, the only thing the system under test
receives. Generation uses only `random.Random` with integer seeds, so the
same seed gives byte-identical sources in every process, whatever
`PYTHONHASHSEED` is.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

POPULATION_SEED = 2026

SIGN_QUALIFIERS = "Qualifiers { v >= 0, v <= 0 }\n"

# The qualifier pool `wide` draws its 2-4 element sets from.
WIDE_POOL = ("v >= 0", "v <= 0", "v >= 1", "v <= -1", "v = 0")

# Nesting depths of the probes: past the recursion limit of the measured
# commit (about 250 raises RecursionError in `anf.normalize`, 400 already in
# the parser).
PROBE_DEPTHS = (260, 420)

WORKLOADS = ("corpus", "wide", "deep")

CORPUS_TERMS = 240

_ARITH = ("+", "sub")


@dataclass(frozen=True)
class Program:
    """One input file. `probe` programs are attempted and counted in
    `answered_frac` but never timed (see `run.py`)."""

    text: str
    label: str
    probe: bool = False
    path: str = ""  # where set-up wrote `text`, for the CLI workloads


def generate(workload: str, seed: int) -> list[Program]:
    """The workload's population in the order `seed` gives it."""
    make = {"corpus": corpus, "wide": wide, "deep": deep}[workload]
    programs = make(random.Random(POPULATION_SEED))
    random.Random(seed * 3 + WORKLOADS.index(workload)).shuffle(programs)
    return programs


# ---------------------------------------------------------------------------
# corpus: the check-metatheory traffic
# ---------------------------------------------------------------------------


def term_source(t) -> str:
    """Surface syntax for a term of the criterion-5 grammar.

    The surface language has no negative literals, so `-k` is written as the
    primitive negation applied to `k`. Iterative, so that it does not depend
    on the interpreter's recursion limit.
    """
    from liqinfer.syntax import App, BoolConst, Const, IntConst, Lam, Let, PRIM_SURFACE, Var

    out: list[str] = []
    todo: list = [t]
    while todo:
        x = todo.pop()
        if isinstance(x, str):
            out.append(x)
        elif isinstance(x, Var):
            out.append(x.name)
        elif isinstance(x, Const):
            c = x.const
            if isinstance(c, IntConst):
                out.append(str(c.value) if c.value >= 0 else f"(- {-c.value})")
            elif isinstance(c, BoolConst):
                out.append("true" if c.value else "false")
            else:
                out.append(PRIM_SURFACE[c.op])
        elif isinstance(x, Lam):
            todo += [")", x.body, f"(\\{x.binder}. "]
        elif isinstance(x, App):
            todo += [")", x.arg, " ", x.fun, "("]
        elif isinstance(x, Let):
            todo += [")", x.body, " in ", x.bound, f"(let {x.binder} = "]
        else:
            raise TypeError(f"no surface syntax for {x!r}")
    return "".join(out)


def corpus(pop: random.Random) -> list[Program]:
    """Unfiltered terms of the criterion-5 grammar (`random_term` with the
    default `GenConfig`) under the two sign qualifiers; about half are
    rejected (exit 2)."""
    from liqinfer.metatheory import GenConfig, random_term

    config = GenConfig()
    return [
        Program(f"{SIGN_QUALIFIERS}val t = {term_source(random_term(pop, config))}\n", f"corpus/{i}")
        for i in range(CORPUS_TERMS)
    ]


# ---------------------------------------------------------------------------
# wide: large templates, small programs
# ---------------------------------------------------------------------------

# (arity, |Q|, form) of the files, cheapest first. With an odd number of
# files and every file run once per pass, the median of the pooled samples
# falls in the middle of the samples of the sixth file and the 75th
# percentile a quarter into those of the ninth, not on a boundary between
# two files. add3 at |Q| = 4 is left out: it alone takes about 11 s.
WIDE_SLOTS = (
    (1, 4, "const"), (1, 4, "square"), (1, 3, "const"), (2, 3, "flat"),
    (2, 4, "flat"), (2, 4, "flat"), (2, 4, "flat"),
    (3, 2, "let"), (3, 2, "nest"), (2, 3, "let"),
    (3, 3, "nest"),
)


def _wide_body(pop: random.Random, arity: int, form: str) -> str:
    op = lambda: pop.choice(_ARITH)  # noqa: E731
    if form == "const":
        k = pop.randint(0, 3)
        return pop.choice([f"\\x. {op()} x {k}", f"\\x. {op()} {k} x"])
    if form == "square":
        return "\\x. * x x"
    if arity == 2:
        if form == "flat":
            return f"\\x.\\y. {op()} x y"
        return f"\\x.\\y. let z = {op()} x y in {op()} z x"
    if form == "nest":
        return f"\\x.\\y.\\z. {op()} x ({op()} y z)"
    return f"\\x.\\y.\\z. let w = {op()} x y in {op()} w z"


def wide(pop: random.Random) -> list[Program]:
    """`liqinfer FILE --json` on one-binding files of the add3 family and
    its kin over |Q| = 2-4 qualifiers drawn from WIDE_POOL."""
    progs = []
    for i, (arity, q, form) in enumerate(WIDE_SLOTS):
        quals = [WIDE_POOL[j] for j in sorted(pop.sample(range(len(WIDE_POOL)), q))]
        body = _wide_body(pop, arity, form)
        progs.append(Program(f"Qualifiers {{ {', '.join(quals)} }}\nval f = {body}\n",
                             f"wide/{i}/a{arity}q{q}{form}"))
    return progs


# ---------------------------------------------------------------------------
# deep: large programs, small templates
# ---------------------------------------------------------------------------

# The bindings of each file, smallest first: (form, depth) per `val`. An
# odd number of files, as in WIDE_SLOTS, keeps the median and the 75th
# percentile inside the samples of one file.
DEEP_SLOTS = (
    (("nested", 30),), (("letsub", 30),), (("nested", 50),),
    (("nested", 25), ("letsub", 25)), (("letsub", 60),),
    (("nested", 90),), (("letsub", 90),),
    (("nested", 140),), (("letsub", 130),),
    (("nested", 190),), (("nested", 200),),
)


def nested_chain(pop: random.Random, depth: int) -> str:
    """`\\x. (op k (op k ... x))`: ANF turns it into a let chain `depth` deep."""
    parts = [f"({pop.choice(_ARITH)} {pop.randint(1, 3)} " for _ in range(depth)]
    return "\\x. " + "".join(parts) + "x" + ")" * depth


def let_chain(pop: random.Random, length: int) -> str:
    """`\\x. let x_0 = sub 1 x in let x_1 = sub 1 x_0 in ... x_n`."""
    parts, prev = [], "x"
    for i in range(length):
        parts.append(f"let x_{i} = sub 1 {prev} in ")
        prev = f"x_{i}"
    return "\\x. " + "".join(parts) + prev


def deep(pop: random.Random) -> list[Program]:
    """`liqinfer FILE --json` on files of nested arithmetic chains and let
    chains 25-200 deep under the two sign qualifiers, plus the probes."""
    progs = []
    for i, slot in enumerate(DEEP_SLOTS):
        vals = []
        for j, (form, depth) in enumerate(slot):
            make = nested_chain if form == "nested" else let_chain
            vals.append(f"val f{j} = {make(pop, depth)}\n")
        progs.append(Program(SIGN_QUALIFIERS + "".join(vals), f"deep/{i}"))
    for depth in PROBE_DEPTHS:
        progs.append(Program(f"{SIGN_QUALIFIERS}val p = {nested_chain(pop, depth)}\n",
                             f"deep/probe{depth}", probe=True))
    return progs
