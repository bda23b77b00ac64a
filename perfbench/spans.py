"""Outside-in span tracing of the liqinfer layers.

The tracer replaces public functions at the point where the pipeline looks
them up (a module global or a class attribute) with a wrapper that records a
span: name, start, end, parent span and program id. Nothing inside `src/` is
edited. Spans live in flat arrays while the run lasts and are written out
once, when it ends.

Self time of a span is its duration minus the time its direct child spans
cover; children of one span never overlap, because the pipeline runs on one
thread.
"""

from __future__ import annotations

import contextlib
import importlib
import time
from array import array
from collections import defaultdict
from typing import Callable, Iterator, Optional

# (module, attribute path, span name). Every row is a lookup point: the
# module global or class attribute the pipeline resolves at call time.
WRAP_POINTS = (
    ("liqinfer.cli", "parse_program", "parser"),
    ("liqinfer.cli", "normalize", "anf"),
    ("liqinfer.inference", "elaborate", "shapes"),
    ("liqinfer.inference", "Inferencer.infer", "inference.infer"),
    ("liqinfer.inference", "fresh", "inference.fresh"),
    ("liqinfer.inference", "temporary_type", "inference.temporary_type"),
    ("liqinfer.subtyping", "SubtypeChecker.is_subtype", "subtyping.is_subtype"),
    ("liqinfer.subtyping", "SubtypeChecker.wf_check", "subtyping.wf_check"),
    ("liqinfer.subtyping", "SubtypeChecker.base_subtype_query", "subtyping.base_query"),
    ("liqinfer.subtyping", "embed_env", "logic.embed_env"),
    ("liqinfer.validity", "ValidityEngine.check", "validity.check"),
    ("liqinfer.validity", "canonical_key", "validity.key"),
    ("liqinfer.validity", "builtin_decide", "validity.decide"),
    ("liqinfer.metatheory", "step", "semantics.step"),
    ("liqinfer.metatheory", "recheck", "metatheory.recheck"),
    ("liqinfer.syntax", "make_type", "syntax.make_type"),
    ("liqinfer.inference", "make_type", "syntax.make_type"),
    ("liqinfer.subtyping", "make_type", "syntax.make_type"),
    ("liqinfer.syntax", "render_arm", "syntax.render"),
    ("liqinfer.syntax", "render_scheme", "syntax.render"),
    ("liqinfer.cli", "render_scheme", "syntax.render"),
)

PROGRAM = "program"  # root span of one timed program
VERIFY = "verify"  # root span of the benchmark's own checks of one answer


def count_nodes(term) -> int:
    """Size of a term tree, walked without recursion."""
    from liqinfer.syntax import App, Lam, Let, TyAbs, TyInst

    n, todo = 0, [term]
    while todo:
        t = todo.pop()
        n += 1
        if isinstance(t, App):
            todo += (t.fun, t.arg)
        elif isinstance(t, Let):
            todo += (t.bound, t.body)
        elif isinstance(t, (Lam, TyAbs, TyInst)):
            todo.append(t.body)
    return n


class Tracer:
    """Records spans while `enabled`; `install` patches the wrap points and
    `uninstall` restores the originals."""

    def __init__(self) -> None:
        self.enabled = False
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._saved: list[tuple[object, str, object]] = []
        self.program = -1
        self.reset()

    def reset(self) -> None:
        self.name = array("h")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.prog = array("l")
        self.nested = array("b")  # 1 when an enclosing span has the same name
        self._stack: list[int] = []
        self._active: dict[int, int] = defaultdict(int)
        self.counters: dict[str, float] = defaultdict(float)
        self._engines: dict[int, object] = {}
        self.max_cache_entries = 0

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    # -- spans ---------------------------------------------------------------

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.prog.append(self.program)
        self.nested.append(1 if self._active[nid] else 0)
        self._active[nid] += 1
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()
        self._active[self.name[idx]] -= 1

    def parent_name(self, idx: int) -> Optional[str]:
        p = self.parent[idx]
        return self.names[self.name[p]] if p >= 0 else None

    def begin_program(self, pid: int, root: str = PROGRAM) -> int:
        self.program = pid
        return self.open(self._name_id(root))

    def end_program(self, idx: int) -> None:
        self.close(idx)
        for engine in self._engines.values():
            self.max_cache_entries = max(self.max_cache_entries, engine.cache_size())
        self._engines.clear()

    @contextlib.contextmanager
    def program_scope(self, pid: int, probe: bool = False) -> Iterator[None]:
        """One program of a pass, under a PROGRAM root span; a probe runs
        with recording off, so that it leaves no spans and no counts."""
        if probe:
            was, self.enabled = self.enabled, False
            try:
                yield
            finally:
                self.enabled = was
            return
        idx = self.begin_program(pid)
        try:
            yield
        finally:
            self.end_program(idx)

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, fn: Callable, span: str) -> Callable:
        nid = self._name_id(span)
        hook = _HOOKS.get(span)
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            idx = tracer.open(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if hook is not None:
                hook(tracer, idx, args, out)
            return out

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", span)
        return traced

    def install(self) -> None:
        for module, path, span in WRAP_POINTS:
            owner = importlib.import_module(module)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, span))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- aggregation ---------------------------------------------------------

    def layer_times(self, root: Optional[str] = None) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive time of the outermost spans of
        that name, and self time; only under root spans named `root` when
        one is given."""
        n = len(self.start)
        covered = [0.0] * n
        top = array("l", [0]) * n  # index of each span's root span
        for i in range(n):
            p = self.parent[i]
            top[i] = i if p < 0 else top[p]
            if p >= 0:
                covered[p] += self.end[i] - self.start[i]
        out: dict[str, dict[str, float]] = {
            name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in self.names
        }
        for i in range(n):
            if root is not None and self.names[self.name[top[i]]] != root:
                continue
            row = out[self.names[self.name[i]]]
            dur = self.end[i] - self.start[i]
            row["calls"] += 1
            row["self_s"] += dur - covered[i]
            if not self.nested[i]:
                row["s"] += dur
        return out

    def write(self, path: str) -> None:
        """One tab-separated line per span: index, name, parent, program,
        start and end in seconds."""
        with open(path, "w", encoding="utf-8") as f:
            f.write("span\tname\tparent\tprogram\tstart\tend\n")
            for i in range(len(self.start)):
                f.write(
                    f"{i}\t{self.names[self.name[i]]}\t{self.parent[i]}\t{self.prog[i]}"
                    f"\t{self.start[i]:.9f}\t{self.end[i]:.9f}\n"
                )


# Counters taken from a wrapped call's arguments and result, after its span
# has closed, so they cost nothing inside the span they describe.


def _on_decide(t: Tracer, idx: int, args, out) -> None:
    t.counters["validity." + type(out).__name__.lower()] += 1


def _on_key(t: Tracer, idx: int, args, out) -> None:
    t.counters["validity.key.bytes"] += len(out.encode("utf-8"))


def _on_check(t: Tracer, idx: int, args, out) -> None:
    t._engines[id(args[0])] = args[0]


def _on_embed(t: Tracer, idx: int, args, out) -> None:
    from liqinfer.logic import FAnd, FTrue

    t.counters["logic.embed_env.conjuncts"] += (
        len(out.parts) if isinstance(out, FAnd) else 0 if isinstance(out, FTrue) else 1
    )


def _on_fresh(t: Tracer, idx: int, args, out) -> None:
    t.counters["inference.template_arms"] += len(out.arms)


def _on_wf(t: Tracer, idx: int, args, out) -> None:
    if out and t.parent_name(idx) == "inference.temporary_type":
        t.counters["inference.wf_kept"] += 1


def _on_normalize(t: Tracer, idx: int, args, out) -> None:
    t.counters["anf.nodes_out"] += count_nodes(out)


_HOOKS = {
    "validity.decide": _on_decide,
    "validity.key": _on_key,
    "validity.check": _on_check,
    "logic.embed_env": _on_embed,
    "inference.fresh": _on_fresh,
    "subtyping.wf_check": _on_wf,
    "anf": _on_normalize,
}
