"""Machine-speed calibration for timings taken on a shared, noisy machine.

On the 2-core virtual machine the baseline comes from, the same pass over
the same inputs took anywhere from 4.4 s to 9.0 s within two minutes, and
whole 30-second runs differed by 30-40%: other tenants take the processor.
The timed programs are pure Python on one thread, so a fixed piece of pure
Python work timed between them tracks how fast the machine runs at that
moment. Every program's wall time is scaled by `REFERENCE_S` over the
median of the calibration samples taken around it: seconds at the speed
the machine had when the reference was taken. On the baseline box the
machine's speed swung by a factor of 2 within minutes, and the ratio of a
fixed liqinfer program's time to the calibration stayed within about 10%.

The calibration code is independent of liqinfer, so a change to liqinfer
moves the scaled timings exactly as much as the raw ones. Changing
`calibration_work` or `REFERENCE_S` rescales every timing: that is a change
of the benchmark, to be measured again from both sides.
"""

from __future__ import annotations

import gc
import statistics
import time
from dataclasses import dataclass

# Median of `calibration_work` on the baseline box when it was quiet.
REFERENCE_S = 0.0028


@dataclass(frozen=True)
class _Node:
    op: str
    left: object
    right: object


def _render(n) -> str:
    if not isinstance(n, _Node):
        return str(n)
    return f"({_render(n.left)} {n.op} {_render(n.right)})"


def calibration_work() -> float:
    """Seconds taken by a fixed piece of interpreter-bound work of the kind
    liqinfer does: frozen dataclasses, isinstance dispatch, recursion,
    string building, tuple-keyed dicts and a keyed sort."""
    # The cyclic collector would otherwise charge a scan of the whole
    # benchmark heap (the corpus engine's cache, say) to the calibration.
    # Everything allocated here is freed by reference counting before it is
    # switched back on.
    gc.disable()
    try:
        return _timed_work()
    finally:
        gc.enable()


def _timed_work() -> float:
    t0 = time.perf_counter()
    for round_ in range(8):
        level: list = [_Node("v", i, round_) for i in range(64)]
        while len(level) > 1:
            level = [_Node("+" if i % 4 else "*", level[i], level[i + 1]) for i in range(0, len(level), 2)]
        text = _render(level[0])
        seen: dict[tuple, int] = {}
        for i, ch in enumerate(text):
            key = (ch, i % 17)
            seen[key] = seen.get(key, 0) + 1
        sorted(seen.items(), key=lambda kv: (kv[1], kv[0]))
    return time.perf_counter() - t0


class Speed:
    """Calibration samples of one sweep, in time order, taken before its
    first program and after every program."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self) -> int:
        """Take a sample; its index."""
        self.samples.append(calibration_work())
        return len(self.samples) - 1

    def factor_at(self, k: int) -> float:
        """The factor for a program run between samples k and k + 1: the
        median of the two and of one neighbour on each side, so that a
        single disturbed sample does not decide it."""
        return REFERENCE_S / statistics.median(self.samples[max(0, k - 1):k + 3])

    @property
    def factor(self) -> float:
        """The factor for the sweep as a whole."""
        return REFERENCE_S / statistics.median(self.samples)
