"""Timing of the benchmark's operations, scaled to a reference host.

On a shared host the same pure-Python work runs faster or slower from
minute to minute.  A fixed calibration kernel, sharing no code with
the program, runs between timed phases; each phase's wall time is
scaled by reference / mean kernel time just before and after it.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext
from typing import Any, Callable, Iterator

#: Wall time of the calibration kernel on the reference host.
CALIBRATION_REF_S = 0.1


class _Node:
    __slots__ = ("key", "value", "next")

    def __init__(self, key: int, value: int, nxt: "_Node | None") -> None:
        self.key = key
        self.value = value
        self.next = nxt


def calibration_seconds() -> float:
    """Wall time of the calibration kernel: dict lookups, small
    objects and calls, about 0.1 s on the reference host."""
    start = time.perf_counter()
    for _ in range(3):
        table: dict[int, _Node] = {}
        head = None
        total = 0
        for i in range(40_000):
            head = _Node(i & 511, i, head)
            table[i & 2047] = head
            node = table.get((i * 7) & 2047)
            if node is not None:
                total += node.key ^ node.value
    return time.perf_counter() - start


class Phases:
    """Times the phases of one operation.

    ``walls`` maps a phase to its wall seconds and ``speeds`` to the
    host speed factor around it: a wall time times the factor is the
    time at the reference host's speed.  Given a ``samples`` list, each
    phase runs between two calibration kernels (the one before is the
    previous phase's one after, if there was one) whose times are
    appended to it, and the factor is reference / their mean; without
    one, the factor is 1.  ``quiet()`` wraps an operation's checks.
    """

    def __init__(
        self, samples: list[float] | None = None,
        quiet: Callable[[], Any] = nullcontext,
    ) -> None:
        self.walls: dict[str, float] = {}
        self.speeds: dict[str, float] = {}
        self._samples = samples
        self._quiet = quiet

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        samples = self._samples
        if samples is not None and not samples:
            samples.append(calibration_seconds())
        start = time.perf_counter()
        try:
            yield
        finally:
            self.walls[name] = time.perf_counter() - start
            self.speeds[name] = 1.0
            if samples is not None:
                samples.append(calibration_seconds())
                self.speeds[name] = (
                    2 * CALIBRATION_REF_S / (samples[-2] + samples[-1]))

    def quiet(self):
        return self._quiet()


def calibrated(work: Callable[[], Any], samples: list[float]):
    """``work()``'s result and the host speed factor around it."""
    phases = Phases(samples)
    with phases.phase("work"):
        result = work()
    return result, phases.speeds["work"]
