"""Machine-speed probe: host seconds calibrated against a fixed loop.

On a shared machine the same simulator job can take twice as long from
one second to the next, because other tenants slow the core it runs on
(the benchmark was defined on a 2-vCPU VM whose pure-Python speed moved
by up to 2x over minutes).  Wall time alone then measures the neighbours
more than the simulator.

While measuring, a ``SIGALRM`` timer fires every :data:`INTERVAL_S` of
wall time and its handler times :func:`reference_loop`, a fixed piece of
pure-Python work that belongs to the benchmark, not to the program.  A
job's *calibrated* seconds are its wall seconds, minus the time the
handler itself took, scaled by ``REFERENCE_S / mean probe time`` during
the job.  On an unloaded core the probe takes about ``REFERENCE_S``, so
calibrated seconds are close to wall seconds there; on a loaded core the
probe slows down with the job and the slowdown cancels.  A change that
makes the simulator faster does not touch the probe, so it shows in full.

The handler only reads the clock and runs arithmetic, so simulated
results stay bit-identical; the correctness gate checks that every pass.
"""

from __future__ import annotations

import bisect
import signal
import time
from typing import List, Optional

#: Wall time between two probes.
INTERVAL_S = 0.01

#: Probe time on a lightly loaded core of the machine the benchmark was
#: defined on (Intel Xeon VM, 2 vCPUs, Python 3.11).  It only sets the
#: scale of calibrated seconds; both sides of a comparison use it.
REFERENCE_S = 0.0002

#: A window with fewer probes than this is widened to the latest ones.
MIN_PROBES = 10


class _Op:
    __slots__ = ("op", "a", "b")

    def __init__(self, op: int, a: int, b: int):
        self.op, self.a, self.b = op, a, b


_PROGRAM = [_Op(i % 4, i % 16, (i * 7) % 16) for i in range(256)]


def reference_loop() -> int:
    """A toy register machine: the same kind of work as the simulator's
    interpreter (attribute loads, list and dict accesses, branches), which
    tracks how a busy neighbour slows the simulator better than plain
    arithmetic does."""
    regs = [0] * 16
    memory = {}
    pc = 0
    for _ in range(1200):
        instr = _PROGRAM[pc]
        op = instr.op
        if op == 0:
            regs[instr.a] = (regs[instr.b] + pc) & 0xFFFF
        elif op == 1:
            memory[regs[instr.a] & 255] = regs[instr.b]
        elif op == 2:
            regs[instr.a] = memory.get(regs[instr.b] & 255, 0)
        else:
            regs[instr.a] ^= instr.b
        pc = (pc + 1) & 255
    return regs[0]


class SpeedProbe:
    """Install with ``with probe:``; convert intervals with
    :meth:`calibrated`.  Without any probe recorded, ``calibrated``
    returns plain wall seconds."""

    def __init__(self) -> None:
        #: Wall time at which each probe ended, and how long it took.
        self.ends: List[float] = []
        self.durations: List[float] = []
        self._previous = None

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def _sample(self, _signum, _frame) -> None:
        start = time.perf_counter()
        reference_loop()
        end = time.perf_counter()
        self.ends.append(end)
        self.durations.append(end - start)

    def calibrated(self, start: float, end: float) -> float:
        """Calibrated host seconds of the wall interval ``[start, end)``."""
        lo = bisect.bisect_left(self.ends, start)
        hi = bisect.bisect_left(self.ends, end)
        inside = self.durations[lo:hi]
        wall = end - start - sum(inside)
        window: Optional[List[float]] = inside
        if len(window) < MIN_PROBES:
            window = self.durations[max(0, hi - MIN_PROBES):hi]
        if not window:
            return wall
        return wall * REFERENCE_S * len(window) / sum(window)
