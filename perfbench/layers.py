"""Outside-in layer timing for the ``--trace 1`` run.

The tracer wraps public functions of each layer of ``repro`` (a *seam*)
from the benchmark's side, so the program itself carries no timers.  Each
wrapped call records its count, its busy time and its self time: busy time
minus the time spent in wrapped calls nested inside it.  Self times of all
seams therefore never overlap, and the part of a pass's host time that no
seam claims is the ``unattributed`` remainder.

Self time uses one running total instead of a span stack: every finished
call adds its own self time to ``Tracer.accounted``, so a call's nested
time is exactly how far that total moved while it ran.

A seam that a refactor removed or renamed is reported as absent; a layer
whose seams are all absent is absent.  The untraced run never installs the
wrappers.
"""

from __future__ import annotations

import importlib
import inspect
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple


@dataclass(frozen=True)
class Seam:
    """One wrapped function: ``layer`` is the report group, ``target`` is
    ``module:Qualified.name`` and ``count_as`` names the per-seam count."""

    layer: str
    target: str
    count_as: str
    #: ``(record, args, result)`` hook run after a successful call.
    on_result: Optional[Callable[["SeamRecord", tuple, object], None]] = None


@dataclass
class SeamRecord:
    calls: int = 0
    extra: Dict[str, float] = field(default_factory=dict)

    def add(self, key: str, amount: float) -> None:
        self.extra[key] = self.extra.get(key, 0) + amount


@dataclass
class LayerRecord:
    calls: int = 0
    busy_ns: int = 0
    self_ns: int = 0
    depth: int = 0
    present: bool = False


def _count_instructions(record: SeamRecord, _args, stop) -> None:
    record.add("instructions", getattr(stop, "executed", 0))


def _count_hashed(record: SeamRecord, args, _result) -> None:
    record.add("bytes", len(args[1]) if len(args) > 1 else 0)


def _count_fired(record: SeamRecord, _args, injection) -> None:
    if injection is None:
        return
    record.add("fired", 1)
    outcome = getattr(getattr(injection, "outcome", None), "value", None)
    if outcome == "sdc":
        record.add("sdc", 1)


#: Every seam the traced run wraps, grouped by layer.  Names follow the
#: package layout of ``src/repro``.
SEAMS: Tuple[Seam, ...] = (
    Seam("cpu", "repro.cpu.interpreter:run", "calls", _count_instructions),
    Seam("mem", "repro.mem.address_space:AddressSpace.load_word", "loads"),
    Seam("mem", "repro.mem.address_space:AddressSpace.store_word", "stores"),
    Seam("mem", "repro.mem.address_space:AddressSpace.read_bytes",
         "block_reads"),
    Seam("mem", "repro.mem.address_space:AddressSpace.write_bytes",
         "block_writes"),
    Seam("hashing", "repro.hashing.xxh3:Xxh3_64.update", "calls",
         _count_hashed),
    Seam("comparator", "repro.core.comparator:StateComparator.compare",
         "compares"),
    Seam("comparator", "repro.core.comparator:StateComparator.vote", "votes"),
    Seam("kernel", "repro.kernel.kernel:Kernel.fork", "forks"),
    Seam("kernel", "repro.kernel.kernel:Kernel.handle_syscall", "syscalls"),
    Seam("kernel", "repro.kernel.kernel:Kernel.rollback_to_checkpoint",
         "rollbacks"),
    Seam("kernel", "repro.kernel.kernel:Kernel.promote_process",
         "promotions"),
    Seam("sched", "repro.core.checker_sched:CheckerScheduler.submit",
         "submits"),
    Seam("sched", "repro.core.checker_sched:CheckerScheduler.on_checker_done",
         "checkers_done"),
    Seam("executor", "repro.sim.executor:Executor.step", "steps"),
    Seam("trace", "repro.trace.buffer:TraceBuffer.emit", "events"),
    Seam("metrics", "repro.metrics.phases:PhaseProfiler.charge", "charges"),
    Seam("faults", "repro.faults.injector:FaultInjector.inject_site",
         "attempts", _count_fired),
    Seam("journal", "repro.core.journal:JournalWriter.append", "appends"),
)

#: Report order of the timed layers.
LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(s.layer for s in SEAMS))

#: Where the traced run collects each protected run's ``RunStats``.
RUN_STATS_SEAM = Seam("runtime", "repro.core.runtime:Parallaft.run", "runs")


def _resolve(target: str):
    """``(owner, attribute, raw attribute)`` or ``None`` if absent."""
    module_name, _, qualname = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *path, attribute = qualname.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    try:
        raw = inspect.getattr_static(owner, attribute)
    except AttributeError:
        return None
    return (owner, attribute, raw) if inspect.isfunction(raw) else None


class Tracer:
    """Install with ``with Tracer() as tracer:``; read the records after."""

    def __init__(self, seams: Tuple[Seam, ...] = SEAMS,
                 run_stats_seam: Optional[Seam] = RUN_STATS_SEAM):
        self.seams = seams
        self.run_stats_seam = run_stats_seam
        self.accounted = 0
        self.records: Dict[Seam, SeamRecord] = {}
        self.layers: Dict[str, LayerRecord] = {
            s.layer: LayerRecord() for s in seams}
        #: ``RunStats`` of every protected run while installed.
        self.run_stats: List[object] = []
        self._restore: List[Tuple[object, str, object]] = []

    # -- install / uninstall ----------------------------------------------

    def __enter__(self) -> "Tracer":
        for seam in self.seams:
            self._install(seam, self._timed_wrapper)
        if self.run_stats_seam is not None:
            self._install(self.run_stats_seam, self._capture_wrapper)
        return self

    def __exit__(self, *exc) -> None:
        while self._restore:
            owner, attribute, raw = self._restore.pop()
            setattr(owner, attribute, raw)

    def _install(self, seam: Seam, make_wrapper) -> None:
        resolved = _resolve(seam.target)
        if resolved is None:
            return
        owner, attribute, raw = resolved
        self._restore.append((owner, attribute, raw))
        setattr(owner, attribute, make_wrapper(seam, raw))
        if seam.layer in self.layers:
            self.layers[seam.layer].present = True

    def _timed_wrapper(self, seam: Seam, function):
        record = self.records.setdefault(seam, SeamRecord())
        layer = self.layers[seam.layer]
        on_result = seam.on_result
        clock = time.perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            start = clock()
            before = tracer.accounted
            layer.depth += 1
            try:
                result = function(*args, **kwargs)
            finally:
                layer.depth -= 1
                elapsed = clock() - start
                own = elapsed - (tracer.accounted - before)
                tracer.accounted += own
                record.calls += 1
                layer.calls += 1
                layer.self_ns += own
                if layer.depth == 0:
                    layer.busy_ns += elapsed
            if on_result is not None:
                on_result(record, args, result)
            return result

        return traced

    def _capture_wrapper(self, _seam: Seam, function):
        collected = self.run_stats

        def captured(*args, **kwargs):
            stats = function(*args, **kwargs)
            collected.append(stats)
            return stats

        return captured

    # -- reading ---------------------------------------------------------

    def absent_layers(self) -> List[str]:
        return [name for name in LAYERS
                if name in self.layers and not self.layers[name].present]

    def seam_total(self, layer: str, key: str) -> float:
        """Sum of one per-seam count (``count_as`` names count calls)
        over a layer's seams."""
        total = 0.0
        for seam, record in self.records.items():
            if seam.layer != layer:
                continue
            if seam.count_as == key:
                total += record.calls
            total += record.extra.get(key, 0)
        return total
