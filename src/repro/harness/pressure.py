"""Memory-pressure degradation campaign (``repro.core.pressure``).

Sweeps each workload across a ladder of frame-pool budgets, from
unbounded down past the point of OOM, and records how gracefully the
runtime degrades: wall-time overhead versus the unbounded protected run,
peak resident bytes, every ladder counter, and whether the committed
output stayed byte-identical.  Optionally re-runs the paper's fault
campaign at each surviving budget to show that degradation never costs
detection coverage.

Budgets are expressed the way capacity planning would express them: the
workload's *unprotected* footprint plus a fraction of the *protection
overhead* (the extra frames checkpoints and checkers pin).  A fraction
above 1.0 is a comfortable machine; 0 would be a machine with no room
for protection at all.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.campaign import CampaignEngine, CampaignTask, DISP_COMPLETED, \
    named_seed
from repro.core import Parallaft, ParallaftConfig
from repro.core.stats import RunStats
from repro.faults import CampaignResult, FaultInjector
from repro.harness.runner import run_native
from repro.minic import compile_source
from repro.sim import PlatformConfig, apple_m2
from repro.trace.invariants import InvariantViolation, check_runtime
from repro.workloads.registry import Benchmark

#: Default budget ladder: fractions of the protection overhead kept on
#: top of the unprotected footprint.  The smallest rung is meant to OOM.
DEFAULT_FRACTIONS: Tuple[float, ...] = (1.5, 0.8, 0.5, 0.25)


@dataclass
class PressureRunResult:
    """One workload at one budget."""

    budget_bytes: Optional[int]       # None = unbounded reference
    overhead_fraction: Optional[float]  # the ladder fraction (None = unb.)
    wall_time: float
    overhead_pct: float               # vs the unbounded protected run
    peak_resident_bytes: float
    stalls: int
    sheds: int
    evictions: int
    adaptations: int
    checker_ooms: int
    oom_kills: int
    oom: bool                         # the run ended as an OOM exit
    output_matched: bool              # stdout byte-identical to reference
    segments_checked: int
    error_kinds: List[str] = field(default_factory=list)
    invariant_violations: List[InvariantViolation] = field(
        default_factory=list)
    campaign: Optional[CampaignResult] = None

    @property
    def survived(self) -> bool:
        return not self.oom and not self.error_kinds

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable form for campaign journals.  Invariant
        violations keep their invariant name and message; the triggering
        :class:`~repro.trace.TraceEvent` does not cross the process
        boundary (it holds live runtime references)."""
        return {
            "budget_bytes": self.budget_bytes,
            "overhead_fraction": self.overhead_fraction,
            "wall_time": self.wall_time,
            "overhead_pct": self.overhead_pct,
            "peak_resident_bytes": self.peak_resident_bytes,
            "stalls": self.stalls, "sheds": self.sheds,
            "evictions": self.evictions, "adaptations": self.adaptations,
            "checker_ooms": self.checker_ooms,
            "oom_kills": self.oom_kills, "oom": self.oom,
            "output_matched": self.output_matched,
            "segments_checked": self.segments_checked,
            "error_kinds": list(self.error_kinds),
            "invariant_violations": [
                {"invariant": v.invariant, "message": v.message}
                for v in self.invariant_violations],
            "campaign": (self.campaign.to_dict()
                         if self.campaign is not None else None),
        }

    @classmethod
    def from_dict(cls, doc: Dict[str, object]) -> "PressureRunResult":
        doc = dict(doc)
        doc["invariant_violations"] = [
            InvariantViolation(invariant=v["invariant"],
                               message=v["message"])
            for v in doc["invariant_violations"]]
        campaign = doc["campaign"]
        doc["campaign"] = (CampaignResult.from_dict(campaign)
                           if campaign is not None else None)
        return cls(**doc)


@dataclass
class PressureSweep:
    """One workload's full budget ladder."""

    benchmark: str
    baseline_peak_bytes: int          # unprotected pool high-water mark
    unbounded_peak_bytes: float       # unbounded *protected* high-water
    runs: List[PressureRunResult] = field(default_factory=list)
    #: The engine's :class:`repro.campaign.FleetResult` when the sweep
    #: came out of :func:`run_pressure_campaign`; not serialized.
    fleet: Optional[object] = field(default=None, compare=False,
                                    repr=False)

    @property
    def overhead_monotone(self) -> bool:
        """Overhead must not decrease as the budget shrinks (within a
        small scheduling tolerance) across the surviving rungs."""
        walls = [r.wall_time for r in self.runs if r.survived]
        return all(b >= a * 0.995 for a, b in zip(walls, walls[1:]))

    def to_dict(self) -> Dict[str, object]:
        return {"benchmark": self.benchmark,
                "baseline_peak_bytes": self.baseline_peak_bytes,
                "unbounded_peak_bytes": self.unbounded_peak_bytes,
                "runs": [r.to_dict() for r in self.runs]}

    @classmethod
    def from_dict(cls, doc: Dict[str, object]) -> "PressureSweep":
        return cls(benchmark=doc["benchmark"],
                   baseline_peak_bytes=doc["baseline_peak_bytes"],
                   unbounded_peak_bytes=doc["unbounded_peak_bytes"],
                   runs=[PressureRunResult.from_dict(r)
                         for r in doc["runs"]])


def _protected_run(bench: Benchmark, config: ParallaftConfig,
                   platform: PlatformConfig, scale: int, seed: int,
                   quantum: int) -> Tuple[RunStats, List[InvariantViolation]]:
    source, files = bench.build(scale, seed)
    runtime = Parallaft(compile_source(source, name=bench.name),
                        config=config, platform=platform, files=files,
                        seed=seed, quantum=quantum)
    stats = runtime.run()
    return stats, check_runtime(runtime)


def _mini_campaign(bench: Benchmark, budget: int,
                   platform_factory, scale: int, seed: int, quantum: int,
                   injections_per_segment: int,
                   max_segments: int,
                   mode: str = "parallaft") -> CampaignResult:
    """The paper's checker-side campaign, replayed under this budget."""
    from repro.modes import get_mode
    detection = get_mode(mode)
    source, files = bench.build(scale, seed)
    injector = FaultInjector(
        compile_source(source, name=bench.name),
        config_factory=lambda: detection.make_config(
            mem_budget_bytes=budget),
        platform_factory=platform_factory,
        files=files, seed=seed, quantum=quantum)
    return injector.run_campaign(
        injections_per_segment=injections_per_segment,
        benchmark_name=f"{bench.name}@{budget}",
        max_segments=max_segments)


def run_pressure_sweep(bench: Benchmark,
                       fractions: Sequence[float] = DEFAULT_FRACTIONS,
                       platform: Optional[PlatformConfig] = None,
                       scale: int = 1, seed: int = 1, quantum: int = 2000,
                       injections_per_segment: int = 0,
                       max_campaign_segments: int = 3,
                       mode: str = "parallaft") -> PressureSweep:
    """Sweep one workload down the budget ladder.

    ``injections_per_segment > 0`` additionally runs a fault campaign at
    every budget whose fault-free run survived, proving the degradation
    ladder does not open detection gaps.  ``mode`` picks the detection
    mode every rung runs under (registry-resolved, so an unknown name is
    a typed error rather than a silent parallaft run).
    """
    from repro.modes import get_mode
    detection = get_mode(mode)
    platform = platform or apple_m2()
    # The unprotected run's pool high-water mark is the workload's own
    # footprint (image + working set), the floor any budget must clear.
    source, files = bench.build(scale, seed)
    base = run_native(compile_source(source, name=bench.name), platform,
                      files, seed=seed, quantum=quantum
                      ).kernel.pool.peak_resident_bytes

    unbounded, violations = _protected_run(
        bench, detection.make_config(mem_budget_bytes=None), platform,
        scale, seed, quantum)
    if unbounded.error_detected or unbounded.exit_code != 0:
        raise RuntimeError(f"{bench.name} unbounded reference failed: "
                           f"{unbounded.errors} exit={unbounded.exit_code}")
    reference_stdout = unbounded.stdout
    peak = unbounded.peak_resident_bytes

    sweep = PressureSweep(benchmark=bench.name, baseline_peak_bytes=base,
                          unbounded_peak_bytes=peak)
    sweep.runs.append(_to_result(unbounded, None, None, unbounded,
                                 reference_stdout, violations))

    for fraction in fractions:
        budget = int(base + fraction * (peak - base))
        config = detection.make_config(mem_budget_bytes=budget)
        stats, violations = _protected_run(
            bench, config, platform, scale, seed, quantum)
        result = _to_result(stats, budget, fraction, unbounded,
                            reference_stdout, violations)
        if injections_per_segment > 0 and result.survived:
            result.campaign = _mini_campaign(
                bench, budget, lambda: platform, scale, seed, quantum,
                injections_per_segment, max_campaign_segments, mode=mode)
        sweep.runs.append(result)
    return sweep


def _to_result(stats: RunStats, budget: Optional[int],
               fraction: Optional[float], unbounded: RunStats,
               reference_stdout: str,
               violations: List[InvariantViolation]) -> PressureRunResult:
    overhead = (stats.all_wall_time / unbounded.all_wall_time - 1.0) * 100.0
    return PressureRunResult(
        budget_bytes=budget,
        overhead_fraction=fraction,
        wall_time=stats.all_wall_time,
        overhead_pct=overhead,
        peak_resident_bytes=stats.peak_resident_bytes,
        stalls=stats.pressure_stalls,
        sheds=stats.pressure_sheds,
        evictions=stats.pressure_evictions,
        adaptations=stats.pressure_adaptations,
        checker_ooms=stats.checker_ooms,
        oom_kills=stats.oom_kills,
        oom=stats.oom_killed,
        output_matched=stats.stdout == reference_stdout,
        segments_checked=stats.segments_checked,
        error_kinds=[e.kind for e in stats.errors],
        invariant_violations=violations,
    )


def run_pressure_campaign(benchmarks: Sequence[Benchmark],
                          fractions: Sequence[float] = DEFAULT_FRACTIONS,
                          platform: Optional[PlatformConfig] = None,
                          scale: int = 1, seed: int = 1, quantum: int = 2000,
                          injections_per_segment: int = 0,
                          max_campaign_segments: int = 3,
                          shards: int = 1, workers: int = 0,
                          journal_path: Optional[str] = None,
                          resume: bool = False,
                          mode: str = "parallaft",
                          ) -> Dict[str, PressureSweep]:
    """Sweep every workload; returns ``{benchmark: PressureSweep}``.

    Routed through :class:`repro.campaign.CampaignEngine`, one task per
    workload.  Each workload's run seed is ``named_seed(seed, name)`` —
    keyed by the *benchmark name*, not its position in the sequence, so
    adding, dropping or reordering workloads never changes another
    workload's draws and any single sweep is reproducible in isolation.
    ``workers > 0`` sweeps workloads in parallel; ``journal_path`` +
    ``resume`` skip already-journaled sweeps.  Each returned sweep
    carries the engine's :class:`~repro.campaign.FleetResult` as
    ``sweep.fleet``.
    """
    benchmarks = list(benchmarks)
    by_name = {bench.name: bench for bench in benchmarks}
    payloads = [{"benchmark": bench.name} for bench in benchmarks]
    seeds = [named_seed(seed, bench.name) for bench in benchmarks]

    def run_task(task: CampaignTask) -> Dict[str, object]:
        bench = by_name[task.payload["benchmark"]]
        sweep = run_pressure_sweep(
            bench, fractions=fractions, platform=platform, scale=scale,
            seed=task.seed, quantum=quantum,
            injections_per_segment=injections_per_segment,
            max_campaign_segments=max_campaign_segments, mode=mode)
        return sweep.to_dict()

    engine = CampaignEngine(
        run_task, payloads, campaign_seed=seed, seeds=seeds,
        shards=shards, workers=workers, name="pressure",
        fingerprint_extra={"fractions": [float(f) for f in fractions],
                           "scale": scale,
                           "injections_per_segment":
                               injections_per_segment,
                           "benchmarks": sorted(by_name),
                           "mode": mode},
        journal_path=journal_path, resume=resume)
    fleet = engine.run()

    by_id = {t.task_id: t for t in engine.tasks}
    sweeps: Dict[str, PressureSweep] = {}
    for record in fleet.records:
        if record.disposition != DISP_COMPLETED:
            continue        # failed/quarantined sweeps are visible on fleet
        sweep = PressureSweep.from_dict(record.result)
        sweep.fleet = fleet
        sweeps[by_id[record.task_id].payload["benchmark"]] = sweep
    return sweeps
