"""The three workloads, the closed measurement loop and the correctness gate.

A workload is a fixed list of *jobs*.  One job is one call into an entry
point the benchmark is allowed to drive: ``harness.runner.run_baseline``
/ ``run_protected`` for one program under one mode, or
``FaultInjector.run_campaign`` for one campaign arm.  A *pass* runs every
job once, one at a time, from this process (a closed loop with one
client).  The loop repeats passes until the time budget is spent.

The ``--seed`` value reaches the program only as generated inputs: the
kernel seed (``seed_base``) of every run and the campaign's draw seed.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from perfbench.catalogue import MODES
from perfbench.probe import SpeedProbe

#: Programs per workload (names from ``repro.workloads.registry``).
PROGRAMS: Dict[str, Tuple[str, ...]] = {
    "compute": ("sjeng", "namd", "povray"),
    "memheavy": ("mcf", "lbm", "milc"),
    "campaign": ("bzip2",),
}

#: Injections planned per segment in the two seeded Parallaft arms: with
#: 16 injections per arm, the work a seed's draws cause varies little
#: from seed to seed.
INJECTIONS_PER_SEGMENT = 8

#: The campaign's one program input (bzip2 input 1).  Seeds follow the
#: harness convention: the kernel seed of input ``i`` at ``seed_base`` is
#: ``seed_base + i``, and a campaign draws from its injector's seed.
CAMPAIGN_INPUT = 1

#: The TMR arm always replays the plan of ``seed_base`` 0 with 4
#: injections per segment, whatever ``--seed`` is.  That plan holds the
#: known TMR silent-corruption cases: 4 of its 8 fired main-target flips
#: (all in segment 0) end in a forward recovery that leaves the output
#: line twice in stdout (20 bytes where the reference has 10), while
#: Parallaft detects 7 of the same 8.  The campaign must keep showing
#: them until the defect is fixed.
TMR_ARM_SEED_BASE = 0
TMR_INJECTIONS_PER_SEGMENT = 4


@dataclass
class JobResult:
    """What one job produced, as far as the gate and the report need."""

    #: Deterministic outputs; must be identical in every pass.
    fingerprint: str
    #: Simulated wall seconds and energy (fault-free jobs only).
    sim_wall: Optional[float] = None
    sim_energy: Optional[float] = None
    #: Per-input stdout and exit code (fault-free jobs only).
    outputs: Optional[List[Tuple[str, int]]] = None
    detected: bool = False
    #: Campaign arms: outcome of each fired injection, wall-clock span of
    #: each injection attempt, planned tasks and tasks the engine failed.
    outcomes: List[str] = field(default_factory=list)
    injection_spans: List[Tuple[float, float]] = field(default_factory=list)
    tasks: int = 0
    failed_tasks: int = 0


@dataclass
class Job:
    name: str
    program: str
    mode: str
    run: Callable[[], JobResult]


@contextlib.contextmanager
def _captured_kernels() -> Iterator[list]:
    """Collect the kernels ``run_baseline`` creates: its result carries no
    stdout, and the gate compares every protected run's stdout with it."""
    from repro.kernel import Kernel

    made: list = []
    original = Kernel.__init__

    def init(self, *args, **kwargs):
        original(self, *args, **kwargs)
        made.append(self)

    Kernel.__init__ = init
    try:
        yield made
    finally:
        Kernel.__init__ = original


def _runner_job(bench, mode: str, seed: int) -> Job:
    from repro.harness.runner import run_baseline, run_protected

    def run() -> JobResult:
        if mode == "baseline":
            with _captured_kernels() as kernels:
                result = run_baseline(bench, seed_base=seed)
            if len(kernels) != len(bench.input_seeds()):
                raise RuntimeError(
                    f"baseline stdout not capturable: run_baseline made "
                    f"{len(kernels)} kernels for "
                    f"{len(bench.input_seeds())} inputs")
            # run_baseline raises on a non-zero exit, so 0 is the code.
            outputs = [(kernel.console.text(), 0) for kernel in kernels]
            detected = False
            dumps = []
        else:
            result = run_protected(bench, mode=mode, seed_base=seed)
            stats = [run.stats for run in result.inputs]
            outputs = [(s.stdout, s.exit_code) for s in stats]
            detected = any(s.error_detected for s in stats)
            dumps = [s.to_dict() for s in stats]
        fingerprint = json.dumps(
            [repr(result.wall_time), repr(result.energy_joules), outputs,
             dumps], sort_keys=True, default=repr)
        return JobResult(fingerprint=fingerprint,
                         sim_wall=result.wall_time,
                         sim_energy=result.energy_joules,
                         outputs=outputs, detected=detected)

    return Job(f"{bench.name}/{mode}", bench.name, mode, run)


def _campaign_arm(name: str, mode: str, program, files, seed_base: int,
                  scratch: Path, target: str, site_kinds: Tuple[str, ...],
                  recovery: bool, per_segment: int) -> Job:
    from repro.faults import FaultInjector
    from repro.modes import get_mode
    from repro.sim import apple_m2

    detection = get_mode(mode)
    overrides = {"enable_recovery": True} if recovery else {}

    def run() -> JobResult:
        # FaultInjector builds a fresh config for every program run (the
        # profile run first, then one per injection attempt), so the gaps
        # between these calls are the host time of each attempt.
        starts: List[float] = []

        def config_factory():
            starts.append(time.perf_counter())
            return detection.make_config(**overrides)

        injector = FaultInjector(program, config_factory=config_factory,
                                 platform_factory=apple_m2, files=files,
                                 seed=seed_base + CAMPAIGN_INPUT)
        journal = scratch / f"{name}.jsonl"
        journal.unlink(missing_ok=True)
        try:
            campaign = injector.run_campaign(
                injections_per_segment=per_segment,
                benchmark_name=name, target=target, site_kinds=site_kinds,
                verify_recovered_output=recovery,
                journal_path=str(journal), workers=0)
        finally:
            journal.unlink(missing_ok=True)
        ends = starts[2:] + [time.perf_counter()]
        fleet = getattr(campaign, "fleet", None)
        records = list(getattr(fleet, "records", []))
        fingerprint = json.dumps(
            [[i.to_dict() for i in campaign.injections], campaign.missed],
            sort_keys=True, default=repr)
        return JobResult(
            fingerprint=fingerprint,
            outcomes=[i.outcome.value for i in campaign.injections],
            injection_spans=list(zip(starts[1:], ends)),
            tasks=len(campaign.injections) + campaign.missed,
            failed_tasks=sum(1 for r in records
                             if r.disposition != "completed"))

    return Job(f"{program.name}/{name}", program.name, mode, run)


def build_jobs(workload: str, seed: int, scratch: Path) -> List[Job]:
    """The job list of one pass of ``workload`` (set-up work included:
    campaign programs are compiled here, once)."""
    from repro.workloads.registry import benchmark

    if workload not in PROGRAMS:
        raise ValueError(f"unknown workload {workload!r}; have "
                         f"{sorted(PROGRAMS)}")
    if workload != "campaign":
        return [_runner_job(benchmark(name), mode, seed)
                for name in PROGRAMS[workload] for mode in MODES]

    from repro.minic import compile_source

    # bzip2's first input alone: short enough (~0.1 s per run) that a
    # campaign of full program runs fits in one pass.
    bench = dataclasses.replace(benchmark("bzip2"), n_inputs=1)
    source, files = bench.build(1, CAMPAIGN_INPUT)
    program = compile_source(source, name=bench.name)
    jobs = [_runner_job(bench, mode, seed) for mode in MODES]
    jobs += [
        _campaign_arm("checker-reg", "parallaft", program, files, seed,
                      scratch, "checker", ("register",), recovery=False,
                      per_segment=INJECTIONS_PER_SEGMENT),
        _campaign_arm("main-reg-mem-recovery", "parallaft", program, files,
                      seed, scratch, "main", ("register", "memory"),
                      recovery=True, per_segment=INJECTIONS_PER_SEGMENT),
        _campaign_arm("tmr-main-reg", "tmr", program, files,
                      TMR_ARM_SEED_BASE, scratch, "main", ("register",),
                      recovery=False,
                      per_segment=TMR_INJECTIONS_PER_SEGMENT),
    ]
    return jobs


class Gate:
    """The correctness gate.

    * Every fault-free protected run's stdout and exit code equal those of
      the baseline run of the same program and input.
    * Fault-free runs report no detection.
    * Every job's deterministic outputs (simulated times and energy,
      ``RunStats.to_dict()``, campaign outcomes) are identical in every
      pass, traced or not.
    """

    def __init__(self) -> None:
        self._reference: Dict[str, List[Tuple[str, int]]] = {}
        self._first: Dict[str, str] = {}

    def check(self, job: Job, result: JobResult) -> List[str]:
        problems = []
        if result.outputs is not None:
            if job.mode == "baseline":
                reference = self._reference.setdefault(job.program,
                                                       result.outputs)
            else:
                reference = self._reference.get(job.program)
            if reference is None:
                problems.append("no baseline output to compare with")
            elif result.outputs != reference:
                problems.append("stdout or exit code differs from the "
                                "baseline run")
            if result.detected:
                problems.append("fault-free run reported a detection")
        first = self._first.setdefault(job.name, result.fingerprint)
        if result.fingerprint != first:
            problems.append("simulated outputs differ from the first pass")
        return problems


@dataclass
class Ledger:
    """Everything measured over the untraced passes of a run, or over its
    traced passes."""

    #: Calibrated host seconds (see :mod:`perfbench.probe`) per job,
    #: per pass and per injection attempt; ``wall_pass_seconds`` is the
    #: uncalibrated wall time of each pass.
    seconds: Dict[str, List[float]] = field(default_factory=dict)
    results: Dict[str, JobResult] = field(default_factory=dict)
    pass_seconds: List[float] = field(default_factory=list)
    wall_pass_seconds: List[float] = field(default_factory=list)
    injection_s: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)


def run_pass(jobs: List[Job], gate: Gate, ledger: Ledger,
             probe: SpeedProbe) -> float:
    """Run every job once; returns the pass's wall seconds."""
    total = wall = 0.0
    for job in jobs:
        gc.collect()
        start = time.perf_counter()
        try:
            result = job.run()
        except Exception as exc:  # noqa: BLE001  (a failed job is counted)
            ledger.attempted += 1
            ledger.failed += 1
            ledger.problems.append(f"{job.name}: {type(exc).__name__}: {exc}")
            continue
        end = time.perf_counter()
        wall += end - start
        seconds = probe.calibrated(start, end)
        total += seconds
        ledger.seconds.setdefault(job.name, []).append(seconds)
        ledger.results.setdefault(job.name, result)
        ledger.injection_s.extend(probe.calibrated(*span)
                                  for span in result.injection_spans)
        ledger.attempted += 1 + result.tasks
        ledger.failed += result.failed_tasks
        if result.failed_tasks:
            ledger.problems.append(f"{job.name}: {result.failed_tasks} "
                                   f"campaign tasks failed in the engine")
        problems = gate.check(job, result)
        if problems:
            ledger.failed += 1
            ledger.problems.extend(f"{job.name}: {p}" for p in problems)
    ledger.pass_seconds.append(total)
    ledger.wall_pass_seconds.append(wall)
    return wall
