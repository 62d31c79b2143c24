"""Fault injection campaigns (paper §5.6, extended with main-side faults).

Methodology, mirrored from the paper:

1. A profile run measures each segment's checker execution time ``t`` (and
   the main's per-segment instruction counts) without faults.
2. For each segment, the program is re-run with one injection.  Checker
   faults fire at a point drawn uniformly from ``[0, 1.1 t)`` of the
   checker's execution; main faults fire when the main's instruction
   progress through the segment crosses a uniformly drawn fraction.  The
   flipped bit lives in a random register (GPR/FPR/vector) or — beyond the
   paper — in a random *dirty page* of the target (see
   :mod:`repro.faults.sites`).  Injections that miss (the target finished
   first, or had no dirty page yet) are retried and, if they never fire,
   counted on ``CampaignResult.missed`` instead of silently vanishing.
3. The run's outcome is classified as detected / exception / timeout /
   recovered / benign (see :mod:`repro.faults.outcomes`).

Main-side injection needs recovery (or at least checker retries) enabled
for faults to be *survived*; without it they are merely detected, which is
what the recovery benchmarks use as the control arm.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.campaign import CampaignEngine, CampaignTask, DISP_COMPLETED, \
    task_rng
from repro.core import Parallaft, ParallaftConfig
from repro.faults.drawing import draw_until_fired
from repro.faults.outcomes import (
    CampaignResult,
    InjectionResult,
    Outcome,
    classify_run,
)
from repro.faults.sites import (
    FaultSite,
    KIND_MEMORY,
    KIND_REGISTER,
    TARGET_CHECKER,
    TARGET_MAIN,
)
from repro.isa.program import Program
from repro.isa.registers import all_fault_sites
from repro.sim.platform import PlatformConfig


class FaultInjector:
    """Runs injection campaigns against one program/config combination."""

    def __init__(self, program: Program,
                 config_factory: Callable[[], ParallaftConfig],
                 platform_factory: Callable[[], PlatformConfig],
                 files: Optional[Dict[str, bytes]] = None,
                 seed: int = 0, quantum: int = 2000):
        self.program = program
        self.config_factory = config_factory
        self.platform_factory = platform_factory
        self.files = files or {}
        self.seed = seed
        self.quantum = quantum
        self._sites = all_fault_sites()
        self._profile_times: Optional[List[float]] = None
        self._profile_main_instructions: Optional[List[int]] = None
        self._profile_stdout: Optional[str] = None
        self._profile_stderr: Optional[str] = None

    def _fresh_runtime(self) -> Parallaft:
        return Parallaft(self.program, config=self.config_factory(),
                         platform=self.platform_factory(), files=self.files,
                         seed=self.seed, quantum=self.quantum)

    # -- profile ----------------------------------------------------------

    def profile(self) -> Tuple[List[float], str]:
        """Fault-free run: per-segment checker times + reference output.

        Also caches per-segment main instruction counts, which main-side
        injection uses to convert a drawn progress fraction into an
        instruction threshold.
        """
        runtime = self._fresh_runtime()
        stats = runtime.run()
        if stats.error_detected:
            raise RuntimeError(
                f"profile run detected errors: {stats.errors}")
        times = []
        for segment in runtime.segments:
            checker = segment.checker
            times.append(checker.user_time if checker is not None else 0.0)
        self._profile_times = times
        self._profile_main_instructions = [
            segment.main_instructions for segment in runtime.segments]
        self._profile_stdout = stats.stdout
        self._profile_stderr = stats.stderr
        return times, stats.stdout

    # -- single injection ----------------------------------------------------

    def inject_site(self, segment_index: int, when: float, site: FaultSite,
                    reference_output: str) -> Optional[InjectionResult]:
        """Run the program once, applying ``site`` during segment
        ``segment_index``.

        ``when`` is target-relative: seconds of checker execution for
        checker faults, a fraction of the segment's recorded instructions
        for main faults.  Returns None when the injection missed (the
        paper discards and retries these; campaigns also count them).
        """
        if site.target == TARGET_MAIN \
                and self._profile_main_instructions is None:
            self.profile()
        runtime = self._fresh_runtime()
        fired = [False]

        if site.target == TARGET_MAIN:
            instr = self._profile_main_instructions
            if segment_index >= len(instr):
                return None
            threshold = when * instr[segment_index]

            def hook(proc, role: str) -> None:
                if fired[0] or role != "main":
                    return
                segment = runtime.current
                if segment is None or segment.index != segment_index:
                    return
                progress = (runtime._instr_reading(proc)
                            - segment.start_instructions)
                if progress >= threshold:
                    fired[0] = site.apply(
                        proc, runtime.dirty_tracker.dirty_vpns(proc))
        else:
            def hook(proc, role: str) -> None:
                if fired[0] or role != "checker":
                    return
                if segment_index >= len(runtime.segments):
                    return
                segment = runtime.segments[segment_index]
                if segment.replica_of(proc.pid) is None:
                    return
                if proc.user_time >= when:
                    fired[0] = site.apply(
                        proc, runtime.dirty_tracker.dirty_vpns(proc))

        runtime.quantum_hooks.append(hook)
        stats = runtime.run()
        if not fired[0]:
            return None
        # stderr is part of the sphere of replication too: a recovered run
        # must reproduce the fault-free stderr as well as stdout (None when
        # no profile ran, e.g. direct inject_site calls with an external
        # reference).
        reference_stderr = self._profile_stderr
        outcome = classify_run(stats, reference_output, reference_stderr)
        return InjectionResult(
            outcome=outcome,
            register_file=(site.register_file
                           if site.kind == KIND_REGISTER else "mem"),
            register_index=(site.register_index
                            if site.kind == KIND_REGISTER else site.page_rank),
            bit=site.bit,
            segment_index=segment_index, inject_time=when,
            detail=stats.errors[0].detail if stats.errors else "",
            target=site.target, site_kind=site.kind,
            rolled_back=stats.recovery_rollbacks > 0,
            output_matched=(stats.stdout == reference_output
                            and (reference_stderr is None
                                 or stats.stderr == reference_stderr)))

    # -- campaign ----------------------------------------------------------------

    def _draw_site(self, target: str, site_kinds: Tuple[str, ...],
                   rng) -> FaultSite:
        kind = site_kinds[0] if len(site_kinds) == 1 \
            else rng.choice(list(site_kinds))
        if kind == KIND_MEMORY:
            return FaultSite.memory(rng.randrange(1 << 16),
                                    rng.randrange(1 << 20),
                                    target=target)
        file_name, index, bit = rng.choice(self._sites)
        return FaultSite.register(file_name, index, bit, target=target)

    def run_campaign(self, injections_per_segment: int = 5,
                     max_attempts_per_injection: int = 8,
                     benchmark_name: str = "workload",
                     max_segments: Optional[int] = None,
                     target: str = TARGET_CHECKER,
                     site_kinds: Tuple[str, ...] = (KIND_REGISTER,),
                     verify_recovered_output: bool = False,
                     shards: int = 1, workers: int = 0,
                     campaign_seed: Optional[int] = None,
                     journal_path: Optional[str] = None,
                     resume: bool = False) -> CampaignResult:
        """The paper's campaign, generalized: per segment,
        ``injections_per_segment`` injections into ``target`` at uniform
        points, drawing each site from ``site_kinds``.

        ``max_segments`` samples that many segments evenly across the run
        instead of injecting into every segment (each injection costs a
        full program run, exactly as in the paper's methodology).
        ``verify_recovered_output`` asserts that every RECOVERED run's
        end-of-run stdout equals the fault-free reference — the recovery
        campaign's correctness oracle, applied when the engine's records
        are merged so resumed fleets check journaled runs too.

        Execution routes through :class:`repro.campaign.CampaignEngine`:
        each planned injection is one engine task whose draws come from a
        splittable seed (``campaign_seed``, shard, index), so any
        injection is reproducible in isolation and the merged result of a
        sharded fleet (``workers > 0``) is byte-identical to the serial
        run of the same plan.  ``journal_path`` + ``resume`` continue a
        half-finished campaign, skipping journaled injections.  Tasks
        whose worker was quarantined or that exhausted their attempts are
        counted on ``CampaignResult.missed`` (the campaign still sums to
        plan).  The engine's :class:`~repro.campaign.FleetResult` is
        attached as ``campaign.fleet`` for :func:`render_fleet`.
        """
        times, reference = self.profile()
        if target == TARGET_MAIN:
            weights = self._profile_main_instructions
        else:
            weights = times
        indices = [i for i, w in enumerate(weights) if w > 0]
        if max_segments is not None and len(indices) > max_segments:
            stride = len(indices) / max_segments
            indices = [indices[int(i * stride)] for i in range(max_segments)]
        payloads = [{"segment_index": segment_index, "shot": shot}
                    for segment_index in indices
                    for shot in range(injections_per_segment)]
        site_kinds = tuple(site_kinds)

        def run_task(task: CampaignTask) -> Dict:
            segment_index = task.payload["segment_index"]
            t_profile = times[segment_index]
            rng = task_rng(task.seed)

            def draw() -> Tuple[FaultSite, float]:
                site = self._draw_site(target, site_kinds, rng)
                if target == TARGET_MAIN:
                    # Stay clear of the boundary so the flip lands
                    # inside the recorded segment despite counter
                    # overcount noise.
                    when = rng.uniform(0.0, 0.95)
                else:
                    when = rng.uniform(0, 1.1 * t_profile)
                return site, when

            result = draw_until_fired(
                lambda: draw(),
                lambda drawn: self.inject_site(segment_index, drawn[1],
                                               drawn[0], reference),
                max_attempts_per_injection)
            if result is None:
                # The paper discards these; counting them keeps the
                # campaign report summing to what was planned.
                return {"missed": True}
            return {"injection": result.to_dict()}

        engine = CampaignEngine(
            run_task, payloads,
            campaign_seed=(campaign_seed if campaign_seed is not None
                           else self.seed),
            shards=shards, workers=workers,
            name=f"faults:{benchmark_name}",
            fingerprint_extra={"target": target, "site_kinds": site_kinds,
                               "injections_per_segment":
                                   injections_per_segment},
            journal_path=journal_path, resume=resume)
        fleet = engine.run()

        campaign = CampaignResult(benchmark=benchmark_name)
        for record in fleet.records:
            if record.disposition != DISP_COMPLETED \
                    or record.result.get("missed"):
                campaign.missed += 1
                continue
            result = InjectionResult.from_dict(record.result["injection"])
            if (verify_recovered_output
                    and result.outcome == Outcome.RECOVERED
                    and not result.output_matched):
                raise AssertionError(
                    f"recovered run diverged from the fault-free "
                    f"reference (segment {result.segment_index})")
            campaign.injections.append(result)
        campaign.fleet = fleet
        return campaign
