"""Detection-mode layer tests: registry, TMR voting, forward recovery,
the MEEK split knob and the new trace invariants.

The mode registry (`repro.modes`) replaces the string-compared dispatch
that used to be scattered across the runner/runtime/config: an unknown
mode is now a typed `ConfigError` naming the registry, and each mode's
segment policy (replica count, boundary check, recovery) lives on its
`DetectionMode` object.
"""

import dataclasses

import pytest

from repro.common.errors import ConfigError, RuntimeConfigError
from repro.core import Parallaft, ParallaftConfig, RuntimeMode
from repro.core.comparator import StateComparator
from repro.faults import FaultInjector
from repro.faults.outcomes import Outcome, classify_run
from repro.faults.sites import FaultSite
from repro.minic import compile_source
from repro.modes import (
    DetectionMode,
    ParallaftMode,
    RaftMode,
    TmrMode,
    get_mode,
    register_mode,
    registered_modes,
)
from repro.sim import apple_m2
from repro.trace import events as tev
from repro.trace.invariants import (
    InvariantChecker,
    assert_runtime_ok,
    check_runtime,
)
from repro.workloads import synthetic_source
from repro.workloads.registry import benchmark

SOURCE = """
global data[512];
func main() {
    var i; var round; var acc;
    acc = 0;
    for (round = 0; round < 20; round = round + 1) {
        for (i = 0; i < 512; i = i + 1) {
            data[i] = data[i] * 3 + round + i;
            acc = acc + data[i];
        }
        print_int(acc % 1000003);
    }
}
"""


def tmr_config(**overrides):
    config = ParallaftConfig.tmr()
    config.slicing_period = 40_000_000
    for key, value in overrides.items():
        setattr(config, key, value)
    return config


def run_mode(config, source=SOURCE, seed=0, hook=None):
    runtime = Parallaft(compile_source(source), config=config,
                        platform=apple_m2(), seed=seed)
    if hook is not None:
        runtime.quantum_hooks.append(hook(runtime))
    stats = runtime.run()
    return runtime, stats


def reference_stdout(source=SOURCE, seed=0):
    config = ParallaftConfig()
    config.slicing_period = 40_000_000
    _, stats = run_mode(config, source=source, seed=seed)
    assert not stats.error_detected
    return stats.stdout


def main_fault_hook(segment_index, site, after_instructions=500):
    """Flip ``site`` in the main once it is ``after_instructions`` deep
    into segment ``segment_index``."""
    def make(runtime):
        fired = [False]

        def hook(proc, role):
            if fired[0] or role != "main":
                return
            segment = runtime.current
            if segment is None or segment.index != segment_index:
                return
            progress = (runtime._instr_reading(proc)
                        - segment.start_instructions)
            if progress >= after_instructions:
                fired[0] = site.apply(
                    proc, runtime.dirty_tracker.dirty_vpns(proc))
        return hook
    return make


def replica_fault_hook(segment_index, site, replica_slot=0):
    """Flip ``site`` in one checker replica of segment
    ``segment_index`` (``replica_slot`` picks which one)."""
    def make(runtime):
        fired = [False]

        def hook(proc, role):
            if fired[0] or role != "checker":
                return
            if segment_index >= len(runtime.segments):
                return
            segment = runtime.segments[segment_index]
            replica = segment.replica_of(proc.pid)
            if replica is None:
                return
            if segment.replicas.index(replica) != replica_slot:
                return
            fired[0] = site.apply(
                proc, runtime.dirty_tracker.dirty_vpns(proc))
        return hook
    return make


class TestRegistry:
    def test_builtin_modes_registered(self):
        assert registered_modes() == ["parallaft", "raft", "tmr"]

    def test_get_mode_returns_singletons(self):
        assert get_mode("tmr") is get_mode("tmr")
        assert isinstance(get_mode("parallaft"), ParallaftMode)
        assert isinstance(get_mode("raft"), RaftMode)
        assert isinstance(get_mode("tmr"), TmrMode)

    def test_unknown_mode_is_typed_error_listing_registry(self):
        """Regression: unknown mode strings used to fall through to a
        silent Parallaft run; now they raise naming every valid mode."""
        with pytest.raises(ConfigError) as err:
            get_mode("trm")  # typo'd tmr
        message = str(err.value)
        for name in registered_modes():
            assert name in message

    def test_run_protected_rejects_unknown_mode(self):
        from repro.harness.runner import run_protected
        from repro.workloads.registry import benchmark
        with pytest.raises(ConfigError):
            run_protected(benchmark("mcf"), mode="parallaftt")

    def test_make_config_shapes(self):
        assert get_mode("parallaft").make_config().mode \
            == RuntimeMode.PARALLAFT
        raft = get_mode("raft").make_config()
        assert raft.mode == RuntimeMode.RAFT
        assert get_mode("raft").slices is False
        assert raft.slicing_period == float("inf")
        tmr = get_mode("tmr").make_config()
        assert tmr.mode == RuntimeMode.TMR
        assert tmr.compare_state is True

    def test_make_config_rejects_unknown_knob(self):
        with pytest.raises(ConfigError):
            get_mode("tmr").make_config(meek_splitt=0.5)

    def test_make_config_applies_overrides(self):
        config = get_mode("tmr").make_config(meek_split=0.25,
                                             mem_budget_bytes=1 << 20)
        assert config.meek_split == 0.25
        assert config.mem_budget_bytes == 1 << 20

    def test_replica_counts(self):
        assert get_mode("parallaft").replica_count == 1
        assert get_mode("raft").replica_count == 1
        assert get_mode("tmr").replica_count == 2

    def test_custom_mode_registration(self):
        @register_mode
        class EagerMode(ParallaftMode):
            name = "test-eager"
            summary = "test-only clone"
        try:
            assert get_mode("test-eager") is not get_mode("parallaft")
            assert "test-eager" in registered_modes()
        finally:
            from repro.modes import base
            base._REGISTRY.pop("test-eager")

    def test_tmr_config_forbids_rollback_recovery(self):
        config = ParallaftConfig.tmr()
        config.enable_recovery = True
        with pytest.raises(RuntimeConfigError):
            config.validate()


class TestTmrFaultFree:
    def test_votes_every_boundary_and_output_matches(self):
        reference = reference_stdout()
        runtime, stats = run_mode(tmr_config())
        assert not stats.error_detected
        assert stats.exit_code == 0
        assert stats.stdout == reference
        assert stats.segments_checked >= 2
        assert stats.tmr_votes == stats.segments_checked
        assert stats.tmr_outvoted == 0
        assert stats.tmr_forward_recoveries == 0
        assert_runtime_ok(runtime)

    def test_two_replicas_per_segment(self):
        runtime, stats = run_mode(tmr_config())
        for segment in runtime.segments:
            assert len(segment.replicas) <= 2
        votes = [e for e in runtime.trace if e.kind == tev.VOTE]
        assert votes and all(e.payload["quorum"] == 3 for e in votes)

    def test_vote_cycles_attributed_to_vote_phase(self):
        from repro.metrics import VOTE
        _, stats = run_mode(tmr_config())
        assert stats.phase_profile.cycles.get(VOTE, 0.0) > 0


class TestTmrForwardRecovery:
    def test_main_fault_survived_without_rollback(self):
        """The acceptance headline: a single-replica fault in the *main*
        is outvoted 2:1 and survived by promoting the winning replica —
        zero rollbacks, byte-identical output."""
        reference = reference_stdout()
        site = FaultSite.register("gpr", 5, 12, target="main")
        runtime, stats = run_mode(tmr_config(),
                                  hook=main_fault_hook(2, site))
        assert stats.exit_code == 0
        assert stats.stdout == reference
        assert stats.tmr_forward_recoveries == 1
        assert stats.recovery_rollbacks == 0
        assert classify_run(stats, reference) == Outcome.RECOVERED
        kinds = [e.kind for e in runtime.trace]
        assert tev.FORWARD_RECOVERY in kinds
        assert tev.ROLLBACK not in kinds
        assert_runtime_ok(runtime)

    def test_forward_recovery_truncates_stale_output(self):
        """Output the outvoted main printed past the voted boundary is
        discarded; the adopted timeline reprints it correctly."""
        reference = reference_stdout()
        site = FaultSite.register("gpr", 6, 20, target="main")
        runtime, stats = run_mode(tmr_config(),
                                  hook=main_fault_hook(1, site))
        if stats.tmr_forward_recoveries == 0:
            pytest.skip("fault was benign under this seed")
        assert stats.stdout == reference
        assert_runtime_ok(runtime)

    def test_forward_recovery_budget_fail_stops(self):
        """With the budget at zero, an outvoted main must fail-stop with
        the typed vote_inconclusive error instead of promoting."""
        site = FaultSite.register("gpr", 5, 12, target="main")
        runtime, stats = run_mode(tmr_config(max_forward_recoveries=0),
                                  hook=main_fault_hook(2, site))
        assert stats.error_detected
        assert stats.errors[0].kind == "vote_inconclusive"
        assert stats.tmr_forward_recoveries == 0
        assert_runtime_ok(runtime)


def bzip2_input1():
    """bzip2's first input: its TMR main-register campaign holds
    forward recoveries that land after a later segment verified."""
    bench = dataclasses.replace(benchmark("bzip2"), n_inputs=1)
    source, files = bench.build(1, 1)
    return compile_source(source, name=bench.name), files


class _CapturingInjector(FaultInjector):
    """Keeps the runtime of the last injection run for trace checks."""

    def _fresh_runtime(self):
        self.last_runtime = super()._fresh_runtime()
        return self.last_runtime


class TestTmrRewind:
    """Forward recovery rewinds the whole timeline past the voted
    boundary, verified segments included: a later segment that verified
    before the outvote must not commit its output a second time."""

    def test_forward_recovery_discards_verified_later_segment(self):
        program, files = bzip2_input1()
        injector = _CapturingInjector(
            program, config_factory=ParallaftConfig.tmr,
            platform_factory=apple_m2, files=files, seed=1)
        _, reference = injector.profile()
        result = injector.inject_site(
            0, 0.12393219971135315,
            FaultSite.register("vec", 1, 161, target="main"), reference)
        runtime = injector.last_runtime
        stats = runtime.stats
        assert stats.stdout == reference
        assert result.outcome == Outcome.RECOVERED
        assert stats.tmr_forward_recoveries == 1
        events = list(runtime.trace)
        at = next(i for i, e in enumerate(events)
                  if e.kind == tev.FORWARD_RECOVERY)
        assert events[at].segment == 0
        # Segment 1 had already verified when segment 0's vote ran.
        assert any(e.kind == tev.SEGMENT_CHECKED and e.segment == 1
                   for e in events[:at])
        after = events[at:]
        assert any(e.kind == tev.SEGMENT_ROLLED_BACK and e.segment == 1
                   for e in after)
        started = {e.segment for e in after if e.kind == tev.SEGMENT_START}
        checked = {e.segment for e in after if e.kind == tev.SEGMENT_CHECKED}
        assert started & checked, "no fresh segment was started and checked"
        assert_runtime_ok(runtime)

    def test_main_register_campaign_has_no_sdc(self):
        program, files = bzip2_input1()
        injector = FaultInjector(
            program, config_factory=ParallaftConfig.tmr,
            platform_factory=apple_m2, files=files, seed=1)
        campaign = injector.run_campaign(
            injections_per_segment=4, benchmark_name="bzip2",
            target="main", site_kinds=("register",))
        assert campaign.injections
        assert campaign.count(Outcome.SDC) == 0
        assert not any(i.rolled_back for i in campaign.injections)


class TestTmrOutvote:
    def test_replica_fault_outvoted_and_run_survives(self):
        reference = reference_stdout()
        site = FaultSite.register("gpr", 5, 12, target="checker")
        runtime, stats = run_mode(tmr_config(),
                                  hook=replica_fault_hook(2, site))
        assert stats.exit_code == 0
        assert stats.stdout == reference
        assert stats.recovery_rollbacks == 0
        assert stats.tmr_forward_recoveries == 0
        if stats.tmr_outvoted:
            assert classify_run(stats, reference) == Outcome.RECOVERED
            assert any(e.kind == tev.OUTVOTED for e in runtime.trace)
        assert_runtime_ok(runtime)

    def test_second_replica_fault_outvoted_too(self):
        reference = reference_stdout()
        site = FaultSite.register("gpr", 7, 9, target="checker")
        runtime, stats = run_mode(
            tmr_config(), hook=replica_fault_hook(3, site, replica_slot=1))
        assert stats.exit_code == 0
        assert stats.stdout == reference
        assert stats.recovery_rollbacks == 0
        assert_runtime_ok(runtime)


class TestVoteUnit:
    """StateComparator.vote in isolation (no runtime)."""

    def _procs(self, n=3):
        from helpers import make_machine
        from repro.core.config import ComparisonStrategy
        kernel, _ = make_machine(aslr=False)
        prog = compile_source("func main() { print_int(1); }")
        procs = [kernel.spawn(prog, name=f"p{i}") for i in range(n)]
        comparator = StateComparator(ComparisonStrategy.DIRTY_HASH,
                                     page_size=kernel.page_size)
        return comparator, procs

    def test_unanimous_quorum_three(self):
        comparator, (a, b, c) = self._procs()
        vote = comparator.vote([b, c], a, dirty_vpns=set())
        assert vote.quorum == 3
        assert not vote.main_outvoted
        assert vote.loser_replicas == []

    def test_main_outvoted_when_replicas_agree(self):
        comparator, (a, b, c) = self._procs()
        a.cpu.regs.gprs[5] ^= 1 << 12    # corrupt the "main" checkpoint
        vote = comparator.vote([b, c], a, dirty_vpns=set())
        assert vote.quorum == 2
        assert vote.main_outvoted
        assert vote.winner_index == 0

    def test_one_replica_outvoted(self):
        comparator, (a, b, c) = self._procs()
        c.cpu.regs.gprs[5] ^= 1 << 12
        vote = comparator.vote([b, c], a, dirty_vpns=set())
        assert vote.quorum == 2
        assert not vote.main_outvoted
        assert vote.loser_replicas == [1]

    def test_all_disagree_no_quorum(self):
        comparator, (a, b, c) = self._procs()
        a.cpu.regs.gprs[5] ^= 1 << 12
        b.cpu.regs.gprs[6] ^= 1 << 3
        c.cpu.regs.gprs[7] ^= 1 << 7
        vote = comparator.vote([b, c], a, dirty_vpns=set())
        assert vote.quorum == 1
        assert not vote.main_outvoted


class TestMeekSplit:
    def test_early_checks_taken_per_replica(self):
        _, stats = run_mode(tmr_config(meek_split=0.5))
        assert stats.exit_code == 0
        # Two replicas per checked segment, each takes one early check.
        assert stats.meek_early_checks > 0
        assert stats.meek_early_checks >= stats.segments_checked

    def test_split_zero_means_no_early_checks(self):
        _, stats = run_mode(tmr_config(meek_split=0.0))
        assert stats.meek_early_checks == 0

    def test_split_still_detects_checker_fault(self):
        """The combined verdict (early AND boundary) must not lose
        detections however the work is divided."""
        reference = reference_stdout()
        site = FaultSite.register("gpr", 5, 12, target="checker")
        for split in (0.25, 1.0):
            config = ParallaftConfig()
            config.slicing_period = 40_000_000
            config.meek_split = split
            runtime, stats = run_mode(config,
                                      hook=replica_fault_hook(2, site))
            assert_runtime_ok(runtime)
            # The flip either perturbed replayed state (detected) or was
            # masked before any compare; it must never corrupt output.
            if stats.error_detected:
                assert stats.errors[0].kind in ("state_mismatch",
                                                "syscall_divergence")
            else:
                assert stats.stdout == reference

    def test_early_mismatch_counts_detection(self):
        site = FaultSite.register("gpr", 5, 12, target="checker")
        config = ParallaftConfig()
        config.slicing_period = 40_000_000
        config.meek_split = 1.0    # the early stage covers everything
        runtime, stats = run_mode(config, hook=replica_fault_hook(2, site))
        if stats.error_detected:
            assert stats.meek_early_detections >= 1

    def test_meek_split_validated(self):
        config = ParallaftConfig()
        config.meek_split = 1.5
        with pytest.raises(RuntimeConfigError):
            config.validate()


class TestNewInvariants:
    def _event(self, kind, **kw):
        payload = {k: v for k, v in kw.items()
                   if k not in ("pid", "segment")}
        return tev.TraceEvent(ts=0.0, kind=kind,
                              pid=kw.get("pid"),
                              segment=kw.get("segment"),
                              payload=payload)

    def test_quorum1_vote_without_error_violates(self):
        events = [self._event(tev.VOTE, segment=0, quorum=1,
                              main_outvoted=False)]
        violations = InvariantChecker().check(events)
        assert any(v.invariant == "vote_quorum" for v in violations)

    def test_quorum1_vote_with_error_ok(self):
        events = [
            self._event(tev.VOTE, segment=0, quorum=1,
                        main_outvoted=False),
            self._event(tev.ERROR, segment=0,
                        error="vote_inconclusive"),
        ]
        assert not InvariantChecker().check(events)

    def test_quorum3_vote_ok(self):
        events = [self._event(tev.VOTE, segment=0, quorum=3,
                              main_outvoted=False)]
        assert not InvariantChecker().check(events)

    def test_rollback_after_forward_recovery_violates(self):
        events = [
            self._event(tev.FORWARD_RECOVERY, segment=1, winner_pid=7),
            self._event(tev.ROLLBACK, segment=2, pid=1),
        ]
        violations = InvariantChecker().check(events)
        assert any(v.invariant == "forward_recovery" for v in violations)

    def test_rollback_before_forward_recovery_ok(self):
        events = [
            self._event(tev.ROLLBACK, segment=0, pid=1),
            self._event(tev.FORWARD_RECOVERY, segment=1, winner_pid=7),
        ]
        assert not any(v.invariant == "forward_recovery"
                       for v in InvariantChecker().check(events))


    def _rewind_trace(self, kind, rolled_back):
        events = [
            self._event(tev.SEGMENT_START, segment=0),
            self._event(tev.SEGMENT_START, segment=1),
            self._event(tev.SEGMENT_CHECKED, segment=1),
            self._event(kind, segment=0),
        ]
        events += [self._event(tev.SEGMENT_ROLLED_BACK, segment=index)
                   for index in rolled_back]
        return events

    def test_rewind_leaving_verified_later_segment_violates(self):
        violations = InvariantChecker().check(
            self._rewind_trace(tev.FORWARD_RECOVERY, rolled_back=()))
        assert [v.invariant for v in violations] == ["rewind"]

    def test_rewind_discarding_later_segments_ok(self):
        assert not InvariantChecker().check(
            self._rewind_trace(tev.FORWARD_RECOVERY, rolled_back=(1,)))
        assert not InvariantChecker().check(
            self._rewind_trace(tev.ROLLBACK, rolled_back=(0, 1)))

    def test_rollback_leaving_later_segment_violates(self):
        violations = InvariantChecker().check(
            self._rewind_trace(tev.ROLLBACK, rolled_back=(0,)))
        assert [v.invariant for v in violations] == ["rewind"]

    def test_output_commit_applies_to_forward_recovery(self):
        events = [
            self._event(tev.SEGMENT_START, segment=1),
            self._event(tev.CONSOLE_WRITE, segment=1, stream="stdout",
                        start=0, end=4),
            self._event(tev.FORWARD_RECOVERY, segment=0),
            self._event(tev.SEGMENT_ROLLED_BACK, segment=1),
        ]
        violations = InvariantChecker(recovery=False).check(events)
        assert [v.invariant for v in violations] == ["output_commit"]


class TestModeComparison:
    def test_identical_plan_across_modes(self):
        from repro.modes import run_mode_comparison
        program = compile_source(synthetic_source(total_iters=20000))
        summaries = run_mode_comparison(program,
                                        modes=("parallaft", "tmr"),
                                        injections=2, seed=3)
        assert set(summaries) == {"parallaft", "tmr"}
        for summary in summaries.values():
            assert len(summary.records) == 2
        tmr = summaries["tmr"]
        assert tmr.total_rollbacks == 0
        assert tmr.detected_fault_indices \
            >= summaries["parallaft"].detected_fault_indices

    def test_render_mode_comparison_table(self):
        from repro.harness.report import NA, render_mode_comparison
        from repro.modes.comparison import (ModeInjectionRecord,
                                            ModeRunSummary)
        fired = ModeRunSummary(mode="tmr", wall_time=12.0,
                               baseline_wall_time=10.0)
        fired.records.append(ModeInjectionRecord(
            fault_index=0, outcome=Outcome.RECOVERED, fired=True,
            detection_latency=0.5, forward_recoveries=1))
        silent = ModeRunSummary(mode="raft", wall_time=11.0,
                                baseline_wall_time=10.0)
        silent.records.append(ModeInjectionRecord(
            fault_index=0, outcome=Outcome.BENIGN, fired=False))
        table = render_mode_comparison({"tmr": fired, "raft": silent})
        lines = table.splitlines()
        assert lines[1].startswith("mode")
        tmr_row = next(l for l in lines if l.startswith("tmr"))
        assert "+20.0" in tmr_row and "100%" in tmr_row
        raft_row = next(l for l in lines if l.startswith("raft"))
        # Nothing fired: every fraction cell is the NA placeholder.
        assert NA in raft_row
        assert "0%" not in raft_row


class TestComparisonOverrideFilter:
    def test_meek_split_override_skipped_for_raft(self):
        """Regression: a meek_split override must not be forced onto
        modes that never compare state (RAFT) — that combination is
        rejected by config validation."""
        from repro.modes import run_mode_comparison
        program = compile_source(synthetic_source(total_iters=8000))
        summaries = run_mode_comparison(program, modes=("raft",),
                                        injections=1, seed=0,
                                        config_overrides={"meek_split": 0.5})
        assert "raft" in summaries
