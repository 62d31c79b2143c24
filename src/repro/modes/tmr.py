"""TMR with forward recovery (Elzar-style triple modular redundancy).

Each segment forks *two* checker replicas instead of one, so a boundary
has three independent copies of the segment's end state: the main's end
checkpoint plus both replicas.  Instead of the pairwise compare, the
boundary runs a majority vote:

* all three agree — unanimous, the segment verifies as usual;
* one replica disagrees — it is outvoted (``outvoted`` event,
  ``counter.tmr.outvoted``) and the segment still verifies;
* *both* replicas disagree with the main but agree with each other —
  the main itself carried the fault.  Forward recovery adopts the
  majority state: the winning replica is promoted to be the new main
  and execution continues *forward* from the boundary.  No rollback
  ever runs (the no-ROLLBACK-after-FORWARD_RECOVERY trace invariant);
* all three disagree — no majority exists, adopting any state would be
  a guess: fail-stop with a typed ``vote_inconclusive`` error (the
  vote-quorum invariant: a quorum-1 vote must be followed by an error).

A replica that fails *mid-replay* (divergence, exception, timeout) is
outvoted immediately rather than failing the segment: the remaining
voters still form a majority.  Integrity faults are never absorbed —
they implicate the comparator or saved state, not one replica.
"""

from __future__ import annotations

from repro.modes.base import DetectionMode, register_mode
from repro.trace import events as tev


@register_mode
class TmrMode(DetectionMode):
    name = "tmr"
    summary = ("three-way majority vote per segment boundary with "
               "forward recovery (no rollback) when the main is outvoted")
    replica_count = 2
    concurrent_checking = False
    slices = True

    #: Mid-replay failure kinds a single replica can be outvoted for.
    #: Integrity kinds (``log_integrity``/``infra_integrity``) are
    #: excluded: they implicate shared infrastructure, and outvoting a
    #: replica on rotten evidence would launder the corruption.
    ABSORBABLE = frozenset({"syscall_divergence", "exception", "timeout",
                            "exec_point_overrun"})

    @classmethod
    def _base_config(cls):
        from repro.core.config import ParallaftConfig
        return ParallaftConfig.tmr()

    def boundary_check(self, rt, segment) -> None:
        """All replicas arrived: run the three-way vote over the
        comparisons the runtime has vetted (an integrity verdict or a
        failed clean-page audit fail-stops the segment before any vote)."""
        from repro.metrics import phases as mph
        config = rt.config
        if not config.compare_state:
            rt._segment_verified(segment)
            return
        compares = rt._boundary_compares(segment, mph.VOTE)
        if compares is None:
            return
        results = [result for result, _ in compares]
        union = set().union(*(replica_union for _, replica_union in compares))
        processes = [r.process for r in segment.replicas]
        vote = rt.comparator.vote(processes, segment.end_checkpoint,
                                  dirty_vpns=union, results=results)
        if vote.cross_result is not None:
            # The replica-vs-replica tie-break compare ran; charge its
            # hashing to the vote phase like the per-replica compares.
            rt.executor.charge(
                processes[-1],
                rt.kernel.costs.hash_cycles(vote.cross_result.bytes_hashed),
                phase=mph.VOTE)
        rt.stats.tmr_votes += 1
        rt._emit(tev.VOTE, segment=segment.index, quorum=vote.quorum,
                 main_outvoted=vote.main_outvoted)
        if vote.quorum >= 2 and not vote.main_outvoted:
            for index in vote.loser_replicas:
                loser = segment.replicas[index]
                rt.stats.tmr_outvoted += 1
                rt._emit(tev.OUTVOTED, proc=loser.process,
                         segment=segment.index, loser="checker",
                         cause=results[index].reason or "mismatch")
            rt._segment_verified(segment)
            return
        if vote.main_outvoted:
            if rt.stats.tmr_forward_recoveries \
                    >= config.max_forward_recoveries:
                rt._report_error(
                    "vote_inconclusive", segment,
                    f"main outvoted but the forward-recovery budget "
                    f"({config.max_forward_recoveries}) is spent")
                return
            self._forward_recover(rt, segment, vote)
            return
        rt._report_error(
            "vote_inconclusive", segment,
            "all three states disagree at the segment boundary — no "
            "majority exists to adopt")

    def _forward_recover(self, rt, segment, vote) -> None:
        """The main was outvoted: adopt the majority state and continue
        *forward* from the boundary (never a rollback).

        The winning replica replayed the segment from the verified start
        state, so its state at the end point *is* the majority state: it
        simply becomes the new main through the runtime's rewind path.
        Every segment recorded after the boundary descends from the
        faulted main and is discarded with its output, verified or not;
        the boundary itself — and every byte of output committed before
        it — survives, which is what distinguishes forward recovery from
        a rollback.
        """
        winner = segment.replicas[vote.winner_index]
        new_main = winner.process
        # Detach the winner from its checker identity.  Its replay work
        # stays accounted as checker work; from here on its cycles are
        # the main's.
        segment.replicas.remove(winner)
        rt.segment_of_checker.pop(new_main.pid, None)
        rt._stalled_checkers.discard(new_main.pid)
        rt._account_checker_time(new_main)
        winner.replayer = None
        new_main.cpu.disarm_branch_overflow()
        new_main.cpu.disarm_instr_overflow()
        rt.stats.tmr_forward_recoveries += 1
        rt._emit(tev.FORWARD_RECOVERY, proc=new_main, segment=segment.index,
                 winner_pid=new_main.pid)
        # The boundary itself is majority-verified.  A winner voted at the
        # final segment sits on the exit syscall's execution point and
        # exits natively with the majority state.
        rt._rewind(segment.index + 1, new_main, rt.kernel.promote_process,
                   lambda: rt._segment_verified(segment),
                   at_exit=segment.end_is_main)

    def absorb_replica_error(self, rt, segment, replica, kind: str,
                             detail: str) -> bool:
        """Outvote a single mid-replay failure while a majority remains."""
        if kind not in self.ABSORBABLE:
            return False
        if not [r for r in segment.live_replicas() if r is not replica]:
            # Last live replica: two voters left, no majority possible —
            # let the error report proceed.
            return False
        rt._discard_replica(segment, replica)
        rt.stats.tmr_outvoted += 1
        rt._emit(tev.OUTVOTED, segment=segment.index, loser="checker",
                 cause=kind, detail=detail)
        if segment.all_replicas_arrived():
            # The survivors already reached the end point; run the
            # (degraded) vote now — nothing else will trigger it.
            self.boundary_check(rt, segment)
        return True
