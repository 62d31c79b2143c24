"""Offline invariant checking over a recorded event trace.

The :class:`InvariantChecker` replays a :class:`~repro.trace.TraceBuffer`
(or a plain event list) in one pass and verifies the runtime invariants
the paper's correctness argument depends on:

(a) **containment** — when ``error_containment`` is on, no GLOBAL syscall
    is recorded while an earlier segment is still live, and a
    containment-stalled main is only woken once no earlier segment is
    live (a premature ``main_wake`` is a violated wake precondition even
    though the re-issued syscall re-stalls downstream).
(b) **stall pairing** — every ``main_stall``/``checker_stall`` is
    eventually followed by a matching wake for the same pid, or by the
    process's exit / application termination.  A leftover stall is the
    deadlock signature.
(c) **core exclusivity** — a core never hosts two processes at once
    (tracked from ``core_assign``/``core_unassign``).
(d) **segment completion** — every segment that became READY reaches a
    terminal state (CHECKED/FAILED/ROLLED_BACK) unless the application
    was deliberately torn down.
(e) **output commit** — in a run with recovery on, or one that rewound
    its timeline (a ``rollback`` or ``forward_recovery`` event), console
    bytes attributed to a segment that is later rolled back must be
    truncated away again (output never outlives its segment's
    verification).
(f) **integrity** — no ``rollback`` event ever follows an
    ``integrity_fail`` event: once an integrity check failed, every
    retained checkpoint is untrusted and promoting one would launder the
    corruption into a "recovered" timeline.  Checked unconditionally —
    a dropped event can hide a violation but never fabricate one.
(g) **degradation ladder** — memory-pressure actions escalate strictly in
    order: a stage-N event (``pressure_stall``=1, ``pressure_shed``=2,
    ``evict``=3, ``pressure_adapt``=4) never appears before the run's
    first stage-N−1 event.  ``pressure_exhausted`` is exempt (it marks
    the ladder running dry, at whatever rung reclaim got to).
(h) **OOM provenance** — every ``oom`` event is preceded by a
    ``pressure_exhausted`` event: the kernel never kills for memory
    without first recording that the ladder could not make room.
(i) **no rollback to an evicted checkpoint** — a ``rollback`` whose
    segment had its recovery checkpoint evicted (an earlier ``evict``
    event for the same segment) would promote freed state; recovery must
    refuse it with a typed error instead.  Checked unconditionally, like
    (f).
(j) **cycle conservation** — every ``phase_totals`` event (emitted once
    at run finalisation by the phase profiler) must balance: the sum of
    its per-phase cycle ledger equals the executor's independently
    accumulated total charged cycles, within a relative tolerance of
    1e-9 for float summation-order drift.  A forgotten attribution site
    in any charge path breaks the balance.  Checked unconditionally —
    the event carries its own totals, so drops cannot fake a violation.
(k) **vote quorum** — a TMR ``vote`` event with ``quorum < 2`` means no
    two of the three boundary states agreed: adopting any of them would
    be a guess, so the run must fail-stop.  Every such vote must be
    followed by an ``error`` (or the application's termination); a
    quorum-1 vote the run sailed past admitted an unverified segment.
(l) **no rollback after forward recovery** — forward recovery is the
    promise that the majority state is adopted *without* re-execution;
    a ``rollback`` event anywhere after a ``forward_recovery`` event
    breaks it (committed output would be re-executed).  Checked
    unconditionally, like (f).
(m) **rewind** — a ``rollback`` or ``forward_recovery`` at segment *k*
    replaces the main's timeline past *k*, so every later segment that
    started before it must end ``segment_rolled_back``; a verified one
    left standing would commit output from the discarded timeline.

Pairing-based invariants (b)–(d), the order-sensitive pressure
invariants (g)–(h), the end-of-trace half of (k) and (m) are skipped
when the ring buffer dropped events, since a dropped
stall/assign/stage/error/rolled-back event would produce false
positives.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple, Union

from .buffer import TraceBuffer
from .events import (
    APP_TERMINATE,
    CHECKER_STALL,
    CHECKER_WAKE,
    CONSOLE_TRUNCATE,
    CONSOLE_WRITE,
    CORE_ASSIGN,
    CORE_UNASSIGN,
    ERROR,
    EVICT,
    FORWARD_RECOVERY,
    INTEGRITY_FAIL,
    MAIN_STALL,
    MAIN_WAKE,
    OOM,
    PHASE_TOTALS,
    PRESSURE_EXHAUSTED,
    PRESSURE_STAGES,
    PROCESS_EXIT,
    ROLLBACK,
    SEGMENT_READY,
    SEGMENT_ROLLED_BACK,
    SEGMENT_START,
    SEGMENT_TERMINAL,
    STALL_CONTAINMENT,
    SYSCALL_RECORD,
    VOTE,
    TraceEvent,
)


@dataclass
class InvariantViolation:
    invariant: str               # 'containment' | 'stall_pairing' | ...
    message: str
    event: Optional[TraceEvent] = None

    def __str__(self) -> str:
        where = f" at {self.event.describe()}" if self.event else ""
        return f"[{self.invariant}] {self.message}{where}"


@dataclass
class _ConsoleWrite:
    event: TraceEvent
    stream: str
    start: int
    end: int
    truncated: bool = False


class InvariantChecker:
    """Single-pass checker for the invariants listed in the module doc."""

    def __init__(self, error_containment: bool = False,
                 recovery: bool = False) -> None:
        self.error_containment = error_containment
        self.recovery = recovery
        self.violations: List[InvariantViolation] = []

    # ------------------------------------------------------------------

    def check(
        self, trace: Union[TraceBuffer, Iterable[TraceEvent]],
    ) -> List[InvariantViolation]:
        dropped = trace.dropped if isinstance(trace, TraceBuffer) else 0
        events = list(trace)
        self.violations = []

        live: Set[int] = set()
        started: Set[int] = set()
        pending_stalls: Dict[int, TraceEvent] = {}
        occupancy: Dict[str, int] = {}
        ready: Set[int] = set()
        terminal: Set[int] = set()
        rolled_back: Set[int] = set()
        writes: List[_ConsoleWrite] = []
        app_terminated = False
        integrity_failed: Optional[TraceEvent] = None
        max_stage = 0
        exhausted_seen = False
        evicted_segments: Set[int] = set()
        pending_vote: Optional[TraceEvent] = None
        forward_recovered: Optional[TraceEvent] = None
        #: (m): each rewind event with the later segments it must discard.
        rewinds: List[Tuple[TraceEvent, Set[int]]] = []

        for event in events:
            kind = event.kind

            # -- (g) degradation ladder / (h) OOM provenance ------------
            stage = PRESSURE_STAGES.get(kind)
            if stage is not None:
                if stage > max_stage + 1 and dropped == 0:
                    self._violate(
                        "pressure_ladder",
                        f"stage-{stage} pressure action ({kind}) before "
                        f"any stage-{stage - 1} action (max stage seen: "
                        f"{max_stage})", event)
                max_stage = max(max_stage, stage)
            elif kind == PRESSURE_EXHAUSTED:
                exhausted_seen = True
            elif kind == OOM and not exhausted_seen and dropped == 0:
                self._violate(
                    "oom_provenance",
                    f"oom for pid {event.pid} with no preceding "
                    f"pressure_exhausted event", event)

            # -- (i) no rollback to an evicted checkpoint ---------------
            if kind == EVICT and event.segment is not None:
                evicted_segments.add(event.segment)
            elif (kind == ROLLBACK and event.segment is not None
                    and event.segment in evicted_segments):
                self._violate(
                    "evicted_rollback",
                    f"rollback to segment {event.segment} whose recovery "
                    f"checkpoint was evicted — freed state was promoted",
                    event)

            # -- (j) cycle conservation ---------------------------------
            if kind == PHASE_TOTALS:
                total = float(event.payload.get("total", 0.0))
                phases = event.payload.get("phases", {}) or {}
                charged = sum(float(v) for v in phases.values())
                tolerance = 1e-9 * max(abs(total), abs(charged), 1.0)
                if abs(charged - total) > tolerance:
                    self._violate(
                        "cycle_conservation",
                        f"phase ledger sums to {charged!r} cycles but the "
                        f"executor charged {total!r} — "
                        f"{charged - total:+.6g} cycles unattributed",
                        event)

            # -- (k) vote quorum ----------------------------------------
            if kind == VOTE:
                quorum = event.payload.get("quorum")
                if (quorum is not None and int(quorum) < 2
                        and pending_vote is None):
                    pending_vote = event
            elif kind in (ERROR, APP_TERMINATE) and pending_vote is not None:
                pending_vote = None

            # -- (l) no rollback after forward recovery -----------------
            if kind == FORWARD_RECOVERY:
                if forward_recovered is None:
                    forward_recovered = event
            elif kind == ROLLBACK and forward_recovered is not None:
                self._violate(
                    "forward_recovery",
                    f"rollback at segment {event.segment} after forward "
                    f"recovery adopted the majority state at segment "
                    f"{forward_recovered.segment} — committed output "
                    f"would be re-executed", event)

            # -- (f) integrity: no rollback after an integrity failure --
            if kind == INTEGRITY_FAIL:
                if integrity_failed is None:
                    integrity_failed = event
            elif kind == ROLLBACK and integrity_failed is not None:
                check = integrity_failed.payload.get("check", "?")
                self._violate(
                    "integrity",
                    f"rollback at segment {event.segment} after an "
                    f"integrity failure ({check} check at segment "
                    f"{integrity_failed.segment}) — an untrusted "
                    f"checkpoint was promoted", event)

            # -- (m) rewind ----------------------------------------------
            if kind in (ROLLBACK, FORWARD_RECOVERY) \
                    and event.segment is not None:
                rewinds.append((event, {s for s in started
                                        if s > event.segment}))

            # -- live-segment bookkeeping -------------------------------
            if kind == SEGMENT_START and event.segment is not None:
                live.add(event.segment)
                started.add(event.segment)
            elif kind in SEGMENT_TERMINAL and event.segment is not None:
                live.discard(event.segment)
                terminal.add(event.segment)
                if kind == SEGMENT_ROLLED_BACK:
                    rolled_back.add(event.segment)
            if kind == SEGMENT_READY and event.segment is not None:
                ready.add(event.segment)

            # -- (a) containment ----------------------------------------
            if self.error_containment and event.segment is not None:
                earlier_live = sorted(
                    s for s in live if s < event.segment)
                if kind == SYSCALL_RECORD:
                    classification = str(
                        event.payload.get("classification", "")).lower()
                    if "global" in classification and earlier_live:
                        self._violate(
                            "containment",
                            f"GLOBAL syscall recorded in segment "
                            f"{event.segment} while earlier segments "
                            f"{earlier_live} are live", event)
                elif (kind == MAIN_WAKE
                      and event.payload.get("reason") == STALL_CONTAINMENT
                      and earlier_live):
                    self._violate(
                        "containment",
                        f"containment-stalled main woken at segment "
                        f"{event.segment} while earlier segments "
                        f"{earlier_live} are live", event)

            # -- (b) stall pairing --------------------------------------
            if kind in (MAIN_STALL, CHECKER_STALL) and event.pid is not None:
                pending_stalls[event.pid] = event
            elif kind in (MAIN_WAKE, CHECKER_WAKE, PROCESS_EXIT) \
                    and event.pid is not None:
                pending_stalls.pop(event.pid, None)
            elif kind == APP_TERMINATE:
                app_terminated = True

            # -- (c) core exclusivity -----------------------------------
            if kind == CORE_ASSIGN and event.core is not None:
                holder = occupancy.get(event.core)
                if holder is not None and holder != event.pid:
                    self._violate(
                        "core_exclusivity",
                        f"core {event.core} assigned to pid {event.pid} "
                        f"while still held by pid {holder}", event)
                occupancy[event.core] = event.pid
            elif kind == CORE_UNASSIGN and event.core is not None:
                occupancy.pop(event.core, None)

            # -- (e) output commit --------------------------------------
            if kind == CONSOLE_WRITE:
                writes.append(_ConsoleWrite(
                    event=event,
                    stream=str(event.payload.get("stream", "stdout")),
                    start=int(event.payload.get("start", 0)),
                    end=int(event.payload.get("end", 0)),
                ))
            elif kind == CONSOLE_TRUNCATE:
                stream = str(event.payload.get("stream", "stdout"))
                length = int(event.payload.get("length", 0))
                for write in writes:
                    if write.stream == stream and length <= write.start:
                        write.truncated = True

        # ---- end-of-trace checks --------------------------------------
        if dropped == 0:
            # (b) leftover stalls
            if not app_terminated:
                for pid, stall in sorted(pending_stalls.items()):
                    reason = stall.payload.get("reason", "?")
                    self._violate(
                        "stall_pairing",
                        f"pid {pid} stalled ({stall.kind}, reason="
                        f"{reason}) and never woken or terminated", stall)
            # (d) segment completion
            if not app_terminated:
                unfinished = sorted(ready - terminal)
                if unfinished:
                    self._violate(
                        "segment_completion",
                        f"READY segments never reached a terminal state: "
                        f"{unfinished}")
            # (k) a quorum-1 vote with no subsequent fail-stop
            if pending_vote is not None:
                self._violate(
                    "vote_quorum",
                    f"vote at segment {pending_vote.segment} had quorum "
                    f"{pending_vote.payload.get('quorum')} (< 2) but no "
                    f"error or termination followed — an unverified "
                    f"segment was admitted", pending_vote)

            # (m) a rewind left a later segment of the old timeline
            for rewind, later in rewinds:
                kept = sorted(later - rolled_back)
                if kept:
                    self._violate(
                        "rewind",
                        f"{rewind.kind} at segment {rewind.segment} left "
                        f"later segments {kept} of the discarded timeline "
                        f"without segment_rolled_back", rewind)

        # (e) rolled-back output must have been truncated
        if self.recovery or rewinds:
            for write in writes:
                seg = write.event.segment
                if seg in rolled_back and not write.truncated:
                    self._violate(
                        "output_commit",
                        f"{write.stream} bytes [{write.start}:{write.end}] "
                        f"written in rolled-back segment {seg} were never "
                        f"truncated", write.event)

        return self.violations

    # ------------------------------------------------------------------

    def assert_ok(
        self, trace: Union[TraceBuffer, Iterable[TraceEvent]],
    ) -> None:
        violations = self.check(trace)
        if violations:
            detail = "\n".join(str(v) for v in violations)
            raise AssertionError(
                f"{len(violations)} trace invariant violation(s):\n{detail}")

    def _violate(self, invariant: str, message: str,
                 event: Optional[TraceEvent] = None) -> None:
        self.violations.append(
            InvariantViolation(invariant=invariant, message=message,
                               event=event))


def check_runtime(runtime) -> List[InvariantViolation]:
    """Check a finished :class:`~repro.core.Parallaft` run's trace using
    its own configuration to decide which invariants apply."""
    checker = InvariantChecker(
        error_containment=runtime.config.error_containment,
        recovery=runtime.config.enable_recovery,
    )
    return checker.check(runtime.trace)


def assert_runtime_ok(runtime) -> None:
    violations = check_runtime(runtime)
    if violations:
        detail = "\n".join(str(v) for v in violations)
        raise AssertionError(
            f"{len(violations)} trace invariant violation(s):\n{detail}")
