"""Program-state comparison (paper §3.3, §4.4).

At the end of each segment the checker's state must equal the checkpoint
taken from the main at the same execution point.  State = all registers +
the PC + all modified memory.  Parallaft injects hasher code into both
processes and compares XXH3-64 digests of the modified pages, so page
contents never cross between processes.  The simulator holds both pages in
one address space, so the verdict is a plain byte compare of each page
(pages backed by the same frame are equal without reading a byte); the
injected hasher's cost is still charged, from ``bytes_hashed``.  The
full-memory strawman for the ablation compares every mapped page.

The comparator is itself part of the trusted computing base: a hash-path
fault (or an engineered collision) makes two differing pages look equal and
the corruption escapes silently.  Both that fault and its defence are
modelled, not computed: the digest-corrupt fault arms
``fault_next_digest_collision`` and :meth:`StateComparator._collide`
forges the verdict; ``redundant=True`` (config knob ``redundant_compare``)
stands for a second, independent hash path — its cost doubles
``bytes_hashed``, and a forged verdict is reported with reason
``"integrity"`` so the runtime fail-stops instead of "recovering" on
untrusted evidence.  The module also hosts the checkpoint integrity
helpers: :func:`state_digest` (whole-process digest for retained recovery
checkpoints) and :func:`audit_clean_pages` (spot check that the dirty
tracker did not under-report).
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Set, Tuple

from repro.core.config import ComparisonStrategy
from repro.hashing import Xxh3_64
from repro.kernel.process import Process


class ComparisonResult:
    __slots__ = ("match", "reason", "mismatched_vpns", "register_mismatch",
                 "pc_mismatch", "bytes_hashed", "pages_compared")

    def __init__(self, match: bool, reason: str = "",
                 mismatched_vpns: Optional[List[int]] = None,
                 register_mismatch: bool = False,
                 pc_mismatch: bool = False,
                 bytes_hashed: int = 0,
                 pages_compared: int = 0):
        self.match = match
        self.reason = reason
        self.mismatched_vpns = mismatched_vpns or []
        self.register_mismatch = register_mismatch
        self.pc_mismatch = pc_mismatch
        self.bytes_hashed = bytes_hashed
        self.pages_compared = pages_compared

    def __repr__(self) -> str:
        status = "match" if self.match else f"MISMATCH({self.reason})"
        return f"ComparisonResult({status}, pages={self.pages_compared})"

    def describe(self) -> str:
        """Human-readable divergence summary for error reports."""
        if self.match:
            return "match"
        if self.reason == "pc":
            return "program counters diverge"
        if self.reason == "registers":
            return "register files diverge"
        if self.reason == "memory":
            shown = ", ".join(hex(v) for v in self.mismatched_vpns[:4])
            extra = len(self.mismatched_vpns) - 4
            if extra > 0:
                shown += f", +{extra} more"
            return (f"{len(self.mismatched_vpns)} dirty page(s) diverge "
                    f"(vpn {shown})")
        # "integrity": the only other reason a comparison can carry.
        return ("comparator hash paths disagree — digest logic is "
                "untrusted, verdict discarded")


class VoteResult:
    """Outcome of a TMR majority vote over {main checkpoint, replicas}.

    ``quorum`` is the size of the largest agreeing set (3 = unanimous,
    2 = majority with one loser, 1 = all disagree → fail-stop).  When the
    *main* is outvoted, ``winner_index`` names the replica whose state is
    the majority (forward recovery adopts it); ``loser_replicas`` lists
    outvoted replica indices.  ``results`` holds the per-replica
    comparisons against the checkpoint and ``cross_result`` the
    replica-vs-replica tie-break compare (run only when every replica
    disagreed with the main).
    """

    __slots__ = ("quorum", "main_outvoted", "winner_index",
                 "loser_replicas", "results", "cross_result")

    def __init__(self, quorum: int, main_outvoted: bool = False,
                 winner_index: Optional[int] = None,
                 loser_replicas: Optional[List[int]] = None,
                 results: Optional[List[ComparisonResult]] = None,
                 cross_result: Optional[ComparisonResult] = None):
        self.quorum = quorum
        self.main_outvoted = main_outvoted
        self.winner_index = winner_index
        self.loser_replicas = loser_replicas or []
        self.results = results or []
        self.cross_result = cross_result

    @property
    def unanimous(self) -> bool:
        return not self.loser_replicas and not self.main_outvoted \
            and self.quorum >= 2

    def __repr__(self) -> str:
        return (f"VoteResult(quorum={self.quorum}, "
                f"main_outvoted={self.main_outvoted}, "
                f"losers={self.loser_replicas})")


class StateComparator:
    def __init__(self, strategy: ComparisonStrategy, page_size: int,
                 redundant: bool = False):
        self.strategy = strategy
        self.page_size = page_size
        #: Models a second, independent hash path (``redundant_compare``):
        #: it doubles the hashing cost, and a verdict disagreement between
        #: paths is a comparator fault, not an application divergence.
        self.redundant = redundant
        #: Fault-injection hook (``repro.faults.infra`` digest-corrupt
        #: model): when armed, the *primary* digest path of the next
        #: ``compare`` call reports "equal" no matter what actually
        #: diverged — the modelled comparator reduces (pc, registers,
        #: pages) to digests, so a faulted digest path forges the whole
        #: verdict, whichever stage the divergence lives in.  Consumed
        #: (read-and-cleared) at compare entry so an early-stage return
        #: cannot leak it into a later segment's comparison.
        self.fault_next_digest_collision = False
        #: Optional ``repro.metrics`` registry; when present, every
        #: comparison feeds the per-compare work histograms.
        self.metrics = None

    def compare(self, checker: Process, checkpoint: Process,
                dirty_vpns: Optional[Set[int]] = None) -> ComparisonResult:
        result = self._compare(checker, checkpoint, dirty_vpns)
        if self.metrics is not None:
            self.metrics.histogram(
                "comparator.bytes_hashed",
                bounds=(0.0, 16384.0, 65536.0, 262144.0, 1048576.0,
                        4194304.0, 16777216.0)).observe(result.bytes_hashed)
            self.metrics.histogram(
                "comparator.pages_compared",
                bounds=(0.0, 1.0, 4.0, 16.0, 64.0, 256.0,
                        1024.0, 4096.0)).observe(result.pages_compared)
            self.metrics.counter("comparator.compares").inc()
            if not result.match:
                self.metrics.counter("comparator.mismatches").inc()
        return result

    def vote(self, replicas: List[Process], checkpoint: Process,
             dirty_vpns: Optional[Set[int]] = None,
             results: Optional[List[ComparisonResult]] = None) -> VoteResult:
        """TMR majority vote (Elzar, PAPERS.md) at a segment boundary.

        The voters are the main's end checkpoint plus every replica;
        each replica is compared pairwise against the checkpoint (or the
        caller passes precomputed ``results`` — the MEEK split path
        combines an early and a late stage per replica).  Majority wins:

        * every replica matches the checkpoint → unanimous;
        * some replicas match → the mismatching ones are outvoted
          (quorum = 1 + matching replicas);
        * *no* replica matches and the replicas agree *with each other*
          → the main itself is outvoted (quorum 2) and ``winner_index``
          names the replica whose state forward recovery adopts;
        * all three states differ → quorum 1, no majority exists: the
          caller must fail-stop (adopting any state would be a guess).
        """
        if results is None:
            results = [self.compare(r, checkpoint, dirty_vpns)
                       for r in replicas]
        matching = [i for i, r in enumerate(results) if r.match]
        losers = [i for i, r in enumerate(results) if not r.match]
        if matching:
            return VoteResult(quorum=1 + len(matching),
                              loser_replicas=losers, results=results)
        if len(replicas) < 2:
            # Degraded vote (a replica was already outvoted mid-replay):
            # two states, two opinions — no majority possible.
            return VoteResult(quorum=1, loser_replicas=losers,
                              results=results)
        cross = self.compare(replicas[0], replicas[1], dirty_vpns)
        if cross.match:
            return VoteResult(quorum=2, main_outvoted=True, winner_index=0,
                              results=results, cross_result=cross)
        return VoteResult(quorum=1, loser_replicas=losers, results=results,
                          cross_result=cross)

    def _compare(self, checker: Process, checkpoint: Process,
                 dirty_vpns: Optional[Set[int]] = None) -> ComparisonResult:
        """Compare checker state against the end-of-segment checkpoint.

        ``dirty_vpns`` is the union of pages modified by the main during the
        segment and by the checker during its replay; pages outside it share
        frames with the segment-start state on both sides and are equal by
        construction (tested by ``test_dirty_union_equals_full_compare``).
        """
        collision = self.fault_next_digest_collision
        self.fault_next_digest_collision = False
        if checker.cpu.pc != checkpoint.cpu.pc:
            result = ComparisonResult(False, "pc", pc_mismatch=True)
            return self._collide(result) if collision else result
        if checker.cpu.regs.snapshot() != checkpoint.cpu.regs.snapshot():
            result = ComparisonResult(False, "registers",
                                      register_mismatch=True)
            return self._collide(result) if collision else result

        if self.strategy == ComparisonStrategy.FULL_MEMORY:
            vpns = sorted(set(checker.mem.pages) | set(checkpoint.mem.pages))
        else:
            if dirty_vpns is None:
                raise ValueError("dirty_hash comparison needs dirty_vpns")
            vpns = sorted(dirty_vpns)

        mismatched, bytes_hashed = _compare_pages(checker, checkpoint, vpns)
        if self.redundant:
            # The second hash path reads the same pages (cost doubles).
            bytes_hashed *= 2

        if mismatched:
            result = ComparisonResult(False, "memory",
                                      mismatched_vpns=mismatched,
                                      bytes_hashed=bytes_hashed,
                                      pages_compared=len(vpns))
            return self._collide(result) if collision else result
        return ComparisonResult(True, bytes_hashed=bytes_hashed,
                                pages_compared=len(vpns))

    def _collide(self, truth: ComparisonResult) -> ComparisonResult:
        """Apply an armed digest-path fault to a true-mismatch verdict.

        Unhardened, the faulted primary path reports "equal" and the
        divergence escapes silently — the SDC channel the infra campaign
        measures.  With the redundant path on, the second (unfaulted)
        path still sees the divergence: two paths, two verdicts — the
        comparator itself is implicated and the verdict is discarded.
        """
        if self.redundant:
            return ComparisonResult(False, "integrity",
                                    mismatched_vpns=truth.mismatched_vpns,
                                    register_mismatch=truth.register_mismatch,
                                    pc_mismatch=truth.pc_mismatch,
                                    bytes_hashed=truth.bytes_hashed,
                                    pages_compared=truth.pages_compared)
        return ComparisonResult(True, bytes_hashed=truth.bytes_hashed,
                                pages_compared=truth.pages_compared)


def _compare_pages(left: Process, right: Process,
                   vpns: Iterable[int]) -> Tuple[List[int], int]:
    """Byte-compare the pages at ``vpns`` in two processes.

    A page mapped on one side only mismatches; pages backed by the same
    frame are equal without reading them.  Returns ``(mismatched_vpns,
    bytes_compared)``, where every page mapped on both sides counts its
    size twice (once per side) — the bytes a hasher would stream.
    """
    left_pages = left.mem.pages
    right_pages = right.mem.pages
    mismatched: List[int] = []
    nbytes = 0
    for vpn in vpns:
        left_pte = left_pages.get(vpn)
        right_pte = right_pages.get(vpn)
        if left_pte is None or right_pte is None:
            if left_pte is not right_pte:
                mismatched.append(vpn)
            continue
        left_frame = left_pte.frame
        right_frame = right_pte.frame
        nbytes += 2 * len(left_frame.data)
        if left_frame is not right_frame \
                and left_frame.data != right_frame.data:
            mismatched.append(vpn)
    return mismatched, nbytes


def state_digest(proc: Process) -> Tuple[int, int]:
    """Whole-process integrity digest: PC + register file + every mapped
    page, vpn-tagged.  Returns ``(digest, bytes_digested)`` so the caller
    can charge the hashing cost.

    Taken over a retained recovery checkpoint at fork time
    (``checkpoint_digests``) and recomputed before the checkpoint is ever
    trusted on the error path: a mismatch means bits rotted while the
    checkpoint sat paused, and promoting it would "recover" into a corrupt
    timeline.
    """
    hasher = Xxh3_64()
    hasher.update(proc.cpu.pc.to_bytes(8, "little"))
    regs = repr(proc.cpu.regs.snapshot()).encode()
    hasher.update(regs)
    digested = 8 + len(regs)
    for vpn in sorted(proc.mem.pages):
        data = proc.mem.page_bytes(vpn)
        hasher.update(vpn.to_bytes(8, "little"))
        hasher.update(data)
        digested += len(data)
    return hasher.digest(), digested


def audit_clean_pages(checker: Process, checkpoint: Process,
                      trusted_dirty: Set[int],
                      limit: int) -> Tuple[List[int], List[int], int]:
    """Cross-check supposedly-clean pages against the end checkpoint.

    The dirty-page union is itself produced by the (fallible) tracker; a
    dropped vpn makes the comparator skip a truly-modified page.  This
    audit looks at pages *outside* the trusted union whose frames diverge
    between checker and checkpoint — in a fault-free run every
    frame-divergent page was written on some side and therefore *is* in
    the union, so any frame-divergent page missing from it is exactly the
    tracker-under-reporting signature.  Up to ``limit`` suspicious pages
    are byte-compared (frame divergence alone is not proof: an untouched
    page can sit in re-COWed but byte-equal frames after a fork chain).

    Returns ``(audited_vpns, mismatched_vpns, bytes_compared)``.
    """
    suspicious: List[int] = []
    for vpn in sorted(set(checker.mem.pages) | set(checkpoint.mem.pages)):
        if vpn in trusted_dirty:
            continue
        if vpn not in checker.mem.pages or vpn not in checkpoint.mem.pages:
            suspicious.append(vpn)
            continue
        if checker.mem.frame_id(vpn) != checkpoint.mem.frame_id(vpn):
            suspicious.append(vpn)
    audited = suspicious[:limit] if limit else []
    mismatched, bytes_compared = _compare_pages(checker, checkpoint, audited)
    return audited, mismatched, bytes_compared
