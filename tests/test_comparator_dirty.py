"""Unit tests: state comparator and dirty-page tracking (paper §4.4)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    ComparisonStrategy,
    DirtyPageBackend,
    DirtyPageTracker,
    StateComparator,
)
from repro.cpu import CpuContext
from repro.isa import DATA_BASE, assemble
from repro.kernel import Kernel
from repro.minic import compile_source

PAGE = 16384


def spawn_pair(kernel=None):
    """A process and its fork (checkpoint-style), sharing all frames."""
    kernel = kernel or Kernel(page_size=PAGE, seed=0)
    program = compile_source("""
    global data[8192];
    func main() {
        var i;
        for (i = 0; i < 2048; i = i + 1) { data[i] = i; }
        print_int(0);
    }
    """)
    proc = kernel.spawn(program)
    twin, _ = kernel.fork(proc, paused=True)
    return kernel, proc, twin


class TestComparator:
    def test_identical_forks_match_full(self):
        _, proc, twin = spawn_pair()
        comparator = StateComparator(ComparisonStrategy.FULL_MEMORY, PAGE)
        assert comparator.compare(proc, twin).match

    def test_identical_forks_match_dirty_hash_empty_set(self):
        _, proc, twin = spawn_pair()
        comparator = StateComparator(ComparisonStrategy.DIRTY_HASH, PAGE)
        result = comparator.compare(proc, twin, dirty_vpns=set())
        assert result.match
        assert result.pages_compared == 0

    def test_memory_divergence_detected(self):
        _, proc, twin = spawn_pair()
        proc.mem.store_word(DATA_BASE + 800, 0xBAD)
        comparator = StateComparator(ComparisonStrategy.DIRTY_HASH, PAGE)
        result = comparator.compare(
            proc, twin, dirty_vpns={DATA_BASE // PAGE})
        assert not result.match
        assert result.reason == "memory"
        assert result.mismatched_vpns == [DATA_BASE // PAGE]

    def test_register_divergence_detected_before_memory(self):
        _, proc, twin = spawn_pair()
        proc.cpu.regs.gprs[5] ^= 1 << 33
        comparator = StateComparator(ComparisonStrategy.DIRTY_HASH, PAGE)
        result = comparator.compare(proc, twin, dirty_vpns=set())
        assert not result.match
        assert result.register_mismatch

    def test_pc_divergence_detected(self):
        _, proc, twin = spawn_pair()
        proc.cpu.pc += 4
        comparator = StateComparator(ComparisonStrategy.FULL_MEMORY, PAGE)
        result = comparator.compare(proc, twin)
        assert not result.match and result.pc_mismatch

    def test_fp_and_vector_registers_compared(self):
        _, proc, twin = spawn_pair()
        proc.cpu.regs.flip_bit("vec", 2, 130)
        comparator = StateComparator(ComparisonStrategy.DIRTY_HASH, PAGE)
        assert not comparator.compare(proc, twin, dirty_vpns=set()).match

    def test_dirty_union_equals_full_compare(self):
        """The paper's optimization is sound: comparing only the union of
        both sides' dirty pages gives the same verdict as comparing all
        memory, because clean pages share frames."""
        kernel, proc, twin = spawn_pair()
        # Both sides write different pages; one writes a conflicting value.
        proc.mem.store_word(DATA_BASE + 8, 111)
        twin.mem.store_word(DATA_BASE + PAGE + 8, 222)

        full = StateComparator(ComparisonStrategy.FULL_MEMORY, PAGE)
        hashed = StateComparator(ComparisonStrategy.DIRTY_HASH, PAGE)
        tracker = DirtyPageTracker(DirtyPageBackend.MAP_COUNT, PAGE)
        union = set(tracker.dirty_vpns(proc)) | set(tracker.dirty_vpns(twin))
        assert full.compare(proc, twin).match is False
        assert hashed.compare(proc, twin, union).match is False

        # Now make them agree again: verdicts match again.
        twin.mem.store_word(DATA_BASE + 8, 111)
        proc.mem.store_word(DATA_BASE + PAGE + 8, 222)
        union = set(tracker.dirty_vpns(proc)) | set(tracker.dirty_vpns(twin))
        assert full.compare(proc, twin).match
        assert hashed.compare(proc, twin, union).match

    def test_page_mapped_on_one_side_only_mismatches(self):
        from repro.mem.address_space import (MAP_ANONYMOUS, MAP_FIXED,
                                             MAP_PRIVATE, PROT_READ,
                                             PROT_WRITE)
        _, proc, twin = spawn_pair()
        addr = proc.mem.mmap(0x3000_0000, PAGE, PROT_READ | PROT_WRITE,
                             MAP_PRIVATE | MAP_ANONYMOUS | MAP_FIXED)
        comparator = StateComparator(ComparisonStrategy.DIRTY_HASH, PAGE)
        result = comparator.compare(proc, twin,
                                    dirty_vpns={addr // PAGE})
        assert not result.match

    def test_page_mapped_on_twin_side_only_mismatches(self):
        """Asymmetry goes both ways: a page present only in the
        *checkpoint* (right side) must mismatch just like one present
        only in the checker, whichever side lacks the mapping."""
        from repro.mem.address_space import (MAP_ANONYMOUS, MAP_FIXED,
                                             MAP_PRIVATE, PROT_READ,
                                             PROT_WRITE)
        _, proc, twin = spawn_pair()
        addr = twin.mem.mmap(0x3000_0000, PAGE, PROT_READ | PROT_WRITE,
                             MAP_PRIVATE | MAP_ANONYMOUS | MAP_FIXED)
        comparator = StateComparator(ComparisonStrategy.DIRTY_HASH, PAGE)
        result = comparator.compare(proc, twin, dirty_vpns={addr // PAGE})
        assert not result.match
        assert result.reason == "memory"
        assert result.mismatched_vpns == [addr // PAGE]

    def test_one_sided_mappings_mismatch_in_both_orders(self):
        """Swapping the argument order must flip nothing: whichever side
        lacks the page, the verdict is the same mismatch."""
        from repro.mem.address_space import (MAP_ANONYMOUS, MAP_FIXED,
                                             MAP_PRIVATE, PROT_READ,
                                             PROT_WRITE)
        _, proc, twin = spawn_pair()
        addr = proc.mem.mmap(0x3000_0000, PAGE, PROT_READ | PROT_WRITE,
                             MAP_PRIVATE | MAP_ANONYMOUS | MAP_FIXED)
        comparator = StateComparator(ComparisonStrategy.DIRTY_HASH, PAGE)
        forward = comparator.compare(proc, twin, dirty_vpns={addr // PAGE})
        backward = comparator.compare(twin, proc, dirty_vpns={addr // PAGE})
        assert not forward.match and not backward.match
        assert forward.mismatched_vpns == backward.mismatched_vpns

    def test_pages_sharing_one_frame_match(self):
        _, proc, twin = spawn_pair()
        vpn = DATA_BASE // PAGE
        assert proc.mem.pages[vpn].frame is twin.mem.pages[vpn].frame
        comparator = StateComparator(ComparisonStrategy.DIRTY_HASH, PAGE)
        result = comparator.compare(proc, twin, dirty_vpns={vpn})
        assert result.match
        # The modelled hasher still streams both sides of the page.
        assert result.bytes_hashed == 2 * PAGE

    def test_distinct_frames_with_equal_bytes_match(self):
        _, proc, twin = spawn_pair()
        address = DATA_BASE + 64
        vpn = address // PAGE
        # Rewriting a word with its own value COWs each side privately.
        proc.mem.store_word(address, proc.mem.load_word(address))
        twin.mem.store_word(address, twin.mem.load_word(address))
        left, right = proc.mem.pages[vpn].frame, twin.mem.pages[vpn].frame
        assert left is not right and left.data == right.data
        comparator = StateComparator(ComparisonStrategy.DIRTY_HASH, PAGE)
        result = comparator.compare(proc, twin, dirty_vpns={vpn})
        assert result.match
        assert result.bytes_hashed == 2 * PAGE

    def test_dirty_hash_requires_vpns(self):
        _, proc, twin = spawn_pair()
        comparator = StateComparator(ComparisonStrategy.DIRTY_HASH, PAGE)
        with pytest.raises(ValueError):
            comparator.compare(proc, twin, dirty_vpns=None)

    @given(st.integers(min_value=0, max_value=PAGE // 8 - 1),
           st.integers(min_value=0, max_value=63))
    @settings(max_examples=25, deadline=None)
    def test_any_single_bit_flip_detected(self, word, bit):
        _, proc, twin = spawn_pair()
        address = DATA_BASE + word * 8
        proc.mem.store_word(address, proc.mem.load_word(address) ^ (1 << bit))
        comparator = StateComparator(ComparisonStrategy.DIRTY_HASH, PAGE)
        result = comparator.compare(proc, twin,
                                    dirty_vpns={DATA_BASE // PAGE})
        assert not result.match


class TestDirtyTracker:
    def test_soft_dirty_backend_clears_and_tracks(self):
        kernel, proc, twin = spawn_pair()
        tracker = DirtyPageTracker(DirtyPageBackend.SOFT_DIRTY, PAGE)
        pages = tracker.begin_segment(proc)
        assert pages == proc.mem.mapped_pages
        assert tracker.dirty_vpns(proc) == []
        proc.mem.store_word(DATA_BASE, 5)
        assert tracker.dirty_vpns(proc) == [DATA_BASE // PAGE]

    def test_map_count_backend_needs_no_clearing(self):
        kernel, proc, twin = spawn_pair()
        tracker = DirtyPageTracker(DirtyPageBackend.MAP_COUNT, PAGE)
        assert tracker.begin_segment(proc) == 0
        assert tracker.dirty_vpns(proc) == []
        proc.mem.store_word(DATA_BASE, 5)
        assert DATA_BASE // PAGE in tracker.dirty_vpns(proc)

    def test_backends_agree_on_write_sets(self):
        kernel, proc, twin = spawn_pair()
        soft = DirtyPageTracker(DirtyPageBackend.SOFT_DIRTY, PAGE)
        mapc = DirtyPageTracker(DirtyPageBackend.MAP_COUNT, PAGE)
        soft.begin_segment(proc)
        for offset in (0, PAGE, 3 * PAGE + 64):
            proc.mem.store_word(DATA_BASE + (offset // 8) * 8, offset)
        assert soft.dirty_vpns(proc) == mapc.dirty_vpns(proc)

    def test_cost_counters_accumulate(self):
        kernel, proc, twin = spawn_pair()
        tracker = DirtyPageTracker(DirtyPageBackend.SOFT_DIRTY, PAGE)
        tracker.begin_segment(proc)
        tracker.dirty_vpns(proc)
        assert tracker.pages_cleared > 0
        assert tracker.pages_scanned > 0
