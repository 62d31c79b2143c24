"""Tests for the CPU interpreter: semantics, counters, breakpoints, traps."""

import struct

import pytest

from repro.cpu import CpuContext, StopReason, run
from repro.cpu.exceptions import FaultKind
from repro.isa import DATA_BASE, assemble
from repro.mem import PROT_READ, AddressSpace, FramePool

PAGE = 4096


class StubNondet:
    def __init__(self):
        self.tsc = 1000

    def read_tsc(self):
        self.tsc += 7
        return self.tsc

    def read_sysreg(self, sysreg):
        return 0xB16 if sysreg == 0 else sysreg

    def cpuid(self):
        return 0xC0DE


class StubProcess:
    """Minimal duck-typed process for driving the interpreter directly."""

    def __init__(self, source, data=b"", skid=0):
        self.pool = FramePool(PAGE)
        self.mem = AddressSpace(self.pool, aslr=False)
        program = assemble(source)
        if data:
            program = type(program)(program.instrs, program.labels, data, "t")
        self.mem.load_program(program)
        self.cpu = CpuContext()
        self.cpu.pc = program.entry
        self.nondet = StubNondet()
        self._skid = skid

    def skid_draw(self):
        return self._skid

    def run(self, budget=100000):
        return run(self, budget)


class TestArithmetic:
    def test_add_loop_sums(self):
        proc = StubProcess("""
            li r1, 0
            li r2, 10
        loop:
            add r1, r1, r2
            addi r2, r2, -1
            bne r2, r0, loop
            halt
        """)
        stop = proc.run()
        assert stop.reason == StopReason.HALTED
        assert proc.cpu.regs.gprs[1] == sum(range(1, 11))

    def test_signed_wraparound(self):
        proc = StubProcess("""
            li r1, 0x7fffffffffffffff
            addi r1, r1, 1
            halt
        """)
        proc.run()
        assert proc.cpu.regs.gprs[1] == -(1 << 63)

    def test_division_truncates_toward_zero(self):
        proc = StubProcess("""
            li r1, -7
            li r2, 2
            div r3, r1, r2
            mod r4, r1, r2
            halt
        """)
        proc.run()
        assert proc.cpu.regs.gprs[3] == -3  # C semantics, not Python floor
        assert proc.cpu.regs.gprs[4] == -1

    def test_divide_by_zero_faults(self):
        proc = StubProcess("li r1, 1\ndiv r2, r1, r0\nhalt\n")
        stop = proc.run()
        assert stop.reason == StopReason.FAULT
        assert stop.fault.kind == FaultKind.DIVIDE_BY_ZERO

    def test_shifts(self):
        proc = StubProcess("""
            li r1, -8
            li r2, 1
            sra r3, r1, r2
            srl r4, r1, r2
            li r6, 2
            sll r5, r2, r6
            halt
        """)
        proc.run()
        assert proc.cpu.regs.gprs[3] == -4
        # Logical shift of -8: top bit becomes 0, value is large positive
        # (wrapped back to signed representation).
        expected_srl = ((-8) & ((1 << 64) - 1)) >> 1
        from repro.cpu import from_unsigned
        assert proc.cpu.regs.gprs[4] == from_unsigned(expected_srl)
        assert proc.cpu.regs.gprs[5] == 4

    def test_compare_ops(self):
        proc = StubProcess("""
            li r1, 3
            li r2, 5
            slt r3, r1, r2
            sle r4, r2, r2
            seq r5, r1, r2
            sne r6, r1, r2
            halt
        """)
        proc.run()
        regs = proc.cpu.regs.gprs
        assert (regs[3], regs[4], regs[5], regs[6]) == (1, 1, 0, 1)


class TestMemoryOps:
    def test_load_store(self):
        proc = StubProcess("""
            la r1, 0x1000000
            li r2, 77
            st r2, r1, 8
            ld r3, r1, 8
            halt
        """, data=b"\x00" * 64)
        proc.run()
        assert proc.cpu.regs.gprs[3] == 77

    def test_byte_ops_unsigned(self):
        proc = StubProcess("""
            la r1, 0x1000000
            li r2, 0xff
            stb r2, r1, 0
            ldb r3, r1, 0
            halt
        """, data=b"\x00" * 8)
        proc.run()
        assert proc.cpu.regs.gprs[3] == 255

    def test_unmapped_store_faults(self):
        proc = StubProcess("li r1, 0x40000000\nst r1, r1, 0\nhalt\n")
        stop = proc.run()
        assert stop.reason == StopReason.FAULT
        assert stop.fault.kind == FaultKind.PAGE_FAULT
        assert stop.fault.address == 0x40000000

    def test_mem_ops_counted(self):
        proc = StubProcess("""
            la r1, 0x1000000
            ld r2, r1, 0
            st r2, r1, 8
            halt
        """, data=b"\x00" * 64)
        proc.run()
        assert proc.cpu.mem_ops_retired == 2


class TestFloatAndVector:
    def test_float_arithmetic(self):
        proc = StubProcess("""
            fli f0, 1.5
            fli f1, 2.5
            fadd f2, f0, f1
            fmul f3, f0, f1
            halt
        """)
        proc.run()
        assert proc.cpu.regs.fprs[2] == 4.0
        assert proc.cpu.regs.fprs[3] == 3.75

    def test_float_conversions(self):
        proc = StubProcess("""
            li r1, 7
            fcvt f0, r1
            fli f1, 2.0
            fdiv f2, f0, f1
            icvt r2, f2
            halt
        """)
        proc.run()
        assert proc.cpu.regs.fprs[2] == 3.5
        assert proc.cpu.regs.gprs[2] == 3

    def test_float_compare(self):
        proc = StubProcess("""
            fli f0, 1.0
            fli f1, 2.0
            flt r1, f0, f1
            fle r2, f1, f0
            feq r3, f0, f0
            halt
        """)
        proc.run()
        regs = proc.cpu.regs.gprs
        assert (regs[1], regs[2], regs[3]) == (1, 0, 1)

    def test_fp_memory_round_trip(self):
        proc = StubProcess("""
            la r1, 0x1000000
            fli f0, 6.25
            fst f0, r1, 16
            fld f1, r1, 16
            halt
        """, data=b"\x00" * 64)
        proc.run()
        assert proc.cpu.regs.fprs[1] == 6.25

    def test_vector_ops(self):
        proc = StubProcess("""
            li r1, 3
            vbcast v0, r1
            vadd v1, v0, v0
            vred r2, v1
            halt
        """)
        proc.run()
        assert proc.cpu.regs.vecs[1] == [6, 6, 6, 6]
        assert proc.cpu.regs.gprs[2] == 24

    def test_vector_memory(self):
        proc = StubProcess("""
            la r1, 0x1000000
            li r2, 9
            vbcast v0, r2
            vst v0, r1, 0
            vld v1, r1, 0
            vred r3, v1
            halt
        """, data=b"\x00" * 64)
        proc.run()
        assert proc.cpu.regs.gprs[3] == 36


class TestControlAndCalls:
    def test_call_ret(self):
        proc = StubProcess("""
        _start:
            li r1, 5
            call double
            halt
        double:
            add r1, r1, r1
            ret
        """)
        proc.run()
        assert proc.cpu.regs.gprs[1] == 10

    def test_branch_counting(self):
        proc = StubProcess("""
            li r1, 4
        loop:
            addi r1, r1, -1
            bne r1, r0, loop
            halt
        """)
        proc.run()
        # 4 conditional branch retirements (3 taken + 1 fall-through)
        assert proc.cpu.branches_retired == 4

    def test_jal_jr_count_as_branches(self):
        proc = StubProcess("""
            call fn
            halt
        fn:
            ret
        """)
        proc.run()
        assert proc.cpu.branches_retired == 2


class TestStops:
    def test_budget_stop_resumes_exactly(self):
        proc = StubProcess("""
            li r1, 100
        loop:
            addi r1, r1, -1
            bne r1, r0, loop
            halt
        """)
        while True:
            stop = run(proc, 7)  # odd quantum to hit mid-loop
            if stop.reason == StopReason.HALTED:
                break
            assert stop.reason == StopReason.BUDGET
        assert proc.cpu.regs.gprs[1] == 0

    def test_syscall_stops_before_executing(self):
        proc = StubProcess("""
            li r0, 39
            syscall
            halt
        """)
        stop = proc.run()
        assert stop.reason == StopReason.SYSCALL
        # pc still points at the syscall instruction
        assert proc.mem.fetch(proc.cpu.pc).op == 59

    def test_breakpoint_stop_and_resume(self):
        proc = StubProcess("""
            li r1, 1
            li r2, 2
            li r3, 3
            halt
        """)
        target = proc.mem.code_base + 8  # third instruction
        proc.cpu.breakpoints.add(target)
        stop = proc.run()
        assert stop.reason == StopReason.BREAKPOINT
        assert proc.cpu.pc == target
        assert proc.cpu.regs.gprs[3] == 0
        proc.cpu.bp_skip_pc = target
        stop = proc.run()
        assert stop.reason == StopReason.HALTED
        assert proc.cpu.regs.gprs[3] == 3

    def test_breakpoint_in_loop_hits_every_iteration(self):
        proc = StubProcess("""
            li r1, 3
        loop:
            addi r1, r1, -1
            bne r1, r0, loop
            halt
        """)
        loop_addr = proc.mem.code_base + 4
        proc.cpu.breakpoints.add(loop_addr)
        hits = 0
        while True:
            stop = proc.run()
            if stop.reason == StopReason.HALTED:
                break
            assert stop.reason == StopReason.BREAKPOINT
            hits += 1
            proc.cpu.bp_skip_pc = proc.cpu.pc
        assert hits == 3

    def test_branch_counter_overflow_no_skid(self):
        proc = StubProcess("""
            li r1, 10
        loop:
            addi r1, r1, -1
            bne r1, r0, loop
            halt
        """)
        proc.cpu.arm_branch_overflow(5)
        stop = proc.run()
        assert stop.reason == StopReason.COUNTER_OVERFLOW
        assert proc.cpu.branches_retired == 5

    def test_branch_counter_overflow_with_skid(self):
        proc = StubProcess("""
            li r1, 10
        loop:
            addi r1, r1, -1
            bne r1, r0, loop
            halt
        """, skid=3)
        proc.cpu.arm_branch_overflow(5)
        stop = proc.run()
        assert stop.reason == StopReason.COUNTER_OVERFLOW
        # Skid: stopped 3 instructions past the overflowing branch.
        assert proc.cpu.branches_retired > 5

    def test_instruction_overflow(self):
        proc = StubProcess("""
        loop:
            addi r1, r1, 1
            jmp loop
        """)
        proc.cpu.arm_instr_overflow(50)
        stop = proc.run()
        assert stop.reason == StopReason.INSTR_OVERFLOW
        assert proc.cpu.instr_retired == 50

    def test_nondet_native_execution(self):
        proc = StubProcess("""
            rdtsc r1
            rdtsc r2
            mrs r3, 0
            cpuid r4
            halt
        """)
        proc.run()
        regs = proc.cpu.regs.gprs
        assert regs[2] > regs[1]  # tsc monotonic
        assert regs[3] == 0xB16
        assert regs[4] == 0xC0DE

    def test_nondet_trapped_when_enabled(self):
        proc = StubProcess("rdtsc r1\nhalt\n")
        proc.cpu.trap_nondet = True
        stop = proc.run()
        assert stop.reason == StopReason.NONDET
        assert proc.cpu.regs.gprs[1] == 0  # not executed

    def test_brk_stop(self):
        from repro.isa import make_brk
        proc = StubProcess("nop\nnop\nhalt\n")
        proc.mem.patch_code(proc.mem.code_base + 4, make_brk())
        stop = proc.run()
        assert stop.reason == StopReason.BRK
        assert proc.cpu.pc == proc.mem.code_base + 4

    def test_exec_off_end_faults(self):
        proc = StubProcess("nop\n")  # no halt: falls off the end
        stop = proc.run()
        assert stop.reason == StopReason.FAULT
        assert stop.fault.detail == "exec"


class TestSoftwareTlb:
    """Accesses cached by the per-run TLB behave like the slow paths."""

    VPN = DATA_BASE // PAGE

    def test_load_then_store_to_cow_page_copies_it(self):
        proc = StubProcess("""
            la r1, 0x1000000
            ld r3, r1, 8
            li r2, 5
            st r2, r1, 8
            ld r4, r1, 8
            halt
        """, data=struct.pack("<2q", 0, 41))
        sibling = proc.mem.fork()
        assert proc.run().reason == StopReason.HALTED
        regs = proc.cpu.regs.gprs
        assert (regs[3], regs[4]) == (41, 5)  # second load sees the copy
        assert proc.mem.cow_faults == 1
        assert proc.mem.frame_id(self.VPN) != sibling.frame_id(self.VPN)
        assert sibling.load_word(DATA_BASE + 8) == 41

    def test_load_then_store_to_read_only_page_faults(self):
        proc = StubProcess("""
            la r1, 0x1000000
            ld r3, r1, 0
            st r3, r1, 0
            halt
        """, data=struct.pack("<q", 7))
        proc.mem.mprotect(DATA_BASE, PAGE, PROT_READ)
        stop = proc.run()
        assert stop.reason == StopReason.FAULT
        assert stop.fault.kind == FaultKind.PAGE_FAULT
        assert (stop.fault.address, stop.fault.detail) == (DATA_BASE, "write")
        assert proc.cpu.regs.gprs[3] == 7
        assert proc.cpu.pc == proc.mem.code_base + 8  # at the store

    @pytest.mark.parametrize("instr,detail", [
        ("ld r2, r1, 3", "misaligned-read"),
        ("st r2, r1, 3", "misaligned-write"),
        ("vld v0, r1, 4", "misaligned-read"),
        ("vst v0, r1, 4", "misaligned-write"),
    ])
    def test_misaligned_word_access(self, instr, detail):
        proc = StubProcess(f"la r1, 0x1000000\n{instr}\nhalt\n",
                           data=b"\x00" * 64)
        stop = proc.run()
        assert stop.reason == StopReason.FAULT
        offset = int(instr.rsplit(",", 1)[1])
        assert (stop.fault.address, stop.fault.detail) == \
            (DATA_BASE + offset, detail)

    def test_fp_access_straddling_two_mapped_pages(self):
        proc = StubProcess("""
            la r1, 0x1000000
            fld f0, r1, 4092
            ld r5, r1, 4088
            fli f1, 0.1
            fst f1, r1, 4090
            ld r6, r1, 4088
            halt
        """, data=b"\x00" * (2 * PAGE))
        proc.mem.write_bytes(DATA_BASE + PAGE - 4, struct.pack("<d", -1.1))
        sibling = proc.mem.fork()
        before = sibling.read_bytes(DATA_BASE + PAGE - 6, 8)
        assert proc.run().reason == StopReason.HALTED
        assert proc.cpu.regs.fprs[0] == -1.1
        regs = proc.cpu.regs.gprs
        assert regs[5] != regs[6] == proc.mem.load_word(DATA_BASE + PAGE - 8)
        assert proc.mem.read_bytes(DATA_BASE + PAGE - 6, 8) == \
            struct.pack("<d", 0.1)
        assert proc.mem.cow_faults == 2
        assert sibling.read_bytes(DATA_BASE + PAGE - 6, 8) == before

    @pytest.mark.parametrize("instr,detail", [
        ("fld f0, r1, 4092", "read"),
        ("fst f0, r1, 4092", "write"),
    ])
    def test_fp_access_straddling_into_unmapped_page(self, instr, detail):
        proc = StubProcess(f"la r1, 0x1000000\nfli f0, 3.0\n{instr}\nhalt\n",
                           data=b"\x00" * PAGE)
        stop = proc.run()
        assert stop.reason == StopReason.FAULT
        assert (stop.fault.address, stop.fault.detail) == \
            (DATA_BASE + PAGE, detail)
        if detail == "write":  # the first page's half is already written
            assert proc.mem.read_bytes(DATA_BASE + PAGE - 4, 4) == \
                struct.pack("<d", 3.0)[:4]

    def test_vector_store_into_unmapped_page_writes_leading_lanes(self):
        proc = StubProcess("""
            la r1, 0x1000000
            li r2, 6
            vbcast v0, r2
            vst v0, r1, 4080
            halt
        """, data=b"\x00" * PAGE)
        stop = proc.run()
        assert (stop.fault.address, stop.fault.detail) == \
            (DATA_BASE + PAGE, "write")
        assert proc.mem.load_word(DATA_BASE + PAGE - 8) == 6

    def test_first_store_over_budget_stops_oom_and_retries(self):
        proc = StubProcess("""
            la r1, 0x1000000
            ld r3, r1, 0
            st r1, r1, 0
            halt
        """, data=b"\x00" * 64)
        sibling = proc.mem.fork()
        proc.pool.set_budget(proc.pool.resident_bytes)
        stop = proc.run()
        assert (stop.reason, stop.needed) == (StopReason.OOM, PAGE)
        assert proc.cpu.pc == proc.mem.code_base + 8  # store not retired
        assert proc.cpu.instr_retired == 2
        assert proc.mem.cow_faults == 0
        proc.pool.set_budget(None)
        assert proc.run().reason == StopReason.HALTED
        assert proc.mem.load_word(DATA_BASE) == DATA_BASE
        assert sibling.load_word(DATA_BASE) == 0

    def test_reclaim_during_cow_copy_is_seen_by_later_loads(self):
        proc = StubProcess("""
            la r1, 0x1000000
            ld r3, r1, 4096
            st r1, r1, 0
            ld r4, r1, 4096
            halt
        """, data=b"\x00" * (2 * PAGE))
        sibling = proc.mem.fork()

        def reclaim(_needed):  # frees the second page in both spaces
            for space in (proc.mem, sibling):
                space.munmap(DATA_BASE + PAGE, PAGE)

        proc.pool.reclaim_hook = reclaim
        proc.pool.set_budget(proc.pool.resident_bytes)
        stop = proc.run()
        assert stop.reason == StopReason.FAULT
        assert (stop.fault.address, stop.fault.detail) == \
            (DATA_BASE + PAGE, "read")
        assert proc.mem.load_word(DATA_BASE) == DATA_BASE

    def test_budget_wins_over_overflow_armed_by_last_instruction(self):
        proc = StubProcess("""
            li r1, 10
        loop:
            addi r1, r1, -1
            bne r1, r0, loop
            halt
        """)
        proc.cpu.arm_branch_overflow(1)
        stop = proc.run(budget=3)  # the third instruction is the branch
        assert (stop.reason, stop.executed) == (StopReason.BUDGET, 3)
        stop = proc.run(budget=3)
        assert (stop.reason, stop.executed) == \
            (StopReason.COUNTER_OVERFLOW, 0)
        assert proc.cpu.instr_retired == 3

    def test_counter_overflow_wins_over_instruction_overflow(self):
        proc = StubProcess("""
            li r1, 10
        loop:
            addi r1, r1, -1
            bne r1, r0, loop
            halt
        """)
        proc.cpu.arm_branch_overflow(1)
        proc.cpu.arm_instr_overflow(3)
        stop = proc.run()
        assert (stop.reason, stop.executed) == \
            (StopReason.COUNTER_OVERFLOW, 3)
        stop = proc.run()
        assert (stop.reason, stop.executed) == (StopReason.INSTR_OVERFLOW, 0)


class TestDeterminism:
    def test_two_runs_identical_counters(self):
        def execute():
            proc = StubProcess("""
                li r1, 50
                la r2, 0x1000000
            loop:
                st r1, r2, 0
                ld r3, r2, 0
                addi r1, r1, -1
                bne r1, r0, loop
                halt
            """, data=b"\x00" * 64)
            proc.run()
            return (proc.cpu.instr_retired, proc.cpu.branches_retired,
                    proc.cpu.regs.snapshot())
        assert execute() == execute()

    def test_quantum_size_does_not_change_result(self):
        def execute(quantum):
            proc = StubProcess("""
                li r1, 30
            loop:
                add r2, r2, r1
                addi r1, r1, -1
                bne r1, r0, loop
                halt
            """)
            while run(proc, quantum).reason == StopReason.BUDGET:
                pass
            return proc.cpu.regs.snapshot(), proc.cpu.branches_retired
        assert execute(1) == execute(7) == execute(1000)
