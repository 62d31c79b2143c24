"""The instruction interpreter.

``run(proc, budget)`` executes up to ``budget`` instructions of one process
and returns a :class:`~repro.cpu.exceptions.Stop` when something the kernel
must handle occurs: a syscall (stopped *before* execution, ptrace-style), a
hardware breakpoint, an armed perf-counter overflow (with modelled skid), a
``brk`` patch site, a trapped nondeterministic instruction, a fault, or halt.

The loop is deliberately flat, single-exit and local-variable-heavy: it is
the hot path of the whole reproduction (every main *and* checker instruction
goes through it).  Stopping instructions (syscall, brk, nondet, fault, halt)
do **not** retire; the kernel retires them when it completes them, exactly
like a trapping instruction on real hardware.

Data accesses go through a software TLB that lives for one ``run`` call:
one dict maps a virtual page number to its frame's bytes for reads, a
second one for writes.  A miss takes the address space's own slow path
(``pte_for_read`` / ``pte_for_write``), which owns page faults,
protection, copy-on-write, soft-dirty marking and frame-pool charging; a
page enters the write TLB only after that path has resolved a store to it.
Nothing else can change the page table while ``run`` executes, except the
frame pool's emergency reclaim inside a COW copy, so both dicts are
flushed whenever a store copied a frame.
"""

from __future__ import annotations

import struct

from repro.common.errors import FramePoolExhausted
from repro.cpu.exceptions import Fault, FaultKind, Stop, StopReason
from repro.mem.address_space import PageFault

_TWO63 = 1 << 63
_TWO64 = 1 << 64
_MASK64 = _TWO64 - 1
_HUGE = 1 << 62

_WORD = struct.Struct("<q")
_UWORD = struct.Struct("<Q")
_DOUBLE = struct.Struct("<d")


def _read_miss(mem, address: int, rtlb: dict) -> bytearray:
    """Fill the read TLB for ``address`` (or raise its ``PageFault``)."""
    pte, _ = mem.pte_for_read(address)
    data = rtlb[address // mem.page_size] = pte.frame.data
    return data


def _write_miss(mem, address: int, rtlb: dict, wtlb: dict) -> bytearray:
    """Resolve a store through the slow path and fill both TLBs.

    A COW copy may have run the frame pool's emergency reclaim, which can
    shed or evict other processes, so a copy flushes every cached page.
    """
    cow_faults = mem.cow_faults
    pte, _ = mem.pte_for_write(address)
    if mem.cow_faults != cow_faults:
        rtlb.clear()
        wtlb.clear()
    vpn = address // mem.page_size
    data = rtlb[vpn] = wtlb[vpn] = pte.frame.data
    return data


def run(proc, budget: int) -> Stop:
    """Run ``proc`` for at most ``budget`` instructions.

    ``proc`` must expose ``cpu`` (CpuContext), ``mem`` (AddressSpace),
    ``nondet`` (NondetSource) and ``skid_draw()``.  Counter state is read
    from and written back to ``proc.cpu``.
    """
    cpu = proc.cpu
    mem = proc.mem
    regs = cpu.regs.gprs
    fregs = cpu.regs.fprs
    vregs = cpu.regs.vecs
    code = mem.code
    code_base = mem.code_base
    code_len = len(code)

    pc = cpu.pc
    ir = cpu.instr_retired
    bc = cpu.branches_retired
    mc = cpu.mem_ops_retired
    overcount = cpu.instr_overcount

    branch_target = cpu.branch_overflow_target
    deliver_at = cpu.overflow_deliver_at
    instr_ovf_at = cpu.instr_overflow_at

    bps = cpu.breakpoints
    skip_pc = cpu.bp_skip_pc if cpu.bp_skip_pc is not None else -1
    cpu.bp_skip_pc = None
    trap_nondet = cpu.trap_nondet

    page_size = mem.page_size
    fp_last = page_size - 8
    rtlb = {}
    wtlb = {}
    rget = rtlb.get
    wget = wtlb.get
    unpack_word = _WORD.unpack_from
    pack_word = _UWORD.pack_into
    unpack_double = _DOUBLE.unpack_from
    pack_double = _DOUBLE.pack_into

    # The counted instruction number is ``base + executed``, so the
    # budget and both counter-overflow points fold into one bound on
    # ``executed``; the stop reason is decided after the loop.
    base = ir + overcount
    limit = min(budget, deliver_at - base, instr_ovf_at - base)
    executed = 0
    stop = None

    while executed < limit:
        if bps and pc in bps and pc != skip_pc:
            stop = Stop(StopReason.BREAKPOINT, executed)
            break
        skip_pc = -1

        index = (pc - code_base) >> 2
        if index < 0 or index >= code_len:
            stop = Stop(StopReason.FAULT, executed,
                        Fault(FaultKind.PAGE_FAULT, pc, "exec"))
            break
        instr = code[index]
        op = instr.op

        try:
            if op <= 16:  # NOP..SNE
                if op >= 2:  # ALU r3
                    a_val = regs[instr.b]
                    b_val = regs[instr.c]
                    if op == 2:      # ADD
                        value = a_val + b_val
                    elif op == 3:    # SUB
                        value = a_val - b_val
                    elif op == 4:    # MUL
                        value = a_val * b_val
                    elif op == 5:    # DIV
                        if b_val == 0:
                            stop = Stop(StopReason.FAULT, executed,
                                        Fault(FaultKind.DIVIDE_BY_ZERO, pc))
                            break
                        value = abs(a_val) // abs(b_val)
                        if (a_val < 0) != (b_val < 0):
                            value = -value
                    elif op == 6:    # MOD
                        if b_val == 0:
                            stop = Stop(StopReason.FAULT, executed,
                                        Fault(FaultKind.DIVIDE_BY_ZERO, pc))
                            break
                        quotient = abs(a_val) // abs(b_val)
                        if (a_val < 0) != (b_val < 0):
                            quotient = -quotient
                        value = a_val - quotient * b_val
                    elif op == 7:    # AND
                        value = a_val & b_val
                    elif op == 8:    # OR
                        value = a_val | b_val
                    elif op == 9:    # XOR
                        value = a_val ^ b_val
                    elif op == 10:   # SLL
                        value = a_val << (b_val & 63)
                    elif op == 11:   # SRL
                        value = (a_val & (_TWO64 - 1)) >> (b_val & 63)
                    elif op == 12:   # SRA
                        value = a_val >> (b_val & 63)
                    elif op == 13:   # SLT
                        value = 1 if a_val < b_val else 0
                    elif op == 14:   # SLE
                        value = 1 if a_val <= b_val else 0
                    elif op == 15:   # SEQ
                        value = 1 if a_val == b_val else 0
                    else:            # SNE
                        value = 1 if a_val != b_val else 0
                    regs[instr.a] = ((value + _TWO63) % _TWO64) - _TWO63
                elif op == 1:  # HALT
                    cpu.halted = True
                    stop = Stop(StopReason.HALTED, executed)
                    break
                # NOP: nothing
                pc += 4
            elif op <= 25:  # ALU immediate group
                if op == 24:       # LI
                    regs[instr.a] = ((instr.imm + _TWO63) % _TWO64) - _TWO63
                elif op == 25:     # MOV
                    regs[instr.a] = regs[instr.b]
                else:
                    a_val = regs[instr.b]
                    imm = instr.imm
                    if op == 17:   # ADDI
                        value = a_val + imm
                    elif op == 18:  # ANDI
                        value = a_val & imm
                    elif op == 19:  # ORI
                        value = a_val | imm
                    elif op == 20:  # XORI
                        value = a_val ^ imm
                    elif op == 21:  # SLLI
                        value = a_val << (imm & 63)
                    elif op == 22:  # SRLI
                        value = (a_val & (_TWO64 - 1)) >> (imm & 63)
                    else:           # MULI
                        value = a_val * imm
                    regs[instr.a] = ((value + _TWO63) % _TWO64) - _TWO63
                pc += 4
            elif op <= 29:  # memory
                address = regs[instr.b] + instr.imm
                if op == 26:       # LD
                    if address % 8:
                        raise PageFault(address, "misaligned-read")
                    data = rget(address // page_size)
                    if data is None:
                        data = _read_miss(mem, address, rtlb)
                    regs[instr.a] = unpack_word(data, address % page_size)[0]
                elif op == 27:     # ST
                    if address % 8:
                        raise PageFault(address, "misaligned-write")
                    data = wget(address // page_size)
                    if data is None:
                        data = _write_miss(mem, address, rtlb, wtlb)
                    pack_word(data, address % page_size,
                              regs[instr.a] & _MASK64)
                elif op == 28:     # LDB
                    data = rget(address // page_size)
                    if data is None:
                        data = _read_miss(mem, address, rtlb)
                    regs[instr.a] = data[address % page_size]
                else:              # STB
                    data = wget(address // page_size)
                    if data is None:
                        data = _write_miss(mem, address, rtlb, wtlb)
                    data[address % page_size] = regs[instr.a] & 0xFF
                mc += 1
                pc += 4
            elif op <= 38:  # control flow
                if op == 30:       # JMP
                    pc = instr.imm
                elif op == 31:     # JAL
                    regs[14] = pc + 4
                    pc = instr.imm
                elif op == 32:     # JR
                    pc = regs[instr.b]
                else:
                    a_val = regs[instr.b]
                    b_val = regs[instr.c]
                    if op == 33:    # BEQ
                        taken = a_val == b_val
                    elif op == 34:  # BNE
                        taken = a_val != b_val
                    elif op == 35:  # BLT
                        taken = a_val < b_val
                    elif op == 36:  # BGE
                        taken = a_val >= b_val
                    elif op == 37:  # BLE
                        taken = a_val <= b_val
                    else:           # BGT
                        taken = a_val > b_val
                    pc = instr.imm if taken else pc + 4
                bc += 1
                if bc >= branch_target:
                    branch_target = _HUGE
                    deliver_at = base + executed + 1 + proc.skid_draw()
                    if deliver_at - base < limit:
                        limit = deliver_at - base
            elif op <= 51:  # floating point
                if op == 39:
                    fregs[instr.a] = fregs[instr.b] + fregs[instr.c]
                elif op == 40:
                    fregs[instr.a] = fregs[instr.b] - fregs[instr.c]
                elif op == 41:
                    fregs[instr.a] = fregs[instr.b] * fregs[instr.c]
                elif op == 42:
                    divisor = fregs[instr.c]
                    if divisor == 0.0:
                        stop = Stop(StopReason.FAULT, executed,
                                    Fault(FaultKind.DIVIDE_BY_ZERO, pc, "fp"))
                        break
                    fregs[instr.a] = fregs[instr.b] / divisor
                elif op == 43:  # FLD
                    address = regs[instr.b] + instr.imm
                    offset = address % page_size
                    if offset > fp_last:  # straddles two pages
                        fregs[instr.a] = _DOUBLE.unpack(
                            mem.read_bytes(address, 8))[0]
                    else:
                        data = rget(address // page_size)
                        if data is None:
                            data = _read_miss(mem, address, rtlb)
                        fregs[instr.a] = unpack_double(data, offset)[0]
                    mc += 1
                elif op == 44:  # FST
                    address = regs[instr.b] + instr.imm
                    offset = address % page_size
                    if offset > fp_last:  # straddles two pages
                        cow_faults = mem.cow_faults
                        mem.write_bytes(address,
                                        _DOUBLE.pack(fregs[instr.a]))
                        if mem.cow_faults != cow_faults:
                            rtlb.clear()
                            wtlb.clear()
                    else:
                        data = wget(address // page_size)
                        if data is None:
                            data = _write_miss(mem, address, rtlb, wtlb)
                        pack_double(data, offset, fregs[instr.a])
                    mc += 1
                elif op == 45:  # FLI
                    fregs[instr.a] = float(instr.imm)
                elif op == 46:  # FMOV
                    fregs[instr.a] = fregs[instr.b]
                elif op == 47:  # FCVT (int -> float)
                    fregs[instr.a] = float(regs[instr.b])
                elif op == 48:  # ICVT (float -> int, truncating)
                    value = int(fregs[instr.b])
                    regs[instr.a] = ((value + _TWO63) % _TWO64) - _TWO63
                elif op == 49:  # FLT
                    regs[instr.a] = 1 if fregs[instr.b] < fregs[instr.c] else 0
                elif op == 50:  # FLE
                    regs[instr.a] = 1 if fregs[instr.b] <= fregs[instr.c] else 0
                else:           # FEQ
                    regs[instr.a] = 1 if fregs[instr.b] == fregs[instr.c] else 0
                pc += 4
            elif op <= 58:  # vector
                if op == 52:   # VADD
                    lhs, rhs = vregs[instr.b], vregs[instr.c]
                    vregs[instr.a] = [
                        ((lhs[i] + rhs[i] + _TWO63) % _TWO64) - _TWO63
                        for i in range(4)]
                elif op == 53:  # VMUL
                    lhs, rhs = vregs[instr.b], vregs[instr.c]
                    vregs[instr.a] = [
                        ((lhs[i] * rhs[i] + _TWO63) % _TWO64) - _TWO63
                        for i in range(4)]
                elif op == 54:  # VXOR
                    lhs, rhs = vregs[instr.b], vregs[instr.c]
                    vregs[instr.a] = [lhs[i] ^ rhs[i] for i in range(4)]
                elif op == 55:  # VLD
                    address = regs[instr.b] + instr.imm
                    if address % 8:
                        raise PageFault(address, "misaligned-read")
                    lanes = []
                    for lane in range(address, address + 32, 8):
                        data = rget(lane // page_size)
                        if data is None:
                            data = _read_miss(mem, lane, rtlb)
                        lanes.append(unpack_word(data, lane % page_size)[0])
                    vregs[instr.a] = lanes
                    mc += 1
                elif op == 56:  # VST
                    address = regs[instr.b] + instr.imm
                    if address % 8:
                        raise PageFault(address, "misaligned-write")
                    for lane, value in zip(range(address, address + 32, 8),
                                           vregs[instr.a]):
                        data = wget(lane // page_size)
                        if data is None:
                            data = _write_miss(mem, lane, rtlb, wtlb)
                        pack_word(data, lane % page_size, value & _MASK64)
                    mc += 1
                elif op == 57:  # VBCAST
                    value = regs[instr.b]
                    vregs[instr.a] = [value] * 4
                else:           # VRED
                    total = sum(vregs[instr.b])
                    regs[instr.a] = ((total + _TWO63) % _TWO64) - _TWO63
                pc += 4
            else:  # system group
                if op == 59:   # SYSCALL: stop before executing (ptrace-style)
                    stop = Stop(StopReason.SYSCALL, executed)
                    break
                if op == 63:   # BRK
                    stop = Stop(StopReason.BRK, executed)
                    break
                if trap_nondet:
                    stop = Stop(StopReason.NONDET, executed)
                    break
                if op == 60:   # RDTSC
                    regs[instr.a] = proc.nondet.read_tsc()
                elif op == 61:  # MRS
                    regs[instr.a] = proc.nondet.read_sysreg(instr.imm)
                else:           # CPUID
                    regs[instr.a] = proc.nondet.cpuid()
                pc += 4
        except PageFault as fault:
            stop = Stop(StopReason.FAULT, executed,
                        Fault(FaultKind.PAGE_FAULT, fault.address,
                              fault.access))
            break
        except FramePoolExhausted as exc:
            # A COW resolution overran the frame-pool budget.  The pool
            # reserves *before* mutating and the faulting store has not
            # advanced pc, so stopping here leaves the process resumable:
            # waking it retries the same instruction.
            stop = Stop(StopReason.OOM, executed, needed=exc.needed)
            break

        executed += 1

    if stop is None:
        # Same precedence as checking each bound before every instruction.
        if executed >= budget:
            stop = Stop(StopReason.BUDGET, executed)
        elif base + executed >= deliver_at:
            deliver_at = _HUGE
            branch_target = _HUGE
            stop = Stop(StopReason.COUNTER_OVERFLOW, executed)
        else:
            instr_ovf_at = _HUGE
            stop = Stop(StopReason.INSTR_OVERFLOW, executed)

    cpu.pc = pc
    cpu.instr_retired = ir + executed
    cpu.branches_retired = bc
    cpu.mem_ops_retired = mc
    cpu.instr_overcount = overcount
    cpu.branch_overflow_target = branch_target
    cpu.overflow_deliver_at = deliver_at
    cpu.instr_overflow_at = instr_ovf_at
    return stop
