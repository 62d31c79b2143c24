"""Ptrace-style tracing interface.

The real Parallaft traces its children with ``ptrace(2)``: it is stopped-on
and consulted at every syscall entry/exit, signal delivery, breakpoint and
perf-counter overflow, and may read/modify tracee registers and memory.  We
model that as a :class:`Tracer` object the kernel/executor calls
synchronously at each stop.  Because the tracer runs in-process, register
and memory access is direct; the *cost* of each tracer round-trip is still
charged (``trace_stop_cost_cycles``), which is what makes syscall-heavy
programs slow under tracing (paper §5.7).
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.cpu.exceptions import Stop


class SyscallAction:
    """Tracer's verdict on a syscall entry.

    ``PASSTHROUGH``: the kernel executes the syscall normally (the tracer may
    have modified the argument registers first, e.g. Parallaft's MAP_FIXED
    rewrite).  ``EMULATE``: the kernel skips execution and installs
    ``result`` (the tracer has already applied any memory effects — this is
    how recorded syscalls are replayed into checkers).
    """

    PASSTHROUGH = "passthrough"
    EMULATE = "emulate"

    def __init__(self, kind: str, result: int = 0):
        self.kind = kind
        self.result = result

    @classmethod
    def passthrough(cls) -> "SyscallAction":
        return cls(cls.PASSTHROUGH)

    @classmethod
    def emulate(cls, result: int) -> "SyscallAction":
        return cls(cls.EMULATE, result)


class Tracer:
    """Base tracer: every hook is a no-op passthrough.

    Parallaft's coordinator subclasses this.  All hooks run at a precise
    tracee stop; the tracee's registers/memory may be inspected and mutated
    freely before returning.
    """

    def on_syscall_entry(self, proc, sysno: int,
                         args: Sequence[int]) -> Optional[SyscallAction]:
        """Called before a syscall executes.  Return None for passthrough."""
        return None

    def on_syscall_exit(self, proc, sysno: int, args: Sequence[int],
                        result: int) -> None:
        """Called after a syscall executed (or was emulated)."""

    def on_stop(self, proc, stop: Stop) -> None:
        """Breakpoint / counter overflow / brk / nondet-trap stops."""

    def on_signal(self, proc, signo: int, external: bool) -> bool:
        """A signal is about to be delivered.  Return False to take over
        (defer/suppress); True to let the kernel deliver it now."""
        return True

    def on_process_exit(self, proc) -> None:
        """The tracee exited (exit syscall, fatal signal, or halt)."""

    def on_oom(self, proc, can_block: bool = False) -> bool:
        """``proc`` exceeded the frame-pool budget and is about to be
        OOM-killed.  Return True if the tracer handled the condition itself
        (e.g. sacrificed the process and re-queued its work); False to let
        the kernel deliver the kill.  ``can_block`` is True when the
        process stopped resumably on the faulting instruction, so the
        tracer may instead park it and retry once memory frees up."""
        return False

    def on_quantum(self, proc, executed: int) -> None:
        """Called after every execution quantum with the instruction count;
        cheap bookkeeping only (the slicer's cycle check lives here)."""
