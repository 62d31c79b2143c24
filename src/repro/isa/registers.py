"""Register-file specification for the repro ISA.

The machine models a small RISC-like CPU:

* 16 64-bit general-purpose registers ``r0``–``r15``.  By software
  convention ``r13`` is the stack pointer (``sp``), ``r14`` the link
  register (``lr``) and ``r15`` the frame pointer (``fp``).
* 8 double-precision floating-point registers ``f0``–``f7``.
* 4 vector registers ``v0``–``v3`` of four 64-bit lanes each.

Fault injection (paper §5.6) flips a random bit in a register selected from
the union of these three files, so the spec also enumerates every
(register, bit) site.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

NUM_GPR = 16
NUM_FPR = 8
NUM_VEC = 4
VEC_LANES = 4

GPR_BITS = 64
FPR_BITS = 64
VEC_BITS = VEC_LANES * 64

SP = 13
LR = 14
FP = 15

GPR_ALIASES = {"sp": SP, "lr": LR, "fp": FP}


def gpr_name(index: int) -> str:
    for alias, alias_index in GPR_ALIASES.items():
        if index == alias_index:
            return alias
    return f"r{index}"


def parse_register(token: str) -> Tuple[str, int]:
    """Parse a register token into ``(file, index)``.

    ``file`` is one of ``"gpr"``, ``"fpr"``, ``"vec"``.  Raises
    :class:`ValueError` for anything that is not a register.
    """
    token = token.lower()
    if token in GPR_ALIASES:
        return "gpr", GPR_ALIASES[token]
    if len(token) >= 2 and token[0] in "rfv" and token[1:].isdigit():
        index = int(token[1:])
        if token[0] == "r" and 0 <= index < NUM_GPR:
            return "gpr", index
        if token[0] == "f" and 0 <= index < NUM_FPR:
            return "fpr", index
        if token[0] == "v" and 0 <= index < NUM_VEC:
            return "vec", index
    raise ValueError(f"not a register: {token!r}")


@dataclass(frozen=True)
class RegisterSite:
    """One (register file, register, bit) fault-injection site.

    The structured counterpart of the ``(file, index, bit)`` tuples that
    :func:`all_fault_sites` enumerates; :class:`repro.faults.sites.FaultSite`
    generalizes it with a target process and memory sites.
    """

    file: str    # "gpr" | "fpr" | "vec"
    index: int
    bit: int

    def __str__(self) -> str:
        name = gpr_name(self.index) if self.file == "gpr" \
            else f"{self.file[0]}{self.index}"
        return f"{name} bit {self.bit}"


def all_fault_sites() -> List[Tuple[str, int, int]]:
    """Enumerate every (file, register index, bit index) fault-injection site."""
    sites = []
    for index in range(NUM_GPR):
        sites.extend(("gpr", index, bit) for bit in range(GPR_BITS))
    for index in range(NUM_FPR):
        sites.extend(("fpr", index, bit) for bit in range(FPR_BITS))
    for index in range(NUM_VEC):
        sites.extend(("vec", index, bit) for bit in range(VEC_BITS))
    return sites
