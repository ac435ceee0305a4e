"""Register file: GPRs, RFLAGS, control registers, segment registers.

The general-purpose register set deliberately matches what Xen keeps in
its own ``struct cpu_user_regs`` during a VM exit: the 15 registers that
the hardware does *not* save in the VMCS (RSP and RIP live in the VMCS
guest-state area instead).  The paper's seed format encodes a GPR with a
1-byte encoding covering exactly these 15 values (§V-A).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

MASK64 = (1 << 64) - 1


class GPR(enum.IntEnum):
    """General-purpose registers stored in hypervisor data structures.

    The numeric values are the seed-format encodings (1 byte, 15 values).
    RSP/RIP are absent on purpose: the hardware context switch saves them
    in the VMCS guest-state area, so IRIS captures them via VMREADs.
    """

    RAX = 0
    RBX = 1
    RCX = 2
    RDX = 3
    RSI = 4
    RDI = 5
    RBP = 6
    R8 = 7
    R9 = 8
    R10 = 9
    R11 = 10
    R12 = 11
    R13 = 12
    R14 = 13
    R15 = 14


class Cr0(enum.IntFlag):
    """CR0 architectural bits (SDM Vol. 3, §2.5)."""

    PE = 1 << 0  # protection enable
    MP = 1 << 1  # monitor coprocessor
    EM = 1 << 2  # x87 emulation
    TS = 1 << 3  # task switched
    ET = 1 << 4  # extension type (fixed 1 on modern CPUs)
    NE = 1 << 5  # numeric error
    WP = 1 << 16  # write protect
    AM = 1 << 18  # alignment mask
    NW = 1 << 29  # not write-through
    CD = 1 << 30  # cache disable
    PG = 1 << 31  # paging


#: Bits of CR0 that are architecturally reserved and must be zero.
#: (int() first: IntFlag inversion is bounded to defined bits.)
CR0_RESERVED = ~int(
    Cr0.PE | Cr0.MP | Cr0.EM | Cr0.TS | Cr0.ET | Cr0.NE
    | Cr0.WP | Cr0.AM | Cr0.NW | Cr0.CD | Cr0.PG
) & ~(0xFF << 6) & MASK64  # bits 6-15 tolerated in this model


class Cr4(enum.IntFlag):
    """CR4 architectural bits (subset relevant to virtualization)."""

    VME = 1 << 0
    PVI = 1 << 1
    TSD = 1 << 2
    DE = 1 << 3
    PSE = 1 << 4
    PAE = 1 << 5
    MCE = 1 << 6
    PGE = 1 << 7
    PCE = 1 << 8
    OSFXSR = 1 << 9
    OSXMMEXCPT = 1 << 10
    UMIP = 1 << 11
    VMXE = 1 << 13
    SMXE = 1 << 14
    FSGSBASE = 1 << 16
    PCIDE = 1 << 17
    OSXSAVE = 1 << 18
    SMEP = 1 << 20
    SMAP = 1 << 21
    PKE = 1 << 22


CR4_RESERVED = ~int(
    Cr4.VME | Cr4.PVI | Cr4.TSD | Cr4.DE | Cr4.PSE | Cr4.PAE | Cr4.MCE
    | Cr4.PGE | Cr4.PCE | Cr4.OSFXSR | Cr4.OSXMMEXCPT | Cr4.UMIP
    | Cr4.VMXE | Cr4.SMXE | Cr4.FSGSBASE | Cr4.PCIDE | Cr4.OSXSAVE
    | Cr4.SMEP | Cr4.SMAP | Cr4.PKE
) & MASK64


class Rflags(enum.IntFlag):
    """RFLAGS bits used by VMX semantics and entry checks."""

    CF = 1 << 0
    FIXED1 = 1 << 1  # bit 1 is architecturally always 1
    PF = 1 << 2
    AF = 1 << 4
    ZF = 1 << 6
    SF = 1 << 7
    TF = 1 << 8
    IF = 1 << 9
    DF = 1 << 10
    OF = 1 << 11
    NT = 1 << 14
    RF = 1 << 16
    VM = 1 << 17  # virtual-8086 mode
    AC = 1 << 18
    VIF = 1 << 19
    VIP = 1 << 20
    ID = 1 << 21


class SegmentRegister(enum.IntEnum):
    """Segment register names; values match VMCS guest-state ordering."""

    ES = 0
    CS = 1
    SS = 2
    DS = 3
    FS = 4
    GS = 5
    LDTR = 6
    TR = 7


@dataclass
class SegmentCache:
    """The hidden part of a segment register (base, limit, access rights).

    Mirrors the VMCS guest-state segment fields: selector, base address,
    segment limit and the access-rights byte layout used by VT-x
    (type, S, DPL, P, AVL, L, D/B, G, unusable at bit 16).
    """

    selector: int = 0
    base: int = 0
    limit: int = 0xFFFF
    access_rights: int = 0x93  # present, data, read/write

    @property
    def unusable(self) -> bool:
        return bool(self.access_rights & (1 << 16))

    @property
    def dpl(self) -> int:
        return (self.access_rights >> 5) & 0x3

    @property
    def present(self) -> bool:
        return bool(self.access_rights & (1 << 7))

    def copy(self) -> "SegmentCache":
        return SegmentCache(
            self.selector, self.base, self.limit, self.access_rights
        )


#: Every GPR keyed by its seed encoding (``IntEnum`` members hash like
#: their values, so a member finds itself).
GPR_BY_ENCODING: dict[int, GPR] = {int(reg): reg for reg in GPR}


def gpr_by_encoding(encoding: int) -> GPR:
    """``GPR(encoding)`` without the enum call; ``ValueError`` if none."""
    try:
        return GPR_BY_ENCODING[encoding]
    except (KeyError, TypeError):
        raise ValueError(f"{encoding!r} is not a valid GPR") from None


def _zero_gprs() -> dict[GPR, int]:
    return {reg: 0 for reg in GPR}


def _reset_segments() -> dict[SegmentRegister, SegmentCache]:
    segs = {seg: SegmentCache() for seg in SegmentRegister}
    # After reset, CS has base 0xFFFF0000 and selector 0xF000 (SDM §9.1.4);
    # we use the flat real-mode convention the BIOS model relies on.
    segs[SegmentRegister.CS] = SegmentCache(
        selector=0xF000, base=0xF0000, limit=0xFFFF, access_rights=0x9B
    )
    segs[SegmentRegister.TR] = SegmentCache(
        selector=0, base=0, limit=0xFFFF, access_rights=0x8B
    )
    return segs


@dataclass
class RegisterFile:
    """Full architectural register state of one virtual CPU.

    GPRs are the hypervisor-saved set; RSP/RIP/RFLAGS/CRx/segments are
    the state that the VMCS guest-state area captures on a VM exit.
    """

    gprs: dict[GPR, int] = field(default_factory=_zero_gprs)
    rip: int = 0xFFF0
    rsp: int = 0
    rflags: int = int(Rflags.FIXED1)
    cr0: int = int(Cr0.ET)  # reset state: real mode, ET fixed
    cr2: int = 0
    cr3: int = 0
    cr4: int = 0
    dr7: int = 0x400
    segments: dict[SegmentRegister, SegmentCache] = field(
        default_factory=_reset_segments
    )
    #: GPRs written since :meth:`mark_clean` — the write set the
    #: delta-aware snapshot restore touches instead of all sixteen.
    dirty_gprs: set[GPR] = field(default_factory=set)

    def read_gpr(self, reg: GPR) -> int:
        return self.gprs[reg]

    def write_gpr(self, reg: GPR, value: int) -> None:
        reg = gpr_by_encoding(reg)
        self.gprs[reg] = value & MASK64
        self.dirty_gprs.add(reg)

    def mark_clean(self) -> None:
        """Reset the GPR write set (snapshot taken/restored here)."""
        self.dirty_gprs.clear()

    def snapshot_gprs(self) -> dict[GPR, int]:
        """Return a copy of the GPR set (what Xen saves on VM exit)."""
        return dict(self.gprs)

    def load_gprs(self, values: dict[GPR, int]) -> None:
        """Overwrite the GPR set, e.g. when IRIS submits a seed."""
        for reg, value in values.items():
            self.write_gpr(reg, value)

    def copy(self) -> "RegisterFile":
        return RegisterFile(
            gprs=dict(self.gprs),
            dirty_gprs=set(self.dirty_gprs),
            rip=self.rip,
            rsp=self.rsp,
            rflags=self.rflags,
            cr0=self.cr0,
            cr2=self.cr2,
            cr3=self.cr3,
            cr4=self.cr4,
            dr7=self.dr7,
            segments={s: c.copy() for s, c in self.segments.items()},
        )
