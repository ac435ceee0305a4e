"""VM-entry checks on the guest state area (SDM Vol. 3, §26.3).

The paper's replay design deliberately routes every replayed seed
through a full VM entry "to guarantee semantically-correct VM seeds
submission" (§IV-B): the entry checks reject malformed guest states, and
a failed entry is one of the fuzzer's "VM crash" outcomes.

:func:`check_vm_entry` returns *all* violations rather than the first,
which the fuzzer's failure triage uses to cluster crash causes.

The checks fall into four groups, run in this order: control registers
and EFER, RFLAGS and RIP, segment registers, and non-register state.
Each group is a pure function of guest-state values, so
:func:`check_guest_state` memoises the verdict on everything but RIP
(see DESIGN.md §8, "The guest-state data path").
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

from repro.x86.registers import (
    CR0_RESERVED,
    CR4_RESERVED,
    Cr0,
    Cr4,
    Rflags,
)
from repro.x86.msr import EferBits
from repro.vmx.vmcs import Vmcs
from repro.vmx.vmcs_fields import (
    VmcsField,
    SEGMENT_AR_FIELDS,
    SEGMENT_LIMIT_FIELDS,
)

#: Maximum guest physical address width modelled (bits).
PHYSICAL_ADDRESS_WIDTH = 46

#: Architecturally valid activity states (active/HLT/shutdown/wait-SIPI).
VALID_ACTIVITY_STATES = frozenset({0, 1, 2, 3})

#: RFLAGS bits that must be zero on entry.
_RFLAGS_RESERVED = (
    (1 << 3) | (1 << 5) | (1 << 15) | ((1 << 64) - (1 << 22))
)

_SEGMENT_ORDER = ("ES", "CS", "SS", "DS", "FS", "GS", "LDTR", "TR")

#: EFER.LMA as a plain int: the RIP checks run on every entry, and an
#: ``IntFlag`` operand would route the ``&`` through the enum machinery.
_EFER_LMA = int(EferBits.LMA)


@dataclass(frozen=True)
class EntryCheckViolation:
    """One failed §26.3 check."""

    check: str  # stable identifier, e.g. "cr0.pg-without-pe"
    message: str

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"[{self.check}] {self.message}"


def _check_control_registers(
    cr0: int, cr3: int, cr4: int, efer: int,
    out: list[EntryCheckViolation],
) -> None:
    if cr0 & CR0_RESERVED:
        out.append(EntryCheckViolation(
            "cr0.reserved",
            f"CR0 has reserved bits set: {cr0 & CR0_RESERVED:#x}",
        ))
    if (cr0 & Cr0.PG) and not (cr0 & Cr0.PE):
        out.append(EntryCheckViolation(
            "cr0.pg-without-pe", "CR0.PG = 1 requires CR0.PE = 1"
        ))
    if (cr0 & Cr0.NW) and not (cr0 & Cr0.CD):
        out.append(EntryCheckViolation(
            "cr0.nw-without-cd", "CR0.NW = 1 requires CR0.CD = 1"
        ))
    if cr4 & CR4_RESERVED:
        out.append(EntryCheckViolation(
            "cr4.reserved",
            f"CR4 has reserved bits set: {cr4 & CR4_RESERVED:#x}",
        ))
    if cr3 >> PHYSICAL_ADDRESS_WIDTH:
        out.append(EntryCheckViolation(
            "cr3.width",
            f"CR3 {cr3:#x} exceeds {PHYSICAL_ADDRESS_WIDTH}-bit "
            "physical address width",
        ))

    lme = bool(efer & EferBits.LME)
    lma = bool(efer & EferBits.LMA)
    pg = bool(cr0 & Cr0.PG)
    if lma != (lme and pg):
        out.append(EntryCheckViolation(
            "efer.lma-consistency",
            f"EFER.LMA ({int(lma)}) != EFER.LME & CR0.PG "
            f"({int(lme and pg)})",
        ))
    if lma and not (cr4 & Cr4.PAE):
        out.append(EntryCheckViolation(
            "efer.lma-without-pae", "IA-32e mode requires CR4.PAE = 1"
        ))


def _check_rflags(
    rflags: int, efer: int, intr_info: int,
    out: list[EntryCheckViolation],
) -> None:
    long_mode = bool(efer & EferBits.LMA)
    if not (rflags & Rflags.FIXED1):
        out.append(EntryCheckViolation(
            "rflags.fixed1", "RFLAGS bit 1 must be 1"
        ))
    if rflags & _RFLAGS_RESERVED:
        out.append(EntryCheckViolation(
            "rflags.reserved",
            f"RFLAGS reserved bits set: {rflags & _RFLAGS_RESERVED:#x}",
        ))
    if long_mode and (rflags & Rflags.VM):
        out.append(EntryCheckViolation(
            "rflags.vm-in-long-mode",
            "RFLAGS.VM must be 0 in IA-32e mode",
        ))
    injecting_ext_int = bool(intr_info & (1 << 31)) and \
        ((intr_info >> 8) & 0x7) == 0
    if injecting_ext_int and not (rflags & Rflags.IF):
        out.append(EntryCheckViolation(
            "rflags.if-for-injection",
            "RFLAGS.IF must be 1 when injecting an external interrupt",
        ))


def _check_rip(
    rip: int, efer: int, out: list[EntryCheckViolation]
) -> None:
    long_mode = efer & _EFER_LMA
    if not long_mode and rip > 0xFFFFFFFF:
        out.append(EntryCheckViolation(
            "rip.width", f"RIP {rip:#x} exceeds 32 bits outside IA-32e mode"
        ))
    if long_mode and _non_canonical(rip):
        out.append(EntryCheckViolation(
            "rip.canonical", f"RIP {rip:#x} is non-canonical"
        ))


def _non_canonical(address: int) -> bool:
    """True unless bits 63:47 of ``address`` are all 0 or all 1."""
    top = address >> 47
    return top not in (0, (1 << 17) - 1)


def _check_segments(
    rflags: int, ars: Sequence[int], limits: Sequence[int],
    out: list[EntryCheckViolation],
) -> None:
    """``ars``/``limits`` are in :data:`SEGMENT_AR_FIELDS` order."""
    vm86 = bool(rflags & Rflags.VM)
    unrestricted = True  # HVM guests run with "unrestricted guest" set

    for name, ar, limit in zip(_SEGMENT_ORDER, ars, limits):
        unusable = bool(ar & (1 << 16))
        if unusable:
            continue
        granularity = bool(ar & (1 << 15))
        if (limit & 0xFFF) != 0xFFF and granularity:
            out.append(EntryCheckViolation(
                f"{name.lower()}.granularity",
                f"{name} limit {limit:#x} has low bits != 0xFFF but G = 1",
            ))
        if (limit >> 20) and not granularity:
            out.append(EntryCheckViolation(
                f"{name.lower()}.granularity",
                f"{name} limit {limit:#x} has high bits set but G = 0",
            ))

    cs_ar = ars[1]
    if not (cs_ar & (1 << 16)):  # CS can never be unusable, but be safe
        cs_type = cs_ar & 0xF
        if not vm86:
            valid_cs_types = {9, 11, 13, 15} if not unrestricted else \
                {3, 9, 11, 13, 15}
            if cs_type not in valid_cs_types:
                out.append(EntryCheckViolation(
                    "cs.type", f"CS type {cs_type} is not a code segment"
                ))
            if not (cs_ar & (1 << 4)):
                out.append(EntryCheckViolation(
                    "cs.s", "CS must be a code/data descriptor (S = 1)"
                ))
            if not (cs_ar & (1 << 7)):
                out.append(EntryCheckViolation(
                    "cs.present", "CS must be present"
                ))

    tr_ar = ars[7]
    if tr_ar & (1 << 16):
        out.append(EntryCheckViolation("tr.unusable", "TR must be usable"))
    else:
        tr_type = tr_ar & 0xF
        if tr_type not in (3, 11):
            out.append(EntryCheckViolation(
                "tr.type", f"TR type {tr_type} is not a busy TSS"
            ))
        if tr_ar & (1 << 4):
            out.append(EntryCheckViolation(
                "tr.s", "TR must be a system descriptor (S = 0)"
            ))
        if not (tr_ar & (1 << 7)):
            out.append(EntryCheckViolation(
                "tr.present", "TR must be present"
            ))

    ldtr_ar = ars[6]
    if not (ldtr_ar & (1 << 16)):
        if (ldtr_ar & 0xF) != 2:
            out.append(EntryCheckViolation(
                "ldtr.type",
                f"usable LDTR type {ldtr_ar & 0xF} is not an LDT",
            ))
        if ldtr_ar & (1 << 4):
            out.append(EntryCheckViolation(
                "ldtr.s", "LDTR must be a system descriptor (S = 0)"
            ))


def _check_non_register_state(
    activity: int, interruptibility: int, link: int, dr7: int,
    out: list[EntryCheckViolation],
) -> None:
    if activity not in VALID_ACTIVITY_STATES:
        out.append(EntryCheckViolation(
            "activity-state", f"invalid activity state {activity}"
        ))
    if interruptibility & ~0x1F:
        out.append(EntryCheckViolation(
            "interruptibility.reserved",
            f"interruptibility reserved bits set: {interruptibility:#x}",
        ))
    blocking_sti = bool(interruptibility & 0x1)
    blocking_mov_ss = bool(interruptibility & 0x2)
    if blocking_sti and blocking_mov_ss:
        out.append(EntryCheckViolation(
            "interruptibility.sti-and-movss",
            "blocking-by-STI and blocking-by-MOV-SS cannot both be set",
        ))
    if link != (1 << 64) - 1:
        out.append(EntryCheckViolation(
            "vmcs-link-pointer",
            f"VMCS link pointer must be ~0 (got {link:#x})",
        ))
    if dr7 >> 32:
        out.append(EntryCheckViolation(
            "dr7.width", f"DR7 {dr7:#x} has bits above 31 set"
        ))


#: The inputs of the four check groups except GUEST_RIP, in the order
#: :func:`_checks_around_rip` unpacks them.  Their values are the memo
#: key of :func:`check_guest_state`.
ENTRY_CHECK_FIELDS: tuple[VmcsField, ...] = (
    VmcsField.GUEST_CR0,
    VmcsField.GUEST_CR3,
    VmcsField.GUEST_CR4,
    VmcsField.GUEST_IA32_EFER,
    VmcsField.GUEST_RFLAGS,
    VmcsField.VM_ENTRY_INTR_INFO,
    *SEGMENT_AR_FIELDS,
    *SEGMENT_LIMIT_FIELDS,
    VmcsField.GUEST_ACTIVITY_STATE,
    VmcsField.GUEST_INTERRUPTIBILITY_INFO,
    VmcsField.VMCS_LINK_POINTER,
    VmcsField.GUEST_DR7,
)

#: Distinct guest states :func:`check_guest_state` remembers; beyond
#: it the least recently used is evicted.  A Table-I cell meets about a
#: hundred per campaign.
ENTRY_MEMO_CAP = 1024

_Verdict = tuple[tuple[EntryCheckViolation, ...],
                 tuple[EntryCheckViolation, ...]]


@lru_cache(maxsize=ENTRY_MEMO_CAP)
def _checks_around_rip(values: tuple[int, ...]) -> _Verdict:
    """The violations that precede and follow the RIP checks.

    A pure function of ``values`` returning immutable tuples, so the
    cache is safe to share between every VMX and SVM caller.
    """
    cr0, cr3, cr4, efer, rflags, intr_info = values[:6]
    activity, interruptibility, link, dr7 = values[22:]
    head: list[EntryCheckViolation] = []
    _check_control_registers(cr0, cr3, cr4, efer, head)
    _check_rflags(rflags, efer, intr_info, head)
    tail: list[EntryCheckViolation] = []
    _check_segments(rflags, values[6:14], values[14:22], tail)
    _check_non_register_state(activity, interruptibility, link, dr7, tail)
    return tuple(head), tuple(tail)


def check_guest_state(
    read: Callable[[VmcsField], int]
) -> list[EntryCheckViolation]:
    """The four §26.3 check groups, in order, for one guest state.

    ``read`` maps a field to its value in the state.  Every group is a
    pure function of :data:`ENTRY_CHECK_FIELDS` and GUEST_RIP, so the
    verdict on the former is memoised; RIP changes on almost every
    exit, so it stays out of the key and its two checks run each time,
    between the RFLAGS and the segment checks as in the groups' order.
    """
    values = tuple(map(read, ENTRY_CHECK_FIELDS))
    head, tail = _checks_around_rip(values)
    out = list(head)
    efer = values[3]
    _check_rip(read(VmcsField.GUEST_RIP), efer, out)
    out.extend(tail)
    return out


def check_vm_entry(vmcs: Vmcs) -> list[EntryCheckViolation]:
    """Run the modelled §26.3 guest-state checks; return all violations."""
    return check_guest_state(vmcs.read)
