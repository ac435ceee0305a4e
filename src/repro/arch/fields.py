"""The architecture-neutral guest-state field model.

:class:`ArchField` is the symbolic vocabulary every layer above the
virtualization backend speaks: handlers, record/replay, seeds, and
mutations all name guest state by these members and never by a
VMCS encoding or a VMCB offset directly.  Each backend maps the
symbolic field onto its own hardware structure — the VMX backend
stores it at the matching VMCS encoding, the SVM backend routes it to
a VMCB offset (or a software shadow for VT-x-only fields).

The member *values* are the VMX encodings (SDM Vol. 3, Appendix B)
because VT-x is the reference architecture the paper records on, and
the encoding's bit layout carries the field's metadata:

* bit 0 — access type (0 = full, 1 = high half of a 64-bit field);
* bits 9:1 — index within the group;
* bits 11:10 — type (0 control, 1 VM-exit information/read-only,
  2 guest state, 3 host state);
* bits 14:13 — width (0 = 16-bit, 1 = 64-bit, 2 = 32-bit, 3 = natural).

The table below reproduces the real encodings for ~150 fields; the paper
reports 147 fields reachable through its 1-byte seed encoding, and the
seed format here indexes this table through :func:`field_index` /
:func:`field_by_index` for the same compact representation on every
backend (the index, not the VMX encoding, is what seeds serialize —
which is why seeds are architecture-neutral, paper §IX).

``repro.vmx.vmcs_fields`` re-exports :class:`ArchField` under its
historical name ``VmcsField``; they are the *same* class, so identity
comparisons and dict keys work across both spellings.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

#: Bit width of each :class:`FieldWidth`, indexed by its value.
_WIDTH_BITS = (16, 64, 32, 64)
_WIDTH_MASKS = tuple((1 << bits) - 1 for bits in _WIDTH_BITS)


class FieldWidth(enum.IntEnum):
    """VMCS field widths, encoded in bits 14:13 of the encoding."""

    WIDTH_16 = 0
    WIDTH_64 = 1
    WIDTH_32 = 2
    WIDTH_NATURAL = 3

    @property
    def bits(self) -> int:
        return _WIDTH_BITS[self]

    @property
    def mask(self) -> int:
        return _WIDTH_MASKS[self]


class FieldType(enum.IntEnum):
    """VMCS field types, encoded in bits 11:10 of the encoding."""

    CONTROL = 0
    EXIT_INFO = 1  # read-only VM-exit information fields
    GUEST_STATE = 2
    HOST_STATE = 3


class ArchField(enum.IntEnum):
    """All modelled guest-state fields, by VMX encoding (see module doc)."""

    # --- 16-bit control fields -------------------------------------
    VPID = 0x0000
    POSTED_INTR_NOTIFICATION_VECTOR = 0x0002
    EPTP_INDEX = 0x0004

    # --- 16-bit guest-state fields ---------------------------------
    GUEST_ES_SELECTOR = 0x0800
    GUEST_CS_SELECTOR = 0x0802
    GUEST_SS_SELECTOR = 0x0804
    GUEST_DS_SELECTOR = 0x0806
    GUEST_FS_SELECTOR = 0x0808
    GUEST_GS_SELECTOR = 0x080A
    GUEST_LDTR_SELECTOR = 0x080C
    GUEST_TR_SELECTOR = 0x080E
    GUEST_INTERRUPT_STATUS = 0x0810
    GUEST_PML_INDEX = 0x0812

    # --- 16-bit host-state fields ----------------------------------
    HOST_ES_SELECTOR = 0x0C00
    HOST_CS_SELECTOR = 0x0C02
    HOST_SS_SELECTOR = 0x0C04
    HOST_DS_SELECTOR = 0x0C06
    HOST_FS_SELECTOR = 0x0C08
    HOST_GS_SELECTOR = 0x0C0A
    HOST_TR_SELECTOR = 0x0C0C

    # --- 64-bit control fields -------------------------------------
    IO_BITMAP_A = 0x2000
    IO_BITMAP_B = 0x2002
    MSR_BITMAP = 0x2004
    VM_EXIT_MSR_STORE_ADDR = 0x2006
    VM_EXIT_MSR_LOAD_ADDR = 0x2008
    VM_ENTRY_MSR_LOAD_ADDR = 0x200A
    EXECUTIVE_VMCS_POINTER = 0x200C
    PML_ADDRESS = 0x200E
    TSC_OFFSET = 0x2010
    VIRTUAL_APIC_PAGE_ADDR = 0x2012
    APIC_ACCESS_ADDR = 0x2014
    POSTED_INTR_DESC_ADDR = 0x2016
    VM_FUNCTION_CONTROL = 0x2018
    EPT_POINTER = 0x201A
    EOI_EXIT_BITMAP0 = 0x201C
    EOI_EXIT_BITMAP1 = 0x201E
    EOI_EXIT_BITMAP2 = 0x2020
    EOI_EXIT_BITMAP3 = 0x2022
    EPTP_LIST_ADDR = 0x2024
    VMREAD_BITMAP = 0x2026
    VMWRITE_BITMAP = 0x2028
    VIRT_EXCEPTION_INFO_ADDR = 0x202A
    XSS_EXIT_BITMAP = 0x202C
    ENCLS_EXITING_BITMAP = 0x202E
    TSC_MULTIPLIER = 0x2032

    # --- 64-bit read-only data fields ------------------------------
    GUEST_PHYSICAL_ADDRESS = 0x2400

    # --- 64-bit guest-state fields ----------------------------------
    VMCS_LINK_POINTER = 0x2800
    GUEST_IA32_DEBUGCTL = 0x2802
    GUEST_IA32_PAT = 0x2804
    GUEST_IA32_EFER = 0x2806
    GUEST_IA32_PERF_GLOBAL_CTRL = 0x2808
    GUEST_PDPTE0 = 0x280A
    GUEST_PDPTE1 = 0x280C
    GUEST_PDPTE2 = 0x280E
    GUEST_PDPTE3 = 0x2810
    GUEST_IA32_BNDCFGS = 0x2812

    # --- 64-bit host-state fields -----------------------------------
    HOST_IA32_PAT = 0x2C00
    HOST_IA32_EFER = 0x2C02
    HOST_IA32_PERF_GLOBAL_CTRL = 0x2C04

    # --- 32-bit control fields ---------------------------------------
    PIN_BASED_VM_EXEC_CONTROL = 0x4000
    CPU_BASED_VM_EXEC_CONTROL = 0x4002
    EXCEPTION_BITMAP = 0x4004
    PAGE_FAULT_ERROR_CODE_MASK = 0x4006
    PAGE_FAULT_ERROR_CODE_MATCH = 0x4008
    CR3_TARGET_COUNT = 0x400A
    VM_EXIT_CONTROLS = 0x400C
    VM_EXIT_MSR_STORE_COUNT = 0x400E
    VM_EXIT_MSR_LOAD_COUNT = 0x4010
    VM_ENTRY_CONTROLS = 0x4012
    VM_ENTRY_MSR_LOAD_COUNT = 0x4014
    VM_ENTRY_INTR_INFO = 0x4016
    VM_ENTRY_EXCEPTION_ERROR_CODE = 0x4018
    VM_ENTRY_INSTRUCTION_LEN = 0x401A
    TPR_THRESHOLD = 0x401C
    SECONDARY_VM_EXEC_CONTROL = 0x401E
    PLE_GAP = 0x4020
    PLE_WINDOW = 0x4022

    # --- 32-bit read-only data fields --------------------------------
    VM_INSTRUCTION_ERROR = 0x4400
    VM_EXIT_REASON = 0x4402
    VM_EXIT_INTR_INFO = 0x4404
    VM_EXIT_INTR_ERROR_CODE = 0x4406
    IDT_VECTORING_INFO = 0x4408
    IDT_VECTORING_ERROR_CODE = 0x440A
    VM_EXIT_INSTRUCTION_LEN = 0x440C
    VMX_INSTRUCTION_INFO = 0x440E

    # --- 32-bit guest-state fields ------------------------------------
    GUEST_ES_LIMIT = 0x4800
    GUEST_CS_LIMIT = 0x4802
    GUEST_SS_LIMIT = 0x4804
    GUEST_DS_LIMIT = 0x4806
    GUEST_FS_LIMIT = 0x4808
    GUEST_GS_LIMIT = 0x480A
    GUEST_LDTR_LIMIT = 0x480C
    GUEST_TR_LIMIT = 0x480E
    GUEST_GDTR_LIMIT = 0x4810
    GUEST_IDTR_LIMIT = 0x4812
    GUEST_ES_AR_BYTES = 0x4814
    GUEST_CS_AR_BYTES = 0x4816
    GUEST_SS_AR_BYTES = 0x4818
    GUEST_DS_AR_BYTES = 0x481A
    GUEST_FS_AR_BYTES = 0x481C
    GUEST_GS_AR_BYTES = 0x481E
    GUEST_LDTR_AR_BYTES = 0x4820
    GUEST_TR_AR_BYTES = 0x4822
    GUEST_INTERRUPTIBILITY_INFO = 0x4824
    GUEST_ACTIVITY_STATE = 0x4826
    GUEST_SMBASE = 0x4828
    GUEST_SYSENTER_CS = 0x482A
    VMX_PREEMPTION_TIMER_VALUE = 0x482E

    # --- 32-bit host-state fields --------------------------------------
    HOST_SYSENTER_CS = 0x4C00

    # --- natural-width control fields ----------------------------------
    CR0_GUEST_HOST_MASK = 0x6000
    CR4_GUEST_HOST_MASK = 0x6002
    CR0_READ_SHADOW = 0x6004
    CR4_READ_SHADOW = 0x6006
    CR3_TARGET_VALUE0 = 0x6008
    CR3_TARGET_VALUE1 = 0x600A
    CR3_TARGET_VALUE2 = 0x600C
    CR3_TARGET_VALUE3 = 0x600E

    # --- natural-width read-only data fields ----------------------------
    EXIT_QUALIFICATION = 0x6400
    IO_RCX = 0x6402
    IO_RSI = 0x6404
    IO_RDI = 0x6406
    IO_RIP = 0x6408
    GUEST_LINEAR_ADDRESS = 0x640A

    # --- natural-width guest-state fields --------------------------------
    GUEST_CR0 = 0x6800
    GUEST_CR3 = 0x6802
    GUEST_CR4 = 0x6804
    GUEST_ES_BASE = 0x6806
    GUEST_CS_BASE = 0x6808
    GUEST_SS_BASE = 0x680A
    GUEST_DS_BASE = 0x680C
    GUEST_FS_BASE = 0x680E
    GUEST_GS_BASE = 0x6810
    GUEST_LDTR_BASE = 0x6812
    GUEST_TR_BASE = 0x6814
    GUEST_GDTR_BASE = 0x6816
    GUEST_IDTR_BASE = 0x6818
    GUEST_DR7 = 0x681A
    GUEST_RSP = 0x681C
    GUEST_RIP = 0x681E
    GUEST_RFLAGS = 0x6820
    GUEST_PENDING_DBG_EXCEPTIONS = 0x6822
    GUEST_SYSENTER_ESP = 0x6824
    GUEST_SYSENTER_EIP = 0x6826

    # --- natural-width host-state fields ----------------------------------
    HOST_CR0 = 0x6C00
    HOST_CR3 = 0x6C02
    HOST_CR4 = 0x6C04
    HOST_FS_BASE = 0x6C06
    HOST_GS_BASE = 0x6C08
    HOST_TR_BASE = 0x6C0A
    HOST_GDTR_BASE = 0x6C0C
    HOST_IDTR_BASE = 0x6C0E
    HOST_IA32_SYSENTER_ESP = 0x6C10
    HOST_IA32_SYSENTER_EIP = 0x6C12
    HOST_RSP = 0x6C14
    HOST_RIP = 0x6C16


_WIDTHS = tuple(FieldWidth)
_TYPES = tuple(FieldType)


def field_width(field: int) -> FieldWidth:
    """Decode the width from bits 14:13 of a field encoding."""
    return _WIDTHS[(int(field) >> 13) & 0x3]


def field_type(field: int) -> FieldType:
    """Decode the type from bits 11:10 of a field encoding."""
    return _TYPES[(int(field) >> 10) & 0x3]


def is_read_only(field: int) -> bool:
    """True for VM-exit information fields (VMWRITE fails on them).

    On processors without the "VMWRITE to any field" VMX capability —
    which includes the paper's Haswell testbed — VMWRITE to an exit-
    information field fails with VM-instruction error 13.  IRIS's replay
    works around exactly this by overriding ``vmread()`` return values
    instead (paper §V-B).
    """
    return field_type(field) is FieldType.EXIT_INFO


class FieldInfo(NamedTuple):
    """What the data path needs to know about one field encoding."""

    member: ArchField
    mask: int
    read_only: bool


#: Per-field metadata keyed by encoding.  ``IntEnum`` members hash and
#: compare like their values, so a bare int and an :class:`ArchField`
#: find the same entry: the guest-state data path looks a field up here
#: instead of constructing the enum member on every access.
FIELD_INFO: dict[int, FieldInfo] = {
    int(f): FieldInfo(f, field_width(f).mask, is_read_only(f))
    for f in ArchField
}


def unknown_field(field: object) -> ValueError:
    """The error for an encoding no :class:`ArchField` has."""
    return ValueError(f"{field!r} is not a valid ArchField")


def field_info(field: int) -> FieldInfo:
    """The :class:`FieldInfo` of ``field``; ``ValueError`` if unknown."""
    try:
        return FIELD_INFO[field]
    except (KeyError, TypeError):
        raise unknown_field(field) from None


#: Canonical ordered field list; the seed format's 1-byte encoding is an
#: index into this tuple (paper §V-A: "the encoding (1 byte) … of VMCS
#: fields (147 values)").
ALL_FIELDS: tuple[ArchField, ...] = tuple(sorted(ArchField))

_INDEX_BY_FIELD: dict[ArchField, int] = {
    f: i for i, f in enumerate(ALL_FIELDS)
}

GUEST_STATE_FIELDS: frozenset[ArchField] = frozenset(
    f for f in ALL_FIELDS if field_type(f) is FieldType.GUEST_STATE
)
HOST_STATE_FIELDS: frozenset[ArchField] = frozenset(
    f for f in ALL_FIELDS if field_type(f) is FieldType.HOST_STATE
)
CONTROL_FIELDS: frozenset[ArchField] = frozenset(
    f for f in ALL_FIELDS if field_type(f) is FieldType.CONTROL
)
EXIT_INFO_FIELDS: frozenset[ArchField] = frozenset(
    f for f in ALL_FIELDS if field_type(f) is FieldType.EXIT_INFO
)


def field_index(field: ArchField) -> int:
    """Compact 1-byte seed encoding of a VMCS field."""
    return _INDEX_BY_FIELD[ArchField(field)]


def field_by_index(index: int) -> ArchField:
    """Inverse of :func:`field_index`."""
    try:
        return ALL_FIELDS[index]
    except IndexError:
        raise ValueError(f"invalid VMCS field index: {index}") from None


#: Guest-state segment field groups, keyed by x86 segment order
#: (ES, CS, SS, DS, FS, GS, LDTR, TR) — used by the context-switch code.
SEGMENT_SELECTOR_FIELDS: tuple[ArchField, ...] = (
    ArchField.GUEST_ES_SELECTOR,
    ArchField.GUEST_CS_SELECTOR,
    ArchField.GUEST_SS_SELECTOR,
    ArchField.GUEST_DS_SELECTOR,
    ArchField.GUEST_FS_SELECTOR,
    ArchField.GUEST_GS_SELECTOR,
    ArchField.GUEST_LDTR_SELECTOR,
    ArchField.GUEST_TR_SELECTOR,
)

SEGMENT_BASE_FIELDS: tuple[ArchField, ...] = (
    ArchField.GUEST_ES_BASE,
    ArchField.GUEST_CS_BASE,
    ArchField.GUEST_SS_BASE,
    ArchField.GUEST_DS_BASE,
    ArchField.GUEST_FS_BASE,
    ArchField.GUEST_GS_BASE,
    ArchField.GUEST_LDTR_BASE,
    ArchField.GUEST_TR_BASE,
)

SEGMENT_LIMIT_FIELDS: tuple[ArchField, ...] = (
    ArchField.GUEST_ES_LIMIT,
    ArchField.GUEST_CS_LIMIT,
    ArchField.GUEST_SS_LIMIT,
    ArchField.GUEST_DS_LIMIT,
    ArchField.GUEST_FS_LIMIT,
    ArchField.GUEST_GS_LIMIT,
    ArchField.GUEST_LDTR_LIMIT,
    ArchField.GUEST_TR_LIMIT,
)

SEGMENT_AR_FIELDS: tuple[ArchField, ...] = (
    ArchField.GUEST_ES_AR_BYTES,
    ArchField.GUEST_CS_AR_BYTES,
    ArchField.GUEST_SS_AR_BYTES,
    ArchField.GUEST_DS_AR_BYTES,
    ArchField.GUEST_FS_AR_BYTES,
    ArchField.GUEST_GS_AR_BYTES,
    ArchField.GUEST_LDTR_AR_BYTES,
    ArchField.GUEST_TR_AR_BYTES,
)
