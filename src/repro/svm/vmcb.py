"""The Virtual Machine Control Block (AMD APM Vol. 2, Appendix B).

Structurally the VMCB differs from the VMCS in exactly the ways the
paper's portability section cares about:

* it is **plain memory** — the hypervisor reads and writes it with
  ordinary loads/stores, no VMREAD/VMWRITE instructions (so an SVM
  IRIS would instrument the VMCB accessor helpers instead of
  instruction wrappers);
* it splits into a **control area** (offsets 0x000-0x3FF: intercept
  vectors, exit code and info, event injection) and a **state save
  area** (0x400+: segment registers, control registers, RIP/RSP/
  RFLAGS, EFER);
* there are no architecturally read-only fields — the exit code is
  just a memory slot, so the VT-x read-only-override trick is not even
  needed on SVM.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

#: The state save area starts at offset 0x400 in the 4 KiB VMCB.
VMCB_SAVE_AREA_OFFSET = 0x400

MASK64 = (1 << 64) - 1


class VmcbField(enum.IntEnum):
    """VMCB fields by offset (AMD APM Vol. 2, Tables B-1/B-2).

    Control-area fields sit below 0x400, save-area fields at or above.
    """

    # --- control area ------------------------------------------------
    INTERCEPT_CR = 0x000
    INTERCEPT_DR = 0x004
    INTERCEPT_EXCEPTIONS = 0x008
    INTERCEPT_VECTOR3 = 0x00C
    INTERCEPT_VECTOR4 = 0x010
    PAUSE_FILTER_THRESHOLD = 0x03C
    PAUSE_FILTER_COUNT = 0x03E
    IOPM_BASE_PA = 0x040
    MSRPM_BASE_PA = 0x048
    TSC_OFFSET = 0x050
    GUEST_ASID = 0x058
    TLB_CONTROL = 0x05C
    V_INTR = 0x060  # virtual interrupt control
    INTERRUPT_SHADOW = 0x068
    EXITCODE = 0x070
    EXITINFO1 = 0x078
    EXITINFO2 = 0x080
    EXITINTINFO = 0x088
    NP_ENABLE = 0x090
    EVENTINJ = 0x0A8
    N_CR3 = 0x0B0  # nested page table root
    VMCB_CLEAN = 0x0C0
    NEXT_RIP = 0x0C8
    GUEST_INSTR_BYTES = 0x0D0

    # --- state save area ------------------------------------------------
    ES_SELECTOR = 0x400
    ES_ATTRIB = 0x402
    ES_LIMIT = 0x404
    ES_BASE = 0x408
    CS_SELECTOR = 0x410
    CS_ATTRIB = 0x412
    CS_LIMIT = 0x414
    CS_BASE = 0x418
    SS_SELECTOR = 0x420
    SS_ATTRIB = 0x422
    SS_LIMIT = 0x424
    SS_BASE = 0x428
    DS_SELECTOR = 0x430
    DS_ATTRIB = 0x432
    DS_LIMIT = 0x434
    DS_BASE = 0x438
    FS_SELECTOR = 0x440
    FS_ATTRIB = 0x442
    FS_LIMIT = 0x444
    FS_BASE = 0x448
    GS_SELECTOR = 0x450
    GS_ATTRIB = 0x452
    GS_LIMIT = 0x454
    GS_BASE = 0x458
    GDTR_LIMIT = 0x464
    GDTR_BASE = 0x468
    LDTR_SELECTOR = 0x470
    LDTR_ATTRIB = 0x472
    LDTR_LIMIT = 0x474
    LDTR_BASE = 0x478
    IDTR_LIMIT = 0x484
    IDTR_BASE = 0x488
    TR_SELECTOR = 0x490
    TR_ATTRIB = 0x492
    TR_LIMIT = 0x494
    TR_BASE = 0x498
    CPL = 0x4CB
    EFER = 0x4D0
    CR4 = 0x548
    CR3 = 0x550
    CR0 = 0x558
    DR7 = 0x560
    DR6 = 0x568
    RFLAGS = 0x570
    RIP = 0x578
    RSP = 0x5D8
    RAX = 0x5F8
    STAR = 0x600
    LSTAR = 0x608
    CSTAR = 0x610
    SFMASK = 0x618
    KERNEL_GS_BASE = 0x620
    SYSENTER_CS = 0x628
    SYSENTER_ESP = 0x630
    SYSENTER_EIP = 0x638
    CR2 = 0x640
    G_PAT = 0x668

    @property
    def in_save_area(self) -> bool:
        return int(self) >= VMCB_SAVE_AREA_OFFSET


#: Every slot keyed by offset; ``IntEnum`` members hash like their
#: values, so a bare offset finds its member without constructing it.
VMCB_SLOTS: dict[int, VmcbField] = {int(f): f for f in VmcbField}


def vmcb_slot(fld: int) -> VmcbField:
    """The :class:`VmcbField` at offset ``fld``; ``ValueError`` if none."""
    try:
        return VMCB_SLOTS[fld]
    except (KeyError, TypeError):
        raise ValueError(f"{fld!r} is not a valid VmcbField") from None


@dataclass
class Vmcb:
    """One VMCB region: a flat field store addressed by offset.

    Unlike :class:`~repro.vmx.vmcs.Vmcs`, every field is plain
    read/write memory — including the exit code.
    """

    address: int
    _fields: dict[VmcbField, int] = field(default_factory=dict)
    #: Slots written since :meth:`mark_clean` — the write set the
    #: delta-aware snapshot restore undoes (mirrors ``Vmcs.dirty``).
    dirty: set[VmcbField] = field(default_factory=set)

    def read(self, fld: VmcbField) -> int:
        return self._fields.get(vmcb_slot(fld), 0)

    def write(self, fld: VmcbField, value: int) -> None:
        fld = vmcb_slot(fld)
        self._fields[fld] = value & MASK64
        self.dirty.add(fld)

    def restore_slot(self, fld: VmcbField, value: int) -> None:
        """Snapshot-side write: no dirty marking."""
        self._fields[vmcb_slot(fld)] = value & MASK64

    def erase_slot(self, fld: VmcbField) -> None:
        """Forget a slot, as a full :meth:`load_contents` would."""
        self._fields.pop(vmcb_slot(fld), None)

    def mark_clean(self) -> None:
        """Reset the write set (snapshot taken/restored here)."""
        self.dirty.clear()

    def contents(self) -> dict[VmcbField, int]:
        return dict(self._fields)

    def load_contents(self, values: dict[VmcbField, int]) -> None:
        self.dirty.update(self._fields)
        self._fields = {
            vmcb_slot(f): v & MASK64 for f, v in values.items()
        }
        self.dirty.update(self._fields)

    def copy(self, address: int | None = None) -> "Vmcb":
        clone = Vmcb(
            address=self.address if address is None else address
        )
        clone._fields = dict(self._fields)
        clone.dirty = set(self.dirty)
        return clone
