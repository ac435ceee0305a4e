"""Test-VM snapshots (paper §IV-B / §VI-B).

The manager saves a snapshot at the start of recording and can revert
to it so record and replay start from identical hypervisor-visible
state.  A snapshot captures the *hypervisor side* of a VM — VMCS
contents, the vCPU's architectural registers and MSRs, the hypervisor's
cached abstractions, virtual-device state — and only optionally guest
memory: IRIS deliberately does not carry guest memory into replay
(§IV-A), which is what the memory-seed ablation flips.

A snapshot that leaves the process travels as canonical JSON through
:meth:`VmSnapshot.to_json` / :meth:`VmSnapshot.from_json`, a codec
declared field by field (``_SNAPSHOT_SCHEMA``) rather than derived from
the live object graph, so a decoder can only ever build the types
declared here.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any

from repro.arch.fields import ArchField
from repro.core.jsoncodec import JsonCodec
from repro.errors import SeedFormatError
from repro.hypervisor.domain import Domain
from repro.hypervisor.hypervisor import Hypervisor
from repro.hypervisor.vcpu import HvmVcpuState, Vcpu
from repro.x86.cpumodes import OperatingMode
from repro.x86.registers import GPR


@dataclass
class VmSnapshot:
    """Everything needed to restore a vCPU/domain to a prior state."""

    #: Guest state as a neutral field map (exported by the backend).
    vmcs_fields: dict[ArchField, int]
    #: Backend-neutral launch token (arch.backend.LAUNCH_*).
    launch_state: str
    gprs: dict
    rip: int
    rsp: int
    rflags: int
    cr0: int
    cr2: int
    cr3: int
    cr4: int
    msr_values: dict[int, int]
    hvm: dict
    vlapic: dict
    vpt: dict
    irq: dict
    memory_pages: dict[int, bytes] | None = None
    ept_gfns: tuple[int, ...] = ()
    clock_tsc: int = 0

    def to_json(self) -> str:
        """Canonical JSON (sorted keys, no whitespace variance)."""
        return json.dumps(
            _CODEC.encode(_SNAPSHOT_SCHEMA, self.__dict__),
            sort_keys=True, separators=(",", ":"),
        )

    @classmethod
    def from_json(cls, text: str | bytes) -> "VmSnapshot":
        """Inverse of :meth:`to_json`; raises only
        :class:`SeedFormatError`, whatever the input."""
        try:
            payload = json.loads(text)
        except (ValueError, RecursionError) as exc:
            raise SeedFormatError(
                f"undecodable snapshot JSON: {exc}"
            ) from exc
        return cls(**_CODEC.decode(_SNAPSHOT_SCHEMA, payload))


#: The snapshot codec: every :class:`VmSnapshot` field, and the
#: ``snapshot()`` layouts of the device state it carries (vCPU HVM
#: state, vLAPIC, platform timer, IRQ controller), as
#: :mod:`repro.core.jsoncodec` schemas.
_SNAPSHOT_SCHEMA: dict[str, Any] = {
    "vmcs_fields": dict[ArchField, int],
    "launch_state": str,
    "gprs": dict[GPR, int],
    **dict.fromkeys(("rip", "rsp", "rflags", "cr0", "cr2", "cr3", "cr4"),
                    int),
    "msr_values": dict[int, int],
    "hvm": dict.fromkeys(
        ("guest_mode", "hw_cr0", "hw_cr4", "guest_cr3", "exit_count"),
        int,
    ),
    "vlapic": {
        "base": int, "enabled": bool, "regs": dict[int, int],
        "irr": list[int], "period": int, "next_timer_due": int,
        "timer_fires": int,
    },
    "vpt": {
        "period": int, "next_due": int, "pending_ticks": int,
        "fires": int, "channels": dict[int, int],
        "latch": dict[int, int | None],
    },
    "irq": {
        "pic_regs": dict[int, int], "asserted": list[int],
        "assert_count": int,
    },
    "memory_pages": dict[int, bytes] | None,
    "ept_gfns": tuple[int, ...],
    "clock_tsc": int,
}

_CODEC = JsonCodec()


def _mark_clean(hv: Hypervisor, domain: Domain, vcpu: Vcpu) -> None:
    """Reset every write set: the domain now *is* the stamped snapshot.

    From here on the dirty-tracking layers (VMCS/VMCB fields, GPRs,
    MSRs, device models, EPT, guest memory) record exactly how the
    domain drifts away from that snapshot, which is what the delta
    restore rewinds.
    """
    vcpu.backend.clear_dirty(vcpu)
    vcpu.regs.mark_clean()
    vcpu.msrs.mark_clean()
    hv.vlapic(vcpu).mark_clean()
    hv.platform_timer(domain).mark_clean()
    hv.irq_controller(domain).mark_clean()
    domain.ept.mark_clean()
    domain.memory.mark_clean()


def take_snapshot(
    hv: Hypervisor, domain: Domain, include_memory: bool = False
) -> VmSnapshot:
    """Capture the hypervisor-visible state of ``domain``'s vCPU 0."""
    vcpu = domain.vcpus[0]
    fields, launch_token = vcpu.backend.export_guest_state(vcpu)
    snapshot = VmSnapshot(
        vmcs_fields=fields,
        launch_state=launch_token,
        gprs=dict(vcpu.regs.gprs),
        rip=vcpu.regs.rip,
        rsp=vcpu.regs.rsp,
        rflags=vcpu.regs.rflags,
        cr0=vcpu.regs.cr0,
        cr2=vcpu.regs.cr2,
        cr3=vcpu.regs.cr3,
        cr4=vcpu.regs.cr4,
        msr_values=dict(vcpu.msrs.values),
        hvm={
            "guest_mode": int(vcpu.hvm.guest_mode),
            "hw_cr0": vcpu.hvm.hw_cr0,
            "hw_cr4": vcpu.hvm.hw_cr4,
            "guest_cr3": vcpu.hvm.guest_cr3,
            "exit_count": vcpu.hvm.exit_count,
        },
        vlapic=hv.vlapic(vcpu).snapshot(),
        vpt=hv.platform_timer(domain).snapshot(),
        irq=hv.irq_controller(domain).snapshot(),
        memory_pages=(
            domain.memory.snapshot() if include_memory else None
        ),
        ept_gfns=tuple(sorted(domain.ept.mapped_gfns())),
        clock_tsc=hv.clock.now,
    )
    # The domain is, by construction, in exactly the captured state:
    # stamp it so a later restore of this snapshot can take the delta
    # path (the fuzzer's crash-revert loop, paper Fig. 11).
    domain.restore_stamp = snapshot
    _mark_clean(hv, domain, vcpu)
    return snapshot


def restore_snapshot(
    hv: Hypervisor, domain: Domain, snapshot: VmSnapshot,
    fast: bool = False,
) -> Vcpu:
    """Restore a snapshot onto ``domain`` (the revert operation).

    The target may be a different domain than the snapshot source —
    that is exactly how the dummy VM starts "from a particular VM
    state" (paper §IV-C): same VMCS/vCPU/device state, its own (empty,
    unless the snapshot carried memory) guest memory.

    When ``fast`` is true and the domain is stamped with this very
    snapshot, only the state dirtied since the stamp is rewound (the
    write sets the storage layers track); otherwise the whole state is
    rebuilt.  Both paths leave identical observable state — the
    fast-reset differential tests pin that equivalence.  ``fast`` is
    opt-in because the write sets only see *tracked* mutation (the
    backend/handler/device entry points): callers that poke domain
    state or the snapshot directly — tests, interactive use — must
    stay on the full path.  The fuzzer's crash-revert loop (paper
    Fig. 11), where every mutation goes through tracked paths, is the
    intended fast caller.
    """
    vcpu = domain.vcpus[0]
    delta = fast and domain.restore_stamp is snapshot
    if delta:
        vcpu.backend.import_guest_state_delta(
            vcpu, snapshot.vmcs_fields, snapshot.launch_state
        )
        for reg in vcpu.regs.dirty_gprs:
            if reg in snapshot.gprs:
                vcpu.regs.gprs[reg] = snapshot.gprs[reg]
    else:
        vcpu.backend.import_guest_state(
            vcpu, snapshot.vmcs_fields, snapshot.launch_state
        )
        vcpu.regs.load_gprs(snapshot.gprs)
    vcpu.regs.rip = snapshot.rip
    vcpu.regs.rsp = snapshot.rsp
    vcpu.regs.rflags = snapshot.rflags
    vcpu.regs.cr0 = snapshot.cr0
    vcpu.regs.cr2 = snapshot.cr2
    vcpu.regs.cr3 = snapshot.cr3
    vcpu.regs.cr4 = snapshot.cr4
    if delta:
        for msr in vcpu.msrs.dirty:
            if msr in snapshot.msr_values:
                vcpu.msrs.values[msr] = snapshot.msr_values[msr]
            else:
                vcpu.msrs.values.pop(msr, None)
    else:
        vcpu.msrs.values = dict(snapshot.msr_values)
    vcpu.hvm = HvmVcpuState(
        guest_mode=OperatingMode(snapshot.hvm["guest_mode"]),
        hw_cr0=snapshot.hvm["hw_cr0"],
        hw_cr4=snapshot.hvm["hw_cr4"],
        guest_cr3=snapshot.hvm["guest_cr3"],
        exit_count=snapshot.hvm["exit_count"],
    )
    vlapic = hv.vlapic(vcpu)
    vpt = hv.platform_timer(domain)
    irq = hv.irq_controller(domain)
    if not delta or vlapic.dirty:
        vlapic.restore(snapshot.vlapic)
    if not delta or vpt.dirty:
        vpt.restore(snapshot.vpt)
    if not delta or irq.dirty:
        irq.restore(snapshot.irq)
    if snapshot.memory_pages is not None and (
        not delta or domain.memory.dirty
    ):
        domain.memory.restore(snapshot.memory_pages)
    if not delta or domain.ept.dirty:
        for gfn in snapshot.ept_gfns:
            if domain.ept.lookup(gfn) is None:
                domain.ept.map_page(gfn, mfn=0x100000 + gfn)
    domain.revive()
    domain.restore_stamp = snapshot
    _mark_clean(hv, domain, vcpu)
    return vcpu
