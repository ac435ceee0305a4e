"""The AMD-V (SVM) implementation of :class:`~repro.arch.backend.VirtBackend`.

The paper's §IX porting argument, made executable.  The neutral layers
keep addressing guest state by :class:`~repro.arch.fields.ArchField`;
this backend maps each field onto its VMCB slot (AMD APM Vol. 2,
Appendix B) through the canonical subset of the VMCS↔VMCB
correspondence in :mod:`repro.svm.translate`.  Three kinds of fields
need more than a table lookup:

* **VM_EXIT_REASON** has no VMCB slot — SVM reports exits through
  EXITCODE.  Reads *decode* EXITCODE (+EXITINFO1 for MSR direction)
  back into the neutral reason numbering; the hardware-side exit latch
  *encodes* the reason into an EXITCODE.  Round-tripping through the
  physical representation is what keeps the dispatcher and the seed
  format backend-agnostic.
* **VM_EXIT_INSTRUCTION_LEN** is derived state: SVM stores the
  *address of the next instruction* (NEXT_RIP) rather than a length,
  so reads compute ``NEXT_RIP - RIP`` and writes re-materialize
  NEXT_RIP.
* **VT-x-only fields** (pin-based controls, the VMCS link pointer,
  activity state, the preemption-timer value, ...) live in a per-vCPU
  software shadow — exactly the bookkeeping a real SVM hypervisor
  keeps outside the VMCB — so no symbolic field is ever silently lost.

The dummy VM's continuous-exit mechanism is the PAUSE intercept with a
zero pause-filter count: the guest's first PAUSE-window check fires
before any instruction retires, the SVM twin of the zero-valued VMX
preemption timer (paper §V-B).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.arch.backend import (
    LAUNCH_CLEAR,
    LAUNCH_LAUNCHED,
    apply_reset_state,
)
from repro.arch.fields import ArchField, field_info, field_width
from repro.errors import SvmError
from repro.obs import OBS
from repro.svm.consistency_checks import check_vmrun
from repro.svm.exit_codes import (
    SvmExitCode,
    exit_code_for_reason,
    exit_reason_for_code,
)
from repro.svm.svm_ops import CpuSvmMode, SvmCpu
from repro.svm.translate import VMCB_TO_VMCS
from repro.svm.vmcb import MASK64, Vmcb, VmcbField
from repro.vmx.exit_qualification import CrAccessQualification
from repro.vmx.exit_reasons import ExitReason

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.arch.events import ExitEvent
    from repro.hypervisor.vcpu import Vcpu
    from repro.vmx.entry_checks import EntryCheckViolation

#: ArchField -> VMCB slot, injective by construction (the canonical
#: inverse of the translation table, turned around).
FIELD_TO_VMCB: dict[ArchField, VmcbField] = {
    fld: slot for slot, fld in VMCB_TO_VMCS.items()
}

#: INTERCEPT_VECTOR3 bit for the PAUSE intercept (APM Vol. 2, §15.13).
PAUSE_INTERCEPT_BIT = 1 << 23

#: Same guest-TSC granularity as the VMX preemption timer's shift of 5,
#: so the replay clock model charges identically on both backends.
PAUSE_FILTER_TSC_SHIFT = 5

#: ASID the model assigns its guests; 0 is reserved for the host.
GUEST_ASID_VALUE = 1

#: Exception vectors occupy EXITCODEs 0x40..0x5F (VMEXIT_EXCP_BASE + v).
_EXCP_VECTOR_MASK = 0x1F


@dataclass
class SvmContinuousExitDriver:
    """PAUSE intercept + pause filter as the dummy VM's exit generator.

    With the intercept armed and PAUSE_FILTER_COUNT loaded with zero
    the filter is exhausted before the guest retires an instruction,
    so every VMRUN comes straight back with VMEXIT_PAUSE — the SVM
    analogue of the zero-valued preemption timer.
    """

    vmcb: Vmcb

    @property
    def exit_reason(self) -> ExitReason:
        return ExitReason.PAUSE

    @property
    def active(self) -> bool:
        vec3 = self.vmcb.read(VmcbField.INTERCEPT_VECTOR3)
        return bool(vec3 & PAUSE_INTERCEPT_BIT)

    @property
    def value(self) -> int:
        return self.vmcb.read(VmcbField.PAUSE_FILTER_COUNT)

    def activate(self) -> None:
        vec3 = self.vmcb.read(VmcbField.INTERCEPT_VECTOR3)
        self.vmcb.write(
            VmcbField.INTERCEPT_VECTOR3, vec3 | PAUSE_INTERCEPT_BIT
        )

    def deactivate(self) -> None:
        vec3 = self.vmcb.read(VmcbField.INTERCEPT_VECTOR3)
        self.vmcb.write(
            VmcbField.INTERCEPT_VECTOR3, vec3 & ~PAUSE_INTERCEPT_BIT
        )

    def load(self, value: int) -> None:
        self.vmcb.write(VmcbField.PAUSE_FILTER_COUNT, value)

    def guest_cycles_until_expiry(self) -> int | None:
        if not self.active:
            return None
        return self.value << PAUSE_FILTER_TSC_SHIFT


class SvmBackend:
    """AMD-V: VMCB + VMRUN/#VMEXIT + §15.5 consistency checks."""

    name = "svm"

    # ---- CPU / control-structure lifecycle -------------------------

    def create_cpu(self, vcpu: "Vcpu") -> None:
        svm = SvmCpu()
        svm.enable()  # EFER.SVME
        svm.allocate_vmcb(vcpu.vmcs_address)
        vcpu.svm = svm

    def _vmcb(self, vcpu: "Vcpu") -> Vmcb:
        svm = vcpu.svm
        if svm is None:  # pragma: no cover - plumbing error
            raise SvmError("vCPU has no SVM state")
        return svm.vmcbs[vcpu.vmcs_address]

    def init_guest_state(self, vcpu: "Vcpu") -> None:
        """Xen's construct_vmcb(): host-owned slots, then the baseline."""
        vmcb = self._vmcb(vcpu)
        vcpu.svm.shadow_dirty.update(vcpu.svm.shadow)
        vcpu.svm.shadow.clear()
        vmcb.write(VmcbField.GUEST_ASID, GUEST_ASID_VALUE)
        vmcb.write(VmcbField.NP_ENABLE, 1)  # nested paging (EPT twin)
        apply_reset_state(self, vcpu)

    # ---- guest-state access ----------------------------------------

    def read(self, vcpu: "Vcpu", fld: ArchField) -> int:
        # The VMCB is plain memory: instruction-level access and raw
        # access coincide (no VMREAD mode checks, no read-only fields).
        return self.read_raw(vcpu, fld)

    def write(self, vcpu: "Vcpu", fld: ArchField, value: int) -> None:
        self.write_raw(vcpu, fld, value)

    def read_raw(self, vcpu: "Vcpu", fld: ArchField) -> int:
        fld, mask, _ = field_info(fld)
        vmcb = self._vmcb(vcpu)
        if fld is ArchField.VM_EXIT_REASON:
            return self._decode_exit_reason(vcpu, vmcb) & mask
        if fld is ArchField.VM_EXIT_INSTRUCTION_LEN:
            next_rip = vmcb.read(VmcbField.NEXT_RIP)
            rip = vmcb.read(VmcbField.RIP)
            return (next_rip - rip) & mask
        slot = FIELD_TO_VMCB.get(fld)
        if slot is not None:
            return vmcb.read(slot) & mask
        return vcpu.svm.shadow.get(fld, 0) & mask

    def write_raw(self, vcpu: "Vcpu", fld: ArchField, value: int) -> None:
        fld, mask, _ = field_info(fld)
        vmcb = self._vmcb(vcpu)
        value &= mask
        if fld is ArchField.VM_EXIT_REASON:
            self._encode_exit_reason(vcpu, vmcb, value)
            return
        if fld is ArchField.VM_EXIT_INSTRUCTION_LEN:
            rip = vmcb.read(VmcbField.RIP)
            vmcb.write(VmcbField.NEXT_RIP, (rip + value) & MASK64)
            return
        slot = FIELD_TO_VMCB.get(fld)
        if slot is not None:
            if slot is VmcbField.INTERCEPT_VECTOR3:
                # The PAUSE intercept is owned by the continuous-exit
                # driver, never by translated control values: VT-x's
                # bit 23 (MOV-DR exiting) has a dedicated DR intercept
                # vector on SVM, so mapping it verbatim onto the PAUSE
                # bit would let a replayed CPU_BASED echo-write disarm
                # the dummy VM's exit generator.
                pause = vmcb.read(slot) & PAUSE_INTERCEPT_BIT
                value = (value & ~PAUSE_INTERCEPT_BIT) | pause
            vmcb.write(slot, value)
        else:
            vcpu.svm.shadow[fld] = value
            vcpu.svm.shadow_dirty.add(fld)

    def field_is_read_only(self, fld: ArchField) -> bool:
        # Unlike the VMCS, every VMCB byte is writable by the host;
        # replay still skips echo-writes for *architecturally*
        # exit-information fields via the shared field model, so the
        # replay semantics stay identical across backends.
        return False

    # ---- exit-reason encode/decode ---------------------------------

    def _decode_exit_reason(self, vcpu: "Vcpu", vmcb: Vmcb) -> int:
        # VT-x-only reasons imported from a cross-architecture snapshot
        # have no EXITCODE; they are held verbatim in the shadow.
        shadowed = vcpu.svm.shadow.get(ArchField.VM_EXIT_REASON)
        if shadowed is not None:
            return shadowed
        code = vmcb.read(VmcbField.EXITCODE)
        exitinfo1 = vmcb.read(VmcbField.EXITINFO1)
        return exit_reason_for_code(code, exitinfo1)

    def _encode_exit_reason(
        self, vcpu: "Vcpu", vmcb: Vmcb, value: int
    ) -> None:
        vcpu.svm.shadow.pop(ArchField.VM_EXIT_REASON, None)
        vcpu.svm.shadow_dirty.add(ArchField.VM_EXIT_REASON)
        try:
            reason = ExitReason(value & 0xFFFF)
        except ValueError:
            vcpu.svm.shadow[ArchField.VM_EXIT_REASON] = value
            return
        cr, is_read = None, False
        if reason is ExitReason.CR_ACCESS:
            qual = CrAccessQualification.unpack(
                vmcb.read(VmcbField.EXITINFO1)
            )
            cr, is_read = qual.cr, int(qual.access_type) == 1
        code = exit_code_for_reason(reason, cr=cr, is_read=is_read)
        if code is None:
            # A VT-x-only reason (preemption timer, VMX instructions
            # other than VMLAUNCH, ...): keep it in the shadow so the
            # value survives a snapshot round trip.
            vcpu.svm.shadow[ArchField.VM_EXIT_REASON] = value
            return
        code_val = int(code)
        if reason is ExitReason.EXCEPTION_NMI:
            vector = vmcb.read(VmcbField.EXITINTINFO) & _EXCP_VECTOR_MASK
            code_val = int(SvmExitCode.VMEXIT_EXCP_BASE) + vector
        elif reason is ExitReason.RDMSR:
            vmcb.write(VmcbField.EXITINFO1, 0)
        elif reason is ExitReason.WRMSR:
            vmcb.write(VmcbField.EXITINFO1, 1)
        vmcb.write(VmcbField.EXITCODE, code_val)

    # ---- exit/entry machinery --------------------------------------

    def latch_exit(self, vcpu: "Vcpu", event: "ExitEvent") -> None:
        """Hardware-side #VMEXIT: populate the VMCB control area."""
        vmcb = self._vmcb(vcpu)
        svm = vcpu.svm
        reason = event.reason
        cr, is_read = None, False
        if reason is ExitReason.CR_ACCESS:
            qual = CrAccessQualification.unpack(event.qualification)
            cr, is_read = qual.cr, int(qual.access_type) == 1
        code = exit_code_for_reason(reason, cr=cr, is_read=is_read)
        if code is None:
            raise SvmError(
                f"VM exit reason {reason.name} cannot be delivered "
                "on SVM (no EXITCODE)"
            )
        code_val = int(code)
        if reason is ExitReason.EXCEPTION_NMI and event.intr_info:
            code_val = int(SvmExitCode.VMEXIT_EXCP_BASE) + (
                event.intr_info & _EXCP_VECTOR_MASK
            )
        exitinfo1 = event.qualification
        if reason is ExitReason.RDMSR:
            exitinfo1 = 0
        elif reason is ExitReason.WRMSR:
            exitinfo1 = 1
        svm.shadow.pop(ArchField.VM_EXIT_REASON, None)
        svm.shadow_dirty.add(ArchField.VM_EXIT_REASON)
        vmcb.write(VmcbField.EXITCODE, code_val)
        vmcb.write(VmcbField.EXITINFO1, exitinfo1)
        vmcb.write(VmcbField.EXITINFO2, event.guest_physical_address)
        vmcb.write(VmcbField.EXITINTINFO, event.intr_info)
        rip = vmcb.read(VmcbField.RIP)
        vmcb.write(
            VmcbField.NEXT_RIP, (rip + event.instruction_len) & MASK64
        )
        # Exit details VT-x reports in registers SVM does not have.
        svm.shadow[ArchField.GUEST_LINEAR_ADDRESS] = (
            event.guest_linear_address
        )
        svm.shadow[ArchField.VMX_INSTRUCTION_INFO] = (
            event.instruction_info
        )
        svm.shadow_dirty.add(ArchField.GUEST_LINEAR_ADDRESS)
        svm.shadow_dirty.add(ArchField.VMX_INSTRUCTION_INFO)

    def deliver_exit_to_cpu(self, vcpu: "Vcpu") -> None:
        if OBS.metrics.enabled:
            OBS.metrics.inc(
                "world_switches", arch=self.name, direction="exit"
            )
        vcpu.svm.vmexit()

    def validate_entry(self, vcpu: "Vcpu") -> "list[EntryCheckViolation]":
        vmcb = self._vmcb(vcpu)
        return check_vmrun(
            lambda fld: self.read_raw(vcpu, fld),
            asid=vmcb.read(VmcbField.GUEST_ASID),
            svme=vcpu.svm.svme,
        )

    def enter_guest(self, vcpu: "Vcpu") -> None:
        if OBS.metrics.enabled:
            OBS.metrics.inc(
                "world_switches", arch=self.name, direction="entry"
            )
        vcpu.svm.vmrun(vcpu.vmcs_address)

    def is_in_guest(self, vcpu: "Vcpu") -> bool:
        return vcpu.svm.mode is CpuSvmMode.GUEST

    # ---- snapshot support ------------------------------------------

    def export_guest_state(
        self, vcpu: "Vcpu"
    ) -> tuple[dict[ArchField, int], str]:
        vmcb = self._vmcb(vcpu)
        svm = vcpu.svm
        fields: dict[ArchField, int] = {}
        contents = vmcb.contents()
        for slot, value in contents.items():
            fld = VMCB_TO_VMCS.get(slot)
            if fld is not None:
                fields[fld] = value & field_width(fld).mask
        for fld, value in svm.shadow.items():
            fields[fld] = value & field_width(fld).mask
        # Derived fields last, so a later import (which replays this
        # dict in order) has RIP and EXITINFO1 in place already.
        if VmcbField.NEXT_RIP in contents:
            fields[ArchField.VM_EXIT_INSTRUCTION_LEN] = self.read_raw(
                vcpu, ArchField.VM_EXIT_INSTRUCTION_LEN
            )
        if (
            VmcbField.EXITCODE in contents
            and ArchField.VM_EXIT_REASON not in svm.shadow
        ):
            fields[ArchField.VM_EXIT_REASON] = self.read_raw(
                vcpu, ArchField.VM_EXIT_REASON
            )
        token = LAUNCH_LAUNCHED if svm.has_run else LAUNCH_CLEAR
        return fields, token

    def import_guest_state(
        self, vcpu: "Vcpu", fields: dict[ArchField, int],
        launch_token: str,
    ) -> None:
        vmcb = self._vmcb(vcpu)
        svm = vcpu.svm
        vmcb.load_contents({})
        svm.shadow_dirty.update(svm.shadow)
        svm.shadow.clear()
        vmcb.write(VmcbField.GUEST_ASID, GUEST_ASID_VALUE)
        vmcb.write(VmcbField.NP_ENABLE, 1)
        deferred: dict[ArchField, int] = {}
        for fld, value in fields.items():
            fld = ArchField(fld)
            if fld in (
                ArchField.VM_EXIT_REASON,
                ArchField.VM_EXIT_INSTRUCTION_LEN,
            ):
                deferred[fld] = value
                continue
            self.write_raw(vcpu, fld, value)
        if ArchField.VM_EXIT_INSTRUCTION_LEN in deferred:
            self.write_raw(
                vcpu,
                ArchField.VM_EXIT_INSTRUCTION_LEN,
                deferred[ArchField.VM_EXIT_INSTRUCTION_LEN],
            )
        if ArchField.VM_EXIT_REASON in deferred:
            self.write_raw(
                vcpu,
                ArchField.VM_EXIT_REASON,
                deferred[ArchField.VM_EXIT_REASON],
            )
        svm.has_run = launch_token == LAUNCH_LAUNCHED
        svm.mode = CpuSvmMode.HOST

    def import_guest_state_delta(
        self, vcpu: "Vcpu", fields: dict[ArchField, int],
        launch_token: str,
    ) -> None:
        """Rewind only the state written since :meth:`clear_dirty`.

        Dirty VMCB slots are folded back into ArchField space (via the
        canonical slot map plus the NEXT_RIP / EXITCODE derivations)
        and each affected field is then set to its snapshot value or
        erased, in the same plain-then-derived order as the full
        import, so the end state is indistinguishable from
        :meth:`import_guest_state` of the same map.
        """
        vmcb = self._vmcb(vcpu)
        svm = vcpu.svm
        dirty: set[ArchField] = set(svm.shadow_dirty)
        for slot in vmcb.dirty:
            if slot is VmcbField.GUEST_ASID:
                # Host-owned baseline the full import always rewrites.
                vmcb.restore_slot(slot, GUEST_ASID_VALUE)
                continue
            if slot is VmcbField.NP_ENABLE:
                vmcb.restore_slot(slot, 1)
                continue
            if slot is VmcbField.NEXT_RIP:
                dirty.add(ArchField.VM_EXIT_INSTRUCTION_LEN)
                continue
            if slot is VmcbField.EXITCODE:
                dirty.add(ArchField.VM_EXIT_REASON)
                continue
            fld = VMCB_TO_VMCS.get(slot)
            if fld is None:
                # No neutral name (e.g. PAUSE_FILTER_COUNT): the full
                # import's load_contents({}) would forget it.
                vmcb.erase_slot(slot)
                continue
            dirty.add(fld)
            if slot is VmcbField.RIP:
                # NEXT_RIP is derived from RIP: moving RIP back also
                # re-materializes the stored instruction length.
                dirty.add(ArchField.VM_EXIT_INSTRUCTION_LEN)
            elif slot is VmcbField.EXITINFO1:
                # EXITINFO1 carries the MSR direction the exit-reason
                # decode consumes.
                dirty.add(ArchField.VM_EXIT_REASON)
        # Plain fields first, then the derived ones, mirroring the
        # deferred-application order of the full import.
        derived = (
            ArchField.VM_EXIT_INSTRUCTION_LEN,
            ArchField.VM_EXIT_REASON,
        )
        for fld in dirty:
            if fld not in derived:
                self._delta_apply(vcpu, vmcb, svm, fields, fld)
        for fld in derived:
            if fld in dirty:
                self._delta_apply(vcpu, vmcb, svm, fields, fld)
        vmcb.mark_clean()
        svm.shadow_dirty.clear()
        svm.has_run = launch_token == LAUNCH_LAUNCHED
        svm.mode = CpuSvmMode.HOST

    def _delta_apply(
        self, vcpu: "Vcpu", vmcb: Vmcb, svm: SvmCpu,
        fields: dict[ArchField, int], fld: ArchField,
    ) -> None:
        """Set one field to its snapshot value, or erase it as the full
        import's empty-structure baseline would."""
        value = fields.get(fld)
        if value is not None:
            slot = FIELD_TO_VMCB.get(fld)
            if slot is VmcbField.INTERCEPT_VECTOR3:
                # The full import writes this slot against an empty
                # VMCB, so its pause-preservation sees bit 23 clear;
                # reproduce that baseline before going through
                # write_raw's preservation logic.
                vmcb.restore_slot(
                    slot, vmcb.read(slot) & ~PAUSE_INTERCEPT_BIT
                )
            self.write_raw(vcpu, fld, value)
            return
        if fld is ArchField.VM_EXIT_INSTRUCTION_LEN:
            vmcb.erase_slot(VmcbField.NEXT_RIP)
        elif fld is ArchField.VM_EXIT_REASON:
            vmcb.erase_slot(VmcbField.EXITCODE)
            svm.shadow.pop(fld, None)
        else:
            slot = FIELD_TO_VMCB.get(fld)
            if slot is not None:
                vmcb.erase_slot(slot)
            else:
                svm.shadow.pop(fld, None)

    def clear_dirty(self, vcpu: "Vcpu") -> None:
        self._vmcb(vcpu).mark_clean()
        vcpu.svm.shadow_dirty.clear()

    def park_cpu(self, vcpu: "Vcpu") -> None:
        vcpu.svm.mode = CpuSvmMode.HOST

    # ---- replay support --------------------------------------------

    def continuous_exit_driver(
        self, vcpu: "Vcpu"
    ) -> SvmContinuousExitDriver:
        return SvmContinuousExitDriver(self._vmcb(vcpu))
