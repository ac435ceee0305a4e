"""VMX instruction semantics: VMXON/VMCLEAR/VMPTRLD/VMLAUNCH/VMRESUME/
VMREAD/VMWRITE.

:class:`VmxCpu` models one logical processor's VMX operation: whether
VMX is on, which VMCS is *current*, and the architectural success/failure
behaviour of every VMX instruction, including the VM-instruction error
numbers of SDM §30.4 (a failed instruction with a current VMCS stores
its error number in the VM_INSTRUCTION_ERROR field — VMfailValid).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.errors import VmxFailInvalid, VmxFailValid
from repro.vmx.vmcs import Vmcs, VmcsLaunchState, VMCS_REVISION_ID
from repro.arch.fields import FIELD_INFO
from repro.vmx.vmcs_fields import VmcsField


class VmxInstructionError(enum.IntEnum):
    """VM-instruction error numbers (SDM Vol. 3, §30.4)."""

    VMCALL_IN_ROOT = 1
    VMCLEAR_INVALID_ADDRESS = 2
    VMCLEAR_VMXON_POINTER = 3
    VMLAUNCH_NONCLEAR_VMCS = 4
    VMRESUME_NONLAUNCHED_VMCS = 5
    VMRESUME_AFTER_VMXOFF = 6
    ENTRY_INVALID_CONTROL_FIELDS = 7
    ENTRY_INVALID_HOST_STATE = 8
    VMPTRLD_INVALID_ADDRESS = 9
    VMPTRLD_VMXON_POINTER = 10
    VMPTRLD_INCORRECT_REVISION = 11
    UNSUPPORTED_VMCS_COMPONENT = 12
    VMWRITE_READ_ONLY_COMPONENT = 13
    VMXON_IN_ROOT = 15
    ENTRY_INVALID_EXECUTIVE_VMCS = 16


class CpuVmxMode(enum.Enum):
    """Whether the logical processor is in root or non-root operation."""

    OFF = "off"  # VMX not enabled
    ROOT = "root"  # hypervisor context
    NON_ROOT = "non-root"  # guest context


@dataclass
class VmxCpu:
    """VMX state of one logical processor.

    ``regions`` stands in for physical memory holding VMCS regions: a
    map from "physical address" to :class:`Vmcs`.  A VMCS must be
    registered (allocated) before VMPTRLD can make it current, just as
    real VMCS memory must be allocated before use.
    """

    mode: CpuVmxMode = CpuVmxMode.OFF
    vmxon_region: int | None = None
    current_vmcs: Vmcs | None = None
    regions: dict[int, Vmcs] = field(default_factory=dict)

    # ---- helpers ----------------------------------------------------

    def _fail(self, error: VmxInstructionError, message: str) -> None:
        """VMfail: Valid when a current VMCS exists, Invalid otherwise."""
        if self.current_vmcs is not None:
            self.current_vmcs.write_exit_info(
                VmcsField.VM_INSTRUCTION_ERROR, int(error)
            )
            raise VmxFailValid(int(error), message)
        raise VmxFailInvalid(message)

    def _require_root(self, instruction: str) -> None:
        if self.mode is not CpuVmxMode.ROOT:
            raise VmxFailInvalid(
                f"{instruction} requires VMX root operation "
                f"(cpu mode: {self.mode.value})"
            )

    def allocate_vmcs(self, address: int) -> Vmcs:
        """Allocate a VMCS region at a simulated physical address."""
        if address in self.regions:
            raise ValueError(f"VMCS region at 0x{address:x} already exists")
        if address == self.vmxon_region:
            raise ValueError("cannot allocate a VMCS over the VMXON region")
        vmcs = Vmcs(address=address)
        self.regions[address] = vmcs
        return vmcs

    # ---- VMX instructions --------------------------------------------

    def vmxon(self, region_address: int) -> None:
        """Enter VMX root operation."""
        if self.mode is CpuVmxMode.ROOT:
            self._fail(VmxInstructionError.VMXON_IN_ROOT,
                       "VMXON executed in VMX root operation")
        self.mode = CpuVmxMode.ROOT
        self.vmxon_region = region_address
        self.current_vmcs = None

    def vmxoff(self) -> None:
        """Leave VMX operation."""
        self._require_root("VMXOFF")
        self.mode = CpuVmxMode.OFF
        self.vmxon_region = None
        self.current_vmcs = None

    def vmclear(self, address: int) -> None:
        """Initialize/flush a VMCS region; launch state becomes Clear."""
        self._require_root("VMCLEAR")
        if address == self.vmxon_region:
            self._fail(VmxInstructionError.VMCLEAR_VMXON_POINTER,
                       "VMCLEAR with VMXON pointer")
        vmcs = self.regions.get(address)
        if vmcs is None:
            self._fail(VmxInstructionError.VMCLEAR_INVALID_ADDRESS,
                       f"VMCLEAR with invalid address 0x{address:x}")
            return  # unreachable; _fail raises
        vmcs.clear()
        if self.current_vmcs is vmcs:
            # VMCLEAR of the current VMCS makes the processor's
            # current-VMCS pointer invalid (SDM §24.11.3).
            self.current_vmcs = None

    def vmptrld(self, address: int) -> Vmcs:
        """Make the VMCS at ``address`` current and active."""
        self._require_root("VMPTRLD")
        if address == self.vmxon_region:
            self._fail(VmxInstructionError.VMPTRLD_VMXON_POINTER,
                       "VMPTRLD with VMXON pointer")
        vmcs = self.regions.get(address)
        if vmcs is None:
            self._fail(VmxInstructionError.VMPTRLD_INVALID_ADDRESS,
                       f"VMPTRLD with invalid address 0x{address:x}")
            raise AssertionError("unreachable")
        if vmcs.revision_id != VMCS_REVISION_ID:
            self._fail(VmxInstructionError.VMPTRLD_INCORRECT_REVISION,
                       f"VMCS revision {vmcs.revision_id:#x} != "
                       f"{VMCS_REVISION_ID:#x}")
        self.current_vmcs = vmcs
        return vmcs

    def vmread(self, fld: VmcsField) -> int:
        """Read a field of the current VMCS."""
        self._require_root("VMREAD")
        if self.current_vmcs is None:
            raise VmxFailInvalid("VMREAD with no current VMCS")
        if fld not in FIELD_INFO:
            self._fail(VmxInstructionError.UNSUPPORTED_VMCS_COMPONENT,
                       f"VMREAD from unsupported component {fld:#x}")
        return self.current_vmcs.read(fld)

    def vmwrite(self, fld: VmcsField, value: int) -> None:
        """Write a field of the current VMCS.

        Writing a VM-exit information field fails with error 13, the
        behaviour that forces IRIS's VMREAD-override replay strategy.
        """
        self._require_root("VMWRITE")
        if self.current_vmcs is None:
            raise VmxFailInvalid("VMWRITE with no current VMCS")
        info = FIELD_INFO.get(fld)
        if info is None:
            self._fail(VmxInstructionError.UNSUPPORTED_VMCS_COMPONENT,
                       f"VMWRITE to unsupported component {fld:#x}")
            raise AssertionError("unreachable")
        if info.read_only:
            self._fail(VmxInstructionError.VMWRITE_READ_ONLY_COMPONENT,
                       f"VMWRITE to read-only component "
                       f"{info.member.name}")
        self.current_vmcs.write(info.member, value)

    def vmlaunch(self) -> None:
        """Launch the current VMCS (requires launch state Clear)."""
        self._require_root("VMLAUNCH")
        if self.current_vmcs is None:
            raise VmxFailInvalid("VMLAUNCH with no current VMCS")
        if self.current_vmcs.launch_state is not VmcsLaunchState.CLEAR:
            self._fail(VmxInstructionError.VMLAUNCH_NONCLEAR_VMCS,
                       "VMLAUNCH with non-clear VMCS")
        self.current_vmcs.launch_state = VmcsLaunchState.LAUNCHED
        self.mode = CpuVmxMode.NON_ROOT

    def vmresume(self) -> None:
        """Resume the current VMCS (requires launch state Launched)."""
        self._require_root("VMRESUME")
        if self.current_vmcs is None:
            raise VmxFailInvalid("VMRESUME with no current VMCS")
        if self.current_vmcs.launch_state is not VmcsLaunchState.LAUNCHED:
            self._fail(VmxInstructionError.VMRESUME_NONLAUNCHED_VMCS,
                       "VMRESUME with non-launched VMCS")
        self.mode = CpuVmxMode.NON_ROOT

    def deliver_vm_exit(self) -> None:
        """Hardware side of a VM exit: switch back to root operation."""
        if self.mode is not CpuVmxMode.NON_ROOT:
            raise VmxFailInvalid(
                "VM exit delivered while not in non-root operation"
            )
        self.mode = CpuVmxMode.ROOT
