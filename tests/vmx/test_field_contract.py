"""The field-access contract of the guest-state data path.

Field accessors resolve encodings through tables instead of enum calls;
these tests pin what that must not change:

* every storage-layer accessor of :class:`Vmcs`, :class:`Vmcb` and the
  SVM backend's raw access raises ``ValueError`` on an encoding no
  field has;
* VMREAD/VMWRITE of such an encoding fail with VM-instruction error
  12, and VMWRITE to an exit-information field with error 13;
* whatever the key's type on the way in, the stored keys —
  ``contents()``, ``dirty``, the GPR file, seed entries and exported
  snapshots (the SVM shadow included) — are enum members, so ``.name``
  works downstream.
"""

from __future__ import annotations

import pytest

from repro.arch.fields import ArchField
from repro.core.seed import SeedEntry, SeedFlag
from repro.core.snapshot import take_snapshot
from repro.errors import VmxFailValid
from repro.hypervisor.domain import DomainType
from repro.hypervisor.hypervisor import Hypervisor
from repro.svm.vmcb import Vmcb, VmcbField
from repro.vmx.vmcs import Vmcs
from repro.vmx.vmx_ops import VmxCpu, VmxInstructionError
from repro.x86.registers import GPR, RegisterFile

#: No ArchField and no VmcbField has this encoding.
UNKNOWN = 0x5555


@pytest.fixture
def vmcs():
    return Vmcs(address=0x2000)


@pytest.fixture
def loaded():
    cpu = VmxCpu()
    cpu.vmxon(0x1000)
    cpu.allocate_vmcs(0x2000)
    cpu.vmclear(0x2000)
    cpu.vmptrld(0x2000)
    return cpu


@pytest.fixture(params=["vmx", "svm"])
def hv(request):
    return Hypervisor(arch=request.param)


@pytest.fixture
def domain(hv):
    domain = hv.create_domain(DomainType.HVM, name="contract")
    domain.populate_identity_map(16)
    return domain


@pytest.fixture
def vcpu(domain):
    return domain.vcpus[0]


class TestUnknownEncodings:
    @pytest.mark.parametrize("access", [
        lambda v: v.read(UNKNOWN),
        lambda v: v.write(UNKNOWN, 1),
        lambda v: v.write_exit_info(UNKNOWN, 1),
        lambda v: v.restore_field(UNKNOWN, 1),
        lambda v: v.erase_field(UNKNOWN),
        lambda v: v.load_contents({UNKNOWN: 1}),
    ], ids=["read", "write", "write_exit_info", "restore_field",
            "erase_field", "load_contents"])
    def test_vmcs_raises_value_error(self, vmcs, access):
        with pytest.raises(ValueError, match="not a valid ArchField"):
            access(vmcs)

    @pytest.mark.parametrize("access", [
        lambda v: v.read(UNKNOWN),
        lambda v: v.write(UNKNOWN, 1),
        lambda v: v.restore_slot(UNKNOWN, 1),
        lambda v: v.erase_slot(UNKNOWN),
        lambda v: v.load_contents({UNKNOWN: 1}),
    ], ids=["read", "write", "restore_slot", "erase_slot",
            "load_contents"])
    def test_vmcb_raises_value_error(self, access):
        with pytest.raises(ValueError, match="not a valid VmcbField"):
            access(Vmcb(address=0x2000))

    def test_backend_raw_access_raises_value_error(self, vcpu):
        backend = vcpu.backend
        with pytest.raises(ValueError, match="not a valid ArchField"):
            backend.read_raw(vcpu, UNKNOWN)
        with pytest.raises(ValueError, match="not a valid ArchField"):
            backend.write_raw(vcpu, UNKNOWN, 1)

    def test_register_file_rejects_unknown_gpr(self):
        regs = RegisterFile()
        with pytest.raises(ValueError, match="not a valid GPR"):
            regs.write_gpr(15, 1)
        with pytest.raises(ValueError, match="not a valid GPR"):
            regs.load_gprs({-1: 1})


class TestVmInstructionErrors:
    @pytest.mark.parametrize("instruction", [
        lambda cpu: cpu.vmread(UNKNOWN),
        lambda cpu: cpu.vmwrite(UNKNOWN, 1),
    ], ids=["vmread", "vmwrite"])
    def test_unsupported_component_is_error_12(self, loaded, instruction):
        with pytest.raises(VmxFailValid) as excinfo:
            instruction(loaded)
        error = VmxInstructionError.UNSUPPORTED_VMCS_COMPONENT
        assert excinfo.value.error_number == error == 12
        assert loaded.vmread(ArchField.VM_INSTRUCTION_ERROR) == 12

    @pytest.mark.parametrize("fld", [
        ArchField.VM_EXIT_REASON, int(ArchField.EXIT_QUALIFICATION),
    ], ids=["member", "bare-int"])
    def test_read_only_component_is_error_13(self, loaded, fld):
        with pytest.raises(VmxFailValid) as excinfo:
            loaded.vmwrite(fld, 1)
        error = VmxInstructionError.VMWRITE_READ_ONLY_COMPONENT
        assert excinfo.value.error_number == error == 13
        assert loaded.vmread(ArchField.VM_INSTRUCTION_ERROR) == 13

    def test_bare_int_vmwrite_stores_the_member(self, loaded):
        loaded.vmwrite(int(ArchField.GUEST_CS_SELECTOR), 0x1_F000)
        vmcs = loaded.current_vmcs
        assert loaded.vmread(int(ArchField.GUEST_CS_SELECTOR)) == 0xF000
        (key,) = vmcs.contents()
        assert type(key) is ArchField and key.name == "GUEST_CS_SELECTOR"


def _all_members(keys, enum_type) -> bool:
    return all(type(k) is enum_type for k in keys)


class TestStoredKeysAreMembers:
    def test_vmcs_write_paths(self, vmcs):
        vmcs.write(int(ArchField.GUEST_RIP), 1)
        vmcs.write_exit_info(int(ArchField.VM_EXIT_REASON), 2)
        vmcs.restore_field(int(ArchField.GUEST_CR0), 3)
        assert _all_members(vmcs.contents(), ArchField)
        assert _all_members(vmcs.dirty, ArchField)
        assert {k.name for k in vmcs.contents()} == {
            "GUEST_RIP", "VM_EXIT_REASON", "GUEST_CR0",
        }

    def test_vmcs_load_contents(self, vmcs):
        vmcs.load_contents({
            int(ArchField.GUEST_CS_SELECTOR): 0x1_0008,
            int(ArchField.GUEST_RSP): 5,
        })
        assert _all_members(vmcs.contents(), ArchField)
        assert _all_members(vmcs.dirty, ArchField)
        # Still masked to the field's width on the way in.
        assert vmcs.read(ArchField.GUEST_CS_SELECTOR) == 0x0008

    def test_vmcb_write_paths(self):
        vmcb = Vmcb(address=0x2000)
        vmcb.write(int(VmcbField.RIP), 1)
        vmcb.restore_slot(int(VmcbField.CR0), 2)
        assert _all_members(vmcb.contents(), VmcbField)
        assert _all_members(vmcb.dirty, VmcbField)
        vmcb.load_contents({int(VmcbField.EFER): 3})
        assert _all_members(vmcb.contents(), VmcbField)
        assert _all_members(vmcb.dirty, VmcbField)
        assert vmcb.read(int(VmcbField.EFER)) == 3

    def test_register_file(self):
        regs = RegisterFile()
        regs.write_gpr(int(GPR.RBX), 1)
        regs.load_gprs({int(GPR.R15): 2})
        assert _all_members(regs.gprs, GPR)
        assert {r.name for r in regs.dirty_gprs} == {"RBX", "R15"}

    def test_seed_entries(self):
        read = SeedEntry.for_vmcs(
            SeedFlag.VMCS_READ, int(ArchField.GUEST_RIP), 5
        )
        assert read.vmcs_field.name == "GUEST_RIP"
        assert SeedEntry.for_gpr(int(GPR.RCX), 1).gpr.name == "RCX"

    def test_snapshot_keys(self, hv, domain, vcpu):
        # A shadowed field on svm, a VMCB slot and a VMCS field on both.
        for fld, value in ((ArchField.GUEST_ACTIVITY_STATE, 1),
                           (ArchField.GUEST_RSP, 0x7000),
                           (ArchField.GUEST_CR3, 0x3000)):
            vcpu.write_field(int(fld), value)
        fields = take_snapshot(hv, domain).vmcs_fields
        assert _all_members(fields, ArchField)
        assert fields[ArchField.GUEST_RSP] == 0x7000
        assert fields[ArchField.GUEST_ACTIVITY_STATE] == 1
        assert "GUEST_CR3" in {f.name for f in fields}
