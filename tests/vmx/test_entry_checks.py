"""Unit tests for the §26.3 VM-entry guest-state checks."""

import pytest

from repro.svm.consistency_checks import check_vmrun
from repro.vmx.entry_checks import check_vm_entry
from repro.vmx.vmcs import Vmcs
from repro.vmx.vmcs_fields import VmcsField

#: CR0.PG | CR0.ET | CR0.PE, EFER.LME | EFER.LMA and CR4.PAE: IA-32e mode.
LONG_MODE_CR0 = 0x80000011
LONG_MODE_EFER = (1 << 8) | (1 << 10)
CR4_PAE = 1 << 5


@pytest.fixture
def valid_vmcs():
    """A guest state that passes every modelled check (real mode)."""
    vmcs = Vmcs(address=0x1000)
    vmcs.write(VmcsField.GUEST_CR0, 0x10)
    vmcs.write(VmcsField.GUEST_RFLAGS, 0x2)
    vmcs.write(VmcsField.VMCS_LINK_POINTER, (1 << 64) - 1)
    vmcs.write(VmcsField.GUEST_CS_AR_BYTES, 0x9B)
    vmcs.write(VmcsField.GUEST_CS_LIMIT, 0xFFFF)
    for seg in ("ES", "SS", "DS", "FS", "GS"):
        vmcs.write(VmcsField[f"GUEST_{seg}_AR_BYTES"], 0x93)
        vmcs.write(VmcsField[f"GUEST_{seg}_LIMIT"], 0xFFFF)
    vmcs.write(VmcsField.GUEST_TR_AR_BYTES, 0x8B)
    vmcs.write(VmcsField.GUEST_TR_LIMIT, 0xFF)
    vmcs.write(VmcsField.GUEST_LDTR_AR_BYTES, 1 << 16)
    vmcs.write(VmcsField.GUEST_DR7, 0x400)
    return vmcs


def violation_checks(vmcs):
    return {v.check for v in check_vm_entry(vmcs)}


class TestValidState:
    def test_baseline_passes(self, valid_vmcs):
        assert check_vm_entry(valid_vmcs) == []

    def test_protected_paged_state_passes(self, valid_vmcs):
        valid_vmcs.write(VmcsField.GUEST_CR0, 0x80040011 | 0x10)
        valid_vmcs.write(VmcsField.GUEST_CR3, 0x2000)
        valid_vmcs.write(VmcsField.GUEST_CS_LIMIT, 0xFFFFFFFF)
        valid_vmcs.write(VmcsField.GUEST_CS_AR_BYTES, 0x9B | (1 << 15))
        assert check_vm_entry(valid_vmcs) == []


class TestControlRegisterChecks:
    def test_cr0_reserved_bits(self, valid_vmcs):
        valid_vmcs.write(VmcsField.GUEST_CR0, 0x10 | (1 << 20))
        assert "cr0.reserved" in violation_checks(valid_vmcs)

    def test_pg_without_pe(self, valid_vmcs):
        valid_vmcs.write(VmcsField.GUEST_CR0, 0x80000010)
        assert "cr0.pg-without-pe" in violation_checks(valid_vmcs)

    def test_nw_without_cd(self, valid_vmcs):
        valid_vmcs.write(VmcsField.GUEST_CR0, 0x10 | (1 << 29))
        assert "cr0.nw-without-cd" in violation_checks(valid_vmcs)

    def test_cr4_reserved_bits(self, valid_vmcs):
        valid_vmcs.write(VmcsField.GUEST_CR4, 1 << 30)
        assert "cr4.reserved" in violation_checks(valid_vmcs)

    def test_cr3_beyond_physical_width(self, valid_vmcs):
        valid_vmcs.write(VmcsField.GUEST_CR3, 1 << 50)
        assert "cr3.width" in violation_checks(valid_vmcs)

    def test_efer_lma_must_track_lme_and_pg(self, valid_vmcs):
        valid_vmcs.write(VmcsField.GUEST_IA32_EFER, 1 << 10)  # LMA only
        assert "efer.lma-consistency" in violation_checks(valid_vmcs)

    def test_long_mode_requires_pae(self, valid_vmcs):
        valid_vmcs.write(VmcsField.GUEST_CR0, 0x80000011 | 0x10)
        valid_vmcs.write(
            VmcsField.GUEST_IA32_EFER, (1 << 8) | (1 << 10)
        )
        valid_vmcs.write(VmcsField.GUEST_CS_AR_BYTES, 0x9B)
        assert "efer.lma-without-pae" in violation_checks(valid_vmcs)


class TestRflagsRip:
    def test_fixed_bit_one(self, valid_vmcs):
        valid_vmcs.write(VmcsField.GUEST_RFLAGS, 0)
        assert "rflags.fixed1" in violation_checks(valid_vmcs)

    def test_reserved_rflags_bits(self, valid_vmcs):
        valid_vmcs.write(VmcsField.GUEST_RFLAGS, 0x2 | (1 << 15))
        assert "rflags.reserved" in violation_checks(valid_vmcs)

    def test_if_needed_for_external_injection(self, valid_vmcs):
        valid_vmcs.write(
            VmcsField.VM_ENTRY_INTR_INFO, (1 << 31) | 0x30
        )
        assert "rflags.if-for-injection" in violation_checks(valid_vmcs)

    def test_injection_with_if_set_passes(self, valid_vmcs):
        valid_vmcs.write(VmcsField.GUEST_RFLAGS, 0x202)
        valid_vmcs.write(
            VmcsField.VM_ENTRY_INTR_INFO, (1 << 31) | 0x30
        )
        assert "rflags.if-for-injection" not in \
            violation_checks(valid_vmcs)

    def test_rip_width_outside_long_mode(self, valid_vmcs):
        valid_vmcs.write(VmcsField.GUEST_RIP, 1 << 33)
        assert "rip.width" in violation_checks(valid_vmcs)


class TestSegmentChecks:
    def test_tr_must_be_busy_tss(self, valid_vmcs):
        valid_vmcs.write(VmcsField.GUEST_TR_AR_BYTES, 0x89)  # available
        assert "tr.type" in violation_checks(valid_vmcs)

    def test_tr_unusable_rejected(self, valid_vmcs):
        valid_vmcs.write(VmcsField.GUEST_TR_AR_BYTES, 1 << 16)
        assert "tr.unusable" in violation_checks(valid_vmcs)

    def test_usable_ldtr_must_be_ldt(self, valid_vmcs):
        valid_vmcs.write(VmcsField.GUEST_LDTR_AR_BYTES, 0x8B)
        assert "ldtr.type" in violation_checks(valid_vmcs)

    def test_granularity_consistency(self, valid_vmcs):
        # limit with low bits != 0xFFF but G = 1
        valid_vmcs.write(VmcsField.GUEST_CS_LIMIT, 0x1000)
        valid_vmcs.write(
            VmcsField.GUEST_CS_AR_BYTES, 0x9B | (1 << 15)
        )
        assert "cs.granularity" in violation_checks(valid_vmcs)

    def test_big_limit_requires_granularity(self, valid_vmcs):
        valid_vmcs.write(VmcsField.GUEST_CS_LIMIT, 0xFFFFFFFF)
        valid_vmcs.write(VmcsField.GUEST_CS_AR_BYTES, 0x9B)
        assert "cs.granularity" in violation_checks(valid_vmcs)


class TestNonRegisterState:
    def test_invalid_activity_state(self, valid_vmcs):
        valid_vmcs.write(VmcsField.GUEST_ACTIVITY_STATE, 9)
        assert "activity-state" in violation_checks(valid_vmcs)

    def test_interruptibility_reserved(self, valid_vmcs):
        valid_vmcs.write(
            VmcsField.GUEST_INTERRUPTIBILITY_INFO, 1 << 7
        )
        assert "interruptibility.reserved" in \
            violation_checks(valid_vmcs)

    def test_sti_and_movss_blocking_exclusive(self, valid_vmcs):
        valid_vmcs.write(VmcsField.GUEST_INTERRUPTIBILITY_INFO, 0x3)
        assert "interruptibility.sti-and-movss" in \
            violation_checks(valid_vmcs)

    def test_link_pointer_must_be_all_ones(self, valid_vmcs):
        valid_vmcs.write(VmcsField.VMCS_LINK_POINTER, 0x1234)
        assert "vmcs-link-pointer" in violation_checks(valid_vmcs)

    def test_dr7_high_bits(self, valid_vmcs):
        valid_vmcs.write(VmcsField.GUEST_DR7, 1 << 40)
        assert "dr7.width" in violation_checks(valid_vmcs)

    def test_multiple_violations_all_reported(self, valid_vmcs):
        valid_vmcs.write(VmcsField.GUEST_RFLAGS, 0)
        valid_vmcs.write(VmcsField.VMCS_LINK_POINTER, 0)
        valid_vmcs.write(VmcsField.GUEST_ACTIVITY_STATE, 9)
        assert len(check_vm_entry(valid_vmcs)) >= 3


# ---- every check identifier, on both entry points ----------------------

def _vmx_checks(vmcs):
    return [v.check for v in check_vm_entry(vmcs)]


def _svm_checks(vmcs):
    """The same state through the VMRUN checks (a valid ASID, SVME on)."""
    return [v.check for v in check_vmrun(vmcs.read, asid=1)]


@pytest.fixture(params=[_vmx_checks, _svm_checks], ids=["vmx", "svm"])
def checks(request):
    return request.param


@pytest.fixture
def long_mode_vmcs(valid_vmcs):
    """The valid state switched to IA-32e mode; it passes every check."""
    valid_vmcs.write(VmcsField.GUEST_CR0, LONG_MODE_CR0)
    valid_vmcs.write(VmcsField.GUEST_CR4, CR4_PAE)
    valid_vmcs.write(VmcsField.GUEST_IA32_EFER, LONG_MODE_EFER)
    assert check_vm_entry(valid_vmcs) == []
    return valid_vmcs


class TestCheckIdentifiers:
    """One state per identifier that breaks exactly that check."""

    def test_rflags_vm_in_long_mode(self, long_mode_vmcs, checks):
        long_mode_vmcs.write(VmcsField.GUEST_RFLAGS, 0x2 | (1 << 17))
        assert "rflags.vm-in-long-mode" in checks(long_mode_vmcs)

    def test_rip_canonical(self, long_mode_vmcs, checks):
        long_mode_vmcs.write(VmcsField.GUEST_RIP, 1 << 47)
        assert checks(long_mode_vmcs) == ["rip.canonical"]

    def test_cs_type(self, valid_vmcs, checks):
        valid_vmcs.write(VmcsField.GUEST_CS_AR_BYTES, 0x91)  # data, RO
        assert checks(valid_vmcs) == ["cs.type"]

    def test_cs_s(self, valid_vmcs, checks):
        valid_vmcs.write(VmcsField.GUEST_CS_AR_BYTES, 0x8B)  # S = 0
        assert checks(valid_vmcs) == ["cs.s"]

    def test_cs_present(self, valid_vmcs, checks):
        valid_vmcs.write(VmcsField.GUEST_CS_AR_BYTES, 0x1B)  # P = 0
        assert checks(valid_vmcs) == ["cs.present"]

    def test_tr_s(self, valid_vmcs, checks):
        valid_vmcs.write(VmcsField.GUEST_TR_AR_BYTES, 0x9B)  # S = 1
        assert checks(valid_vmcs) == ["tr.s"]

    def test_tr_present(self, valid_vmcs, checks):
        valid_vmcs.write(VmcsField.GUEST_TR_AR_BYTES, 0x0B)  # P = 0
        assert checks(valid_vmcs) == ["tr.present"]

    def test_ldtr_s(self, valid_vmcs, checks):
        valid_vmcs.write(VmcsField.GUEST_LDTR_AR_BYTES, 0x92)  # S = 1
        assert checks(valid_vmcs) == ["ldtr.s"]


class TestMemoisedChecks:
    """The verdict is memoised on everything but RIP, so two states that
    differ only in RIP must still get their own RIP checks."""

    def test_rip_canonical_back_to_back(self, long_mode_vmcs, checks):
        # A canonical upper-half RIP against bits 63:47 = 0...01.
        long_mode_vmcs.write(VmcsField.GUEST_RIP, 0xFFFF_8000_0000_0000)
        other = long_mode_vmcs.copy()
        other.write(VmcsField.GUEST_RIP, 1 << 47)
        for _ in range(2):
            assert checks(long_mode_vmcs) == []
            assert checks(other) == ["rip.canonical"]

    def test_rip_width_back_to_back(self, valid_vmcs, checks):
        other = valid_vmcs.copy()
        other.write(VmcsField.GUEST_RIP, 1 << 33)
        for _ in range(2):
            assert checks(valid_vmcs) == []
            assert checks(other) == ["rip.width"]

    def test_violations_keep_group_order(self, valid_vmcs, checks):
        # One violation from each group, RIP's between RFLAGS' and the
        # segments': the crash reason quotes the first four in order.
        valid_vmcs.write(VmcsField.GUEST_CR0, 0x10 | (1 << 20))
        valid_vmcs.write(VmcsField.GUEST_RFLAGS, 0)
        valid_vmcs.write(VmcsField.GUEST_RIP, 1 << 33)
        valid_vmcs.write(VmcsField.GUEST_TR_AR_BYTES, 0x0B)
        valid_vmcs.write(VmcsField.GUEST_DR7, 1 << 40)
        expected = ["cr0.reserved", "rflags.fixed1", "rip.width",
                    "tr.present", "dr7.width"]
        for _ in range(2):
            assert checks(valid_vmcs) == expected
