"""The memoised entry checks equal the check groups run directly.

:func:`repro.vmx.entry_checks.check_guest_state` memoises the verdict
of the four §26.3 check groups on every input but GUEST_RIP.  The
reference here calls the group functions themselves, in their order
(control registers, RFLAGS, RIP, segments, non-register state), and
appends the two SVM-only VMRUN checks.  It is compared, list for list:

* on random values of the 27 inputs (plus ASID and EFER.SVME), through
  both :func:`check_vm_entry` and :func:`check_vmrun`: a state, a
  neighbour differing in one input, then the state again from the memo;
* on every single-bit flip of each input of a valid state;
* on more distinct states than the memo holds, so entries are evicted;
* on every VM entry of a small RDTSC x VMCS campaign, on vmx and svm,
  with and without fast reset.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.arch.fields import FIELD_INFO, ArchField
from repro.core.manager import IrisManager
from repro.fuzz.fuzzer import IrisFuzzer
from repro.fuzz.mutations import MutationArea
from repro.fuzz.testcase import plan_test_cases
from repro.svm.backend import SvmBackend
from repro.svm.consistency_checks import check_vmrun
from repro.svm.vmcb import VmcbField
from repro.vmx import entry_checks
from repro.vmx.backend import VmxBackend
from repro.vmx.entry_checks import (
    ENTRY_CHECK_FIELDS,
    EntryCheckViolation,
    check_vm_entry,
)
from repro.vmx.exit_reasons import ExitReason
from repro.vmx.vmcs import Vmcs
from repro.vmx.vmcs_fields import SEGMENT_AR_FIELDS, SEGMENT_LIMIT_FIELDS

F = ArchField

#: The 27 inputs of the four groups.
INPUTS = (*ENTRY_CHECK_FIELDS, F.GUEST_RIP)


def reference(read, asid=None, svme=True) -> list[EntryCheckViolation]:
    """The check groups called directly, with no memo in between."""
    efer, rflags = read(F.GUEST_IA32_EFER), read(F.GUEST_RFLAGS)
    out: list[EntryCheckViolation] = []
    entry_checks._check_control_registers(
        read(F.GUEST_CR0), read(F.GUEST_CR3), read(F.GUEST_CR4), efer, out
    )
    entry_checks._check_rflags(
        rflags, efer, read(F.VM_ENTRY_INTR_INFO), out
    )
    entry_checks._check_rip(read(F.GUEST_RIP), efer, out)
    entry_checks._check_segments(
        rflags,
        [read(f) for f in SEGMENT_AR_FIELDS],
        [read(f) for f in SEGMENT_LIMIT_FIELDS],
        out,
    )
    entry_checks._check_non_register_state(
        read(F.GUEST_ACTIVITY_STATE), read(F.GUEST_INTERRUPTIBILITY_INFO),
        read(F.VMCS_LINK_POINTER), read(F.GUEST_DR7), out,
    )
    if asid is not None and asid == 0:
        out.append(EntryCheckViolation(
            "vmcb.asid", "ASID 0 is reserved for the host (APM §15.5.1)"
        ))
    if not svme:
        out.append(EntryCheckViolation(
            "efer.svme", "VMRUN executed with EFER.SVME clear"
        ))
    return out


# ---- random guest states ----------------------------------------------

#: A state that passes every check, chosen so that some single-bit
#: flip of every input fails one: flat 4 GiB data segments with G = 1,
#: a usable LDT, and a 64 KiB code segment.  Random states stray from
#: it.
VALID = {
    F.GUEST_CR0: 0x10, F.GUEST_RFLAGS: 0x2,
    F.VMCS_LINK_POINTER: (1 << 64) - 1, F.GUEST_DR7: 0x400,
    **{f: 0x8093 for f in SEGMENT_AR_FIELDS},
    **{f: 0xFFFF_FFFF for f in SEGMENT_LIMIT_FIELDS},
    F.GUEST_CS_AR_BYTES: 0x9B, F.GUEST_CS_LIMIT: 0xFFFF,
    F.GUEST_TR_AR_BYTES: 0x8B, F.GUEST_TR_LIMIT: 0xFF,
    F.GUEST_LDTR_AR_BYTES: 0x82, F.GUEST_LDTR_LIMIT: 0xFFFF,
}


def field_values(fld: ArchField) -> st.SearchStrategy[int]:
    """The valid value, it with a few bits flipped, or anything."""
    mask = FIELD_INFO[fld].mask
    valid = VALID.get(fld, 0)
    bits = st.integers(0, mask.bit_length() - 1)
    return st.one_of(
        st.just(valid),
        st.lists(bits, min_size=1, max_size=3).map(
            lambda flips: valid ^ sum({1 << b for b in flips})
        ),
        st.integers(0, mask),
    )


states = st.fixed_dictionaries({f: field_values(f) for f in INPUTS})


def vmcs_of(values: dict[ArchField, int]) -> Vmcs:
    vmcs = Vmcs(address=0x1000)
    for fld, value in values.items():
        vmcs.write(fld, value)
    return vmcs


def ids(violations):
    return [(v.check, v.message) for v in violations]


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(states, st.sampled_from(INPUTS), st.data(),
       st.sampled_from([None, 0, 1, 0xFFFF_FFFF]), st.booleans())
def test_memoised_checks_equal_the_groups(values, fld, data, asid, svme):
    # A state, then a neighbour that differs in one input only, then
    # the state again: a memo key missing that input would hand the
    # neighbour the state's verdict.
    neighbour = {**values, fld: data.draw(field_values(fld))}
    for state in (values, neighbour, values):
        vmcs = vmcs_of(state)
        assert ids(check_vm_entry(vmcs)) == ids(reference(vmcs.read))
        assert ids(check_vmrun(vmcs.read, asid=asid, svme=svme)) == \
            ids(reference(vmcs.read, asid=asid, svme=svme))


@pytest.mark.parametrize("fld", INPUTS, ids=lambda f: f.name)
def test_every_bit_flip_of_a_valid_state(fld):
    # The poc engine's mutation model, exhaustively: each single-bit
    # flip of one input, checked right after the unflipped state.
    base = vmcs_of(VALID)
    assert check_vm_entry(base) == []
    verdicts = set()
    for bit in range(FIELD_INFO[fld].mask.bit_length()):
        flipped = vmcs_of({**VALID, fld: VALID.get(fld, 0) ^ (1 << bit)})
        for vmcs in (base, flipped):
            got = ids(check_vm_entry(vmcs))
            assert got == ids(reference(vmcs.read))
            verdicts.add(tuple(got))
    # Some flip of every input changes the verdict.
    assert len(verdicts) > 1


def test_full_memo_evicts():
    # More distinct states than the memo holds, twice over: the second
    # pass finds the early states evicted and must recompute them.
    rng = random.Random(5)
    vmcss = []
    for i in range(entry_checks.ENTRY_MEMO_CAP + 50):
        values = dict(VALID)
        values[F.GUEST_CR3] = i << 36  # i >= 1024 breaks cr3.width
        values[F.GUEST_RIP] = rng.choice((0, 1 << 33))
        vmcss.append(vmcs_of(values))
    for vmcs in vmcss * 2:
        assert ids(check_vm_entry(vmcs)) == ids(reference(vmcs.read))
    memo = entry_checks._checks_around_rip.cache_info()
    assert memo.currsize == entry_checks.ENTRY_MEMO_CAP


# ---- every VM entry of a campaign -------------------------------------

@pytest.fixture(scope="module", params=["vmx", "svm"])
def arch_session(request):
    manager = IrisManager(arch=request.param)
    session = manager.record_workload(
        "cpu-bound", n_exits=120, precondition="boot",
        store_metrics=False,
    )
    return request.param, manager, session


def _checked_entries(monkeypatch, backend_cls, reference_of):
    """Wrap ``validate_entry`` so every call is compared in place."""
    calls = {"entries": 0, "failed": 0}
    mismatches: list[tuple[list, list]] = []
    validate = backend_cls.validate_entry

    def checked(self, vcpu):
        got = validate(self, vcpu)
        want = reference_of(self, vcpu)
        calls["entries"] += 1
        calls["failed"] += bool(got)
        if ids(got) != ids(want):
            mismatches.append((ids(got), ids(want)))
        return got

    monkeypatch.setattr(backend_cls, "validate_entry", checked)
    return calls, mismatches


def _vmx_reference(backend, vcpu):
    return reference(lambda f: backend.read_raw(vcpu, f))


def _svm_reference(backend, vcpu):
    return reference(
        lambda f: backend.read_raw(vcpu, f),
        asid=backend._vmcb(vcpu).read(VmcbField.GUEST_ASID),
        svme=vcpu.svm.svme,
    )


@pytest.mark.parametrize("fast_reset", [True, False],
                         ids=["fast-reset", "full-reset"])
def test_every_campaign_entry_equals_the_groups(
    monkeypatch, arch_session, fast_reset
):
    arch, manager, session = arch_session
    backend_cls, reference_of = {
        "vmx": (VmxBackend, _vmx_reference),
        "svm": (SvmBackend, _svm_reference),
    }[arch]
    (case,) = plan_test_cases(
        session.trace, [ExitReason.RDTSC], areas=(MutationArea.VMCS,),
        n_mutations=150, rng=random.Random(4), engine="poc",
    )
    calls, mismatches = _checked_entries(
        monkeypatch, backend_cls, reference_of
    )
    fuzzer = IrisFuzzer(manager, rng=random.Random(6),
                        fast_reset=fast_reset)
    fuzzer.run_test_case(case, from_snapshot=session.snapshot)
    assert mismatches == []
    # Both verdicts were exercised: clean entries and failed ones.
    assert calls["entries"] > calls["failed"] > 0
