"""VMRUN guest-state consistency checks (AMD APM Vol. 2, §15.5).

SVM's analogue of the §26.3 VM-entry checks: VMRUN inspects the VMCB
and, if the guest state is illegal, exits immediately with
``VMEXIT_INVALID`` instead of running the guest.  The *illegal states*
largely coincide with VT-x's — CR0/CR4 reserved bits, RFLAGS fixed
bits, canonical RIP, malformed segment descriptors — so we reuse the
same check groups, and their memo, from :mod:`repro.vmx.entry_checks`
over values read through the backend.  That keeps the check-identifier
strings (e.g. ``cr0.reserved``, ``rip.canonical``) identical across
backends, which is what makes crash summaries and the paper's Table 4
bug buckets comparable between architectures.

SVM-specific conditions (APM §15.5.1 "canonicalization and consistency
checks") are appended on top: ASID 0 is reserved for the host, and
EFER.SVME must be set for VMRUN to execute at all.
"""

from __future__ import annotations

from typing import Callable

from repro.arch.fields import ArchField
from repro.vmx.entry_checks import EntryCheckViolation, check_guest_state


def check_vmrun(
    read: Callable[[ArchField], int],
    *,
    asid: int | None = None,
    svme: bool = True,
) -> list[EntryCheckViolation]:
    """Run the VMRUN consistency checks against a field reader.

    ``read`` maps an :class:`ArchField` to its current value (the SVM
    backend passes its raw VMCB/shadow read).  Returns the list of
    violations; empty means VMRUN would proceed into the guest.
    """
    out = check_guest_state(read)
    if asid is not None and asid == 0:
        out.append(
            EntryCheckViolation(
                "vmcb.asid",
                "ASID 0 is reserved for the host (APM §15.5.1)",
            )
        )
    if not svme:
        out.append(
            EntryCheckViolation(
                "efer.svme",
                "VMRUN executed with EFER.SVME clear",
            )
        )
    return out
