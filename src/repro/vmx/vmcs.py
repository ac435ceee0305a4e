"""The Virtual Machine Control Structure and its launch-state machine.

A :class:`Vmcs` is the per-vCPU control structure of VT-x.  The model
enforces the architectural rules the paper leans on:

* fields must be accessed via VMREAD/VMWRITE (here: :meth:`read` /
  :meth:`write`) — §II: "except for its first eight bytes, [the VMCS]
  must be read and written by executing dedicated VMX instructions";
* VM-exit information fields are read-only — IRIS replays them by
  overriding VMREAD return values rather than VMWRITE (§V-B);
* the launch state (*Clear* / *Launched*) gates VMLAUNCH vs VMRESUME.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.arch.fields import FIELD_INFO, field_info, unknown_field
from repro.vmx.vmcs_fields import VmcsField

#: VMCS revision identifier, first 4 bytes of the region (directly
#: accessible without VMREAD, per SDM §24.2).
VMCS_REVISION_ID = 0x11

#: Architectural "no VMCS" pointer value.
VMXON_POINTER_INVALID = (1 << 64) - 1


class VmcsLaunchState(enum.Enum):
    """Internal VMCS launch state (SDM §24.11.3)."""

    CLEAR = "clear"
    LAUNCHED = "launched"


@dataclass
class Vmcs:
    """One VMCS region.

    ``address`` stands in for the physical address of the 4 KiB VMCS
    region; it is the identity VMPTRLD/VMCLEAR operate on.

    Every accessor takes a :class:`VmcsField` or its bare encoding and
    resolves it through :data:`~repro.arch.fields.FIELD_INFO`, so an
    unknown encoding raises ``ValueError``; stored keys (``_fields``,
    ``dirty``, :meth:`contents`) are always the enum members.
    """

    address: int
    revision_id: int = VMCS_REVISION_ID
    abort_indicator: int = 0
    launch_state: VmcsLaunchState = VmcsLaunchState.CLEAR
    _fields: dict[VmcsField, int] = field(default_factory=dict)
    #: Fields written since :meth:`mark_clean` — the write set a
    #: delta-aware snapshot restore has to undo (paper §IV-B: revert
    #: cost scales with the dirtied state, not the full VMCS).
    dirty: set[VmcsField] = field(default_factory=set)

    def read(self, fld: VmcsField) -> int:
        """Raw field read (the VMREAD data path).

        Access checking (is there a current VMCS? is the encoding
        valid?) lives in :class:`repro.vmx.vmx_ops.VmxCpu`; this is the
        storage layer.
        """
        try:
            return self._fields.get(fld, 0) & FIELD_INFO[fld].mask
        except KeyError:
            raise unknown_field(fld) from None

    def write(self, fld: VmcsField, value: int) -> None:
        """Raw field write (the VMWRITE data path).

        Read-only (exit-information) fields may only be written through
        :meth:`write_exit_info`, which models the *hardware* populating
        them during a VM exit.
        """
        member, mask, read_only = field_info(fld)
        if read_only:
            raise PermissionError(
                f"VMWRITE to read-only field {member.name}; use "
                "write_exit_info() for hardware-side population"
            )
        self._fields[member] = value & mask
        self.dirty.add(member)

    def write_exit_info(self, fld: VmcsField, value: int) -> None:
        """Hardware-side write used while delivering a VM exit."""
        member, mask, _ = field_info(fld)
        self._fields[member] = value & mask
        self.dirty.add(member)

    def restore_field(self, fld: VmcsField, value: int) -> None:
        """Snapshot-side write: no read-only gate, no dirty marking.

        Per-field analogue of :meth:`load_contents` for the delta
        restore path.
        """
        member, mask, _ = field_info(fld)
        self._fields[member] = value & mask

    def erase_field(self, fld: VmcsField) -> None:
        """Forget a field, as a full :meth:`load_contents` would."""
        self._fields.pop(field_info(fld).member, None)

    def mark_clean(self) -> None:
        """Reset the write set (snapshot taken/restored here)."""
        self.dirty.clear()

    def clear(self) -> None:
        """VMCLEAR semantics: launch state back to *Clear*.

        Field contents are preserved — VMCLEAR initializes/flushes the
        region but a subsequent VMPTRLD sees the in-memory data.
        """
        self.launch_state = VmcsLaunchState.CLEAR

    def contents(self) -> dict[VmcsField, int]:
        """Copy of all populated fields (used by snapshots)."""
        return dict(self._fields)

    def load_contents(self, values: dict[VmcsField, int]) -> None:
        """Bulk-restore fields (snapshot revert path, not VMWRITE)."""
        # Everything that existed or now exists may have changed; the
        # snapshot layer calls mark_clean() right after when this load
        # re-establishes a known-clean point.
        self.dirty.update(self._fields)
        try:
            self._fields = {
                (info := FIELD_INFO[f]).member: v & info.mask
                for f, v in values.items()
            }
        except KeyError as exc:
            raise unknown_field(exc.args[0]) from None
        self.dirty.update(self._fields)

    def populated_fields(self) -> frozenset[VmcsField]:
        return frozenset(self._fields)

    def copy(self, address: int | None = None) -> "Vmcs":
        """Deep copy; optionally relocated to a new address."""
        clone = Vmcs(
            address=self.address if address is None else address,
            revision_id=self.revision_id,
            abort_indicator=self.abort_indicator,
            launch_state=self.launch_state,
        )
        clone._fields = dict(self._fields)
        clone.dirty = set(self.dirty)
        return clone
