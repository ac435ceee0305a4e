"""VM seeds, metrics, and traces — with the paper's binary layout.

Paper §V-A: "The struct is defined to store: i) a flag (1 byte) that
indicates the kind of data; ii) the encoding (1 byte) of GPR (15 values)
or VMCS fields (147 values); iii) the value (8 bytes)".  That 10-byte
entry is :class:`SeedEntry`; 15 GPR entries plus the observed worst case
of 32 VMCS operations gives the 470-byte worst-case seed the paper's
§VI-D reports.
"""

from __future__ import annotations

import enum
import io
import json
import struct
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain, repeat
from typing import Any, NamedTuple, NoReturn, Sequence

from repro.errors import SeedFormatError
from repro.vmx.exit_reasons import ExitReason, reason_name
from repro.arch.fields import (
    ALL_FIELDS,
    ArchField,
    field_by_index,
    field_index,
)
from repro.x86.registers import GPR

#: struct layout: flag (1B), encoding (1B), value (8B little-endian).
_ENTRY_STRUCT = struct.Struct("<BBQ")
SEED_ENTRY_SIZE = _ENTRY_STRUCT.size  # 10 bytes

_VALUE_MASK = (1 << 64) - 1

#: Worst-case VMCS read/write operations per exit observed by the paper.
MAX_VMCS_OPS_PER_EXIT = 32

#: 15 GPRs + 32 VMCS ops, 10 bytes each -> the paper's 470 bytes.
WORST_CASE_SEED_BYTES = (len(GPR) + MAX_VMCS_OPS_PER_EXIT) * SEED_ENTRY_SIZE


class SeedFlag(enum.IntEnum):
    """Entry kind (the 1-byte flag)."""

    GPR = 0
    VMCS_READ = 1
    VMCS_WRITE = 2  # stored as a metric, same wire format


class SeedEntry(NamedTuple):
    """One 10-byte seed entry.

    A tuple-backed record rather than a dataclass: the batched trace
    decoder constructs millions of these, and ``tuple.__new__`` is the
    cheapest immutable construction CPython offers.  Field names,
    construction signature, equality, and hashing are unchanged from
    the previous frozen-dataclass form.
    """

    flag: SeedFlag
    encoding: int  # GPR number or compact VMCS field index
    value: int

    def pack(self) -> bytes:
        return _ENTRY_STRUCT.pack(
            int(self.flag), self.encoding, self.value & (1 << 64) - 1
        )

    @classmethod
    def unpack(cls, raw: bytes) -> "SeedEntry":
        try:
            flag, encoding, value = _ENTRY_STRUCT.unpack(raw)
            kind = SeedFlag(flag)
        except (struct.error, ValueError) as exc:
            raise SeedFormatError(f"bad seed entry: {exc}") from exc
        # Validate the encoding byte *at parse time*, not when the
        # entry is first consumed: a corrupted corpus file should fail
        # with SeedFormatError at load, never with a stray ValueError
        # deep inside replay.
        try:
            if kind is SeedFlag.GPR:
                GPR(encoding)
            else:
                field_by_index(encoding)
        except ValueError:
            raise SeedFormatError(
                f"bad seed entry: encoding {encoding} out of range "
                f"for {kind.name}"
            ) from None
        return cls(kind, encoding, value)

    # -- convenience constructors/accessors ----------------------------

    @classmethod
    def for_gpr(cls, reg: GPR, value: int) -> "SeedEntry":
        return cls(SeedFlag.GPR, int(reg), value)

    @classmethod
    def for_vmcs(
        cls, flag: SeedFlag, fld: ArchField, value: int
    ) -> "SeedEntry":
        return cls(flag, field_index(fld), value)

    @property
    def gpr(self) -> GPR:
        if self.flag is not SeedFlag.GPR:
            raise ValueError("not a GPR entry")
        return GPR(self.encoding)

    @property
    def vmcs_field(self) -> ArchField:
        if self.flag is SeedFlag.GPR:
            raise ValueError("not a VMCS entry")
        return field_by_index(self.encoding)


# ---- the batched codec ------------------------------------------------
#
# The wire format is unchanged — ``n`` consecutive 10-byte ``<BBQ``
# entries — but the whole batch is packed/unpacked with *one* struct
# call over a memoryview instead of one call (plus exception-driven
# enum validation) per entry.  Validation is table-driven: flag and
# encoding legality are O(1) lookups against sets precomputed from the
# same enums the per-entry path constructs, so a corrupted corpus file
# still fails with exactly the same :class:`SeedFormatError` messages.

_FLAG_BY_VALUE: dict[int, SeedFlag] = {int(f): f for f in SeedFlag}
_VALID_GPR_ENCODINGS: frozenset[int] = frozenset(int(g) for g in GPR)
_FIELD_COUNT = len(ALL_FIELDS)

#: Entry-validation dispatch: ``_ENTRY_KIND[flag][encoding]`` is the
#: entry's :class:`SeedFlag` when the (flag, encoding) pair is legal,
#: absent otherwise — one indexed ``dict.get`` replaces the per-entry
#: enum constructions of the old codec.  Indexed by the raw flag byte,
#: so every 0-255 value has a slot (empty for invalid flags).
_ENTRY_KIND: tuple[dict[int, SeedFlag], ...] = tuple(
    (
        {enc: kind for enc in _VALID_GPR_ENCODINGS}
        if kind is SeedFlag.GPR
        else {enc: kind for enc in range(_FIELD_COUNT)}
    )
    if (kind := _FLAG_BY_VALUE.get(flag)) is not None
    else {}
    for flag in range(256)
)


#: The same legality table flattened for the decoder's hot path.  The
#: first two wire bytes of an entry, read little-endian as one uint16
#: (``flag | encoding << 8``), index straight into these dicts; an
#: illegal pair surfaces as a KeyError inside a C-level ``map``, so the
#: common all-valid case runs with no per-entry branch at all.
_KIND_BY_KEY: dict[int, SeedFlag] = {
    flag | (enc << 8): kind
    for flag, kinds in enumerate(_ENTRY_KIND)
    for enc, kind in kinds.items()
}
_ENC_BY_KEY: dict[int, int] = {key: key >> 8 for key in _KIND_BY_KEY}

#: ``SeedEntry`` is a tuple, so ``tuple.__new__`` builds one directly
#: from a (flag, encoding, value) triple — the same shortcut namedtuple
#: itself uses for ``_make``.  Typed ``Any`` because mypy cannot relate
#: the unbound ``__new__`` to the subclass through ``map``.
_tuple_new: Any = tuple.__new__


def _bad_entry(flag: int, encoding: int) -> NoReturn:
    """Raise the precise :class:`SeedFormatError` for a bad entry."""
    kind = _FLAG_BY_VALUE.get(flag)
    if kind is None:
        raise SeedFormatError(
            f"bad seed entry: {flag} is not a valid SeedFlag"
        )
    raise SeedFormatError(
        f"bad seed entry: encoding {encoding} out of range "
        f"for {kind.name}"
    )


@lru_cache(maxsize=1024)
def _batch_struct(count: int) -> struct.Struct:
    """The ``count``-entry batch layout (``<`` + ``BBQ`` x count)."""
    return struct.Struct("<" + "BBQ" * count)


@lru_cache(maxsize=1024)
def _pair_struct(count: int) -> struct.Struct:
    """The same bytes re-read as (key, value) uint16/uint64 pairs."""
    return struct.Struct("<" + "HQ" * count)


_HEADER_STRUCT = struct.Struct("<HH")


@lru_cache(maxsize=1024)
def _seed_struct(count: int) -> struct.Struct:
    """A whole seed's layout: header plus ``count`` entries, one call."""
    return struct.Struct("<HH" + "BBQ" * count)


def pack_entries(entries: Sequence[SeedEntry]) -> bytes:
    """Pack a whole entry list with one struct call.

    Byte-identical to concatenating :meth:`SeedEntry.pack` outputs.
    Entries are tuples, so the common case flattens them straight into
    the struct call; values outside 64 bits (which the per-entry codec
    masked) fall back to an explicitly masked pass.
    """
    try:
        return _batch_struct(len(entries)).pack(
            *chain.from_iterable(entries)
        )
    except struct.error:
        flat = [
            x for e in entries
            for x in (e.flag, e.encoding, e.value & _VALUE_MASK)
        ]
        return _batch_struct(len(entries)).pack(*flat)


def unpack_entries(
    raw: bytes | memoryview, count: int
) -> list[SeedEntry]:
    """Unpack ``count`` entries from ``raw`` (zero-copy over a view).

    Same hardening contract as the per-entry path: truncation and any
    out-of-range flag/encoding raise :class:`SeedFormatError` at parse
    time, never a stray ValueError deep inside replay.
    """
    view = raw if type(raw) is memoryview else memoryview(raw)
    if len(view) != count * SEED_ENTRY_SIZE:
        raise SeedFormatError("truncated seed entry")
    # Re-read each entry as (uint16 key, uint64 value): the key packs
    # flag and encoding, and a pair of dict lookups maps it to the
    # validated (SeedFlag, encoding) head.  Every per-entry step —
    # lookup, zip, and ``tuple.__new__`` — runs inside C-level ``map``
    # iteration; the interpreter executes no bytecode per entry.
    flat = _pair_struct(count).unpack(view)
    keys = flat[0::2]
    try:
        return list(map(
            _tuple_new,
            repeat(SeedEntry, count),
            zip(
                map(_KIND_BY_KEY.__getitem__, keys),
                map(_ENC_BY_KEY.__getitem__, keys),
                flat[1::2],
            ),
        ))
    except KeyError as exc:
        key = exc.args[0]
        _bad_entry(key & 0xFF, key >> 8)


@dataclass
class VMSeed:
    """The replayable input for one VM exit (paper §IV definition).

    ``exit_reason`` qualifies the exit; ``entries`` hold the GPR values
    and the ordered VMCS ``{field, value}`` pairs read during handling.
    """

    exit_reason: int
    entries: list[SeedEntry] = field(default_factory=list)

    @property
    def reason(self) -> ExitReason:
        return ExitReason(self.exit_reason & 0xFFFF)

    def gprs(self) -> dict[GPR, int]:
        return {
            e.gpr: e.value for e in self.entries
            if e.flag is SeedFlag.GPR
        }

    def vmcs_reads(self) -> list[tuple[ArchField, int]]:
        """Ordered (field, value) pairs read during the exit."""
        return [
            (e.vmcs_field, e.value) for e in self.entries
            if e.flag is SeedFlag.VMCS_READ
        ]

    def vmcs_op_count(self) -> int:
        return sum(
            1 for e in self.entries if e.flag is not SeedFlag.GPR
        )

    def size_bytes(self) -> int:
        return len(self.entries) * SEED_ENTRY_SIZE

    def replace_entry(self, index: int, entry: SeedEntry) -> "VMSeed":
        """A copy with one entry substituted (the mutation primitive)."""
        if not 0 <= index < len(self.entries):
            raise IndexError(f"entry index {index} out of range")
        entries = list(self.entries)
        entries[index] = entry
        return VMSeed(exit_reason=self.exit_reason, entries=entries)

    def pack(self) -> bytes:
        entries = self.entries
        try:
            return _seed_struct(len(entries)).pack(
                self.exit_reason & 0xFFFF, len(entries),
                *chain.from_iterable(entries),
            )
        except struct.error:
            # A value outside 64 bits: re-pack with explicit masking,
            # matching the per-entry codec's behavior byte for byte.
            return _seed_struct(len(entries)).pack(
                self.exit_reason & 0xFFFF, len(entries),
                *[
                    x for e in entries
                    for x in (e.flag, e.encoding, e.value & _VALUE_MASK)
                ],
            )

    @classmethod
    def from_bytes(cls, data: bytes | memoryview) -> "VMSeed":
        """Decode one seed from a buffer (zero-copy batched path).

        Same format and :class:`SeedFormatError` contract as
        :meth:`unpack_from`: truncation anywhere and trailing bytes
        after the declared entry count are rejected.
        """
        view = memoryview(data)
        if len(view) < 4:
            raise SeedFormatError("truncated seed header")
        exit_reason, count = _HEADER_STRUCT.unpack_from(view)
        body = view[4:]
        if len(body) < count * SEED_ENTRY_SIZE:
            raise SeedFormatError("truncated seed entry")
        if len(body) > count * SEED_ENTRY_SIZE:
            raise SeedFormatError(
                f"trailing bytes after {count} seed entries"
            )
        return cls(
            exit_reason=exit_reason,
            entries=unpack_entries(body, count),
        )

    @classmethod
    def unpack_from(cls, buf: io.BytesIO) -> "VMSeed":
        header = buf.read(4)
        if len(header) != 4:
            raise SeedFormatError("truncated seed header")
        exit_reason, count = _HEADER_STRUCT.unpack(header)
        raw = buf.read(count * SEED_ENTRY_SIZE)
        if len(raw) != count * SEED_ENTRY_SIZE:
            raise SeedFormatError("truncated seed entry")
        entries = unpack_entries(raw, count)
        trailing = buf.read(1)
        if trailing:
            raise SeedFormatError(
                f"trailing bytes after {count} seed entries"
            )
        return cls(exit_reason=exit_reason, entries=entries)

    def describe(self) -> str:
        return (
            f"VMSeed({reason_name(self.exit_reason)}, "
            f"{len(self.entries)} entries, {self.size_bytes()} B)"
        )


@dataclass
class ExitMetrics:
    """Per-exit metrics IRIS records alongside the seed (paper §IV-A).

    * ``vmwrites`` — ordered VMCS {field, value} pairs written (the
      fine-grained VM-state-change accuracy metric);
    * ``coverage_lines`` — hypervisor lines covered during this exit;
    * ``handler_cycles`` — TSC cycles spent handling the exit;
    * ``guest_cycles`` — cycles the guest ran before this exit (what
      replay elides).
    """

    vmwrites: list[tuple[ArchField, int]] = field(default_factory=list)
    coverage_lines: frozenset[tuple[str, int]] = frozenset()
    handler_cycles: int = 0
    guest_cycles: int = 0

    def coverage_loc(self) -> int:
        return len(self.coverage_lines)

    def cr0_writes(self) -> list[int]:
        """Values written to GUEST_CR0 (Fig. 8's trajectory)."""
        return [
            v for f, v in self.vmwrites if f is ArchField.GUEST_CR0
        ]


@dataclass
class VMExitRecord:
    """One element of a recorded VM behavior: seed + metrics."""

    seed: VMSeed
    metrics: ExitMetrics


@dataclass
class Trace:
    """A recorded VM behavior: the paper's ``VM_exit_trace``."""

    workload: str
    records: list[VMExitRecord] = field(default_factory=list)

    MAGIC = b"IRISTRC1"

    def __len__(self) -> int:
        return len(self.records)

    def seeds(self) -> list[VMSeed]:
        return [r.seed for r in self.records]

    def reasons(self) -> list[ExitReason]:
        return [r.seed.reason for r in self.records]

    def reason_histogram(self) -> dict[str, int]:
        histogram: dict[str, int] = {}
        for record in self.records:
            name = reason_name(record.seed.exit_reason)
            histogram[name] = histogram.get(name, 0) + 1
        return histogram

    def total_guest_cycles(self) -> int:
        return sum(r.metrics.guest_cycles for r in self.records)

    def cumulative_coverage(self) -> list[int]:
        """Unique-LOC trajectory across the trace (Fig. 6's y-axis)."""
        seen: set[tuple[str, int]] = set()
        trajectory = []
        for record in self.records:
            seen |= record.metrics.coverage_lines
            trajectory.append(len(seen))
        return trajectory

    # ---- serialization ----------------------------------------------

    def save(self, path) -> None:
        """Binary trace format: seeds + metrics, self-describing."""
        with open(path, "wb") as fh:
            fh.write(self.MAGIC)
            workload = self.workload.encode()
            fh.write(struct.pack("<H", len(workload)))
            fh.write(workload)
            fh.write(struct.pack("<I", len(self.records)))
            for record in self.records:
                seed_blob = record.seed.pack()
                metrics_blob = self._pack_metrics(record.metrics)
                fh.write(struct.pack("<II", len(seed_blob),
                                     len(metrics_blob)))
                fh.write(seed_blob)
                fh.write(metrics_blob)

    @classmethod
    def load(cls, path) -> "Trace":
        """Load a trace file, fully materialized.

        Auto-detects the streaming ``IRISTRC2`` format (see
        :mod:`repro.core.tracestore`) and decodes it eagerly, so
        existing ``Trace.load`` callers accept both layouts; use
        :func:`repro.core.tracestore.open_trace` to get the lazy
        reader instead.
        """
        with open(path, "rb") as fh:
            blob = fh.read()
        view = memoryview(blob)
        if bytes(view[:8]) != cls.MAGIC:
            from repro.core.tracestore import MAGIC as V2_MAGIC
            from repro.core.tracestore import TraceReader
            if bytes(view[:8]) == V2_MAGIC:
                with TraceReader(path) as reader:
                    return reader.materialize()
            raise SeedFormatError("not an IRIS trace file")
        if len(view) < 10:
            raise SeedFormatError("truncated trace header")
        (name_len,) = struct.unpack_from("<H", view, 8)
        if len(view) < 10 + name_len:
            raise SeedFormatError("truncated trace header")
        try:
            workload = bytes(view[10:10 + name_len]).decode()
        except UnicodeDecodeError as exc:
            raise SeedFormatError(f"bad workload name: {exc}") from exc
        offset = 10 + name_len
        if len(view) - offset < 4:
            raise SeedFormatError("truncated trace header")
        (count,) = struct.unpack_from("<I", view, offset)
        offset += 4
        records = []
        for _ in range(count):
            if len(view) - offset < 8:
                raise SeedFormatError("truncated trace record")
            seed_len, metrics_len = struct.unpack_from(
                "<II", view, offset
            )
            offset += 8
            # Zero-copy: each record's seed decodes straight out of the
            # mapped blob through the batched codec.
            seed = VMSeed.from_bytes(view[offset:offset + seed_len])
            offset += seed_len
            metrics = cls._unpack_metrics(
                bytes(view[offset:offset + metrics_len])
            )
            offset += metrics_len
            records.append(VMExitRecord(seed=seed, metrics=metrics))
        return cls(workload=workload, records=records)

    @staticmethod
    def _pack_metrics(metrics: ExitMetrics) -> bytes:
        payload = {
            "vmwrites": [
                [int(f), v] for f, v in metrics.vmwrites
            ],
            "coverage": sorted(
                [f, l] for f, l in metrics.coverage_lines
            ),
            "handler_cycles": metrics.handler_cycles,
            "guest_cycles": metrics.guest_cycles,
        }
        return json.dumps(payload, separators=(",", ":")).encode()

    @staticmethod
    def _unpack_metrics(blob: bytes) -> ExitMetrics:
        try:
            payload = json.loads(blob.decode())
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise SeedFormatError(f"bad metrics blob: {exc}") from exc
        try:
            return ExitMetrics(
                vmwrites=[
                    (ArchField(f), v) for f, v in payload["vmwrites"]
                ],
                coverage_lines=frozenset(
                    (f, l) for f, l in payload["coverage"]
                ),
                handler_cycles=payload["handler_cycles"],
                guest_cycles=payload["guest_cycles"],
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise SeedFormatError(
                f"bad metrics payload: {exc}"
            ) from exc
