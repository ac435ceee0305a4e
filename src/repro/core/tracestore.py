"""Streaming, mmap-backed trace store — the ``IRISTRC2`` format.

The legacy ``IRISTRC1`` layout (:meth:`repro.core.seed.Trace.save`)
materializes every record in RAM, issues four small writes plus a JSON
metrics encode per record, and decodes the whole file eagerly on load.
That is fine for the paper's 5000-exit traces and hopeless for the
multi-million-exit recordings the §VI-D memory analysis assumes — the
reason rr's trace format ("Engineering Record And Replay For
Deployability", PAPERS.md) is append-only, indexed, and lazily mapped.

``IRISTRC2`` follows that design::

    header   b"IRISTRC2" | <H workload_len | workload bytes
    payload  per record: seed blob (batched codec) + metrics blob
             (struct-packed binary, below) — appended in flush batches
    names    <I count | per name: <H len | utf-8 bytes
             (interned coverage file names, ordered by id)
    index    per record: <QIIH = offset, seed_len, metrics_len,
             exit_reason — the file's random-access map
    trailer  <QQQ names_off, index_off, record_count | b"IRISIDX2"

The binary metrics blob replaces the per-record JSON::

    <H vmwrite_count | vmwrite_count x <HQ (field index, value)
    <I coverage_count | coverage_count x <II (name id, line), line-major order
    <QQ handler_cycles, guest_cycles

Two entry points:

* :class:`TraceWriter` — the streaming producer.  ``append()`` spools
  records into a bounded batch; every ``flush_every`` records the
  batch is encoded and written through buffered I/O, so recording
  memory is O(flush batch), not O(trace) (the index rides along at 18
  bytes/record).  :class:`~repro.core.record.Recorder` uses it for
  spool mode, which every ``iris record`` runs in.
* :class:`TraceReader` — the lazy consumer.  The file is mmapped once;
  ``len()``, ``reasons()`` and ``reason_histogram()`` are answered
  from the footer index without touching a single payload byte (the
  ``stats.records_decoded`` counter proves it), and ``records[i]``
  copies out and decodes exactly one record on access.

:func:`open_trace` dispatches on the magic so every consumer accepts
both formats; ``Trace.load()`` keeps its fully-materialized contract
and auto-detects ``IRISTRC2`` files.
"""

from __future__ import annotations

import io
import mmap
import os
import struct
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field as dataclass_field
from functools import lru_cache
from pathlib import Path
from typing import Protocol, Union, runtime_checkable

from repro.arch.fields import ALL_FIELDS, field_by_index, field_index
from repro.core.seed import (
    ExitMetrics,
    Trace,
    VMExitRecord,
    VMSeed,
)
from repro.errors import SeedFormatError
from repro.vmx.exit_reasons import ExitReason, reason_name

MAGIC = b"IRISTRC2"
TRAILER_MAGIC = b"IRISIDX2"

#: Default records per flush batch — the spool-mode memory bound.
DEFAULT_FLUSH_EVERY = 256

_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
_CYCLES = struct.Struct("<QQ")
#: One index entry: payload offset, seed length, metrics length,
#: 16-bit exit reason (the same value the seed blob's header carries).
_INDEX_ENTRY = struct.Struct("<QIIH")
_TRAILER = struct.Struct("<QQQ8s")

_VALUE_MASK = (1 << 64) - 1


@runtime_checkable
class TraceLike(Protocol):
    """What every trace consumer actually needs.

    Satisfied by the in-RAM :class:`~repro.core.seed.Trace` and by the
    lazy :class:`TraceReader`, so replay, the fuzzer's planner, the
    minimizer, and the analysis modules take either interchangeably.
    """

    @property
    def workload(self) -> str: ...

    @property
    def records(self) -> Sequence[VMExitRecord]: ...

    def __len__(self) -> int: ...

    def seeds(self) -> list[VMSeed]: ...

    def reasons(self) -> list[ExitReason]: ...

    def reason_histogram(self) -> dict[str, int]: ...

    def total_guest_cycles(self) -> int: ...

    def cumulative_coverage(self) -> list[int]: ...


# ---- binary metrics codec --------------------------------------------


#: Encoded size of one (field index, value) vmwrite pair and of one
#: (name id, line) coverage pair.  Decoders check ``count x size``
#: against the bytes left *before* building a count-sized struct, so
#: a hostile count can neither allocate a huge format string nor pin
#: one in the caches below.
_VMWRITE_SIZE = struct.calcsize("<HQ")
_COVERAGE_PAIR_SIZE = struct.calcsize("<II")


@lru_cache(maxsize=1024)
def _vmwrites_struct(count: int) -> struct.Struct:
    return struct.Struct("<" + "HQ" * count)


@lru_cache(maxsize=1024)
def _coverage_struct(count: int) -> struct.Struct:
    return struct.Struct("<" + "II" * count)


# Pack-side variant that fuses the whole blob — vmwrite count and
# pairs, coverage count and pairs, cycle pair — into one struct call.
# Each coverage pair is packed as one ``<Q`` of ``line << 32 | id``:
# little-endian, that is byte-for-byte the documented ``<II`` (id,
# line) pair, but sorting and splatting plain ints is much cheaper
# than tuple pairs.  Record shapes repeat heavily across a trace, so
# the cache hits every time.
@lru_cache(maxsize=4096)
def _metrics_pack_struct(
    n_writes: int, n_coverage: int
) -> struct.Struct:
    return struct.Struct(
        "<H" + "HQ" * n_writes + "I" + "Q" * n_coverage + "QQ"
    )


# One flush batch's index entries, packed in a single call.  Batches
# are almost always exactly ``flush_every`` records, so this caches.
@lru_cache(maxsize=64)
def _index_batch_struct(count: int) -> struct.Struct:
    return struct.Struct("<" + "QIIH" * count)


#: Hot-path copy of the compact field numbering: metrics packing is
#: the per-record inner loop of spool-mode recording, and the direct
#: member lookup skips :func:`field_index`'s enum re-coercion.
_FIELD_INDEX: dict[object, int] = {
    f: i for i, f in enumerate(ALL_FIELDS)
}


def pack_metrics(
    metrics: ExitMetrics, name_table: dict[str, int]
) -> bytes:
    """Encode one record's metrics against a shared name table.

    ``name_table`` interns coverage file names in first-seen order
    (new names are interned in sorted-name order); the writer
    serializes the table once into the footer.  Coverage pairs are
    packed in ascending (line, interned id) order, so the encoding of
    a given trace is byte-deterministic regardless of set iteration
    order.
    """
    writes = metrics.vmwrites
    n_writes = len(writes)
    if n_writes > 0xFFFF:
        raise SeedFormatError(
            f"too many vmwrites to encode: {n_writes}"
        )
    try:
        cov_keys = [
            line << 32 | name_table[name]
            for name, line in metrics.coverage_lines
        ]
    except KeyError:
        # First sighting of a file name: intern in sorted-name order
        # so id assignment never depends on set iteration order.
        cov_keys = []
        for name, line in sorted(metrics.coverage_lines):
            name_id = name_table.get(name)
            if name_id is None:
                name_id = len(name_table)
                if name_id > 0xFFFFFFFF:
                    raise SeedFormatError(
                        "coverage name table overflow"
                    )
                name_table[name] = name_id
            cov_keys.append(line << 32 | name_id)
    cov_keys.sort()
    packer = _metrics_pack_struct(n_writes, len(cov_keys))
    field_ids = _FIELD_INDEX
    try:
        # Fast path: known enum fields, everything already in range.
        # A raw-int field raises KeyError; an out-of-range value (the
        # codec masks to 64 bits) or coverage line (the shifted key
        # overflows 64 bits) raises struct.error — both land in the
        # validating pass below.
        wflat = [
            x for f, v in writes for x in (field_ids[f], v)
        ]
        return packer.pack(
            n_writes, *wflat, len(cov_keys), *cov_keys,
            metrics.handler_cycles, metrics.guest_cycles,
        )
    except (KeyError, struct.error):
        pass
    wflat = []
    for f, v in writes:
        wflat.append(field_index(f))
        wflat.append(v & _VALUE_MASK)
    try:
        return packer.pack(
            n_writes, *wflat, len(cov_keys), *cov_keys,
            metrics.handler_cycles & _VALUE_MASK,
            metrics.guest_cycles & _VALUE_MASK,
        )
    except struct.error as exc:
        raise SeedFormatError(
            "coverage line outside the 32-bit range"
        ) from exc


def unpack_metrics(
    raw: bytes | memoryview, names: Sequence[str]
) -> ExitMetrics:
    """Decode one binary metrics blob (zero-copy over a view).

    Same hardening contract as the seed codec: truncation anywhere,
    trailing bytes, an out-of-range field index or name id — all raise
    :class:`SeedFormatError` at parse time.
    """
    view = raw if type(raw) is memoryview else memoryview(raw)

    def need(offset: int, count: int) -> None:
        if len(view) - offset < count:
            raise SeedFormatError("truncated metrics blob")

    need(0, _U16.size)
    (n_writes,) = _U16.unpack_from(view, 0)
    offset = _U16.size
    vmwrites: list[tuple[object, int]] = []
    if n_writes:
        need(offset, n_writes * _VMWRITE_SIZE)
        writes_struct = _vmwrites_struct(n_writes)
        flat = writes_struct.unpack_from(view, offset)
        offset += writes_struct.size
        try:
            vmwrites = [
                (field_by_index(flat[i]), flat[i + 1])
                for i in range(0, 2 * n_writes, 2)
            ]
        except ValueError as exc:
            raise SeedFormatError(f"bad metrics blob: {exc}") from exc
    need(offset, _U32.size)
    (n_coverage,) = _U32.unpack_from(view, offset)
    offset += _U32.size
    coverage: frozenset[tuple[str, int]] = frozenset()
    if n_coverage:
        need(offset, n_coverage * _COVERAGE_PAIR_SIZE)
        coverage_struct = _coverage_struct(n_coverage)
        flat = coverage_struct.unpack_from(view, offset)
        offset += coverage_struct.size
        try:
            coverage = frozenset(
                (names[flat[i]], flat[i + 1])
                for i in range(0, 2 * n_coverage, 2)
            )
        except IndexError:
            raise SeedFormatError(
                "bad metrics blob: coverage name id outside the "
                "interned name table"
            ) from None
    need(offset, _CYCLES.size)
    handler_cycles, guest_cycles = _CYCLES.unpack_from(view, offset)
    offset += _CYCLES.size
    if offset != len(view):
        raise SeedFormatError("trailing bytes after metrics blob")
    return ExitMetrics(
        vmwrites=vmwrites,  # type: ignore[arg-type]
        coverage_lines=coverage,
        handler_cycles=handler_cycles,
        guest_cycles=guest_cycles,
    )


# ---- the streaming writer --------------------------------------------


@dataclass
class TraceWriterStats:
    """Spool-mode bookkeeping (the §VI-D memory-bound evidence)."""

    records_written: int = 0
    flushes: int = 0
    #: High-water mark of records held in RAM at once — the spool-mode
    #: memory bound is ``peak_buffered_records <= flush_every``.
    peak_buffered_records: int = 0
    payload_bytes: int = 0


class TraceWriter:
    """Append-only streaming producer of ``IRISTRC2`` files.

    Records spool into a bounded in-memory batch; every
    ``flush_every`` appends the batch is encoded and written through
    one buffered write.  ``close()`` (or the context manager) flushes
    the tail and writes the name table, index, and trailer — until
    then the file on disk is a prefix, not a valid trace.
    """

    def __init__(
        self,
        path: Union[str, os.PathLike[str]],
        workload: str = "",
        flush_every: int = DEFAULT_FLUSH_EVERY,
    ) -> None:
        if flush_every < 1:
            raise ValueError("flush_every must be >= 1")
        self.path = Path(path)
        self.workload = workload
        self.flush_every = flush_every
        self.stats = TraceWriterStats()
        self._fh: io.BufferedWriter | None = open(self.path, "wb")
        name = workload.encode()
        if len(name) > 0xFFFF:
            raise SeedFormatError(
                f"workload name too long to encode: {len(name)} bytes"
            )
        self._fh.write(MAGIC + _U16.pack(len(name)) + name)
        self._offset = len(MAGIC) + _U16.size + len(name)
        self._pending: list[VMExitRecord] = []
        self._index = bytearray()
        self._names: dict[str, int] = {}

    # -- lifecycle --

    def __enter__(self) -> "TraceWriter":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    @property
    def closed(self) -> bool:
        return self._fh is None

    def append(self, record: VMExitRecord) -> None:
        """Spool one record; encodes + writes when the batch fills."""
        if self._fh is None:
            raise SeedFormatError("trace writer is closed")
        self._pending.append(record)
        if len(self._pending) > self.stats.peak_buffered_records:
            self.stats.peak_buffered_records = len(self._pending)
        if len(self._pending) >= self.flush_every:
            self.flush()

    def extend(self, records: Sequence[VMExitRecord]) -> None:
        """Spool many records, flushing batch by batch.

        Equivalent to calling :meth:`append` per record but skips the
        per-record bookkeeping — the bulk entry point for
        :func:`write_trace`'s v1-to-v2 streaming.
        """
        if self._fh is None:
            raise SeedFormatError("trace writer is closed")
        pending = self._pending
        position = 0
        total = len(records)
        while position < total:
            take = self.flush_every - len(pending)
            pending.extend(records[position:position + take])
            position += take
            if len(pending) > self.stats.peak_buffered_records:
                self.stats.peak_buffered_records = len(pending)
            if len(pending) >= self.flush_every:
                self.flush()

    def flush(self) -> None:
        """Encode and write the pending batch (one buffered write)."""
        if self._fh is None:
            raise SeedFormatError("trace writer is closed")
        if not self._pending:
            return
        chunks: list[bytes] = []
        index_flat: list[int] = []
        names = self._names
        offset = self._offset
        for record in self._pending:
            seed_blob = record.seed.pack()
            metrics_blob = pack_metrics(record.metrics, names)
            index_flat += (
                offset, len(seed_blob), len(metrics_blob),
                record.seed.exit_reason & 0xFFFF,
            )
            offset += len(seed_blob) + len(metrics_blob)
            chunks.append(seed_blob)
            chunks.append(metrics_blob)
        self._index += _index_batch_struct(
            len(self._pending)
        ).pack(*index_flat)
        blob = b"".join(chunks)
        self._fh.write(blob)
        self.stats.payload_bytes += len(blob)
        self.stats.records_written += len(self._pending)
        self.stats.flushes += 1
        self._offset = offset
        self._pending.clear()

    def close(self) -> None:
        """Flush the tail and seal the file (names, index, trailer)."""
        if self._fh is None:
            return
        self.flush()
        names_off = self._offset
        name_parts = [_U32.pack(len(self._names))]
        for name in self._names:  # insertion order == id order
            encoded = name.encode()
            if len(encoded) > 0xFFFF:
                raise SeedFormatError(
                    f"coverage file name too long: {len(encoded)} bytes"
                )
            name_parts.append(_U16.pack(len(encoded)))
            name_parts.append(encoded)
        names_blob = b"".join(name_parts)
        index_off = names_off + len(names_blob)
        count = self.stats.records_written
        self._fh.write(names_blob)
        self._fh.write(bytes(self._index))
        self._fh.write(_TRAILER.pack(
            names_off, index_off, count, TRAILER_MAGIC
        ))
        self._fh.close()
        self._fh = None


def write_trace(
    trace: TraceLike,
    path: Union[str, os.PathLike[str]],
    flush_every: int = DEFAULT_FLUSH_EVERY,
) -> TraceWriterStats:
    """Stream an existing trace out as ``IRISTRC2``."""
    with TraceWriter(
        path, workload=trace.workload, flush_every=flush_every
    ) as writer:
        writer.extend(trace.records)
    return writer.stats


# ---- the lazy reader -------------------------------------------------


@dataclass
class TraceReaderStats:
    """Laziness evidence: how much payload a consumer actually paid."""

    #: Records whose payload bytes were decoded.  Index-only queries
    #: (``len``, ``reasons``, ``reason_histogram``) leave this at 0.
    records_decoded: int = 0


class _LazyRecords(Sequence[VMExitRecord]):
    """The ``.records`` view over a reader: decodes on access only."""

    __slots__ = ("_reader",)

    def __init__(self, reader: "TraceReader") -> None:
        self._reader = reader

    def __len__(self) -> int:
        return len(self._reader)

    def __getitem__(self, item):  # type: ignore[override]
        return self._reader[item]

    def __iter__(self) -> Iterator[VMExitRecord]:
        return iter(self._reader)


class TraceReader(Sequence[VMExitRecord]):
    """mmap-backed lazy view of an ``IRISTRC2`` trace file.

    Opening parses only the trailer, name table, and index (18
    bytes/record); record payloads stay untouched until indexed into.
    The reader satisfies the :class:`TraceLike` protocol, so it drops
    into every ``Trace`` consumer: replay iterates it, the fuzzer's
    planner answers seed selection from ``reasons()`` without decoding
    a payload byte, and slicing ``records[:k]`` decodes exactly ``k``
    records.
    """

    def __init__(self, path: Union[str, os.PathLike[str]]) -> None:
        self.path = Path(path)
        self.stats = TraceReaderStats()
        self._fh = open(self.path, "rb")
        try:
            try:
                self._mm: mmap.mmap | None = mmap.mmap(
                    self._fh.fileno(), 0, access=mmap.ACCESS_READ
                )
            except ValueError:
                raise SeedFormatError(
                    "not an IRIS trace file (empty file)"
                ) from None
            self._parse()
        except BaseException:
            self.close()
            raise
        self._records = _LazyRecords(self)

    # -- layout parsing --

    def _parse(self) -> None:
        # Reads go through the map itself (slices are byte copies), so
        # no view into it can outlive a decode error and make close()
        # fail with BufferError in place of the SeedFormatError.
        mm = self._mm
        assert mm is not None
        if mm[:8] != MAGIC:
            raise SeedFormatError("not an IRISTRC2 trace file")
        if len(mm) < 8 + _U16.size:
            raise SeedFormatError("truncated trace header")
        (name_len,) = _U16.unpack_from(mm, 8)
        header_end = 8 + _U16.size + name_len
        if len(mm) < header_end:
            raise SeedFormatError("truncated trace header")
        try:
            self.workload = mm[10:header_end].decode()
        except UnicodeDecodeError as exc:
            raise SeedFormatError(
                f"bad workload name: {exc}"
            ) from exc
        if len(mm) < header_end + _TRAILER.size:
            raise SeedFormatError("truncated trace trailer")
        names_off, index_off, count, tail = _TRAILER.unpack_from(
            mm, len(mm) - _TRAILER.size
        )
        if tail != TRAILER_MAGIC:
            raise SeedFormatError(
                "truncated trace trailer (bad trailer magic — "
                "was the writer closed?)"
            )
        index_end = len(mm) - _TRAILER.size
        if not (
            header_end <= names_off <= index_off <= index_end
        ):
            raise SeedFormatError("bad trace trailer offsets")
        if index_end - index_off != count * _INDEX_ENTRY.size:
            raise SeedFormatError("truncated trace index")
        self._payload_end = names_off
        self._names = self._parse_names(names_off, index_off)
        if count:
            self._index = struct.unpack_from(
                "<" + "QIIH" * count, mm, index_off
            )
        else:
            self._index = ()
        self._count = count

    def _parse_names(self, start: int, end: int) -> tuple[str, ...]:
        mm = self._mm
        assert mm is not None

        def need(offset: int, count: int) -> None:
            if end - offset < count:
                raise SeedFormatError("truncated trace name table")

        need(start, _U32.size)
        (n_names,) = _U32.unpack_from(mm, start)
        offset = start + _U32.size
        names: list[str] = []
        for _ in range(n_names):
            need(offset, _U16.size)
            (length,) = _U16.unpack_from(mm, offset)
            offset += _U16.size
            need(offset, length)
            try:
                names.append(mm[offset:offset + length].decode())
            except UnicodeDecodeError as exc:
                raise SeedFormatError(
                    f"bad trace name table: {exc}"
                ) from exc
            offset += length
        if offset != end:
            raise SeedFormatError(
                "trailing bytes after trace name table"
            )
        return tuple(names)

    # -- lifecycle --

    def close(self) -> None:
        mm = getattr(self, "_mm", None)
        if mm is not None:
            mm.close()
            self._mm = None
        if not self._fh.closed:
            self._fh.close()

    def __enter__(self) -> "TraceReader":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC ordering
        try:
            self.close()
        except Exception:
            pass

    # -- index-only queries (zero payload bytes) --

    def __len__(self) -> int:
        return self._count

    @property
    def records(self) -> Sequence[VMExitRecord]:
        return self._records

    def reason_ints(self) -> list[int]:
        """Raw 16-bit exit reasons, straight from the index."""
        return list(self._index[3::4])

    def reasons(self) -> list[ExitReason]:
        return [ExitReason(r) for r in self._index[3::4]]

    def reason_histogram(self) -> dict[str, int]:
        histogram: dict[str, int] = {}
        for reason in self._index[3::4]:
            name = reason_name(reason)
            histogram[name] = histogram.get(name, 0) + 1
        return histogram

    # -- lazy record access --

    def _decode(self, index: int) -> VMExitRecord:
        mm = self._mm
        if mm is None:
            raise SeedFormatError("trace reader is closed")
        base = 4 * index
        offset = self._index[base]
        seed_len = self._index[base + 1]
        metrics_len = self._index[base + 2]
        end = offset + seed_len + metrics_len
        if end > self._payload_end:
            raise SeedFormatError("bad trace index entry")
        # One copy out of the map per record: the decoders slice views
        # of these bytes, never of the map, so a decode error's
        # traceback cannot pin the map open.
        record = memoryview(mm[offset:end])
        seed = VMSeed.from_bytes(record[:seed_len])
        metrics = unpack_metrics(record[seed_len:], self._names)
        self.stats.records_decoded += 1
        return VMExitRecord(seed=seed, metrics=metrics)

    def __getitem__(self, item):  # type: ignore[override]
        if isinstance(item, slice):
            return [
                self._decode(i)
                for i in range(*item.indices(self._count))
            ]
        index = item
        if index < 0:
            index += self._count
        if not 0 <= index < self._count:
            raise IndexError(
                f"record index {item} outside trace of "
                f"{self._count} records"
            )
        return self._decode(index)

    def __iter__(self) -> Iterator[VMExitRecord]:
        for i in range(self._count):
            yield self._decode(i)

    # -- Trace API parity (payload-decoding paths) --

    def seeds(self) -> list[VMSeed]:
        return [record.seed for record in self]

    def total_guest_cycles(self) -> int:
        return sum(record.metrics.guest_cycles for record in self)

    def cumulative_coverage(self) -> list[int]:
        seen: set[tuple[str, int]] = set()
        trajectory = []
        for record in self:
            seen |= record.metrics.coverage_lines
            trajectory.append(len(seen))
        return trajectory

    def materialize(self) -> Trace:
        """Decode everything into an in-RAM :class:`Trace`."""
        return Trace(workload=self.workload, records=list(self))


def open_trace(
    path: Union[str, os.PathLike[str]],
) -> Union[Trace, TraceReader]:
    """Open a trace file in its cheapest faithful form.

    ``IRISTRC2`` files come back as a lazy :class:`TraceReader`;
    legacy ``IRISTRC1`` files load through the (hardened)
    :meth:`Trace.load` path, byte-equivalently to before.  Both
    results satisfy :class:`TraceLike`.
    """
    with open(path, "rb") as fh:
        magic = fh.read(len(MAGIC))
    if magic == MAGIC:
        return TraceReader(path)
    return Trace.load(path)


__all__ = [
    "DEFAULT_FLUSH_EVERY",
    "MAGIC",
    "TRAILER_MAGIC",
    "TraceLike",
    "TraceReader",
    "TraceReaderStats",
    "TraceWriter",
    "TraceWriterStats",
    "open_trace",
    "pack_metrics",
    "unpack_metrics",
    "write_trace",
]
