"""Robustness of the trace-file decoders against damaged input.

Every decoder of bytes that cross a boundary may raise only its typed
error.  Here that is :class:`SeedFormatError`, for all three ways of
opening a trace file: :meth:`Trace.load`, :func:`open_trace` and
``with TraceReader(...)``.  Valid ``IRISTRC1`` and ``IRISTRC2`` files
are damaged three ways:

* **bit flips** — 1 to 4 random bits anywhere in the file;
* **truncation** — the file cut at a random length;
* **count inflation** — a count field overwritten with a huge value:
  the format's own count fields, or a 16/32-bit field at a random
  offset.

A damaged file may still decode (a flipped bit in a register value is
a valid trace); what it may not do is escape with any other error —
in particular, closing the reader after a decode error must not mask
the ``SeedFormatError`` with a ``BufferError`` — or leak a file
descriptor.
"""

from __future__ import annotations

import os
import random
import struct

import pytest

from repro.core.manager import IrisManager
from repro.core.seed import Trace
from repro.core.tracestore import (
    MAGIC as V2_MAGIC,
    TraceReader,
    open_trace,
    write_trace,
)
from repro.errors import SeedFormatError

#: Damaged copies per (format, damage kind, entry point).
N_MUTANTS = 120


@pytest.fixture(scope="module")
def valid_traces(tmp_path_factory):
    """A valid 60-exit trace in both on-disk formats, as bytes."""
    session = IrisManager().record_workload(
        "cpu-bound", n_exits=60, precondition="boot"
    )
    trace = Trace(
        workload=session.trace.workload,
        records=list(session.trace.records),
    )
    root = tmp_path_factory.mktemp("valid")
    v1, v2 = root / "trace.v1", root / "trace.v2"
    trace.save(v1)
    write_trace(trace, v2)
    blobs = {"v1": v1.read_bytes(), "v2": v2.read_bytes()}
    assert blobs["v2"].startswith(V2_MAGIC)
    return blobs


# ---- damage ------------------------------------------------------------

def flip_bits(blob: bytes, rng: random.Random) -> bytes:
    data = bytearray(blob)
    for _ in range(rng.randint(1, 4)):
        bit = rng.randrange(len(data) * 8)
        data[bit // 8] ^= 1 << (bit % 8)
    return bytes(data)


def truncate(blob: bytes, rng: random.Random) -> bytes:
    return blob[:rng.randrange(len(blob))]


def _count_offsets(blob: bytes) -> list[tuple[int, str]]:
    """The format's top-level count fields: (offset, struct format)."""
    (name_len,) = struct.unpack_from("<H", blob, 8)
    if blob.startswith(V2_MAGIC):
        # Trailer: names offset, index offset, record count, magic.
        trailer = len(blob) - struct.calcsize("<QQQ8s")
        return [(8, "<H"), (trailer + 16, "<Q")]
    # IRISTRC1: the record count follows the workload name, then each
    # record leads with its seed and metrics lengths.
    count_at = 10 + name_len
    return [(8, "<H"), (count_at, "<I"), (count_at + 4, "<I"),
            (count_at + 8, "<I")]


def inflate_count(blob: bytes, rng: random.Random) -> bytes:
    data = bytearray(blob)
    if rng.randrange(2):
        offset, fmt = rng.choice(_count_offsets(blob))
    else:
        fmt = rng.choice(("<H", "<I"))
        offset = rng.randrange(len(data) - struct.calcsize(fmt))
    width = struct.calcsize(fmt) * 8
    value = rng.choice(((1 << width) - 1, 1 << (width - 1),
                        rng.randrange(1 << width)))
    struct.pack_into(fmt, data, offset, value)
    return bytes(data)


DAMAGE = {"bit-flip": flip_bits, "truncate": truncate,
          "inflate-count": inflate_count}


# ---- entry points ------------------------------------------------------

def via_trace_load(path) -> None:
    Trace.load(path)


def via_open_trace(path) -> None:
    trace = open_trace(path)
    if isinstance(trace, TraceReader):
        with trace:
            trace.materialize()


def via_trace_reader(path) -> None:
    with TraceReader(path) as reader:
        reader.materialize()


ENTRY_POINTS = {"Trace.load": via_trace_load, "open_trace": via_open_trace,
                "TraceReader": via_trace_reader}

#: (format, entry point) pairs; ``TraceReader`` opens IRISTRC2 only.
TARGETS = [(fmt, entry) for fmt in ("v1", "v2") for entry in ENTRY_POINTS
           if (fmt, entry) != ("v1", "TraceReader")]


def _open_fds() -> int | None:
    try:
        return len(os.listdir("/proc/self/fd"))
    except OSError:  # not Linux: the descriptor check is skipped
        return None


@pytest.mark.parametrize("damage", sorted(DAMAGE))
@pytest.mark.parametrize(("fmt", "entry"), TARGETS)
def test_only_seed_format_error_escapes(
    tmp_path, valid_traces, fmt, entry, damage
):
    blob = valid_traces[fmt]
    mutate, load = DAMAGE[damage], ENTRY_POINTS[entry]
    rng = random.Random(f"{fmt}:{damage}:{entry}")
    path = tmp_path / "damaged.trace"
    fds_before = _open_fds()
    rejected = 0
    for _ in range(N_MUTANTS):
        path.write_bytes(mutate(blob, rng))
        try:
            load(path)
        except SeedFormatError:
            rejected += 1
    # The damage must actually exercise the error paths.
    assert rejected > 0
    if fds_before is not None:
        assert _open_fds() == fds_before, "a decoder leaked a descriptor"
