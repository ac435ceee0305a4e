"""Robustness of the seed and metrics codecs against damaged input.

The same contract as the trace-file decoders: whatever the bytes, only
:class:`SeedFormatError` may escape.  The decoders here are the ones
the trace loaders, the campaign store and the wire protocol hand
untrusted bytes to — :meth:`VMSeed.from_bytes`,
:meth:`VMSeed.unpack_from`, :func:`unpack_entries` and
:func:`tracestore.unpack_metrics` — each fed valid encodings from a
recorded trace, damaged by bit flips, truncation and count inflation.
"""

from __future__ import annotations

import io
import random
import struct

import pytest

from repro.core.manager import IrisManager
from repro.core.seed import SEED_ENTRY_SIZE, VMSeed, unpack_entries
from repro.core.tracestore import pack_metrics, unpack_metrics
from repro.errors import SeedFormatError
from tests.robustness.test_trace_decoders import flip_bits, truncate

#: Damaged encodings per (decoder, damage kind).
N_MUTANTS = 400


@pytest.fixture(scope="module")
def encodings():
    """Valid seed and metrics encodings of a 60-exit trace."""
    session = IrisManager().record_workload(
        "cpu-bound", n_exits=60, precondition="boot"
    )
    records = list(session.trace.records)
    name_table: dict[str, int] = {}
    metrics = [pack_metrics(r.metrics, name_table) for r in records]
    names = sorted(name_table, key=name_table.__getitem__)
    seeds = [r.seed.pack() for r in records]
    assert all(VMSeed.from_bytes(s).pack() == s for s in seeds)
    assert any(len(unpack_metrics(m, names).coverage_lines) for m in metrics)
    return {"seeds": seeds, "metrics": metrics, "names": names}


# ---- count inflation ---------------------------------------------------

def _inflate(data: bytearray, offset: int, fmt: str,
             rng: random.Random) -> bytes:
    width = struct.calcsize(fmt) * 8
    value = rng.choice(((1 << width) - 1, 1 << (width - 1),
                        rng.randrange(1 << width)))
    struct.pack_into(fmt, data, offset, value)
    return bytes(data)


def inflate_seed_count(blob: bytes, rng: random.Random) -> bytes:
    """The header's entry count, or a 16-bit field anywhere."""
    offset = 2 if rng.randrange(2) else rng.randrange(len(blob) - 1)
    return _inflate(bytearray(blob), offset, "<H", rng)


def inflate_metrics_count(blob: bytes, rng: random.Random) -> bytes:
    """The vmwrite or coverage count, or a 16/32-bit field anywhere."""
    data = bytearray(blob)
    if rng.randrange(2):
        (n_writes,) = struct.unpack_from("<H", data)
        offset, fmt = rng.choice(
            ((0, "<H"), (2 + n_writes * struct.calcsize("<HQ"), "<I"))
        )
    else:
        fmt = rng.choice(("<H", "<I"))
        offset = rng.randrange(len(data) - struct.calcsize(fmt) + 1)
    return _inflate(data, offset, fmt, rng)


SEED_DAMAGE = {"bit-flip": flip_bits, "truncate": truncate,
               "inflate-count": inflate_seed_count}
METRICS_DAMAGE = {"bit-flip": flip_bits, "truncate": truncate,
                  "inflate-count": inflate_metrics_count}


# ---- decoders ----------------------------------------------------------

def via_from_bytes(blob: bytes) -> None:
    VMSeed.from_bytes(blob)


def via_unpack_from(blob: bytes) -> None:
    VMSeed.unpack_from(io.BytesIO(blob))


def via_unpack_entries(blob: bytes) -> None:
    """The entries after the header, at the count the header claims."""
    (count,) = struct.unpack_from("<H", blob, 2) if len(blob) >= 4 \
        else (0,)
    unpack_entries(blob[4:], count)


SEED_DECODERS = {"VMSeed.from_bytes": via_from_bytes,
                 "VMSeed.unpack_from": via_unpack_from,
                 "unpack_entries": via_unpack_entries}


def _only_seed_format_error(decode, blobs, mutate, rng) -> int:
    rejected = 0
    for _ in range(N_MUTANTS):
        damaged = mutate(rng.choice(blobs), rng)
        try:
            decode(damaged)
        except SeedFormatError:
            rejected += 1
    return rejected


@pytest.mark.parametrize("damage", sorted(SEED_DAMAGE))
@pytest.mark.parametrize("decoder", sorted(SEED_DECODERS))
def test_seed_decoders_raise_only_seed_format_error(
    encodings, decoder, damage
):
    rng = random.Random(f"{decoder}:{damage}")
    rejected = _only_seed_format_error(
        SEED_DECODERS[decoder], encodings["seeds"], SEED_DAMAGE[damage],
        rng,
    )
    # The damage must actually exercise the error paths.
    assert rejected > 0


@pytest.mark.parametrize("count", [1, 2, 0xFFFF, 1 << 32, -1])
def test_unpack_entries_rejects_a_wrong_count(encodings, count):
    body = encodings["seeds"][0][4:]
    claimed = len(body) // SEED_ENTRY_SIZE + count
    with pytest.raises(SeedFormatError):
        unpack_entries(body, claimed)


@pytest.mark.parametrize("damage", sorted(METRICS_DAMAGE))
def test_unpack_metrics_raises_only_seed_format_error(encodings, damage):
    names = encodings["names"]
    rng = random.Random(f"metrics:{damage}")
    rejected = _only_seed_format_error(
        lambda blob: unpack_metrics(blob, names), encodings["metrics"],
        METRICS_DAMAGE[damage], rng,
    )
    assert rejected > 0


def test_unpack_metrics_rejects_a_short_name_table(encodings):
    blobs = [m for m in encodings["metrics"]
             if unpack_metrics(m, encodings["names"]).coverage_lines]
    with pytest.raises(SeedFormatError):
        unpack_metrics(blobs[0], [])
