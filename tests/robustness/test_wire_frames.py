"""Robustness of the worker wire protocol against damaged frames.

A worker port is an untrusted interface: whatever bytes a peer sends,
the frame layer and the TASK, RESULT, HELLO and HELLO_ACK payload
decoders may raise only :class:`TransportProtocolError`.  Valid
encodings of a recorded campaign's context, a real shard task and its
outcome are damaged three ways — bit flips, truncation and count
inflation (a length prefix, an ``IRISTRC2`` count, or a JSON number
blown up to a huge value) — and each damaged copy goes to every
decoder.  A damaged payload may still decode (a flipped bit in a
string is still a string); what it may not do is escape with any
other error.

Frame headers get the same damage on a live socket pair, and one
check runs under an address-space limit: a header that claims the
largest allowed payload must not make the reader allocate it before
the bytes arrive.
"""

from __future__ import annotations

import os
import random
import re
import socket
import struct
import subprocess
import sys
from pathlib import Path

import pytest

from repro.campaign import wire
from repro.core.manager import IrisManager
from repro.errors import TransportProtocolError
from repro.fuzz.mutations import MutationArea
from repro.fuzz.parallel import ShardOutcome, ShardTask, _execute_task
from tests.robustness.test_trace_decoders import flip_bits, truncate

#: Damaged copies per (payload, damage kind).
N_MUTANTS = 150

SRC_DIR = str(Path(__file__).resolve().parents[2] / "src")


@pytest.fixture(scope="module")
def payloads():
    """Valid payloads of every kind a peer can send."""
    session = IrisManager().record_workload(
        "cpu-bound", n_exits=40, precondition="boot"
    )
    task = ShardTask(
        cell_index=1, shard_index=0, seed_index=5,
        area=MutationArea.VMCS, n_mutations=6,
        mutation_rule="bit-flip", rng_seed=11,
        collect_metrics=True,
    )
    outcome = _execute_task(task, session.trace, session.snapshot)
    assert outcome.ok and outcome.metrics is not None
    error = ShardOutcome(
        cell_index=2, shard_index=1, attempt=1,
        error="RuntimeError: boom", error_traceback="Traceback ...",
    )
    return {
        "TASK": wire.encode_task(task),
        "RESULT": wire.encode_outcome(outcome),
        "RESULT-error": wire.encode_outcome(error),
        "HELLO": wire.encode_hello(
            {"campaign_seed": "7", "arch": "vmx"},
            session.trace, session.snapshot,
        ),
        "HELLO_ACK": wire.encode_hello_ack(4242),
    }


DECODERS = {
    "TASK": wire.decode_task,
    "RESULT": wire.decode_outcome,
    "HELLO": wire.decode_hello,
    "HELLO_ACK": wire.decode_hello_ack,
}


# ---- count inflation ---------------------------------------------------

def _huge(width: int, rng: random.Random) -> int:
    return rng.choice(((1 << width) - 1, 1 << (width - 1),
                       rng.randrange(1 << width)))


def inflate_json_number(blob: bytes, rng: random.Random) -> bytes:
    """One integer literal (a seed's entry count, a length, an index)
    replaced by a huge or negative value."""
    numbers = list(re.finditer(rb"-?\d+", blob))
    match = rng.choice(numbers)
    value = rng.choice((_huge(64, rng), 10 ** 40, -_huge(32, rng)))
    return blob[:match.start()] + str(value).encode() + blob[match.end():]


def inflate_hello_count(blob: bytes, rng: random.Random) -> bytes:
    """A HELLO section length, the trace's record count, or a 16/32-bit
    field anywhere."""
    data = bytearray(blob)
    (ident_len,) = struct.unpack_from("!I", data)
    choice = rng.randrange(3)
    if choice == 0:
        offset, fmt = rng.choice(((0, "!I"), (4 + ident_len, "!I")))
    elif choice == 1:
        # IRISTRC2 trailer: names offset, index offset, record count.
        offset, fmt = len(data) - struct.calcsize("<QQQ8s") + 16, "<Q"
    else:
        fmt = rng.choice(("<H", "<I"))
        offset = rng.randrange(len(data) - struct.calcsize(fmt))
    struct.pack_into(fmt, data, offset,
                     _huge(struct.calcsize(fmt) * 8, rng))
    return bytes(data)


def inflate(blob: bytes, rng: random.Random, kind: str) -> bytes:
    if kind == "HELLO":
        return inflate_hello_count(blob, rng)
    return inflate_json_number(blob, rng)


# ---- payload decoders --------------------------------------------------

@pytest.mark.parametrize("damage", ["bit-flip", "truncate",
                                    "inflate-count"])
@pytest.mark.parametrize("name", ["TASK", "RESULT", "RESULT-error",
                                  "HELLO", "HELLO_ACK"])
def test_damaged_payload_raises_only_protocol_error(
    payloads, name, damage
):
    kind = name.split("-")[0]
    decode = DECODERS[kind]
    valid = payloads[name]
    decode(valid)  # the undamaged payload decodes
    rng = random.Random(f"{name}:{damage}")
    refused = 0
    for _ in range(N_MUTANTS):
        if damage == "bit-flip":
            blob = flip_bits(valid, rng)
        elif damage == "truncate":
            blob = truncate(valid, rng)
        else:
            blob = inflate(valid, rng, kind)
        try:
            decode(blob)
        except TransportProtocolError:
            refused += 1
    # Flips and cuts must be noticed at least sometimes, or the suite
    # is testing nothing; an inflated number is often a valid value.
    assert refused > 0 or damage == "inflate-count"


@pytest.mark.parametrize("kind", sorted(DECODERS))
def test_foreign_payloads_raise_only_protocol_error(payloads, kind):
    """Another kind's payload, JSON of the wrong shape and deep
    nesting are refused as protocol errors too."""
    decode = DECODERS[kind]
    foreign = [
        payload for name, payload in payloads.items()
        if not name.startswith(kind)
    ]
    shapes = [b"", b"null", b"[]", b"{}", b'"x"', b"1e999",
              b"[" * 100_000 + b"]" * 100_000,
              b'{"worker_pid": true}', b"\xff\xfe"]
    for blob in foreign + shapes:
        try:
            decode(blob)
        except TransportProtocolError:
            pass


# ---- frame headers -----------------------------------------------------

def _read_all(blob: bytes) -> None:
    """Feed ``blob`` to ``recv_frame`` until a clean end or an error."""
    a, b = socket.socketpair()
    try:
        a.sendall(blob)
        a.shutdown(socket.SHUT_WR)
        while wire.recv_frame(b) is not None:
            pass
    finally:
        a.close()
        b.close()


def inflate_header(blob: bytes, rng: random.Random) -> bytes:
    """The version, kind or length field of the first header."""
    data = bytearray(blob)
    offset, fmt = rng.choice(((4, "!H"), (6, "!H"), (8, "!I")))
    struct.pack_into(fmt, data, offset,
                     _huge(struct.calcsize(fmt) * 8, rng))
    return bytes(data)


def _damage_header(blob: bytes, rng: random.Random, damage: str) -> bytes:
    header = wire._HEADER.size
    if damage == "bit-flip":
        return flip_bits(blob[:header], rng) + blob[header:]
    if damage == "truncate":
        return blob[:rng.randrange(header + 1)]
    return inflate_header(blob, rng)


@pytest.mark.parametrize("damage", ["bit-flip", "truncate",
                                    "inflate-count"])
def test_damaged_frame_header_raises_only_protocol_error(
    payloads, damage
):
    frames = b"".join((
        wire.encode_frame(wire.FrameKind.TASK, payloads["TASK"]),
        wire.encode_frame(wire.FrameKind.HEARTBEAT, b""),
        wire.encode_frame(wire.FrameKind.BYE, b""),
    ))
    _read_all(frames)  # the undamaged stream reads cleanly
    rng = random.Random(f"header:{damage}")
    refused = 0
    for _ in range(N_MUTANTS):
        try:
            _read_all(_damage_header(frames, rng, damage))
        except TransportProtocolError:
            refused += 1
    assert refused > 0


_CLAIMED_LENGTH_PROBE = """
import resource, socket
from repro.campaign import wire
from repro.errors import TransportProtocolError

with open("/proc/self/status") as fh:
    vm_size = next(
        int(line.split()[1]) * 1024 for line in fh
        if line.startswith("VmSize:")
    )
limit = vm_size + (256 << 20)
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
a, b = socket.socketpair()
a.sendall(wire._HEADER.pack(
    wire.MAGIC, wire.WIRE_VERSION, int(wire.FrameKind.HELLO),
    wire.MAX_PAYLOAD_BYTES,
) + b"x" * 64)
a.shutdown(socket.SHUT_WR)
try:
    wire.recv_frame(b)
except TransportProtocolError:
    print("refused")
"""


@pytest.mark.skipif(
    not os.path.exists("/proc/self/status"),
    reason="needs /proc/self/status to size the address-space limit",
)
def test_claimed_length_does_not_size_the_allocation():
    """A header may claim up to ``MAX_PAYLOAD_BYTES``; with 64 bytes
    behind it, reading must end in a protocol error well inside a
    256 MB address-space allowance, not a 1 GB receive buffer."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", _CLAIMED_LENGTH_PROBE],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "refused"
