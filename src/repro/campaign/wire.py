"""The worker-transport wire protocol: versioned, length-prefixed frames.

Everything that crosses a controller<->worker socket is a **frame**: a
fixed 12-byte header — magic bytes, wire version, frame kind, payload
length — followed by the payload.  The header is the whole
compatibility story: a peer speaking a different wire version (or not
speaking this protocol at all) is refused at the first frame with a
:class:`~repro.errors.TransportProtocolError`, before any payload is
interpreted.

Payload encodings mirror the codecs the rest of the tree already pins
property tests on:

* shard tasks and outcomes travel as canonical JSON envelopes, one
  object per dataclass, decoded against the dataclass's own type
  hints (:mod:`repro.core.jsoncodec`); their seeds go through the
  batched seed codec (:func:`repro.core.seed.pack_entries`) — the
  same exact-round-trip layout the campaign store persists;
* metrics snapshots go through :meth:`MetricsSnapshot.to_json`;
* the one-time HELLO context is the campaign identity (JSON), the
  snapshot (:meth:`VmSnapshot.to_json`) and the recorded trace as an
  ``IRISTRC2`` file (:mod:`repro.core.tracestore`).

No payload is ever turned into arbitrary objects: a worker port hands
peer bytes only to these declarative decoders, so a hostile peer can
at worst fail its own session.  Decoding is strict: truncation, bad
magic, an oversized length, a mistyped field, or an undecodable
payload all raise :class:`TransportProtocolError`; the transport
layer treats the link as dead and reassigns the in-flight shard
rather than guessing.
"""

from __future__ import annotations

import base64
import enum
import json
import socket
import struct
import tempfile
from pathlib import Path
from typing import Any, Mapping

from repro.core.jsoncodec import JsonCodec
from repro.core.seed import Trace, VMSeed, pack_entries, unpack_entries
from repro.core.snapshot import VmSnapshot
from repro.core.tracestore import TraceLike, TraceReader, write_trace
from repro.errors import SeedFormatError, TransportProtocolError
from repro.fuzz.corpus import Corpus, CorpusEntry
from repro.fuzz.parallel import ShardOutcome, ShardTask
from repro.obs import MetricsSnapshot

#: Bump on any incompatible frame or payload change.  Carried in every
#: frame header; a mismatch is refused before the payload is touched.
#: v2: differential mode — tasks carry the ``differential`` flag,
#: results carry divergence records and comparison tallies.
#: v3: mutation engines — tasks carry the ``engine`` name, so a
#: remote worker runs the same staged pipeline (or the same PoC
#: stack) the controller planned.
#: v4: tasks no longer carry a ``fast_reset`` flag — every shard runs
#: the one (fast) reset policy.
#: v5: the HELLO context is identity JSON + snapshot JSON + IRISTRC2
#: trace bytes; tasks no longer carry ``fault_kind``; TASK and RESULT
#: objects carry exactly their dataclasses' fields, by field name.
WIRE_VERSION = 5

#: First bytes of every frame; a link that does not start with them is
#: not an iris worker link.
MAGIC = b"IRIS"

_HEADER = struct.Struct("!4sHHI")

#: Ceiling on a single frame's payload (guards against reading a
#: garbage length as a multi-gigabyte allocation).  Recorded traces of
#: a few hundred thousand exits fit comfortably.
MAX_PAYLOAD_BYTES = 1 << 30

#: Largest single ``recv``: the buffer is allocated before any byte
#: arrives, so a claimed length must not size it.
_RECV_CHUNK = 1 << 20

_U32 = struct.Struct("!I")


class FrameKind(enum.IntEnum):
    """Every message the protocol speaks."""

    #: Controller -> worker, once per connection: campaign identity
    #: plus the (snapshot, trace) execution context.
    HELLO = 1
    #: Worker -> controller: accepts the session (worker pid inside).
    HELLO_ACK = 2
    #: Controller -> worker: one :class:`ShardTask` to execute.
    TASK = 3
    #: Worker -> controller: the :class:`ShardOutcome` for the last
    #: TASK (result or captured worker-side error).
    RESULT = 4
    #: Worker -> controller while a task runs: liveness signal, so a
    #: slow shard is distinguishable from a dead worker.
    HEARTBEAT = 5
    #: Controller -> worker: clean goodbye, the session is over.
    BYE = 6


# ---- frame layer ------------------------------------------------------

def encode_frame(kind: FrameKind, payload: bytes) -> bytes:
    """One frame as bytes: header + payload."""
    if len(payload) > MAX_PAYLOAD_BYTES:
        raise TransportProtocolError(
            f"frame payload of {len(payload)} bytes exceeds the "
            f"{MAX_PAYLOAD_BYTES}-byte ceiling"
        )
    return _HEADER.pack(
        MAGIC, WIRE_VERSION, int(kind), len(payload)
    ) + payload


def send_frame(
    sock: socket.socket, kind: FrameKind, payload: bytes
) -> int:
    """Send one frame; returns the bytes put on the wire."""
    frame = encode_frame(kind, payload)
    sock.sendall(frame)
    return len(frame)


def _recv_exactly(
    sock: socket.socket, n: int, *, what: str
) -> bytes:
    chunks: list[bytes] = []
    got = 0
    while got < n:
        chunk = sock.recv(min(n - got, _RECV_CHUNK))
        if not chunk:
            raise TransportProtocolError(
                f"connection closed mid-frame (while reading {what}: "
                f"{got}/{n} bytes)"
            )
        chunks.append(chunk)
        got += len(chunk)
    return b"".join(chunks)


def recv_frame(
    sock: socket.socket,
) -> tuple[FrameKind, bytes, int] | None:
    """Read one frame; ``None`` on a clean close at a frame boundary.

    Returns ``(kind, payload, wire_bytes)``.  Anything anomalous — bad
    magic, wrong wire version, an unknown kind, a length beyond the
    ceiling, or EOF mid-frame — raises
    :class:`~repro.errors.TransportProtocolError`.
    """
    first = sock.recv(1)
    if not first:
        return None
    header = first + _recv_exactly(
        sock, _HEADER.size - 1, what="frame header"
    )
    magic, version, kind_value, length = _HEADER.unpack(header)
    if magic != MAGIC:
        raise TransportProtocolError(
            f"bad frame magic {magic!r}: peer is not speaking the "
            "iris worker protocol"
        )
    if version != WIRE_VERSION:
        raise TransportProtocolError(
            f"wire version {version} is not supported (this build "
            f"speaks version {WIRE_VERSION})"
        )
    try:
        kind = FrameKind(kind_value)
    except ValueError:
        raise TransportProtocolError(
            f"unknown frame kind {kind_value}"
        ) from None
    if length > MAX_PAYLOAD_BYTES:
        raise TransportProtocolError(
            f"frame length {length} exceeds the "
            f"{MAX_PAYLOAD_BYTES}-byte ceiling"
        )
    payload = _recv_exactly(sock, length, what=f"{kind.name} payload")
    return kind, payload, _HEADER.size + length


# ---- JSON helpers -----------------------------------------------------

def _dumps(payload: Mapping[str, Any]) -> bytes:
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")


def _loads(payload: bytes, *, what: str) -> dict[str, Any]:
    try:
        decoded = json.loads(payload.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise TransportProtocolError(
            f"undecodable {what} payload: {exc}"
        ) from exc
    if not isinstance(decoded, dict):
        raise TransportProtocolError(
            f"malformed {what} payload: expected an object, got "
            f"{type(decoded).__name__}"
        )
    return decoded


# ---- task / outcome codecs -------------------------------------------
#
# TASK and RESULT payloads are their dataclasses through the declarative
# JSON codec (:mod:`repro.core.jsoncodec`), decoded against the
# dataclasses' own type hints, so a field of the wrong JSON type is
# refused.  Seeds go through the batched codec with the full exit
# reason beside the blob (``VMSeed.pack`` masks it to 16 bits — the
# same faithfulness rule the campaign store follows), metrics through
# :meth:`MetricsSnapshot.to_json`.

def _encode_seed(seed: VMSeed) -> dict[str, Any]:
    return {
        "exit_reason": seed.exit_reason,
        "count": len(seed.entries),
        "entries": base64.b64encode(
            pack_entries(seed.entries)
        ).decode("ascii"),
    }


def _decode_seed(data: Any) -> VMSeed:
    fields = _CODEC.decode(
        {"exit_reason": int, "count": int, "entries": bytes}, data
    )
    return VMSeed(
        exit_reason=fields["exit_reason"],
        entries=unpack_entries(fields["entries"], fields["count"]),
    )


def _decode_metrics(text: Any) -> MetricsSnapshot:
    return MetricsSnapshot.from_json(_CODEC.decode(str, text))


_CODEC = JsonCodec({
    VMSeed: (_encode_seed, _decode_seed),
    MetricsSnapshot: (MetricsSnapshot.to_json, _decode_metrics),
    Corpus: (
        lambda corpus: _CODEC.encode(list[CorpusEntry], corpus.entries),
        lambda data: Corpus.from_entries(
            _CODEC.decode(list[CorpusEntry], data)
        ),
    ),
})


def _decode(cls: type, payload: bytes, *, what: str) -> Any:
    data = _loads(payload, what=what)
    try:
        return _CODEC.decode(cls, data)
    except SeedFormatError as exc:
        raise TransportProtocolError(
            f"malformed {what} payload: {exc}"
        ) from exc


def encode_task(task: ShardTask) -> bytes:
    """A :class:`ShardTask` as a canonical JSON envelope."""
    return _dumps(_CODEC.encode(ShardTask, task))


def decode_task(payload: bytes) -> ShardTask:
    return _decode(ShardTask, payload, what="task")


def encode_outcome(outcome: ShardOutcome) -> bytes:
    """A :class:`ShardOutcome` (result *or* captured fault) as bytes."""
    return _dumps(_CODEC.encode(ShardOutcome, outcome))


def decode_outcome(payload: bytes) -> ShardOutcome:
    return _decode(ShardOutcome, payload, what="result")


# ---- session handshake ------------------------------------------------

def _trace_bytes(trace: TraceLike) -> bytes:
    """The trace as an ``IRISTRC2`` file: a spooled reader's file as
    it is, anything else streamed through :func:`write_trace`."""
    if isinstance(trace, TraceReader):
        return trace.path.read_bytes()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "hello.iris")
        write_trace(trace, path)
        return path.read_bytes()


def _decode_trace(blob: bytes) -> Trace:
    """Materialize HELLO trace bytes through the hardened reader, so a
    damaged record fails the handshake, not a shard."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "hello.iris")
        path.write_bytes(blob)
        with TraceReader(path) as reader:
            return reader.materialize()


def encode_hello(
    identity: Mapping[str, str],
    trace: TraceLike,
    snapshot: VmSnapshot | None,
) -> bytes:
    """The once-per-connection context.

    Layout: ``!I`` identity length, identity JSON, ``!I`` snapshot
    length, snapshot JSON (``null`` without one), then the trace as
    ``IRISTRC2`` bytes up to the end of the payload.
    """
    ident = _dumps({str(k): str(v) for k, v in identity.items()})
    state = (
        b"null" if snapshot is None
        else snapshot.to_json().encode("utf-8")
    )
    return b"".join((
        _U32.pack(len(ident)), ident,
        _U32.pack(len(state)), state,
        _trace_bytes(trace),
    ))


def decode_hello(
    payload: bytes,
) -> tuple[dict[str, str], Trace, VmSnapshot | None]:
    view = memoryview(payload)

    def section(offset: int, what: str) -> tuple[bytes, int]:
        if len(view) - offset < _U32.size:
            raise TransportProtocolError(f"truncated HELLO {what}")
        (length,) = _U32.unpack_from(view, offset)
        start = offset + _U32.size
        if len(view) - start < length:
            raise TransportProtocolError(f"truncated HELLO {what}")
        return bytes(view[start:start + length]), start + length

    ident, offset = section(0, "identity")
    identity = _loads(ident, what="HELLO identity")
    state, offset = section(offset, "snapshot")
    try:
        snapshot = (
            None if state == b"null" else VmSnapshot.from_json(state)
        )
        trace = _decode_trace(bytes(view[offset:]))
    except SeedFormatError as exc:
        raise TransportProtocolError(
            f"undecodable HELLO context: {exc}"
        ) from exc
    return (
        {str(k): str(v) for k, v in identity.items()},
        trace,
        snapshot,
    )


def encode_hello_ack(worker_pid: int) -> bytes:
    return _dumps({
        "worker_pid": worker_pid, "wire_version": WIRE_VERSION,
    })


def decode_hello_ack(payload: bytes) -> int:
    data = _loads(payload, what="HELLO_ACK")
    pid = data.get("worker_pid")
    if type(pid) is not int:
        raise TransportProtocolError(
            f"malformed HELLO_ACK payload: worker_pid {pid!r}"
        )
    return pid
