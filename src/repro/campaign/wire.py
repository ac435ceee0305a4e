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

* shard tasks and outcomes travel as canonical JSON envelopes whose
  seed-bearing rows (corpus entries, failure seeds) go through the
  batched seed codec (:func:`repro.core.seed.pack_entries`) — the same
  exact-round-trip layout the campaign store persists;
* metrics snapshots go through :meth:`MetricsSnapshot.to_json`;
* the one-time HELLO context (recorded trace + snapshot) is pickled —
  the controller and its workers are one trust domain, exactly as the
  local pool's ``multiprocessing`` channel already assumes.

Decoding is strict: truncation, bad magic, an oversized length, or an
undecodable payload all raise :class:`TransportProtocolError`; the
transport layer treats the link as dead and reassigns the in-flight
shard rather than guessing.
"""

from __future__ import annotations

import base64
import enum
import json
import pickle
import socket
import struct
from typing import Any, Mapping

from repro.core.seed import Trace, VMSeed, pack_entries, unpack_entries
from repro.core.snapshot import VmSnapshot
from repro.errors import TransportProtocolError
from repro.fuzz.corpus import Corpus, CorpusEntry
from repro.fuzz.differential import DivergenceKind, DivergenceRecord
from repro.fuzz.failures import FailureKind, FailureRecord
from repro.fuzz.fuzzer import FuzzResult
from repro.fuzz.mutations import MutationArea
from repro.fuzz.parallel import ShardOutcome, ShardTask
from repro.obs import MetricsSnapshot
from repro.vmx.exit_reasons import ExitReason

#: Bump on any incompatible frame or payload change.  Carried in every
#: frame header; a mismatch is refused before the payload is touched.
#: v2: differential mode — tasks carry the ``differential`` flag,
#: results carry divergence records and comparison tallies.
#: v3: mutation engines — tasks carry the ``engine`` name, so a
#: remote worker runs the same staged pipeline (or the same PoC
#: stack) the controller planned.
#: v4: tasks no longer carry a ``fast_reset`` flag — every shard runs
#: the one (fast) reset policy.
WIRE_VERSION = 4

#: First bytes of every frame; a link that does not start with them is
#: not an iris worker link.
MAGIC = b"IRIS"

_HEADER = struct.Struct("!4sHHI")

#: Ceiling on a single frame's payload (guards against reading a
#: garbage length as a multi-gigabyte allocation).  Recorded traces of
#: a few hundred thousand exits fit comfortably.
MAX_PAYLOAD_BYTES = 1 << 30


class FrameKind(enum.IntEnum):
    """Every message the protocol speaks."""

    #: Controller -> worker, once per connection: campaign identity
    #: plus the pickled (trace, snapshot) execution context.
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
        chunk = sock.recv(n - got)
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
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise TransportProtocolError(
            f"undecodable {what} payload: {exc}"
        ) from exc
    if not isinstance(decoded, dict):
        raise TransportProtocolError(
            f"malformed {what} payload: expected an object, got "
            f"{type(decoded).__name__}"
        )
    return decoded


def _encode_seed(seed: VMSeed) -> dict[str, Any]:
    """A seed as (full exit reason, entry count, batched-codec blob).

    ``VMSeed.pack`` masks the reason to 16 bits, so the full integer
    rides beside the blob — the same faithfulness rule the campaign
    store follows.
    """
    return {
        "exit_reason": seed.exit_reason,
        "count": len(seed.entries),
        "entries": base64.b64encode(
            pack_entries(seed.entries)
        ).decode("ascii"),
    }


def _decode_seed(payload: dict[str, Any]) -> VMSeed:
    try:
        return VMSeed(
            exit_reason=payload["exit_reason"],
            entries=unpack_entries(
                base64.b64decode(payload["entries"]),
                payload["count"],
            ),
        )
    except TransportProtocolError:
        raise
    except Exception as exc:
        raise TransportProtocolError(
            f"undecodable seed in result payload: {exc}"
        ) from exc


# ---- task / outcome codecs -------------------------------------------

def encode_task(task: ShardTask) -> bytes:
    """A :class:`ShardTask` as a canonical JSON envelope."""
    return _dumps({
        "cell_index": task.cell_index,
        "shard_index": task.shard_index,
        "seed_index": task.seed_index,
        "area": task.area.value,
        "n_mutations": task.n_mutations,
        "mutation_rule": task.mutation_rule,
        "engine": task.engine,
        "rng_seed": task.rng_seed,
        "attempt": task.attempt,
        "arch": task.arch,
        "fault_kind": task.fault_kind,
        "collect_metrics": task.collect_metrics,
        "differential": task.differential,
    })


def decode_task(payload: bytes) -> ShardTask:
    data = _loads(payload, what="task")
    try:
        return ShardTask(
            cell_index=data["cell_index"],
            shard_index=data["shard_index"],
            seed_index=data["seed_index"],
            area=MutationArea(data["area"]),
            n_mutations=data["n_mutations"],
            mutation_rule=data["mutation_rule"],
            engine=data["engine"],
            rng_seed=data["rng_seed"],
            attempt=data["attempt"],
            arch=data["arch"],
            fault_kind=data["fault_kind"],
            collect_metrics=data["collect_metrics"],
            differential=data["differential"],
        )
    except (KeyError, ValueError) as exc:
        raise TransportProtocolError(
            f"malformed task payload: {exc!r}"
        ) from exc


def _encode_result(result: FuzzResult) -> dict[str, Any]:
    return {
        "workload": result.workload,
        "exit_reason": int(result.exit_reason.value),
        "area": result.area.value,
        "mutations_run": result.mutations_run,
        "baseline_loc": result.baseline_loc,
        "new_loc": result.new_loc,
        "vm_crashes": result.vm_crashes,
        "hypervisor_crashes": result.hypervisor_crashes,
        "new_lines": sorted(
            [file, line] for file, line in result.new_lines
        ),
        "corpus": [
            {
                "reason_kept": entry.reason_kept,
                "new_loc": entry.new_loc,
                "fingerprint": entry.coverage_fingerprint,
                "seed": _encode_seed(entry.seed),
            }
            for entry in result.corpus.entries
        ],
        "failures": [
            {
                "kind": record.kind.value,
                "cause": record.cause,
                "crash_reason": record.crash_reason,
                "mutation_index": record.mutation_index,
                "seed": _encode_seed(record.seed),
                "log_tail": list(record.log_tail),
            }
            for record in result.failures
        ],
        "seeds_compared": result.seeds_compared,
        "untranslatable_seeds": result.untranslatable_seeds,
        "divergences": [
            {
                "kind": record.kind.value,
                "mutation_index": record.mutation_index,
                "vmx_outcome": record.vmx_outcome,
                "svm_outcome": record.svm_outcome,
                "detail": record.detail,
                "seed": _encode_seed(record.seed),
            }
            for record in result.divergences
        ],
    }


def _decode_result(data: dict[str, Any]) -> FuzzResult:
    return FuzzResult(
        workload=data["workload"],
        exit_reason=ExitReason(data["exit_reason"]),
        area=MutationArea(data["area"]),
        mutations_run=data["mutations_run"],
        baseline_loc=data["baseline_loc"],
        new_loc=data["new_loc"],
        vm_crashes=data["vm_crashes"],
        hypervisor_crashes=data["hypervisor_crashes"],
        new_lines=frozenset(
            (file, line) for file, line in data["new_lines"]
        ),
        corpus=Corpus.from_entries(
            CorpusEntry(
                seed=_decode_seed(entry["seed"]),
                reason_kept=entry["reason_kept"],
                new_loc=entry["new_loc"],
                coverage_fingerprint=entry["fingerprint"],
            )
            for entry in data["corpus"]
        ),
        failures=[
            FailureRecord(
                kind=FailureKind(record["kind"]),
                cause=record["cause"],
                crash_reason=record["crash_reason"],
                mutation_index=record["mutation_index"],
                seed=_decode_seed(record["seed"]),
                log_tail=tuple(record["log_tail"]),
            )
            for record in data["failures"]
        ],
        seeds_compared=data["seeds_compared"],
        untranslatable_seeds=data["untranslatable_seeds"],
        divergences=tuple(
            DivergenceRecord(
                kind=DivergenceKind(record["kind"]),
                mutation_index=record["mutation_index"],
                vmx_outcome=record["vmx_outcome"],
                svm_outcome=record["svm_outcome"],
                detail=record["detail"],
                seed=_decode_seed(record["seed"]),
            )
            for record in data["divergences"]
        ),
    )


def encode_outcome(outcome: ShardOutcome) -> bytes:
    """A :class:`ShardOutcome` (result *or* captured fault) as bytes."""
    return _dumps({
        "cell_index": outcome.cell_index,
        "shard_index": outcome.shard_index,
        "attempt": outcome.attempt,
        "result": (
            None if outcome.result is None
            else _encode_result(outcome.result)
        ),
        "error": outcome.error,
        "error_traceback": outcome.error_traceback,
        "duration_seconds": outcome.duration_seconds,
        "worker_pid": outcome.worker_pid,
        "metrics": (
            None if outcome.metrics is None
            else outcome.metrics.to_json()
        ),
    })


def decode_outcome(payload: bytes) -> ShardOutcome:
    data = _loads(payload, what="result")
    try:
        return ShardOutcome(
            cell_index=data["cell_index"],
            shard_index=data["shard_index"],
            attempt=data["attempt"],
            result=(
                None if data["result"] is None
                else _decode_result(data["result"])
            ),
            error=data["error"],
            error_traceback=data["error_traceback"],
            duration_seconds=data["duration_seconds"],
            worker_pid=data["worker_pid"],
            metrics=(
                None if data["metrics"] is None
                else MetricsSnapshot.from_json(data["metrics"])
            ),
        )
    except TransportProtocolError:
        raise
    except Exception as exc:
        raise TransportProtocolError(
            f"malformed result payload: {exc!r}"
        ) from exc


# ---- session handshake ------------------------------------------------

def encode_hello(
    identity: Mapping[str, str],
    trace: Trace,
    snapshot: VmSnapshot | None,
) -> bytes:
    """The once-per-connection context: identity JSON + pickled state.

    The trace and snapshot are arbitrary object graphs; they travel by
    pickle, exactly as the local pool already ships them through its
    ``multiprocessing`` initializer — same objects, same trust domain.
    """
    ident = _dumps({str(k): str(v) for k, v in identity.items()})
    context = pickle.dumps(
        (trace, snapshot), protocol=pickle.HIGHEST_PROTOCOL
    )
    return struct.pack("!I", len(ident)) + ident + context


def decode_hello(
    payload: bytes,
) -> tuple[dict[str, str], Trace, VmSnapshot | None]:
    if len(payload) < 4:
        raise TransportProtocolError("truncated HELLO payload")
    (ident_len,) = struct.unpack_from("!I", payload)
    if len(payload) < 4 + ident_len:
        raise TransportProtocolError("truncated HELLO identity")
    identity = _loads(
        payload[4:4 + ident_len], what="HELLO identity"
    )
    try:
        trace, snapshot = pickle.loads(payload[4 + ident_len:])
    except Exception as exc:
        raise TransportProtocolError(
            f"undecodable HELLO context: {exc!r}"
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
    try:
        return int(data["worker_pid"])
    except (KeyError, TypeError, ValueError) as exc:
        raise TransportProtocolError(
            f"malformed HELLO_ACK payload: {exc!r}"
        ) from exc
