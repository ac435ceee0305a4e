"""Wire-protocol tests: framing strictness and codec fidelity.

The transport byte-identity contract reduces to two claims checked
here: (1) the frame layer either delivers a frame exactly or raises —
truncation, foreign bytes, and version skew are never half-decoded;
(2) the task/outcome codecs are the identity on round trip, including
the seed blobs (batched codec + full exit reason) and the hermetic
metrics snapshots.  Codec inputs reuse the campaign store's Hypothesis
strategies — the wire format must be exactly as faithful as the store.
"""

from __future__ import annotations

import json
import pickle
import socket
import struct

import pytest
from hypothesis import given, settings

from repro.campaign import WorkerServer, wire
from repro.core.manager import IrisManager
from repro.core.seed import Trace, VMSeed
from repro.errors import TransportProtocolError
from repro.fuzz.failures import FailureKind, FailureRecord
from repro.fuzz.fuzzer import FuzzResult
from repro.fuzz.mutations import MutationArea
from repro.fuzz.parallel import ShardOutcome, ShardTask
from repro.obs import MetricsRegistry
from repro.vmx.exit_reasons import ExitReason
from tests.campaign.test_store import fuzz_results


def _pair() -> tuple[socket.socket, socket.socket]:
    return socket.socketpair()


# ---- frame layer ------------------------------------------------------

class TestFrames:
    @pytest.mark.parametrize("kind", list(wire.FrameKind))
    def test_round_trip_every_kind(self, kind):
        a, b = _pair()
        try:
            payload = bytes(range(7)) if kind != wire.FrameKind.BYE \
                else b""
            sent = wire.send_frame(a, kind, payload)
            got = wire.recv_frame(b)
            assert got is not None
            got_kind, got_payload, nbytes = got
            assert got_kind is kind
            assert got_payload == payload
            assert nbytes == sent == 12 + len(payload)
        finally:
            a.close()
            b.close()

    def test_clean_close_at_boundary_is_none(self):
        a, b = _pair()
        try:
            wire.send_frame(a, wire.FrameKind.HEARTBEAT, b"")
            a.close()
            assert wire.recv_frame(b) is not None
            assert wire.recv_frame(b) is None
        finally:
            b.close()

    def test_eof_mid_frame_raises(self):
        a, b = _pair()
        try:
            frame = wire.encode_frame(wire.FrameKind.TASK, b"x" * 64)
            a.sendall(frame[: len(frame) // 2])
            a.close()
            with pytest.raises(TransportProtocolError,
                               match="mid-frame"):
                wire.recv_frame(b)
        finally:
            b.close()

    def test_bad_magic_refused(self):
        a, b = _pair()
        try:
            frame = wire.encode_frame(wire.FrameKind.TASK, b"")
            a.sendall(b"JUNK" + frame[4:])
            with pytest.raises(TransportProtocolError, match="magic"):
                wire.recv_frame(b)
        finally:
            a.close()
            b.close()

    def test_version_skew_refused(self):
        # A newer peer, a v4 peer (pickled HELLO context, tasks with a
        # ``fault_kind``) and a v3 peer whose tasks still carry the
        # removed ``fast_reset`` flag: all are refused at the header.
        for version in (wire.WIRE_VERSION + 1, 4, 3):
            a, b = _pair()
            try:
                header = wire._HEADER.pack(
                    wire.MAGIC, version, int(wire.FrameKind.TASK), 0,
                )
                a.sendall(header)
                with pytest.raises(
                    TransportProtocolError,
                    match=f"wire version {version} is not supported",
                ):
                    wire.recv_frame(b)
            finally:
                a.close()
                b.close()

    def test_unknown_kind_refused(self):
        a, b = _pair()
        try:
            header = wire._HEADER.pack(
                wire.MAGIC, wire.WIRE_VERSION, 99, 0,
            )
            a.sendall(header)
            with pytest.raises(TransportProtocolError,
                               match="frame kind"):
                wire.recv_frame(b)
        finally:
            a.close()
            b.close()

    def test_oversized_length_refused_before_read(self):
        a, b = _pair()
        try:
            header = wire._HEADER.pack(
                wire.MAGIC, wire.WIRE_VERSION,
                int(wire.FrameKind.TASK),
                wire.MAX_PAYLOAD_BYTES + 1,
            )
            a.sendall(header)
            with pytest.raises(TransportProtocolError,
                               match="ceiling"):
                wire.recv_frame(b)
        finally:
            a.close()
            b.close()

    def test_oversized_payload_refused_on_send(self):
        class Huge(bytes):
            def __len__(self) -> int:
                return wire.MAX_PAYLOAD_BYTES + 1

        with pytest.raises(TransportProtocolError, match="ceiling"):
            wire.encode_frame(wire.FrameKind.TASK, Huge())

    def test_undecodable_json_payload_refused(self):
        with pytest.raises(TransportProtocolError,
                           match="undecodable"):
            wire.decode_task(b"\xff\xfe not json")
        with pytest.raises(TransportProtocolError, match="malformed"):
            wire.decode_task(b"[1, 2, 3]")


# ---- codecs -----------------------------------------------------------

_BASE_TASK = ShardTask(
    cell_index=3, shard_index=1, seed_index=17,
    area=MutationArea.VMCS, n_mutations=9,
    mutation_rule="bit-flip", rng_seed=0xDEADBEEF, attempt=1,
    arch="svm", collect_metrics=True,
)


_FAILED_SHARD = ShardOutcome(
    cell_index=0, shard_index=0, attempt=0, duration_seconds=0.5,
    worker_pid=7, metrics=MetricsRegistry(record_wall=False).snapshot(),
    result=FuzzResult(
        workload="cpu-bound", exit_reason=ExitReason.RDTSC,
        area=MutationArea.VMCS, mutations_run=3, hypervisor_crashes=1,
        new_lines=frozenset({("a.c", 1)}),
        failures=[FailureRecord(
            kind=FailureKind.HYPERVISOR_CRASH, cause="c",
            crash_reason="r", mutation_index=2, log_tail=("x",),
            seed=VMSeed(exit_reason=int(ExitReason.RDTSC), entries=[]),
        )],
    ),
)


class TestCodecs:
    def test_task_round_trip(self):
        assert wire.decode_task(wire.encode_task(_BASE_TASK)) \
            == _BASE_TASK

    @pytest.mark.parametrize("field, value", [
        ("cell_index", "x"),
        ("attempt", None),
        ("rng_seed", 1.5),
        ("shard_index", True),
        ("collect_metrics", 1),
        ("area", 7),
        ("area", "no-such-area"),
        ("engine", None),
    ])
    def test_mistyped_task_field_refused(self, field, value):
        data = json.loads(wire.encode_task(_BASE_TASK))
        data[field] = value
        with pytest.raises(TransportProtocolError, match="malformed"):
            wire.decode_task(json.dumps(data).encode())

    @pytest.mark.parametrize("change", ["missing", "extra"])
    def test_task_field_set_is_exact(self, change):
        data = json.loads(wire.encode_task(_BASE_TASK))
        if change == "missing":
            del data["attempt"]
        else:
            data["fault_kind"] = "hang"
        with pytest.raises(TransportProtocolError, match="malformed"):
            wire.decode_task(json.dumps(data).encode())

    @settings(max_examples=25, deadline=None)
    @given(result=fuzz_results())
    def test_outcome_round_trip_is_identity(self, result):
        registry = MetricsRegistry(record_wall=False)
        registry.inc("exits_handled", value=41)
        registry.observe("exit_cycles", 1200, reason="CPUID")
        outcome = ShardOutcome(
            cell_index=2, shard_index=0, attempt=1,
            result=result, duration_seconds=0.25, worker_pid=4242,
            metrics=registry.snapshot(),
        )
        rt = wire.decode_outcome(wire.encode_outcome(outcome))
        assert rt == outcome
        assert rt.metrics is not None and outcome.metrics is not None
        assert rt.metrics.to_json() == outcome.metrics.to_json()

    @pytest.mark.parametrize("path, value", [
        (("worker_pid",), True),
        (("duration_seconds",), "0.5"),
        (("error",), 3),
        (("metrics",), {}),
        (("result", "mutations_run"), "x"),
        (("result", "exit_reason"), "RDTSC"),
        (("result", "new_lines"), [["a.c"]]),
        (("result", "failures", 0, "kind"), "bogus"),
        (("result", "failures", 0, "log_tail"), "tail"),
        (("result", "failures", 0, "seed", "count"), None),
        (("result", "corpus"), {}),
    ])
    def test_mistyped_outcome_field_refused(self, path, value):
        data = json.loads(wire.encode_outcome(_FAILED_SHARD))
        target = data
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        with pytest.raises(TransportProtocolError, match="malformed"):
            wire.decode_outcome(json.dumps(data).encode())

    def test_error_outcome_round_trip(self):
        outcome = ShardOutcome(
            cell_index=1, shard_index=2, attempt=0,
            error="RuntimeError: boom",
            error_traceback="Traceback ...", duration_seconds=0.5,
            worker_pid=7,
        )
        assert wire.decode_outcome(wire.encode_outcome(outcome)) \
            == outcome

    def test_hello_round_trip_carries_context(self):
        identity = {"campaign_seed": "7", "arch": "vmx"}
        trace = Trace(workload="wire-test")
        payload = wire.encode_hello(identity, trace, None)
        got_identity, got_trace, got_snapshot = \
            wire.decode_hello(payload)
        assert got_identity == identity
        assert got_trace == trace
        assert got_snapshot is None

    @pytest.mark.parametrize("arch", ["vmx", "svm"])
    def test_hello_round_trip_of_a_recording(self, arch, tmp_path):
        """A recorded trace and its snapshot survive the HELLO exactly,
        whether the trace is in RAM or a spooled reader, whose file
        bytes travel as they are."""
        manager = IrisManager(arch=arch)
        session = manager.record_workload(
            "cpu-bound", n_exits=40, precondition="boot"
        )
        spooled = IrisManager(arch=arch).record_workload(
            "cpu-bound", n_exits=40, precondition="boot",
            spool_to=tmp_path / "spooled.iris",
        )
        identity = {"arch": arch}
        for trace in (session.trace, spooled.trace):
            payload = wire.encode_hello(
                identity, trace, session.snapshot
            )
            _, got_trace, got_snapshot = wire.decode_hello(payload)
            assert got_trace == session.trace
            assert got_snapshot == session.snapshot
        raw = (tmp_path / "spooled.iris").read_bytes()
        assert wire.encode_hello(
            identity, spooled.trace, None
        ).endswith(raw)

    def test_crafted_pickle_hello_cannot_run_code(self, tmp_path):
        """A HELLO whose context slot holds a pickle that would create
        a file is refused as undecodable, and the file never appears —
        by the decoder and by a live worker alike."""
        marker = tmp_path / "pwned"

        class Exploit:
            def __reduce__(self):
                return (open, (str(marker), "w"))

        ident = json.dumps({"arch": "vmx"}).encode()
        payload = (
            struct.pack("!I", len(ident)) + ident
            + pickle.dumps(Exploit())
        )
        with pytest.raises(TransportProtocolError):
            wire.decode_hello(payload)
        assert not marker.exists()

        with WorkerServer() as server:
            with socket.create_connection(
                ("127.0.0.1", server.port), timeout=10
            ) as sock:
                wire.send_frame(sock, wire.FrameKind.HELLO, payload)
                # The worker drops the session without a HELLO_ACK.
                assert wire.recv_frame(sock) is None
        assert not marker.exists()

    def test_hello_ack_round_trip(self):
        payload = wire.encode_hello_ack(31337)
        assert wire.decode_hello_ack(payload) == 31337

    def test_truncated_hello_refused(self):
        with pytest.raises(TransportProtocolError, match="HELLO"):
            wire.decode_hello(b"\x00\x00")
