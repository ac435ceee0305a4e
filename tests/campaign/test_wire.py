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

import dataclasses
import socket

import pytest
from hypothesis import given, settings

from repro.campaign import wire
from repro.core.seed import Trace
from repro.errors import TransportProtocolError
from repro.fuzz.mutations import MutationArea
from repro.fuzz.parallel import ShardOutcome, ShardTask
from repro.obs import MetricsRegistry
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
        # A newer peer, and a v3 peer whose tasks still carry the
        # removed ``fast_reset`` flag: both are refused at the header.
        for version in (wire.WIRE_VERSION + 1, 3):
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
    arch="svm", fault_kind=None, collect_metrics=True,
)


class TestCodecs:
    @pytest.mark.parametrize("fault_kind", [None, "raise", "hang"])
    def test_task_round_trip(self, fault_kind):
        task = dataclasses.replace(_BASE_TASK, fault_kind=fault_kind)
        assert wire.decode_task(wire.encode_task(task)) == task

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

    def test_error_outcome_round_trip(self):
        outcome = ShardOutcome(
            cell_index=1, shard_index=2, attempt=0,
            error="InjectedWorkerFault: boom",
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

    def test_hello_ack_round_trip(self):
        payload = wire.encode_hello_ack(31337)
        assert wire.decode_hello_ack(payload) == 31337

    def test_truncated_hello_refused(self):
        with pytest.raises(TransportProtocolError, match="HELLO"):
            wire.decode_hello(b"\x00\x00")
