"""Unit, differential, and property tests for the IRISTRC2 trace store.

Covers the streaming writer / lazy reader round trip, the index-only
zero-decode contract, the spool-mode memory bound, header-truncation
hardening at every boundary of *both* on-disk formats, Hypothesis
round-trip properties for the binary metrics codec, and the
differential guarantee that legacy ``IRISTRC1`` files keep loading
identically through the new reader path.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.arch.fields import ALL_FIELDS
from repro.core.record import Recorder
from repro.core.seed import (
    ExitMetrics,
    SeedEntry,
    Trace,
    VMExitRecord,
    VMSeed,
)
from repro.core.tracestore import (
    MAGIC,
    TraceLike,
    TraceReader,
    TraceWriter,
    open_trace,
    pack_metrics,
    unpack_metrics,
    write_trace,
)
from repro.errors import SeedFormatError
from repro.hypervisor.hypervisor import Hypervisor
from repro.hypervisor.domain import DomainType
from repro.vmx.exit_reasons import ExitReason
from repro.vmx.vmcs_fields import VmcsField
from repro.x86.registers import GPR

from tests.hypervisor.util import deliver

_VALUE_MASK = (1 << 64) - 1


def make_record(i: int = 0) -> VMExitRecord:
    seed = VMSeed(
        exit_reason=int(ExitReason.RDTSC) if i % 2 else
        int(ExitReason.CPUID),
        entries=[
            SeedEntry.for_gpr(GPR.RAX, 0x1000 + i),
            SeedEntry.for_gpr(GPR.RBX, i),
        ],
    )
    metrics = ExitMetrics(
        vmwrites=[
            (VmcsField.GUEST_RIP, 0x2000 + i),
            (VmcsField.GUEST_CR0, 0x11),
        ],
        coverage_lines=frozenset({
            ("handlers/cpuid.c", 10 + i), ("dispatch.c", 3),
        }),
        handler_cycles=90_000 + i,
        guest_cycles=1_000_000 + i,
    )
    return VMExitRecord(seed=seed, metrics=metrics)


def make_trace(n: int = 10, workload: str = "unit") -> Trace:
    return Trace(
        workload=workload, records=[make_record(i) for i in range(n)]
    )


# ---- writer / reader round trip --------------------------------------


class TestRoundTrip:
    def test_records_and_workload_survive(self, tmp_path):
        trace = make_trace(10)
        path = tmp_path / "t.iris2"
        write_trace(trace, path, flush_every=4)
        with TraceReader(path) as reader:
            assert reader.workload == "unit"
            assert len(reader) == 10
            assert list(reader) == trace.records

    def test_random_access_and_slices(self, tmp_path):
        trace = make_trace(8)
        path = tmp_path / "t.iris2"
        write_trace(trace, path)
        with TraceReader(path) as reader:
            assert reader[3] == trace.records[3]
            assert reader[-1] == trace.records[-1]
            assert reader.records[2:5] == trace.records[2:5]
            assert reader.records[::3] == trace.records[::3]
            with pytest.raises(IndexError):
                reader[8]
            with pytest.raises(IndexError):
                reader[-9]

    def test_trace_api_parity(self, tmp_path):
        trace = make_trace(6)
        path = tmp_path / "t.iris2"
        write_trace(trace, path)
        with TraceReader(path) as reader:
            assert reader.reasons() == trace.reasons()
            assert reader.reason_histogram() == \
                trace.reason_histogram()
            assert reader.seeds() == trace.seeds()
            assert reader.total_guest_cycles() == \
                trace.total_guest_cycles()
            assert reader.cumulative_coverage() == \
                trace.cumulative_coverage()
            materialized = reader.materialize()
        assert materialized.workload == trace.workload
        assert materialized.records == trace.records

    def test_empty_trace(self, tmp_path):
        path = tmp_path / "empty.iris2"
        write_trace(Trace(workload="nothing"), path)
        with TraceReader(path) as reader:
            assert len(reader) == 0
            assert list(reader) == []
            assert reader.reason_histogram() == {}
            assert reader.workload == "nothing"

    def test_writer_is_byte_deterministic(self, tmp_path):
        trace = make_trace(7)
        a, b = tmp_path / "a.iris2", tmp_path / "b.iris2"
        write_trace(trace, a)
        write_trace(trace, b)
        assert a.read_bytes() == b.read_bytes()

    def test_append_after_close_raises(self, tmp_path):
        writer = TraceWriter(tmp_path / "t.iris2", workload="w")
        writer.close()
        with pytest.raises(SeedFormatError, match="closed"):
            writer.append(make_record())
        writer.close()  # idempotent

    def test_both_shapes_satisfy_tracelike(self, tmp_path):
        trace = make_trace(2)
        path = tmp_path / "t.iris2"
        write_trace(trace, path)
        assert isinstance(trace, TraceLike)
        with TraceReader(path) as reader:
            assert isinstance(reader, TraceLike)

    def test_open_trace_dispatches_on_magic(self, tmp_path):
        trace = make_trace(3)
        v1, v2 = tmp_path / "t.iris", tmp_path / "t.iris2"
        trace.save(v1)
        write_trace(trace, v2)
        legacy = open_trace(v1)
        assert isinstance(legacy, Trace)
        assert legacy.records == trace.records
        lazy = open_trace(v2)
        assert isinstance(lazy, TraceReader)
        with lazy:
            assert list(lazy) == trace.records


# ---- laziness: the zero-decode contract ------------------------------


class TestLaziness:
    def test_index_only_queries_decode_zero_payload_bytes(
        self, tmp_path
    ):
        trace = make_trace(20)
        path = tmp_path / "t.iris2"
        write_trace(trace, path)
        with TraceReader(path) as reader:
            assert len(reader) == 20
            assert reader.reasons() == trace.reasons()
            assert reader.reason_histogram() == \
                trace.reason_histogram()
            assert reader.reason_ints() == [
                s.exit_reason & 0xFFFF for s in trace.seeds()
            ]
            assert reader.stats.records_decoded == 0

    def test_getitem_decodes_exactly_one_record(self, tmp_path):
        trace = make_trace(20)
        path = tmp_path / "t.iris2"
        write_trace(trace, path)
        with TraceReader(path) as reader:
            reader[7]
            assert reader.stats.records_decoded == 1
            reader.records[3:6]
            assert reader.stats.records_decoded == 4


# ---- spool-mode memory bound -----------------------------------------


class TestWriterSpooling:
    def test_peak_buffered_records_bounded_by_flush_batch(
        self, tmp_path
    ):
        path = tmp_path / "t.iris2"
        with TraceWriter(path, workload="w", flush_every=16) as writer:
            for i in range(500):
                writer.append(make_record(i))
        stats = writer.stats
        assert stats.records_written == 500
        assert stats.peak_buffered_records <= 16
        assert stats.flushes >= 500 // 16
        assert stats.payload_bytes > 0

    def test_flush_every_one_never_buffers_two(self, tmp_path):
        path = tmp_path / "t.iris2"
        with TraceWriter(path, workload="w", flush_every=1) as writer:
            for i in range(10):
                writer.append(make_record(i))
        assert writer.stats.peak_buffered_records == 1

    def test_unsealed_file_is_rejected(self, tmp_path):
        path = tmp_path / "t.iris2"
        writer = TraceWriter(path, workload="w", flush_every=2)
        for i in range(6):
            writer.append(make_record(i))
        writer.flush()
        # Simulate a crash before close(): payload is on disk, the
        # footer is not.
        writer._fh.close()  # type: ignore[union-attr]
        writer._fh = None
        with pytest.raises(SeedFormatError, match="trailer"):
            TraceReader(path)


# ---- spool-mode recording through the Recorder/manager ---------------


def _deliver_workload(recorder_kwargs):
    """One deterministic recording run on a fresh hypervisor."""
    hv = Hypervisor()
    domain = hv.create_domain(DomainType.HVM, name="test-vm")
    domain.populate_identity_map(64)
    vcpu = domain.vcpus[0]
    recorder = Recorder(hv, vcpu, workload="unit", **recorder_kwargs)
    recorder.start()
    for i in range(10):
        vcpu.regs.write_gpr(GPR.RAX, 0x100 + i)
        deliver(hv, vcpu, ExitReason.CPUID)
        deliver(hv, vcpu, ExitReason.RDTSC)
    recorder.stop()
    recorder.detach()
    recorder.close_spool()
    return recorder


class TestRecorderSpoolMode:
    def test_spool_matches_in_ram_recording_exactly(self, tmp_path):
        path = tmp_path / "spool.iris2"
        in_ram = _deliver_workload({})
        spooled = _deliver_workload({"spool_to": path,
                                     "flush_every": 4})
        assert spooled.spooling and not in_ram.spooling
        assert len(spooled.trace) == 0  # nothing materialized
        with TraceReader(path) as reader:
            assert list(reader) == in_ram.trace.records
        assert spooled.stats.exits_recorded == \
            in_ram.stats.exits_recorded

    def test_spool_memory_bound_holds_one_flush_batch(self, tmp_path):
        path = tmp_path / "spool.iris2"
        recorder = _deliver_workload({"spool_to": path,
                                      "flush_every": 4})
        assert recorder.writer is not None
        assert recorder.stats.exits_recorded == 20
        assert recorder.writer.stats.records_written == 20
        assert recorder.writer.stats.peak_buffered_records <= 4

    def test_done_counts_spooled_exits(self, tmp_path):
        path = tmp_path / "spool.iris2"
        recorder = _deliver_workload({"spool_to": path,
                                      "max_records": 5})
        assert recorder.done
        assert recorder.stats.exits_recorded == 5
        with TraceReader(path) as reader:
            assert len(reader) == 5

    def test_vmcs_ops_counter_matches_buffered_state(self):
        # The incremental counter replacing the O(ops^2) rescan must
        # agree with a from-scratch recount of the scratch buffers.
        hv = Hypervisor()
        domain = hv.create_domain(DomainType.HVM, name="test-vm")
        domain.populate_identity_map(64)
        vcpu = domain.vcpus[0]
        recorder = Recorder(hv, vcpu, workload="unit")
        recorder.start()
        for reason in (ExitReason.CPUID, ExitReason.CR_ACCESS,
                       ExitReason.RDTSC):
            deliver(hv, vcpu, reason)
            recount = sum(
                1 for e in recorder._entries
                if e.flag.name != "GPR"
            ) + len(recorder._vmwrites)
            assert recorder._vmcs_ops_buffered() == recount
        recorder.stop()
        recorder.detach()

    def test_manager_spool_session_is_a_lazy_reader(self, tmp_path):
        from repro.core.manager import IrisManager

        path = tmp_path / "session.iris2"
        plain = IrisManager().record_workload(
            "cpu-bound", n_exits=60, precondition="none"
        )
        spooled = IrisManager().record_workload(
            "cpu-bound", n_exits=60, precondition="none",
            spool_to=path,
        )
        reader = spooled.trace
        assert isinstance(reader, TraceReader)
        assert reader.reason_histogram() == \
            plain.trace.reason_histogram()
        assert reader.stats.records_decoded == 0
        assert list(reader) == plain.trace.records
        reader.close()


# ---- binary metrics codec: properties and hardening ------------------

_metrics_values = st.integers(min_value=0, max_value=(1 << 66))
_vmwrites = st.lists(
    st.tuples(st.sampled_from(ALL_FIELDS), _metrics_values),
    max_size=40,
)
_coverage = st.frozensets(
    st.tuples(
        st.text(min_size=1, max_size=30).filter(
            lambda s: "\x00" not in s
        ),
        st.integers(min_value=0, max_value=(1 << 32) - 1),
    ),
    max_size=30,
)
_metrics = st.builds(
    ExitMetrics,
    vmwrites=_vmwrites,
    coverage_lines=_coverage,
    handler_cycles=_metrics_values,
    guest_cycles=_metrics_values,
)


class TestMetricsCodecProperties:
    @settings(max_examples=200, deadline=None)
    @given(metrics=_metrics)
    def test_round_trip(self, metrics):
        names: dict[str, int] = {}
        blob = pack_metrics(metrics, names)
        table = tuple(names)  # insertion order == id order
        decoded = unpack_metrics(blob, table)
        # Values are masked to the 64-bit wire width, exactly like the
        # seed codec; everything else survives bit-for-bit.
        assert decoded.vmwrites == [
            (f, v & _VALUE_MASK) for f, v in metrics.vmwrites
        ]
        assert decoded.coverage_lines == metrics.coverage_lines
        assert decoded.handler_cycles == \
            metrics.handler_cycles & _VALUE_MASK
        assert decoded.guest_cycles == \
            metrics.guest_cycles & _VALUE_MASK

    @settings(max_examples=100, deadline=None)
    @given(metrics=_metrics)
    def test_encoding_is_deterministic(self, metrics):
        names_a: dict[str, int] = {}
        names_b: dict[str, int] = {}
        assert pack_metrics(metrics, names_a) == \
            pack_metrics(metrics, names_b)
        assert names_a == names_b

    @settings(max_examples=100, deadline=None)
    @given(metrics=_metrics, cut=st.integers(min_value=1, max_value=8))
    def test_any_truncation_is_rejected(self, metrics, cut):
        names: dict[str, int] = {}
        blob = pack_metrics(metrics, names)
        truncated = blob[:max(0, len(blob) - cut)]
        with pytest.raises(SeedFormatError):
            unpack_metrics(truncated, tuple(names))


class TestMetricsCodecHardening:
    def _blob_and_names(self):
        names: dict[str, int] = {}
        blob = pack_metrics(make_record(0).metrics, names)
        return blob, tuple(names)

    def test_trailing_bytes_rejected(self):
        blob, names = self._blob_and_names()
        with pytest.raises(SeedFormatError, match="trailing"):
            unpack_metrics(blob + b"\x00", names)

    def test_out_of_range_field_index_rejected(self):
        import struct

        bad = struct.pack("<HHQ", 1, 0xFFFF, 0) + \
            struct.pack("<I", 0) + struct.pack("<QQ", 0, 0)
        with pytest.raises(SeedFormatError, match="field index"):
            unpack_metrics(bad, ())

    def test_out_of_range_name_id_rejected(self):
        import struct

        bad = struct.pack("<H", 0) + \
            struct.pack("<III", 1, 99, 1) + struct.pack("<QQ", 0, 0)
        with pytest.raises(SeedFormatError, match="name"):
            unpack_metrics(bad, ("only-one.c",))

    def test_empty_blob_rejected(self):
        with pytest.raises(SeedFormatError, match="truncated"):
            unpack_metrics(b"", ())

    @pytest.mark.parametrize("area", ["vmwrites", "coverage"])
    def test_inflated_count_rejected_before_any_allocation(self, area):
        """A hostile count (up to 0xFFFFFFFF coverage pairs: an 8 GB
        format string) is checked against the bytes actually left
        before a count-sized struct is built or cached."""
        import struct

        from repro.core import tracestore

        if area == "vmwrites":
            bad = struct.pack("<HI", 0xFFFF, 0)
            builder = tracestore._vmwrites_struct
        else:
            bad = struct.pack("<HI", 0, 0xFFFFFFFF)
            builder = tracestore._coverage_struct
        bad += struct.pack("<QQ", 0, 0)
        cached = builder.cache_info().currsize
        with pytest.raises(SeedFormatError, match="truncated"):
            unpack_metrics(bad, ())
        assert builder.cache_info().currsize == cached


# ---- header truncation hardening, both formats -----------------------


class TestHeaderTruncationV1:
    """Every prefix of a legacy IRISTRC1 header fails with
    SeedFormatError — never a raw struct.error or IndexError."""

    def _v1_bytes(self, tmp_path):
        path = tmp_path / "t.iris"
        make_trace(3, workload="wl").save(path)
        return path.read_bytes()

    def test_every_header_boundary(self, tmp_path):
        blob = self._v1_bytes(tmp_path)
        header_len = 8 + 2 + len(b"wl") + 4
        path = tmp_path / "cut.iris"
        for cut in range(header_len):
            path.write_bytes(blob[:cut])
            with pytest.raises(SeedFormatError):
                Trace.load(path)

    def test_truncated_record_region(self, tmp_path):
        blob = self._v1_bytes(tmp_path)
        path = tmp_path / "cut.iris"
        for cut in (len(blob) - 1, len(blob) - 5, len(blob) - 20):
            path.write_bytes(blob[:cut])
            with pytest.raises(SeedFormatError):
                Trace.load(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.iris"
        path.write_bytes(b"")
        with pytest.raises(SeedFormatError):
            Trace.load(path)

    def test_non_utf8_workload_name(self, tmp_path):
        blob = self._v1_bytes(tmp_path)
        path = tmp_path / "bad-name.iris"
        # The two name bytes ("wl") follow the magic and length prefix.
        path.write_bytes(blob[:10] + b"\xff\xfe" + blob[12:])
        with pytest.raises(SeedFormatError, match="workload name"):
            Trace.load(path)


class TestHeaderTruncationV2:
    def _v2_bytes(self, tmp_path):
        path = tmp_path / "t.iris2"
        write_trace(make_trace(3, workload="wl"), path)
        return path.read_bytes()

    def test_every_prefix_is_rejected(self, tmp_path):
        # The v2 trailer is load-bearing, so *any* truncation — header,
        # payload, name table, index, or trailer — must fail cleanly.
        blob = self._v2_bytes(tmp_path)
        path = tmp_path / "cut.iris2"
        for cut in range(len(blob)):
            path.write_bytes(blob[:cut])
            with pytest.raises(SeedFormatError):
                TraceReader(path)

    def test_corrupt_trailer_offsets_rejected(self, tmp_path):
        import struct

        blob = self._v2_bytes(tmp_path)
        names_off, index_off, count, tail = struct.unpack(
            "<QQQ8s", blob[-32:]
        )
        path = tmp_path / "bad.iris2"
        for bad_trailer in (
            struct.pack("<QQQ8s", len(blob), index_off, count, tail),
            struct.pack("<QQQ8s", names_off, names_off - 1, count,
                        tail),
            struct.pack("<QQQ8s", names_off, index_off, count + 7,
                        tail),
            struct.pack("<QQQ8s", names_off, index_off, count,
                        b"NOTMAGIC"),
        ):
            path.write_bytes(blob[:-32] + bad_trailer)
            with pytest.raises(SeedFormatError):
                TraceReader(path)

    def test_not_a_v2_file(self, tmp_path):
        path = tmp_path / "junk"
        path.write_bytes(b"garbage!" + b"\x00" * 64)
        with pytest.raises(SeedFormatError, match="not an IRISTRC2"):
            TraceReader(path)


# ---- differential: IRISTRC1 compatibility through the new path -------


class TestV1Compatibility:
    def test_recorded_v1_reloads_identically(self, tmp_path):
        recorder = _deliver_workload({})
        trace = recorder.trace
        v1 = tmp_path / "t.iris"
        trace.save(v1)
        via_load = Trace.load(v1)
        via_open = open_trace(v1)
        assert via_load.workload == via_open.workload == \
            trace.workload
        assert via_load.records == via_open.records == trace.records

    def test_v1_and_v2_decode_to_identical_records(self, tmp_path):
        recorder = _deliver_workload({})
        trace = recorder.trace
        v1, v2 = tmp_path / "t.iris", tmp_path / "t.iris2"
        trace.save(v1)
        write_trace(trace, v2)
        from_v1 = Trace.load(v1)
        with TraceReader(v2) as reader:
            from_v2 = reader.materialize()
        assert from_v1.workload == from_v2.workload
        assert from_v1.records == from_v2.records

    def test_trace_load_auto_detects_v2(self, tmp_path):
        trace = make_trace(4)
        v2 = tmp_path / "t.iris2"
        write_trace(trace, v2)
        loaded = Trace.load(v2)
        assert isinstance(loaded, Trace)
        assert loaded.workload == trace.workload
        assert loaded.records == trace.records

    def test_trace_magic_unchanged(self):
        # The legacy magic is the compatibility anchor; the new one
        # must differ in exactly the version byte.
        assert Trace.MAGIC == b"IRISTRC1"
        assert MAGIC == b"IRISTRC2"
        assert Trace.MAGIC[:7] == MAGIC[:7]


# ---- lazy consumers over the reader ----------------------------------


class TestLazyConsumers:
    def test_plan_test_cases_decodes_no_payload(self, tmp_path):
        from repro.fuzz.mutations import MutationArea
        from repro.fuzz.testcase import plan_test_cases

        trace = make_trace(12)
        path = tmp_path / "t.iris2"
        write_trace(trace, path)
        with TraceReader(path) as reader:
            cases = plan_test_cases(
                reader, [ExitReason.CPUID, ExitReason.RDTSC],
                areas=(MutationArea.GPR,), n_mutations=10,
            )
            assert len(cases) == 2
            assert reader.stats.records_decoded == 0
            # target_seed then decodes exactly the chosen records
            for case in cases:
                assert case.target_seed == \
                    trace.records[case.seed_index].seed

    def test_planning_rng_stream_identical_to_trace(self, tmp_path):
        import random

        from repro.fuzz.mutations import MutationArea
        from repro.fuzz.testcase import plan_test_cases

        trace = make_trace(12)
        path = tmp_path / "t.iris2"
        write_trace(trace, path)
        reasons = [ExitReason.CPUID, ExitReason.RDTSC]
        eager = plan_test_cases(
            trace, reasons, areas=(MutationArea.VMCS,),
            n_mutations=10, rng=random.Random(42),
        )
        with TraceReader(path) as reader:
            lazy = plan_test_cases(
                reader, reasons, areas=(MutationArea.VMCS,),
                n_mutations=10, rng=random.Random(42),
            )
        assert [c.seed_index for c in eager] == \
            [c.seed_index for c in lazy]

    def test_tracetools_accept_reader(self, tmp_path):
        from repro.core.tracetools import (
            filter_by_reason,
            slice_trace,
            trace_stats,
        )

        trace = make_trace(10)
        path = tmp_path / "t.iris2"
        write_trace(trace, path)
        with TraceReader(path) as reader:
            assert slice_trace(reader, 2, 6).records == \
                trace.records[2:6]
            assert filter_by_reason(
                reader, [ExitReason.CPUID]
            ).records == [
                r for r in trace.records
                if r.seed.reason is ExitReason.CPUID
            ]
            assert trace_stats(reader) == trace_stats(trace)

    def test_minimize_original_seed_decodes_one_record(
        self, tmp_path
    ):
        from repro.fuzz.minimize import original_seed

        trace = make_trace(9)
        path = tmp_path / "t.iris2"
        write_trace(trace, path)
        with TraceReader(path) as reader:
            assert original_seed(reader, 4) == \
                trace.records[4].seed
            assert reader.stats.records_decoded == 1
            with pytest.raises(ValueError, match="outside"):
                original_seed(reader, 9)


# ---- the CLI surface -------------------------------------------------


class TestSpoolCli:
    def test_record_spool_writes_v2_and_inspects(self, tmp_path,
                                                 capsys):
        from repro.core.cli import main

        trace_file = str(tmp_path / "t.iris2")
        assert main([
            "record", "-w", "cpu-bound", "-n", "30",
            "-p", "none", "-o", trace_file,
        ]) == 0
        assert "recorded 30 exits" in capsys.readouterr().out
        with open(trace_file, "rb") as fh:
            assert fh.read(8) == MAGIC

        assert main(["inspect", trace_file]) == 0
        out = capsys.readouterr().out
        assert "records:  30" in out

        # The streamed file replays like any other trace.
        assert main(["replay", trace_file]) == 0
        assert "replayed 30/30" in capsys.readouterr().out

    def test_spool_and_plain_record_same_behavior(self, tmp_path,
                                                  capsys):
        """The CLI's streamed recording holds exactly the records an
        in-RAM recording of the same workload does."""
        from repro.core.cli import main
        from repro.core.manager import IrisManager

        plain = IrisManager().record_workload(
            "cpu-bound", n_exits=25, precondition="none",
        ).trace
        spooled = str(tmp_path / "spooled.iris2")
        assert main(["record", "-w", "cpu-bound", "-n", "25",
                     "-p", "none", "-o", spooled]) == 0
        capsys.readouterr()
        assert Trace.load(spooled).records == plain.records

    def test_fuzz_trace_out_streams_campaign_input(self, tmp_path,
                                                   capsys):
        from repro.fuzz.cli import main as fuzz_main

        out = str(tmp_path / "campaign.iris2")
        code = fuzz_main([
            "-w", "cpu-bound", "-n", "40", "--mutations", "2",
            "--reasons", "RDTSC", "--area", "gpr",
            "--trace-out", out,
        ])
        assert code in (0, 3)
        assert f"campaign input trace -> {out}" in \
            capsys.readouterr().out
        with TraceReader(out) as reader:
            assert len(reader) == 40
            assert "RDTSC" in reader.reason_histogram()
