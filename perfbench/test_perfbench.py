"""Tests of the end-to-end benchmark itself, at tiny sizes.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from layertrace import LedgerMismatch, SpanTracer  # noqa: E402
from repro.hypervisor.clock import Clock  # noqa: E402
from timing import Phases, calibrated  # noqa: E402
from workloads import (  # noqa: E402
    BootRecordReplay,
    CampaignResume,
    Table1Cell,
    derive_seed,
)

SEED = 7
TINY = {
    "boot-record-replay": lambda: BootRecordReplay(exits=60),
    "table1-cell": lambda: Table1Cell(exits=40, mutants=30),
    "campaign-resume": lambda: CampaignResume(exits=80, mutants=2),
}


@pytest.fixture(scope="module", params=sorted(TINY))
def prepared(request):
    workload = TINY[request.param]()
    inputs, timing = workload.prepare(SEED)
    return workload, inputs, timing


def _traced(workload, inputs, workdir):
    """One traced operation; returns it with its cycle ledger."""
    tracer = SpanTracer()
    tracer.install(Counter())
    try:
        tracer.op_id = 1
        tracer.ledger.begin()
        tracer.active = True
        op = workload.operation(inputs, workdir, 1, Phases())
        tracer.active = False
        ledger = tracer.ledger.end()
    finally:
        tracer.uninstall()
    return op, ledger, tracer


def test_smoke_operation_passes_its_checks(prepared, tmp_path):
    workload, inputs, timing = prepared
    op = workload.operation(inputs, tmp_path, 0, Phases())
    assert op.violations == []
    assert op.attempted >= 1
    assert op.wall() > 0
    assert op.counts["replay_submits"] > 0
    assert list(tmp_path.iterdir()) == []  # scratch files removed


def test_same_seed_same_digest(prepared, tmp_path):
    workload, inputs, _ = prepared
    first = workload.operation(inputs, tmp_path, 0, Phases())
    second = workload.operation(inputs, tmp_path, 1, Phases())
    assert first.digest == second.digest


def test_tampered_digest_is_a_failed_operation(prepared, tmp_path):
    workload, inputs, _ = prepared
    bench = run.Run(workload, SEED, tmp_path)
    bench.expected = "0" * 64
    ops = bench.operations(inputs, 0.0, 1)
    assert len(ops) == 1
    assert bench.attempted == ops[0].attempted
    assert bench.failed == bench.attempted
    assert any("differs from the committed" in p for p in bench.problems)


def test_violated_invariant_is_a_failed_operation(prepared, tmp_path):
    workload, inputs, _ = prepared
    bench = run.Run(workload, SEED, tmp_path)
    op = workload.operation(inputs, tmp_path, 0, Phases())
    op.violations.append("tampered invariant")
    bench.account(op)
    assert bench.failed == bench.attempted == op.attempted
    assert bench.problems == ["tampered invariant"]


def test_traced_digest_equals_untraced(prepared, tmp_path):
    workload, inputs, _ = prepared
    plain = workload.operation(inputs, tmp_path, 0, Phases())
    traced, ledger, tracer = _traced(workload, inputs, tmp_path)
    assert traced.digest == plain.digest
    assert tracer.calls({1})["replay.submit"] > 0
    # the patches are gone again
    assert Clock.charge.__qualname__ == "Clock.charge"


def test_ledger_sum_is_exact_and_repeats(prepared, tmp_path):
    workload, inputs, _ = prepared
    _, first, _ = _traced(workload, inputs, tmp_path)
    _, second, _ = _traced(workload, inputs, tmp_path)
    assert first == second  # exact numbers compare byte for byte
    assert first["world_switch"] > 0
    if workload.name != "boot-record-replay":
        assert first["clock_sync"] > 0


def test_ledger_catches_cycles_outside_charge_and_advance():
    tracer = SpanTracer()
    tracer.install(Counter())
    try:
        tracer.ledger.begin()
        clock = Clock()
        clock.charge("vmread")
        clock.advance(7)
        assert tracer.ledger.end() == {"dispatch_handlers": 800,
                                       "advance_direct": 7}
        tracer.ledger.begin()
        clock.charge("vmread")
        clock.now += 5  # moves the clock behind the ledger's back
        with pytest.raises(LedgerMismatch):
            tracer.ledger.end()
    finally:
        tracer.uninstall()


def test_resumed_campaign_matches_uninterrupted(tmp_path):
    workload = TINY["campaign-resume"]()
    inputs, _ = workload.prepare(SEED)
    resumed = workload.operation(inputs, tmp_path, 0, Phases())
    assert resumed.violations == []
    assert resumed.digest == workload.uninterrupted_digest(inputs)


def test_phases_scale_by_the_calibration_kernel():
    samples: list[float] = []
    phases = Phases(samples)
    with phases.phase("a"):
        pass
    with phases.phase("b"):
        pass
    assert len(samples) == 3  # a phase shares its kernels with the next
    assert phases.speeds["b"] == pytest.approx(
        0.2 / (samples[1] + samples[2]))
    assert calibrated(lambda: 5, samples)[0] == 5
    assert Phases().speeds == {} and len(samples) == 4


def test_seed_derivation():
    assert derive_seed(1, "plan") == derive_seed(1, "plan")
    assert derive_seed(1, "plan") != derive_seed(2, "plan")
    assert derive_seed(1, "plan") != derive_seed(1, "campaign")


def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
        run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(
        run.PER_LAYER)
    from workloads import WORKLOADS
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_missing_sources_exit_nonzero_without_result(tmp_path, capsys,
                                                     monkeypatch):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    status = run.main(["--workload", "table1-cell", "--seed", "1",
                       "--seconds", "1", "--trace", "0"])
    assert status != 0
    assert capsys.readouterr().out == ""
