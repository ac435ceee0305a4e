"""Golden-trace regression suite (ISSUE satellite a).

Pins the observability layer's two determinism contracts, per backend:

* a record+replay run under tracing produces **byte-identical** trace
  JSONL and metrics JSON every time (simulated-TSC timestamps, no wall
  clock, canonical serialization);
* campaign metrics are **jobs-invariant**: ``--jobs 1`` and
  ``--jobs 2`` merge to the same snapshot, byte for byte.

These are regression tests in the golden-file sense, but the golden
artifact is generated in-run (run twice, compare) rather than checked
in: the simulated cost model is tuned PR by PR, and pinning absolute
TSC values would turn every legitimate cost change into a test edit.
What must never drift is run-to-run and jobs-count stability.
"""

from __future__ import annotations

import io
import random

import pytest

from repro.campaign import CampaignController
from repro.core.manager import IrisManager
from repro.fuzz.parallel import ParallelCampaign
from repro.fuzz.testcase import plan_test_cases
from repro.obs import (
    MetricsRegistry,
    TraceEvent,
    Tracer,
    observability,
)
from repro.vmx.exit_reasons import ExitReason

ARCHES = ["vmx", "svm"]


def _traced_record_replay(arch: str) -> tuple[str, str]:
    """One instrumented record+replay run -> (trace JSONL, metrics JSON).

    The tracer must be installed before the manager is built: the
    hypervisor binds its simulated clock to the active tracer at
    construction.
    """
    sink = io.StringIO()
    tracer = Tracer(sink=sink)
    metrics = MetricsRegistry(record_wall=False)
    with observability(tracer=tracer, metrics=metrics):
        manager = IrisManager(arch=arch)
        session = manager.record_workload(
            "cpu-bound", n_exits=80, precondition="bios"
        )
        manager.replay_trace(
            session.trace, from_snapshot=session.snapshot,
            stop_on_crash=False,
        )
    return sink.getvalue(), metrics.snapshot().to_json()


@pytest.mark.parametrize("arch", ARCHES)
def test_trace_and_metrics_are_byte_stable(arch):
    first = _traced_record_replay(arch)
    second = _traced_record_replay(arch)
    assert first[0] == second[0], "trace JSONL drifted between runs"
    assert first[1] == second[1], "metrics JSON drifted between runs"


@pytest.mark.parametrize("arch", ARCHES)
def test_trace_structure(arch):
    jsonl, _ = _traced_record_replay(arch)
    events = [
        TraceEvent.from_json(line)
        for line in jsonl.strip().splitlines()
    ]
    assert events, "instrumented run emitted no trace events"
    # sequence numbers are dense; simulated timestamps never go back
    assert [e.seq for e in events] == list(range(len(events)))
    assert all(
        a.tsc <= b.tsc for a, b in zip(events, events[1:])
    )
    # no wall clock in the deterministic default
    assert all(e.wall is None for e in events)
    names = {(e.kind, e.name) for e in events}
    assert ("span-start", "iris.record") in names
    assert ("span-end", "iris.record") in names
    assert ("span-start", "iris.replay") in names
    assert ("event", "vmexit") in names
    vmexit = next(e for e in events if e.name == "vmexit")
    assert vmexit.field("arch") == arch
    assert vmexit.field("reason") is not None


@pytest.mark.parametrize("arch", ARCHES)
def test_metrics_cover_the_instrumented_layers(arch):
    _, metrics_json = _traced_record_replay(arch)
    from repro.obs import MetricsSnapshot

    snap = MetricsSnapshot.from_json(metrics_json)
    assert snap.counter_total("exits_handled") > 0
    assert snap.counter_total("exits_recorded") > 0
    assert snap.counter_total("seed_bytes") > 0
    assert snap.counter_total("seeds_replayed") > 0
    assert snap.counter_total("sessions") == 2  # record + replay
    # backend world switches carry the arch label
    assert snap.counter(
        "world_switches", arch=arch, direction="exit"
    ) > 0
    assert snap.counter(
        "world_switches", arch=arch, direction="entry"
    ) > 0
    # per-exit cycle histograms exist and agree with the exit counter
    cycles = snap.histograms_named("exit_cycles")
    assert cycles
    assert sum(h.count for _, h in cycles) == snap.counter_total(
        "exits_handled"
    )
    # wall-clock metrics are segregated out in hermetic mode
    assert not snap.histograms_named("replay_step_wall_ns")


@pytest.mark.parametrize("arch", ARCHES)
def test_campaign_metrics_are_jobs_invariant(arch):
    manager = IrisManager(arch=arch)
    session = manager.record_workload(
        "cpu-bound", n_exits=100, precondition="bios"
    )
    cases = plan_test_cases(
        session.trace,
        [ExitReason.RDTSC, ExitReason.CPUID],
        n_mutations=24,
        rng=random.Random(3),
    )
    assert cases

    def merged_json(jobs: int) -> str:
        campaign = ParallelCampaign(
            session.trace, session.snapshot, cases,
            campaign_seed=11, jobs=jobs, shards_per_cell=2,
            collect_metrics=True, arch=arch,
        )
        outcome = CampaignController(campaign).run()
        assert outcome.metrics is not None
        assert not outcome.abandoned_cells
        return outcome.metrics.to_json()

    serial = merged_json(1)
    parallel = merged_json(2)
    assert serial == parallel, (
        "campaign metrics depend on the worker count"
    )


def test_campaign_metrics_match_the_fuzz_results():
    """The merged snapshot accounts exactly the merged results."""
    manager = IrisManager()
    session = manager.record_workload(
        "cpu-bound", n_exits=100, precondition="bios"
    )
    cases = plan_test_cases(
        session.trace, [ExitReason.RDTSC], n_mutations=20,
        rng=random.Random(5),
    )
    outcome = CampaignController(ParallelCampaign(
        session.trace, session.snapshot, cases,
        campaign_seed=1, jobs=1, shards_per_cell=2,
        collect_metrics=True,
    )).run()
    snap = outcome.metrics
    assert snap is not None
    total_mutations = sum(r.mutations_run for r in outcome.results)
    assert snap.counter_total("fuzz_mutations") == total_mutations
    assert snap.counter_total("fuzz_cases") == len(
        outcome.results
    ) * 2  # one per shard, two shards per cell
    crashes = sum(
        r.vm_crashes + r.hypervisor_crashes for r in outcome.results
    )
    assert snap.counter_total("crashes") == crashes
