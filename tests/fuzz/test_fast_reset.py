"""Differential and regression tests for the fast-reset loop.

The fast-reset contract, pinned here:

* **Campaign level** (the venue where every shard reaches its target
  state exactly once): a campaign — which always runs the fast-reset
  paths — must equal the same planned shards re-run with every reset
  rebuilt from scratch *exactly* — per-cell results including failure
  records and corpora, merged coverage, merged metrics — and the
  ``jobs`` worker count must not change that.  Both arches, ``jobs``
  1 and 4; on vmx also with the cross-arch differential oracle on,
  where divergence records, comparison tallies and the rendered
  divergence report must match as well.
* **Serial level**: a full case sweep with the manager's dummy-VM
  reuse and the fuzzer's target-state cache engaged must agree with
  the rebuild-everything mode on every count that doesn't embed the
  dummy VM's domid (log tails do: reuse keeps one domid alive where
  rebuilds allocate fresh ones).
* **Manager level**: a reused dummy VM is indistinguishable from a
  freshly rebuilt one restored from the same snapshot.
* The old detach-after-destroy ordering bug stays fixed.
"""

from __future__ import annotations

import dataclasses
import random
from functools import reduce

import pytest

from repro.campaign import CampaignController
from repro.core.manager import IrisManager
from repro.core.snapshot import take_snapshot
from repro.fuzz.differential import (
    DifferentialOracle,
    iter_divergences,
    render_divergence_report,
)
from repro.fuzz.fuzzer import FuzzResult, IrisFuzzer
from repro.fuzz.mutations import MutationArea
from repro.fuzz.parallel import (
    CampaignResult,
    CampaignStats,
    ParallelCampaign,
)
from repro.fuzz.testcase import FuzzTestCase, plan_test_cases
from repro.obs import MetricsRegistry, MetricsSnapshot, observability
from repro.vmx.exit_reasons import ExitReason

REASONS = [ExitReason.CPUID, ExitReason.RDTSC, ExitReason.HLT]


@pytest.fixture(scope="module", params=["vmx", "svm"])
def arch_session(request):
    """A recorded trace per arch (read-only; shared across tests)."""
    arch = request.param
    manager = IrisManager(arch=arch)
    session = manager.record_workload(
        "cpu-bound", n_exits=140, precondition="boot",
        store_metrics=False,
    )
    return arch, session


def _plan(session, n_mutations=6):
    return plan_test_cases(
        session.trace, REASONS,
        areas=(MutationArea.VMCS, MutationArea.GPR),
        n_mutations=n_mutations, rng=random.Random(3),
    )


# ---- campaign-level differential -------------------------------------

def _engine(session, arch, jobs, differential=False):
    return ParallelCampaign(
        session.trace, session.snapshot, _plan(session),
        campaign_seed=7, jobs=jobs, shards_per_cell=2,
        arch=arch, collect_metrics=True, differential=differential,
    )


def _campaign(session, arch, jobs, differential=False):
    return CampaignController(
        _engine(session, arch, jobs, differential)
    ).run()


def _rebuild_reference(engine: ParallelCampaign) -> CampaignResult:
    """The engine's planned shards, run serially with every reset on
    the full-rebuild path: what ``run_shard`` does, but with
    ``IrisManager``/``IrisFuzzer(fast_reset=False)``, and each shard's
    metrics captured in its own wall-clock-free registry."""
    shards: dict[int, list[FuzzResult]] = {}
    metrics: list[MetricsSnapshot] = []
    snapshot = engine.snapshot
    assert snapshot is not None
    for task in engine.plan():
        registry = MetricsRegistry(record_wall=False)
        with observability(metrics=registry):
            manager = IrisManager(arch=task.arch, fast_reset=False)
            # run_shard's fast-forward into the snapshot's clock domain.
            clock = manager.hv.clock
            if snapshot.clock_tsc > clock.now:
                clock.advance(snapshot.clock_tsc - clock.now)
            oracle = DifferentialOracle() if task.differential else None
            fuzzer = IrisFuzzer(
                manager, rng=random.Random(task.rng_seed),
                oracle=oracle, fast_reset=False,
            )
            case = FuzzTestCase(
                trace=engine.trace, seed_index=task.seed_index,
                area=task.area, n_mutations=task.n_mutations,
                mutation_rule=task.mutation_rule, engine=task.engine,
            )
            shards.setdefault(task.cell_index, []).append(
                fuzzer.run_test_case(case, from_snapshot=snapshot)
            )
        metrics.append(registry.snapshot())
    return CampaignResult(
        results=[
            reduce(FuzzResult.merge, shards[cell])
            for cell in sorted(shards)
        ],
        stats=CampaignStats(),
        metrics=MetricsSnapshot.merge_all(metrics),
    )


def _tallies(outcome: CampaignResult) -> list[tuple[int, int]]:
    return [
        (r.seeds_compared, r.untranslatable_seeds)
        for r in outcome.results
    ]


def _report(outcome: CampaignResult) -> str:
    return render_divergence_report(
        list(iter_divergences(outcome.results)),
        seeds_compared=sum(r.seeds_compared for r in outcome.results),
        untranslatable_seeds=sum(
            r.untranslatable_seeds for r in outcome.results
        ),
    )


class TestCampaignDifferential:
    def test_fast_reset_and_jobs_change_nothing(self, arch_session):
        arch, session = arch_session
        reference = _rebuild_reference(_engine(session, arch, jobs=1))
        assert reference.results, "campaign produced no cells"

        for jobs in (1, 4):
            fast = _campaign(session, arch, jobs=jobs)
            # Byte-identical cells: counts, discovered lines, failure
            # records (log tails included), corpora.
            assert fast.results == reference.results, (
                f"fast-reset campaign at jobs={jobs} diverged from "
                f"the rebuild reference on {arch}"
            )
            assert fast.abandoned_cells == reference.abandoned_cells
            assert (fast.merged_coverage()
                    == reference.merged_coverage())
            assert fast.merged_corpus() == reference.merged_corpus()
            assert fast.metrics == reference.metrics

    @pytest.mark.parametrize("arch_session", ["vmx"], indirect=True)
    def test_differential_fast_reset_and_jobs_change_nothing(
        self, arch_session
    ):
        """With the cross-arch oracle on (vmx only), the primary's
        fast resets change no divergence record, comparison tally or
        rendered report byte against the full-rebuild reference."""
        _, session = arch_session
        reference = _rebuild_reference(
            _engine(session, "vmx", jobs=1, differential=True)
        )
        assert sum(r.seeds_compared for r in reference.results) > 0
        assert sum(len(r.divergences) for r in reference.results) > 0

        for jobs in (1, 4):
            fast = _campaign(session, "vmx", jobs=jobs, differential=True)
            assert fast.results == reference.results, jobs
            assert [r.divergences for r in fast.results] == [
                r.divergences for r in reference.results
            ]
            assert _tallies(fast) == _tallies(reference)
            assert _report(fast) == _report(reference)
            assert fast.metrics == reference.metrics

    def test_crashes_actually_happen(self, arch_session):
        """The differential is vacuous unless the crash-revert loop —
        the code path fast reset changes — actually runs."""
        arch, session = arch_session
        outcome = _campaign(session, arch, jobs=1)
        tallies = outcome.crash_tallies()
        assert tallies["vm-crash"] + tallies["hypervisor-crash"] > 0


# ---- serial-sweep differential ---------------------------------------

def _serial_sweep(session, arch, fast_reset):
    manager = IrisManager(arch=arch, fast_reset=fast_reset)
    fuzzer = IrisFuzzer(
        manager, rng=random.Random(11), fast_reset=fast_reset
    )
    return [
        fuzzer.run_test_case(case, from_snapshot=session.snapshot)
        for case in _plan(session)
    ]


class TestSerialDifferential:
    def test_sweep_matches_rebuild_mode(self, arch_session):
        """One pass over distinct cases: the target-state cache never
        hits (each case differs from its predecessor), so the
        differences under test are exactly the manager's dummy-VM
        reuse and the delta crash-revert restores."""
        arch, session = arch_session
        fast = _serial_sweep(session, arch, fast_reset=True)
        full = _serial_sweep(session, arch, fast_reset=False)
        assert len(fast) == len(full) > 0
        for a, b in zip(fast, full):
            assert a.cell_key == b.cell_key
            assert a.mutations_run == b.mutations_run
            assert a.baseline_loc == b.baseline_loc
            assert a.new_lines == b.new_lines
            assert a.new_loc == b.new_loc
            assert a.vm_crashes == b.vm_crashes
            assert a.hypervisor_crashes == b.hypervisor_crashes
            assert a.corpus == b.corpus
            # Failure records match modulo the log tail, which embeds
            # the dummy VM's domid (reuse keeps one domid alive where
            # rebuild mode allocates a fresh one per case).
            assert len(a.failures) == len(b.failures)
            for fa, fb in zip(a.failures, b.failures):
                assert fa.kind == fb.kind
                assert fa.cause == fb.cause
                assert fa.crash_reason == fb.crash_reason
                assert fa.mutation_index == fb.mutation_index
                assert fa.seed == fb.seed


# ---- manager-level reuse equivalence ---------------------------------

def _snapshot_fields(snapshot) -> dict:
    """Snapshot as a comparable dict, minus the wall-agnostic TSC."""
    fields = dataclasses.asdict(snapshot)
    fields.pop("clock_tsc")
    return fields


class TestManagerReuse:
    @pytest.mark.parametrize("arch", ["vmx", "svm"])
    def test_reused_dummy_equals_rebuilt_dummy(self, arch):
        def drive(fast_reset):
            manager = IrisManager(arch=arch, fast_reset=fast_reset)
            session = manager.record_workload(
                "cpu-bound", n_exits=100, precondition="boot",
                store_metrics=False,
            )
            replayer = manager.create_dummy_vm(
                from_snapshot=session.snapshot
            )
            first_dummy = manager.dummy_vm
            # Drift the dummy through real replay before resetting.
            for record in session.trace.records[:10]:
                replayer.submit(record.seed)
            manager.create_dummy_vm(from_snapshot=session.snapshot)
            return manager, first_dummy

        reused_mgr, reused_first = drive(fast_reset=True)
        rebuilt_mgr, rebuilt_first = drive(fast_reset=False)

        # The fast manager reused its domain; the slow one did not.
        assert reused_mgr.dummy_vm is reused_first
        assert rebuilt_mgr.dummy_vm is not rebuilt_first

        reused = take_snapshot(reused_mgr.hv, reused_mgr.dummy_vm)
        rebuilt = take_snapshot(rebuilt_mgr.hv, rebuilt_mgr.dummy_vm)
        assert _snapshot_fields(reused) == _snapshot_fields(rebuilt)

    def test_reuse_requires_snapshot_and_matching_name(self):
        manager = IrisManager(fast_reset=True)
        session = manager.record_workload(
            "cpu-bound", n_exits=80, precondition="boot",
            store_metrics=False,
        )
        manager.create_dummy_vm(from_snapshot=session.snapshot)
        first = manager.dummy_vm

        # No snapshot to reset to: must rebuild.
        manager.create_dummy_vm()
        second = manager.dummy_vm
        assert second is not first

        # Different name: must rebuild.
        manager.create_dummy_vm(
            from_snapshot=session.snapshot, name="other-dummy"
        )
        assert manager.dummy_vm is not second


# ---- replayer detach ordering ----------------------------------------

class TestDetachOrdering:
    def _order_probe(self, manager, monkeypatch, events):
        replayer = manager.replayer
        orig_detach = replayer.detach
        orig_destroy = manager.hv.destroy_domain

        def detach():
            events.append("detach")
            orig_detach()

        def destroy(domain):
            events.append("destroy")
            orig_destroy(domain)

        monkeypatch.setattr(replayer, "detach", detach)
        monkeypatch.setattr(manager.hv, "destroy_domain", destroy)

    def test_detach_precedes_destroy_on_rebuild(self, monkeypatch):
        """Regression: the old code destroyed the domain while the
        previous Replayer was still attached to its vCPU."""
        manager = IrisManager(fast_reset=False)
        manager.create_dummy_vm()
        events: list[str] = []
        self._order_probe(manager, monkeypatch, events)
        manager.create_dummy_vm()
        assert events == ["detach", "destroy"]

    def test_reuse_path_detaches_and_never_destroys(self, monkeypatch):
        manager = IrisManager(fast_reset=True)
        session = manager.record_workload(
            "cpu-bound", n_exits=80, precondition="boot",
            store_metrics=False,
        )
        manager.create_dummy_vm(from_snapshot=session.snapshot)
        events: list[str] = []
        self._order_probe(manager, monkeypatch, events)
        manager.create_dummy_vm(from_snapshot=session.snapshot)
        assert events == ["detach"]
