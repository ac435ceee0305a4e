"""The parallel campaign engine: determinism, fault isolation, stats.

The rr-style invariant under test: a campaign's merged results are a
pure function of (trace, snapshot, cases, campaign seed, shard plan) —
the worker count and scheduling never change them.  Asserted
*structurally* (per-cell results, merged coverage line sets, corpus
entries, failure records), not just by counts.  Every campaign runs
through :class:`CampaignController`, the one campaign execution path.
"""

from __future__ import annotations

import random

import pytest

from repro.campaign import (
    CampaignController,
    LocalPoolTransport,
    TransportContext,
)
from repro.core.manager import IrisManager
from repro.core.seed import SeedEntry, VMSeed
from repro.fuzz.failures import FailureKind, FailureRecord
from repro.fuzz.fuzzer import MAX_FAILURES_KEPT, FuzzResult, IrisFuzzer
from repro.fuzz.mutations import MutationArea
from repro.fuzz.parallel import (
    ParallelCampaign,
    derive_shard_seed,
    run_shard,
    split_mutations,
)
from repro.fuzz.testcase import plan_test_cases
from repro.vmx.exit_reasons import ExitReason
from repro.x86.registers import GPR

CAMPAIGN_SEED = 0xC0FFEE
N_MUTATIONS = 40


@pytest.fixture(scope="module")
def recorded():
    """A small dedicated recording (the shared fixtures stay pristine)."""
    manager = IrisManager()
    session = manager.record_workload(
        "cpu-bound", n_exits=300, precondition="boot"
    )
    return session


@pytest.fixture(scope="module")
def cases(recorded):
    planned = plan_test_cases(
        recorded.trace, [ExitReason.RDTSC, ExitReason.CPUID],
        n_mutations=N_MUTATIONS, rng=random.Random(2),
    )
    assert len(planned) == 4  # 2 reasons x 2 areas
    return planned


def controlled(engine):
    """Run ``engine`` as a store-less campaign.

    A clean multi-shard campaign on a ``jobs>1`` local pool must
    spread over more than one worker process; otherwise its
    jobs-invariance arms would compare the inline path with itself.
    """
    outcome = CampaignController(engine).run()
    if (
        engine.jobs > 1 and outcome.stats.healthy
        and len(outcome.stats.shards) > 1
        and isinstance(engine.transport(), LocalPoolTransport)
    ):
        assert len({s.worker_pid for s in outcome.stats.shards}) > 1
    return outcome


def run_campaign(recorded, cases, jobs, **kwargs):
    return controlled(ParallelCampaign(
        recorded.trace, recorded.snapshot, cases,
        campaign_seed=CAMPAIGN_SEED, jobs=jobs, **kwargs,
    ))


def local_pool(recorded, **kwargs):
    """A primed local-pool transport over the module's recording."""
    transport = LocalPoolTransport(**kwargs)
    transport.prime(TransportContext(
        trace=recorded.trace, snapshot=recorded.snapshot,
    ))
    return transport


# ---- seeding and shard planning --------------------------------------

class TestShardPlanning:
    def test_derived_seeds_are_stable_and_distinct(self):
        a = derive_shard_seed(1, 0, 0)
        assert a == derive_shard_seed(1, 0, 0)
        assert len({
            derive_shard_seed(1, cell, shard)
            for cell in range(8) for shard in range(8)
        }) == 64
        assert derive_shard_seed(2, 0, 0) != a

    def test_split_mutations_covers_budget_without_empty_shards(self):
        for n in (1, 2, 7, 40, 10_000):
            for shards in (1, 2, 3, 8, 50):
                slices = split_mutations(n, shards)
                assert sum(slices) == n
                assert all(s >= 1 for s in slices)
                assert len(slices) == min(shards, n)

    def test_split_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            split_mutations(0, 2)
        with pytest.raises(ValueError):
            split_mutations(10, 0)

    def test_plan_is_deterministic(self, recorded, cases):
        campaign = ParallelCampaign(
            recorded.trace, recorded.snapshot, cases,
            campaign_seed=CAMPAIGN_SEED, shards_per_cell=3,
        )
        assert campaign.plan() == campaign.plan()

    def test_bad_job_counts_rejected(self, recorded, cases):
        with pytest.raises(ValueError):
            ParallelCampaign(recorded.trace, recorded.snapshot,
                             cases, jobs=0)
        with pytest.raises(ValueError):
            ParallelCampaign(recorded.trace, recorded.snapshot,
                             cases, shards_per_cell=0)


# ---- the differential determinism invariant --------------------------

class TestDifferentialDeterminism:
    @pytest.fixture(scope="class")
    def campaigns(self, recorded, cases):
        """The same campaign at jobs=1 (inline), 2, and 4 (pools)."""
        return {
            jobs: run_campaign(recorded, cases, jobs)
            for jobs in (1, 2, 4)
        }

    def test_all_cells_complete_everywhere(self, campaigns, cases):
        for outcome in campaigns.values():
            assert len(outcome.results) == len(cases)
            assert outcome.abandoned_cells == []
            assert outcome.stats.healthy

    def test_per_cell_results_identical(self, campaigns):
        """Full structural equality: dataclass __eq__ covers counts,
        coverage lines, failure records (incl. log tails), corpora."""
        reference = campaigns[1].results
        assert campaigns[2].results == reference
        assert campaigns[4].results == reference

    def test_merged_coverage_identical(self, campaigns):
        reference = campaigns[1].merged_coverage()
        assert reference.loc > 0
        assert campaigns[2].merged_coverage() == reference
        assert campaigns[4].merged_coverage() == reference
        # Structurally: the exact same line sets.
        assert campaigns[2].merged_coverage().lines() == \
            reference.lines()

    def test_crash_tallies_identical(self, campaigns):
        reference = campaigns[1].crash_tallies()
        assert sum(reference.values()) > 0
        assert campaigns[2].crash_tallies() == reference
        assert campaigns[4].crash_tallies() == reference

    def test_corpus_contents_identical(self, campaigns):
        reference = campaigns[1].merged_corpus()
        assert len(reference) > 0
        for jobs in (2, 4):
            merged = campaigns[jobs].merged_corpus()
            assert merged.entries == reference.entries
            # Entry-level structure: the same retained seeds with the
            # same fingerprints, byte for byte.
            for ours, theirs in zip(merged.entries,
                                    reference.entries):
                assert ours.seed.pack() == theirs.seed.pack()
                assert ours.coverage_fingerprint == \
                    theirs.coverage_fingerprint

    def test_sub_cell_sharding_is_also_jobs_independent(
        self, recorded, cases
    ):
        sharded_serial = run_campaign(
            recorded, cases, 1, shards_per_cell=3
        )
        sharded_pool = run_campaign(
            recorded, cases, 3, shards_per_cell=3
        )
        assert sharded_serial.results == sharded_pool.results
        assert sharded_serial.merged_corpus() == \
            sharded_pool.merged_corpus()
        # Each cell's budget is fully spent across its shards.
        for result in sharded_serial.results:
            assert result.mutations_run == N_MUTATIONS

    def test_svm_cell_is_also_jobs_invariant(self):
        """One cell of the determinism matrix on the SVM backend: the
        arch rides in the ShardTask, so the merged results must be a
        pure function of it like every other plan ingredient."""
        manager = IrisManager(arch="svm")
        session = manager.record_workload(
            "cpu-bound", n_exits=200, precondition="boot"
        )
        planned = plan_test_cases(
            session.trace, [ExitReason.RDTSC],
            n_mutations=20, rng=random.Random(5),
        )
        serial = controlled(ParallelCampaign(
            session.trace, session.snapshot, planned,
            campaign_seed=CAMPAIGN_SEED, jobs=1, arch="svm",
        ))
        pooled = controlled(ParallelCampaign(
            session.trace, session.snapshot, planned,
            campaign_seed=CAMPAIGN_SEED, jobs=2, arch="svm",
        ))
        assert serial.stats.healthy and pooled.stats.healthy
        assert serial.results == pooled.results
        assert serial.merged_corpus().entries == \
            pooled.merged_corpus().entries
        assert serial.merged_coverage().lines() == \
            pooled.merged_coverage().lines()

    def test_campaign_seed_actually_matters(self, recorded, cases):
        a = run_campaign(recorded, cases, 1)
        b = controlled(ParallelCampaign(
            recorded.trace, recorded.snapshot, cases,
            campaign_seed=CAMPAIGN_SEED + 1, jobs=1,
        ))
        assert a.results != b.results

    def test_shard_function_is_hermetic(self, recorded, cases):
        """The per-shard primitive returns identical results when run
        twice in the *same* process — no hidden shared state."""
        campaign = ParallelCampaign(
            recorded.trace, recorded.snapshot, cases,
            campaign_seed=CAMPAIGN_SEED,
        )
        task = campaign.plan()[0]
        first = run_shard(task, recorded.trace, recorded.snapshot)
        second = run_shard(task, recorded.trace, recorded.snapshot)
        assert first == second


# ---- the smart-engine determinism matrix -----------------------------

class TestSmartEngineInvariance:
    """``--engine smart`` honors the same contract as poc: merged
    results are a pure function of the plan.  The engine name rides in
    every :class:`ShardTask` and each shard rebuilds its
    :class:`SmartEngine` (dictionary, queue, power schedule) from the
    task alone, so jobs counts, transports, and interruption must
    never change a byte."""

    @pytest.fixture(scope="class")
    def smart_cases(self, recorded):
        planned = plan_test_cases(
            recorded.trace, [ExitReason.RDTSC, ExitReason.CPUID],
            n_mutations=N_MUTATIONS, rng=random.Random(2),
            engine="smart",
        )
        assert all(case.engine == "smart" for case in planned)
        return planned

    @pytest.fixture(scope="class")
    def reference(self, recorded, smart_cases):
        """The serial smart campaign every arm compares against."""
        return run_campaign(recorded, smart_cases, 1)

    def _assert_identical(self, lhs, rhs):
        assert lhs.results == rhs.results
        assert lhs.merged_corpus().entries == \
            rhs.merged_corpus().entries
        assert lhs.merged_coverage().lines() == \
            rhs.merged_coverage().lines()

    def test_engine_rides_in_the_shard_task(
        self, recorded, smart_cases
    ):
        campaign = ParallelCampaign(
            recorded.trace, recorded.snapshot, smart_cases,
            campaign_seed=CAMPAIGN_SEED,
        )
        assert campaign.engine == "smart"
        assert all(task.engine == "smart" for task in campaign.plan())
        assert ("engine", "smart") in campaign.identity()

    def test_smart_campaign_is_jobs_invariant(
        self, recorded, smart_cases, reference
    ):
        pooled = run_campaign(recorded, smart_cases, 4)
        assert pooled.stats.healthy
        self._assert_identical(pooled, reference)

    def test_smart_sub_cell_sharding_is_jobs_invariant(
        self, recorded, smart_cases
    ):
        serial = run_campaign(
            recorded, smart_cases, 1, shards_per_cell=3
        )
        pooled = run_campaign(
            recorded, smart_cases, 3, shards_per_cell=3
        )
        self._assert_identical(serial, pooled)

    def test_smart_svm_cell_is_jobs_invariant(self):
        from repro.core.manager import IrisManager as _Manager

        manager = _Manager(arch="svm")
        session = manager.record_workload(
            "cpu-bound", n_exits=200, precondition="boot"
        )
        planned = plan_test_cases(
            session.trace, [ExitReason.RDTSC], n_mutations=20,
            rng=random.Random(5), engine="smart",
        )
        serial = controlled(ParallelCampaign(
            session.trace, session.snapshot, planned,
            campaign_seed=CAMPAIGN_SEED, jobs=1, arch="svm",
        ))
        pooled = controlled(ParallelCampaign(
            session.trace, session.snapshot, planned,
            campaign_seed=CAMPAIGN_SEED, jobs=2, arch="svm",
        ))
        assert serial.stats.healthy and pooled.stats.healthy
        self._assert_identical(serial, pooled)

    def test_smart_socket_transport_is_invariant(
        self, recorded, smart_cases, reference
    ):
        from repro.campaign import SocketTransport, WorkerServer

        server = WorkerServer(heartbeat_interval=0.2).start()
        try:
            outcome = controlled(ParallelCampaign(
                recorded.trace, recorded.snapshot, smart_cases,
                campaign_seed=CAMPAIGN_SEED, jobs=2,
                transport=SocketTransport(
                    [server.address], backoff_base=0.01
                ),
            ))
        finally:
            server.stop()
        self._assert_identical(outcome, reference)

    def test_smart_resume_is_invariant(
        self, tmp_path, recorded, smart_cases, reference
    ):
        from repro.campaign import CampaignInterrupted, CampaignStore

        db = str(tmp_path / "smart.db")

        def engine():
            return ParallelCampaign(
                recorded.trace, recorded.snapshot, smart_cases,
                campaign_seed=CAMPAIGN_SEED, jobs=1,
            )

        with CampaignStore(db) as store:
            controller = CampaignController(
                engine(), store, wave_size=1, crash_after_wave=0,
            )
            assert controller.config().engine == "smart"
            with pytest.raises(CampaignInterrupted):
                controller.run()
        with CampaignStore(db) as store:
            resumed = CampaignController(
                engine(), store, wave_size=1
            ).run(resume=True)
        assert resumed.waves_resumed == 1
        self._assert_identical(resumed, reference)

    def test_mixed_engines_are_rejected(self, recorded, cases,
                                        smart_cases):
        with pytest.raises(ValueError, match="mix mutation engines"):
            ParallelCampaign(
                recorded.trace, recorded.snapshot,
                [cases[0], smart_cases[1]],
                campaign_seed=CAMPAIGN_SEED,
            )

    def test_smart_beats_poc_at_equal_budget(
        self, recorded, cases, smart_cases, reference
    ):
        """The headline claim, in the test suite as well as the bench:
        same trace, same budget, strictly more merged coverage."""
        poc = run_campaign(recorded, cases, 1)
        assert poc.stats.total_mutations == \
            reference.stats.total_mutations
        assert reference.merged_coverage().loc > \
            poc.merged_coverage().loc


# ---- the cross-arch differential oracle matrix -----------------------

class TestDifferentialOracleMatrix:
    """The tentpole determinism contract for ``--differential``: the
    divergence records — and the *rendered report*, byte for byte —
    are a pure function of the campaign coordinates.  Worker count
    must never change a divergence byte."""

    @pytest.fixture(scope="class")
    def matrix(self, recorded, cases):
        return {
            jobs: run_campaign(recorded, cases, jobs, differential=True)
            for jobs in (1, 4)
        }

    @staticmethod
    def _report(outcome) -> str:
        from repro.fuzz.differential import (
            iter_divergences,
            render_divergence_report,
        )

        return render_divergence_report(
            list(iter_divergences(outcome.results)),
            seeds_compared=sum(
                r.seeds_compared for r in outcome.results
            ),
            untranslatable_seeds=sum(
                r.untranslatable_seeds for r in outcome.results
            ),
        )

    def test_oracle_actually_fires(self, matrix):
        reference = matrix[1]
        assert sum(
            len(r.divergences) for r in reference.results
        ) > 0
        assert sum(
            r.seeds_compared for r in reference.results
        ) > 0

    def test_divergences_identical_across_the_matrix(self, matrix):
        """Structural identity of the records themselves (dataclass
        equality covers kind, mutant seed bytes, outcomes, detail)."""
        reference = [r.divergences for r in matrix[1].results]
        for key, outcome in matrix.items():
            assert [
                r.divergences for r in outcome.results
            ] == reference, key

    def test_rendered_reports_byte_identical(self, matrix):
        reference = self._report(matrix[1])
        for key, outcome in matrix.items():
            assert self._report(outcome) == reference, key

    def test_comparison_tallies_identical(self, matrix):
        reference = [
            (r.seeds_compared, r.untranslatable_seeds)
            for r in matrix[1].results
        ]
        for outcome in matrix.values():
            assert [
                (r.seeds_compared, r.untranslatable_seeds)
                for r in outcome.results
            ] == reference

    def test_sub_cell_sharding_is_jobs_invariant_too(
        self, recorded, cases
    ):
        """Splitting a cell across shards draws each shard's mutants
        from its own derived seed (a different stream than the
        single-shard plan), so the invariant here is the engine's:
        the order-insensitive merge makes the sharded campaign's
        divergences identical for any worker count."""
        serial = run_campaign(
            recorded, cases, 1, differential=True, shards_per_cell=2,
        )
        pooled = run_campaign(
            recorded, cases, 3, differential=True, shards_per_cell=2,
        )
        assert [r.divergences for r in serial.results] == \
            [r.divergences for r in pooled.results]
        assert self._report(serial) == self._report(pooled)

    def test_differential_rides_in_the_shard_task(
        self, recorded, cases
    ):
        campaign = ParallelCampaign(
            recorded.trace, recorded.snapshot, cases,
            campaign_seed=CAMPAIGN_SEED, differential=True,
        )
        assert all(task.differential for task in campaign.plan())
        assert ("differential", "True") in campaign.identity()

    def test_differential_requires_a_vmx_primary(self, recorded, cases):
        with pytest.raises(ValueError, match="secondary backend"):
            ParallelCampaign(
                recorded.trace, recorded.snapshot, cases,
                campaign_seed=CAMPAIGN_SEED, arch="svm",
                differential=True,
            )


# ---- fault isolation -------------------------------------------------

class TestFaultIsolation:
    def test_killed_worker_is_retried_exactly_once(
        self, recorded, cases
    ):
        events = []
        outcome = run_campaign(
            recorded, cases, 2,
            fault_plan={1: ("raise", 1)},
            on_event=events.append,
        )
        # The campaign completed: every cell present, none abandoned.
        assert len(outcome.results) == len(cases)
        assert outcome.abandoned_cells == []
        # The fault is surfaced on the stats channel, not swallowed.
        assert len(outcome.stats.faults) == 1
        fault = outcome.stats.faults[0]
        assert fault.cell_index == 1
        assert fault.attempt == 0
        assert "InjectedWorkerFault" in fault.error
        assert ("worker-fault", fault) in events
        # Retried exactly once.
        record = outcome.stats.shards[1]
        assert record.attempts == 2
        assert record.status == "retried"
        assert len(outcome.stats.retried_shards) == 1
        assert not outcome.stats.healthy

    def test_retried_cell_result_matches_clean_run(
        self, recorded, cases
    ):
        """The retry reruns the shard with the same derived seed, so
        the recovered campaign is bit-identical to a fault-free one."""
        clean = run_campaign(recorded, cases, 2)
        faulty = run_campaign(
            recorded, cases, 2, fault_plan={1: ("raise", 1)},
        )
        assert faulty.results == clean.results
        assert faulty.merged_corpus() == clean.merged_corpus()

    def test_double_fault_abandons_cell_gracefully(
        self, recorded, cases
    ):
        events = []
        outcome = run_campaign(
            recorded, cases, 2,
            fault_plan={0: ("raise", 2)},
            on_event=events.append,
        )
        # Degrades instead of aborting: the other cells are intact.
        assert outcome.abandoned_cells == [0]
        assert len(outcome.results) == len(cases) - 1
        assert len(outcome.stats.faults) == 2
        assert outcome.stats.shards[0].status == "failed"
        assert any(kind == "shard-abandoned" for kind, _ in events)
        clean = run_campaign(recorded, cases, 2)
        assert outcome.results == clean.results[1:]

    def test_serial_mode_gets_the_same_fault_handling(
        self, recorded, cases
    ):
        outcome = run_campaign(
            recorded, cases, 1, fault_plan={2: ("raise", 1)},
        )
        assert outcome.abandoned_cells == []
        assert outcome.stats.shards[2].attempts == 2
        assert len(outcome.stats.faults) == 1

    def test_hung_worker_times_out_and_is_retried(
        self, recorded, cases
    ):
        outcome = run_campaign(
            recorded, cases[:2], 2,
            fault_plan={0: ("hang", 1)},
            shard_timeout=1.0,
        )
        assert outcome.abandoned_cells == []
        assert len(outcome.results) == 2
        assert outcome.stats.shards[0].status == "retried"
        assert any("Timeout" in f.error
                   for f in outcome.stats.faults)


# ---- the persistent worker pool --------------------------------------

class TestPoolLifecycle:
    def test_pool_is_reused_until_discarded(self, recorded, cases):
        """The local transport's pool stays warm across waves: a
        second wave runs on the workers the first one started, and
        closing the transport tears the pool down (idempotently)."""
        tasks = ParallelCampaign(
            recorded.trace, recorded.snapshot, cases,
            campaign_seed=CAMPAIGN_SEED,
        ).plan()
        transport = local_pool(recorded, jobs=2)
        try:
            first = transport.run_tasks(tasks)
            pool = transport._pool
            second = transport.run_tasks(tasks)
            assert transport._pool is pool is not None
        finally:
            transport.close()
        assert all(o.ok for o in first + second)
        assert {o.worker_pid for o in second} <= \
            {o.worker_pid for o in first}
        assert transport._pool is None
        # Close is idempotent (the controller calls it once per run).
        transport.close()

    def test_retry_runs_on_the_warm_pool(self, recorded, cases):
        """A raise-fault retry reuses the campaign's workers instead of
        paying for a fresh pool: the retried shard's pid is one of the
        pids the first wave already used."""
        outcome = run_campaign(
            recorded, cases, 2, fault_plan={1: ("raise", 1)},
        )
        assert outcome.abandoned_cells == []
        first_wave_pids = {
            s.worker_pid for s in outcome.stats.shards
            if s.attempts == 1
        }
        retried = outcome.stats.shards[1]
        assert retried.attempts == 2
        assert retried.worker_pid in first_wave_pids

    def test_wave_deadline_is_absolute_not_per_shard(
        self, recorded, cases
    ):
        """Timeout-skew regression: with the old per-``get`` timeout, a
        wave of N hung shards took N x ``shard_timeout`` to drain
        (each collection restarted the clock).  The deadline is now
        fixed at wave submission, so even four simultaneous hangs
        resolve in ~one timeout."""
        import time

        timeout = 1.0
        tasks = ParallelCampaign(
            recorded.trace, recorded.snapshot, cases,
            campaign_seed=CAMPAIGN_SEED,
            fault_plan={cell: ("hang", 1) for cell in range(4)},
        ).plan()
        assert len(tasks) == 4
        assert all(t.fault_kind == "hang" for t in tasks)
        transport = local_pool(recorded, jobs=4, shard_timeout=timeout)
        started = time.monotonic()
        try:
            outcomes = transport.run_tasks(tasks)
            elapsed = time.monotonic() - started
            # The hang forced the pool's replacement.
            assert transport._pool is None
        finally:
            transport.close()
        assert all("Timeout" in (o.error or "") for o in outcomes)
        # One absolute deadline (plus pool startup + teardown slack),
        # strictly below the 4 x timeout the per-shard clock allowed.
        assert elapsed < 4 * timeout - 0.5


# ---- the stats channel -----------------------------------------------

class TestStatsChannel:
    def test_progress_and_throughput_reported(self, recorded, cases):
        events = []
        outcome = run_campaign(
            recorded, cases, 2, on_event=events.append,
        )
        stats = outcome.stats
        assert stats.jobs == 2
        assert stats.total_mutations == N_MUTATIONS * len(cases)
        assert stats.wall_seconds > 0
        assert stats.mutations_per_second > 0
        completed = [p for k, p in events if k == "shard-completed"]
        assert len(completed) == len(cases)
        for record in stats.shards:
            assert record.status == "ok"
            assert record.mutations_run == N_MUTATIONS
            assert record.duration_seconds > 0
            assert record.mutations_per_second > 0
            assert record.worker_pid > 0
        assert "worker fault" in stats.describe() or \
            "0 worker fault(s)" in stats.describe()

    def test_storeless_campaign_spreads_over_the_pool(
        self, recorded, cases
    ):
        """Without a store the whole plan is one wave, so a jobs=2
        campaign keeps both workers busy even at a one-cell wave size
        (which used to pin every shard to a single process)."""
        outcome = CampaignController(ParallelCampaign(
            recorded.trace, recorded.snapshot, cases,
            campaign_seed=CAMPAIGN_SEED, jobs=2,
        ), wave_size=1).run()
        assert outcome.waves_total == 1
        assert len(outcome.results) == len(cases) >= 2
        assert len({s.worker_pid for s in outcome.stats.shards}) >= 2

    def test_campaign_result_describe(self, recorded, cases):
        outcome = run_campaign(recorded, cases, 1)
        text = outcome.describe()
        assert "cells" in text and "new LOC" in text


# ---- MAX_FAILURES_KEPT under merging (regression) --------------------

def _failure(index: int, tag: int = 0) -> FailureRecord:
    seed = VMSeed(
        exit_reason=int(ExitReason.RDTSC),
        entries=[SeedEntry.for_gpr(GPR.RAX, 0xAB00 + tag)],
    )
    return FailureRecord(
        kind=FailureKind.HYPERVISOR_CRASH,
        cause="corrupt exit-reason field",
        crash_reason=f"synthetic crash {index}/{tag}",
        mutation_index=index,
        seed=seed,
    )


def _cell_result(failures, mutations=100) -> FuzzResult:
    return FuzzResult(
        workload="cpu-bound",
        exit_reason=ExitReason.RDTSC,
        area=MutationArea.VMCS,
        mutations_run=mutations,
        baseline_loc=50,
        hypervisor_crashes=len(failures),
        failures=list(failures),
    )


class TestFailureCapRegression:
    def test_merged_shards_cannot_exceed_the_cap(self):
        a = _cell_result([_failure(i, 0) for i in range(50)])
        b = _cell_result([_failure(i, 1) for i in range(50)])
        merged = a.merge(b)
        assert len(a.failures) + len(b.failures) > MAX_FAILURES_KEPT
        assert len(merged.failures) == MAX_FAILURES_KEPT
        # Crash *tallies* are not truncated — only retained artifacts.
        assert merged.hypervisor_crashes == 100

    def test_truncation_keeps_earliest_mutations(self):
        early = _cell_result([_failure(i) for i in range(10)])
        late = _cell_result([_failure(1000 + i, 1)
                             for i in range(MAX_FAILURES_KEPT)])
        merged = early.merge(late)
        kept_indices = [f.mutation_index for f in merged.failures]
        assert kept_indices == sorted(kept_indices)
        assert set(range(10)) <= set(kept_indices)
        assert len(merged.failures) == MAX_FAILURES_KEPT

    def test_chained_merges_land_on_the_same_retained_set(self):
        shards = [
            _cell_result([_failure(i, tag) for i in range(40)])
            for tag in range(4)
        ]
        left = shards[0].merge(shards[1]).merge(shards[2]) \
            .merge(shards[3])
        right = shards[0].merge(
            shards[1].merge(shards[2].merge(shards[3]))
        )
        reordered = shards[3].merge(shards[2]).merge(shards[1]) \
            .merge(shards[0])
        assert left.failures == right.failures == reordered.failures
        assert len(left.failures) == MAX_FAILURES_KEPT

    def test_merge_rejects_mismatched_cells(self):
        a = _cell_result([])
        b = FuzzResult(
            workload="cpu-bound", exit_reason=ExitReason.CPUID,
            area=MutationArea.VMCS, baseline_loc=50,
        )
        with pytest.raises(ValueError):
            a.merge(b)

    def test_merge_rejects_mismatched_baselines(self):
        a = _cell_result([])
        b = _cell_result([])
        b.baseline_loc = 51
        with pytest.raises(ValueError):
            a.merge(b)
