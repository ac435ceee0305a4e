"""Crash-recovery differential tests: the tentpole's headline claim.

A campaign interrupted after any wave and resumed from its store must
produce **byte-identical** merged output — per-cell results, corpus,
coverage, failures, and the metrics snapshot — to the same campaign
run uninterrupted.  Pinned across jobs 1/4 × vmx/svm × the two store
formats (as written now, and the older format whose config carries the
since-removed ``fast_reset`` flag), plus: resume with a *different*
worker count than the interrupted run (jobs never participates in
campaign identity), a kill after every possible wave, and the
equivalence of store-backed runs at any wave size with the store-less
single-wave run.
"""

from __future__ import annotations

import json
import random
import sqlite3

import pytest

from repro.campaign import (
    CampaignController,
    CampaignInterrupted,
    CampaignStore,
    plan_waves,
)
from repro.core.manager import IrisManager
from repro.errors import StoreMismatchError
from repro.fuzz.parallel import ParallelCampaign
from repro.fuzz.testcase import plan_test_cases
from repro.vmx.exit_reasons import ExitReason

CAMPAIGN_SEED = 0xC0FFEE
N_MUTATIONS = 18
N_EXITS = 220


@pytest.fixture(scope="module")
def recordings():
    """One deterministic recording per architecture."""
    sessions = {}
    for arch in ("vmx", "svm"):
        manager = IrisManager(arch=arch)
        sessions[arch] = manager.record_workload(
            "cpu-bound", n_exits=N_EXITS, precondition="boot"
        )
    return sessions


@pytest.fixture(scope="module")
def cases(recordings):
    planned = {}
    for arch, session in recordings.items():
        planned[arch] = plan_test_cases(
            session.trace, [ExitReason.RDTSC, ExitReason.CPUID],
            n_mutations=N_MUTATIONS, rng=random.Random(2),
        )
        assert len(planned[arch]) == 4  # 2 reasons x 2 areas
    return planned


def make_engine(recordings, cases, arch, jobs):
    session = recordings[arch]
    return ParallelCampaign(
        session.trace, session.snapshot, cases[arch],
        campaign_seed=CAMPAIGN_SEED, jobs=jobs, arch=arch,
        collect_metrics=True,
    )


@pytest.fixture(scope="module")
def references(recordings, cases):
    """Uninterrupted controlled runs, one per arch."""
    return {
        arch: CampaignController(
            make_engine(recordings, cases, arch, jobs=1), wave_size=1
        ).run()
        for arch in ("vmx", "svm")
    }


def rewrite_as_older_format(db: str, fast_reset: bool) -> None:
    """Give a store's config the ``fast_reset`` key that stores kept
    before campaigns had a single reset policy (``False`` is what
    the removed ``iris-fuzz --no-fast-reset`` wrote)."""
    conn = sqlite3.connect(db)
    with conn:
        (text,) = conn.execute(
            "SELECT value FROM meta WHERE key='config'"
        ).fetchone()
        payload = json.loads(text)
        assert "fast_reset" not in payload
        payload["fast_reset"] = fast_reset
        conn.execute(
            "UPDATE meta SET value=? WHERE key='config'",
            (json.dumps(payload, sort_keys=True, separators=(",", ":")),),
        )
    conn.close()


def assert_byte_identical(resumed, reference):
    """The differential: every deterministic artifact, structurally."""
    assert resumed.results == reference.results
    assert resumed.abandoned_cells == reference.abandoned_cells
    assert resumed.merged_corpus() == reference.merged_corpus()
    assert (
        resumed.merged_coverage().to_json()
        == reference.merged_coverage().to_json()
    )
    assert [r.failures for r in resumed.results] == \
        [r.failures for r in reference.results]
    assert resumed.metrics is not None
    assert reference.metrics is not None
    assert resumed.metrics.to_json() == reference.metrics.to_json()


@pytest.mark.parametrize("arch", ["vmx", "svm"])
@pytest.mark.parametrize("stored_fast_reset", [None, False],
                         ids=["fast", "slow"])
@pytest.mark.parametrize("jobs", [1, 4])
def test_interrupt_and_resume_is_byte_identical(
    tmp_path, recordings, cases, references, arch, stored_fast_reset,
    jobs
):
    """Kill after wave 1, resume (with a different worker count), and
    compare the final output to the uninterrupted run's.

    ``fast`` resumes the store as written; ``slow`` first rewrites its
    config to the older format with ``"fast_reset": false``, as the
    removed ``iris-fuzz --no-fast-reset`` wrote it.  The key is dropped
    on load, since it never changed a result byte."""
    db = str(tmp_path / "campaign.db")
    engine = make_engine(recordings, cases, arch, jobs)
    with CampaignStore(db) as store:
        controller = CampaignController(
            engine, store, wave_size=1, crash_after_wave=1,
        )
        with pytest.raises(CampaignInterrupted) as excinfo:
            controller.run()
    assert excinfo.value.wave_index == 1
    if stored_fast_reset is not None:
        rewrite_as_older_format(db, stored_fast_reset)

    # resume on a different jobs value: worker count is not part of
    # the campaign's identity, so this must be allowed *and* identical
    resume_jobs = 1 if jobs == 4 else 4
    engine2 = make_engine(recordings, cases, arch, resume_jobs)
    with CampaignStore(db) as store:
        resumed = CampaignController(
            engine2, store, wave_size=1
        ).run(resume=True)
    assert resumed.waves_resumed == 2
    assert resumed.waves_total == 4
    assert_byte_identical(resumed, references[arch])


def test_kill_after_every_wave(tmp_path, recordings, cases, references):
    """Resume determinism holds no matter *which* wave the death hits."""
    reference = references["vmx"]
    n_waves = len(plan_waves(len(cases["vmx"]), 1))
    for k in range(n_waves - 1):
        db = str(tmp_path / f"kill-{k}.db")
        engine = make_engine(recordings, cases, "vmx", jobs=1)
        with CampaignStore(db) as store:
            with pytest.raises(CampaignInterrupted):
                CampaignController(
                    engine, store, wave_size=1, crash_after_wave=k,
                ).run()
        engine2 = make_engine(recordings, cases, "vmx", jobs=1)
        with CampaignStore(db) as store:
            resumed = CampaignController(
                engine2, store, wave_size=1
            ).run(resume=True)
        assert resumed.waves_resumed == k + 1
        assert_byte_identical(resumed, reference)


def _differential_engine(recordings, cases, jobs):
    """Same fixtures, differential oracle armed (vmx primary only)."""
    session = recordings["vmx"]
    return ParallelCampaign(
        session.trace, session.snapshot, cases["vmx"],
        campaign_seed=CAMPAIGN_SEED, jobs=jobs, arch="vmx",
        collect_metrics=True, differential=True,
    )


def test_differential_kill_after_every_wave(
    tmp_path, recordings, cases
):
    """Divergence records and comparison tallies survive interrupt +
    resume byte-identically no matter which wave the death hits, and
    the reloaded store itself holds the exact divergence rows."""
    reference = CampaignController(
        _differential_engine(recordings, cases, jobs=1), wave_size=1,
    ).run()
    ref_divergences = [r.divergences for r in reference.results]
    assert sum(len(d) for d in ref_divergences) > 0  # payload exists
    assert sum(r.seeds_compared for r in reference.results) > 0

    n_waves = len(plan_waves(len(cases["vmx"]), 1))
    for k in range(n_waves - 1):
        db = str(tmp_path / f"diff-kill-{k}.db")
        engine = _differential_engine(recordings, cases, jobs=1)
        with CampaignStore(db) as store:
            with pytest.raises(CampaignInterrupted):
                CampaignController(
                    engine, store, wave_size=1, crash_after_wave=k,
                ).run()
        engine2 = _differential_engine(recordings, cases, jobs=4)
        with CampaignStore(db) as store:
            resumed = CampaignController(
                engine2, store, wave_size=1
            ).run(resume=True)
            stored = store.divergence_records()
        assert resumed.waves_resumed == k + 1
        assert_byte_identical(resumed, reference)
        assert [r.divergences for r in resumed.results] == \
            ref_divergences
        assert [
            (r.seeds_compared, r.untranslatable_seeds)
            for r in resumed.results
        ] == [
            (r.seeds_compared, r.untranslatable_seeds)
            for r in reference.results
        ]
        assert stored == [
            d for divergences in ref_divergences for d in divergences
        ]


def test_controller_equals_plain_engine(
    tmp_path, recordings, cases, references
):
    """Without a store the controller runs the whole plan as one wave,
    whatever ``wave_size`` says; store-backed runs at every wave size
    land on the identical results, corpus, coverage, and metrics."""
    plain = references["vmx"]
    assert plain.waves_total == 1
    for wave_size in (1, 2, 3, 4):
        engine = make_engine(recordings, cases, "vmx", jobs=1)
        db = str(tmp_path / f"waves-{wave_size}.db")
        with CampaignStore(db) as store:
            controlled = CampaignController(
                engine, store, wave_size=wave_size
            ).run()
        assert controlled.waves_total == len(plan_waves(4, wave_size))
        assert_byte_identical(controlled, plain)


def test_wave_size_does_not_change_checkpointed_output(
    tmp_path, recordings, cases, references
):
    """Checkpoint granularity is invisible in the merged output."""
    reference = references["vmx"]
    db = str(tmp_path / "wide-waves.db")
    engine = make_engine(recordings, cases, "vmx", jobs=1)
    with CampaignStore(db) as store:
        run = CampaignController(engine, store, wave_size=3).run()
    assert run.waves_total == 2  # 3 cells + 1 cell
    assert_byte_identical(run, reference)


def test_resume_of_completed_campaign_is_a_noop(
    tmp_path, recordings, cases, references
):
    db = str(tmp_path / "complete.db")
    engine = make_engine(recordings, cases, "vmx", jobs=1)
    with CampaignStore(db) as store:
        CampaignController(engine, store, wave_size=1).run()
    engine2 = make_engine(recordings, cases, "vmx", jobs=1)
    with CampaignStore(db) as store:
        resumed = CampaignController(
            engine2, store, wave_size=1
        ).run(resume=True)
    assert resumed.waves_resumed == resumed.waves_total == 4
    assert_byte_identical(resumed, references["vmx"])


def test_store_reuse_without_resume_refused(
    tmp_path, recordings, cases
):
    db = str(tmp_path / "reuse.db")
    engine = make_engine(recordings, cases, "vmx", jobs=1)
    with CampaignStore(db) as store:
        with pytest.raises(CampaignInterrupted):
            CampaignController(
                engine, store, wave_size=1, crash_after_wave=0,
            ).run()
    engine2 = make_engine(recordings, cases, "vmx", jobs=1)
    with CampaignStore(db) as store:
        with pytest.raises(StoreMismatchError, match="already holds"):
            CampaignController(engine2, store, wave_size=1).run()


def test_resume_with_mismatched_identity_refused(
    tmp_path, recordings, cases
):
    db = str(tmp_path / "mismatch.db")
    engine = make_engine(recordings, cases, "vmx", jobs=1)
    with CampaignStore(db) as store:
        with pytest.raises(CampaignInterrupted):
            CampaignController(
                engine, store, wave_size=1, crash_after_wave=0,
            ).run()
    # different campaign seed -> different deterministic identity
    session = recordings["vmx"]
    other = ParallelCampaign(
        session.trace, session.snapshot, cases["vmx"],
        campaign_seed=CAMPAIGN_SEED + 1, jobs=1,
        collect_metrics=True,
    )
    with CampaignStore(db) as store:
        with pytest.raises(
            StoreMismatchError, match="campaign_seed"
        ):
            CampaignController(
                other, store, wave_size=1
            ).run(resume=True)


def test_resume_of_empty_store_refused(tmp_path, recordings, cases):
    db = str(tmp_path / "empty.db")
    engine = make_engine(recordings, cases, "vmx", jobs=1)
    with CampaignStore(db) as store:
        with pytest.raises(StoreMismatchError, match="no campaign"):
            CampaignController(
                engine, store, wave_size=1
            ).run(resume=True)
