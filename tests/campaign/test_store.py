"""Property tests for :class:`CampaignStore` serialization fidelity.

The resume determinism argument leans on the store round-tripping
every artifact *exactly* — a reloaded wave must be indistinguishable
from the wave that was saved.  Hypothesis generates arbitrary corpus
entries, coverage maps, and failure records (including seeds whose
``exit_reason`` carries bits above the 16 the wire format keeps) and
checks save→load→save is the identity.  The schema-version gate is
pinned by message: stores from other builds refuse loudly.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.arch.fields import ALL_FIELDS
from repro.campaign import CampaignConfig, CampaignStore
from repro.campaign.store import SCHEMA_VERSION
from repro.core.seed import SeedEntry, SeedFlag, VMSeed
from repro.errors import (
    CampaignStoreError,
    CorruptStoreError,
    StoreMismatchError,
    StoreSchemaError,
)
from repro.fuzz.corpus import Corpus, CorpusEntry
from repro.fuzz.differential import DivergenceKind, DivergenceRecord
from repro.fuzz.failures import FailureKind, FailureRecord
from repro.fuzz.fuzzer import FuzzResult
from repro.fuzz.mutations import MutationArea
from repro.fuzz.parallel import WaveOutcome
from repro.hypervisor.coverage import CoverageMap
from repro.obs import MetricsRegistry
from repro.vmx.exit_reasons import ExitReason
from repro.x86.registers import GPR

# ---- strategies ------------------------------------------------------

_files = st.sampled_from([
    "arch/x86/hvm/vmx/vmx.c",
    "arch/x86/hvm/hvm.c",
    "arch/x86/mm/p2m-ept.c",
])
_line_sets = st.frozensets(
    st.tuples(_files, st.integers(min_value=100, max_value=180)),
    max_size=20,
)

_gpr_entries = st.builds(
    SeedEntry.for_gpr,
    st.sampled_from([GPR.RAX, GPR.RBX, GPR.RSI, GPR.R15]),
    st.integers(min_value=0, max_value=(1 << 64) - 1),
)
_vmcs_entries = st.builds(
    SeedEntry.for_vmcs,
    st.sampled_from([SeedFlag.VMCS_READ, SeedFlag.VMCS_WRITE]),
    st.sampled_from(list(ALL_FIELDS)),
    st.integers(min_value=0, max_value=(1 << 64) - 1),
)

#: Seeds with exit reasons above 16 bits (e.g. the VM-entry-failure
#: bit 31): ``VMSeed.pack()`` masks the reason, so these only survive
#: if the store persists the full integer separately — the regression
#: this strategy exists to catch.
_seeds = st.builds(
    VMSeed,
    exit_reason=st.one_of(
        st.sampled_from([int(ExitReason.RDTSC), int(ExitReason.CPUID)]),
        st.integers(min_value=0, max_value=(1 << 32) - 1),
    ),
    entries=st.lists(
        st.one_of(_gpr_entries, _vmcs_entries), min_size=1, max_size=4,
    ),
)

_corpus_entries = st.builds(
    CorpusEntry,
    seed=_seeds,
    reason_kept=st.sampled_from(
        ["new-coverage", "vm-crash", "hypervisor-crash"]
    ),
    new_loc=st.integers(min_value=0, max_value=50),
    coverage_fingerprint=st.text(
        alphabet="0123456789abcdef", min_size=4, max_size=16,
    ),
)

_divergence_records = st.builds(
    DivergenceRecord,
    kind=st.sampled_from(list(DivergenceKind)),
    mutation_index=st.integers(min_value=-1, max_value=400),
    seed=_seeds,
    vmx_outcome=st.sampled_from(["ok", "vm-crash"]),
    svm_outcome=st.sampled_from(["ok", "hypervisor-crash"]),
    detail=st.sampled_from([
        "echo-writes disagree: only-vmx [GUEST_RIP=0x7c00]",
        "coverage deltas disagree: only-svm [hvm.c:140]",
        "vmx vm-crash vs svm ok",
    ]),
)

_failures = st.builds(
    FailureRecord,
    kind=st.sampled_from(
        [FailureKind.VM_CRASH, FailureKind.HYPERVISOR_CRASH]
    ),
    cause=st.text(min_size=1, max_size=30),
    crash_reason=st.text(min_size=1, max_size=40),
    mutation_index=st.integers(min_value=0, max_value=10_000),
    seed=_seeds,
    log_tail=st.lists(
        st.text(max_size=30), max_size=4,
    ).map(tuple),
)


@st.composite
def fuzz_results(draw) -> FuzzResult:
    lines = draw(_line_sets)
    return FuzzResult(
        workload="cpu-bound",
        exit_reason=draw(st.sampled_from(
            [ExitReason.RDTSC, ExitReason.CPUID, ExitReason.VMCALL]
        )),
        area=draw(st.sampled_from(list(MutationArea))),
        mutations_run=draw(st.integers(min_value=1, max_value=500)),
        baseline_loc=draw(st.integers(min_value=0, max_value=400)),
        new_loc=len(lines),
        vm_crashes=draw(st.integers(min_value=0, max_value=9)),
        hypervisor_crashes=draw(st.integers(min_value=0, max_value=9)),
        failures=draw(st.lists(_failures, max_size=4)),
        corpus=Corpus.from_entries(
            draw(st.lists(_corpus_entries, max_size=5))
        ),
        new_lines=lines,
        divergences=tuple(
            draw(st.lists(_divergence_records, max_size=4))
        ),
        seeds_compared=draw(st.integers(min_value=0, max_value=500)),
        untranslatable_seeds=draw(
            st.integers(min_value=0, max_value=50)
        ),
    )


def _config(n_cells: int) -> CampaignConfig:
    return CampaignConfig(campaign_seed=7, n_cells=n_cells)


def _wave(results: dict[int, FuzzResult]) -> WaveOutcome:
    registry = MetricsRegistry(record_wall=False)
    registry.inc("fuzz_mutations", value=sum(
        r.mutations_run for r in results.values()
    ))
    return WaveOutcome(results=results, metrics=registry.snapshot())


def _dump(store: CampaignStore) -> list[str]:
    """Canonical row-level dump of every table (for byte comparison)."""
    return sorted(store._conn.iterdump())


# ---- round trips -----------------------------------------------------

class TestRoundTrip:
    @settings(max_examples=40, deadline=None)
    @given(results=st.lists(fuzz_results(), min_size=1, max_size=3))
    def test_save_load_save_is_identity(self, results):
        cells = dict(enumerate(results))
        first = CampaignStore(":memory:")
        first.initialize(_config(len(cells)))
        first.checkpoint_wave(0, sorted(cells), _wave(cells))

        loaded = first.load_results()
        assert loaded == cells  # exact dataclass equality, all fields

        second = CampaignStore(":memory:")
        second.initialize(_config(len(cells)))
        second.checkpoint_wave(0, sorted(loaded), _wave(loaded))
        assert _dump(first) == _dump(second)
        first.close()
        second.close()

    @settings(max_examples=40, deadline=None)
    @given(entries=st.lists(_corpus_entries, min_size=1, max_size=6))
    def test_corpus_entries_round_trip(self, entries):
        corpus = Corpus.from_entries(entries)
        result = FuzzResult(
            workload="w", exit_reason=ExitReason.RDTSC,
            area=MutationArea.GPR, mutations_run=1, corpus=corpus,
        )
        store = CampaignStore(":memory:")
        store.initialize(_config(1))
        store.checkpoint_wave(0, [0], WaveOutcome(results={0: result}))
        reloaded = store.load_results()[0].corpus
        assert reloaded == corpus
        assert reloaded.entries == corpus.entries  # discovery order
        assert reloaded._fingerprints == corpus._fingerprints
        store.close()

    @settings(max_examples=40, deadline=None)
    @given(records=st.lists(_failures, min_size=1, max_size=6))
    def test_failure_records_round_trip(self, records):
        result = FuzzResult(
            workload="w", exit_reason=ExitReason.CPUID,
            area=MutationArea.VMCS, mutations_run=1, failures=records,
        )
        store = CampaignStore(":memory:")
        store.initialize(_config(1))
        store.checkpoint_wave(0, [0], WaveOutcome(results={0: result}))
        assert store.load_results()[0].failures == records
        assert store.failure_records() == records
        store.close()

    @settings(max_examples=40, deadline=None)
    @given(lines=_line_sets)
    def test_coverage_round_trips_and_frontier_accumulates(self, lines):
        result = FuzzResult(
            workload="w", exit_reason=ExitReason.RDTSC,
            area=MutationArea.GPR, mutations_run=1,
            new_loc=len(lines), new_lines=lines,
        )
        store = CampaignStore(":memory:")
        store.initialize(_config(1))
        store.checkpoint_wave(0, [0], WaveOutcome(results={0: result}))
        assert store.load_results()[0].new_lines == lines
        assert store.coverage_frontier().lines() == lines
        store.close()

    def test_config_round_trips(self):
        config = CampaignConfig(
            campaign_seed=0xC0FFEE, n_cells=4, shards_per_cell=2,
            wave_size=3, arch="svm",
            collect_metrics=True, differential=True,
            extra=(("exits", "200"), ("workload", "cpu-bound")),
        )
        assert CampaignConfig.from_json(config.to_json()) == config
        store = CampaignStore(":memory:")
        store.initialize(config)
        assert store.config() == config
        store.close()

    @pytest.mark.parametrize("stored", [True, False])
    def test_older_config_fast_reset_key_dropped(self, stored):
        """Configs written before campaigns had one reset policy carry
        a ``fast_reset`` key; either value loads as if it were absent."""
        config = _config(2)
        payload = json.loads(config.to_json())
        payload["fast_reset"] = stored
        assert CampaignConfig.from_json(json.dumps(payload)) == config

    def test_wave_metrics_round_trip(self):
        result = FuzzResult(
            workload="w", exit_reason=ExitReason.RDTSC,
            area=MutationArea.GPR, mutations_run=7,
        )
        store = CampaignStore(":memory:")
        store.initialize(_config(1))
        wave = _wave({0: result})
        store.checkpoint_wave(0, [0], wave)
        [stored] = store.completed_waves()
        assert stored.metrics == wave.metrics
        assert stored.metrics is not None
        assert wave.metrics is not None
        assert stored.metrics.to_json() == wave.metrics.to_json()
        store.close()


# ---- divergence persistence and authenticity -------------------------

def _differential_store(
    records: list[DivergenceRecord],
) -> CampaignStore:
    result = FuzzResult(
        workload="w", exit_reason=ExitReason.RDTSC,
        area=MutationArea.VMCS, mutations_run=len(records) or 1,
        divergences=tuple(records), seeds_compared=len(records),
    )
    store = CampaignStore(":memory:")
    store.initialize(_config(1))
    store.checkpoint_wave(0, [0], WaveOutcome(results={0: result}))
    return store


class TestDivergenceIntegrity:
    @settings(max_examples=40, deadline=None)
    @given(records=st.lists(_divergence_records, max_size=6))
    def test_divergences_round_trip(self, records):
        store = _differential_store(records)
        reloaded = store.load_results()[0]
        assert reloaded.divergences == tuple(records)  # order kept
        assert reloaded.seeds_compared == len(records)
        assert store.divergence_records() == records
        store.validate()
        store.close()

    def test_tampered_divergence_row_fails_validation(self):
        """An edited row cannot keep its stored signature honest —
        ``validate()`` recomputes it from the row's own fields."""
        store = _differential_store([
            DivergenceRecord(
                kind=DivergenceKind.ECHO_WRITE, mutation_index=4,
                seed=VMSeed(
                    exit_reason=int(ExitReason.RDTSC),
                    entries=[SeedEntry.for_gpr(GPR.RAX, 0x42)],
                ),
                vmx_outcome="ok", svm_outcome="ok",
                detail="echo-writes disagree: only-vmx [RAX=0x1]",
            ),
        ])
        store.validate()  # honest store passes
        with store._conn:
            store._conn.execute(
                "UPDATE divergences SET detail = "
                "'echo-writes disagree: only-svm [RAX=0x1]'"
            )
        with pytest.raises(
            CorruptStoreError,
            match="does not match its stored signature",
        ):
            store.validate()
        store.close()

    def test_undecodable_divergence_row_fails_validation(self):
        store = _differential_store([
            DivergenceRecord(
                kind=DivergenceKind.OUTCOME, mutation_index=0,
                seed=VMSeed(
                    exit_reason=int(ExitReason.CPUID),
                    entries=[SeedEntry.for_gpr(GPR.RBX, 1)],
                ),
                vmx_outcome="vm-crash", svm_outcome="ok",
                detail="vmx vm-crash vs svm ok",
            ),
        ])
        with store._conn:
            store._conn.execute(
                "UPDATE divergences SET kind = 'no-such-kind'"
            )
        with pytest.raises(CorruptStoreError, match="undecodable"):
            store.validate()
        store.close()

    def test_resigning_a_tampered_row_still_fails(self):
        """Re-signing with a bogus signature string doesn't help: the
        signature is recomputed, never trusted."""
        store = _differential_store([
            DivergenceRecord(
                kind=DivergenceKind.COVERAGE, mutation_index=2,
                seed=VMSeed(
                    exit_reason=int(ExitReason.RDTSC),
                    entries=[SeedEntry.for_gpr(GPR.RSI, 9)],
                ),
                vmx_outcome="ok", svm_outcome="ok",
                detail="coverage deltas disagree",
            ),
        ])
        with store._conn:
            store._conn.execute(
                "UPDATE divergences SET vmx_outcome = 'vm-crash', "
                "signature = 'deadbeef'"
            )
        with pytest.raises(
            CorruptStoreError,
            match="altered after checkpoint",
        ):
            store.validate()
        store.close()


# ---- schema gate -----------------------------------------------------

class TestSchemaGate:
    def _versioned_store(self, version: int) -> CampaignStore:
        store = CampaignStore(":memory:")
        store.initialize(_config(1))
        with store._conn:
            store._conn.execute(
                "UPDATE meta SET value=? WHERE key='schema_version'",
                (str(version),),
            )
        return store

    def test_unknown_schema_version_raises_pinned_message(self):
        store = self._versioned_store(99)
        expected = (
            "campaign store schema version 99 is not supported "
            f"(expected {SCHEMA_VERSION})"
        )
        with pytest.raises(StoreSchemaError) as excinfo:
            store.config()
        assert str(excinfo.value) == expected
        with pytest.raises(StoreSchemaError):
            _ = store.initialized
        store.close()

    def test_schema_error_is_a_campaign_store_error(self):
        # typed: callers can catch the whole family in one clause
        assert issubclass(StoreSchemaError, CampaignStoreError)
        assert issubclass(CorruptStoreError, CampaignStoreError)
        assert issubclass(StoreMismatchError, CampaignStoreError)

    def test_current_schema_version_loads(self):
        store = self._versioned_store(SCHEMA_VERSION)
        assert store.initialized
        store.close()


# ---- misuse ----------------------------------------------------------

class TestStoreMisuse:
    def test_double_initialize_refused(self):
        store = CampaignStore(":memory:")
        store.initialize(_config(1))
        with pytest.raises(StoreMismatchError, match="already holds"):
            store.initialize(_config(1))
        store.close()

    def test_out_of_order_checkpoint_refused(self):
        result = FuzzResult(
            workload="w", exit_reason=ExitReason.RDTSC,
            area=MutationArea.GPR, mutations_run=1,
        )
        store = CampaignStore(":memory:")
        store.initialize(_config(4))
        with pytest.raises(StoreMismatchError, match="expects wave 0"):
            store.checkpoint_wave(
                2, [2], WaveOutcome(results={2: result})
            )
        store.checkpoint_wave(0, [0], WaveOutcome(results={0: result}))
        with pytest.raises(StoreMismatchError, match="expects wave 1"):
            store.checkpoint_wave(
                0, [0], WaveOutcome(results={0: result})
            )
        store.close()

    def test_empty_store_has_no_waves(self):
        store = CampaignStore(":memory:")
        store.initialize(_config(1))
        assert store.last_completed_wave() is None
        assert store.completed_waves() == []
        assert store.load_results() == {}
        assert store.coverage_frontier().lines() == frozenset()
        assert len(store.corpus()) == 0
        store.validate()
        store.close()
