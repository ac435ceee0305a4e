"""Robustness of the campaign store's row decoders against tampering.

A resumed campaign trusts nothing it reads back: whatever a column
holds, the store may raise only :class:`CorruptStoreError`.  Each
table has one row decoder, shared by every reader of that table, so a
tampered column is refused the same way by ``validate()`` and by the
readers resume, reporting and checkpointing call (``load_results``,
``completed_waves``, ``failure_records``, ``divergence_records``,
``checkpoint_wave``).

Every case below writes one bad value into one column of a valid
store (a cell with a corpus entry, a failure and a divergence) and
checks each reader of that table — including the next checkpoint,
which reads the crash bucket its failure falls into.
"""

from __future__ import annotations

import pytest

from repro.campaign import CampaignConfig, CampaignStore
from repro.core.seed import SeedEntry, VMSeed
from repro.errors import CorruptStoreError
from repro.fuzz.corpus import Corpus, CorpusEntry
from repro.fuzz.differential import DivergenceKind, DivergenceRecord
from repro.fuzz.failures import FailureKind, FailureRecord
from repro.fuzz.fuzzer import FuzzResult
from repro.fuzz.mutations import MutationArea
from repro.fuzz.parallel import WaveOutcome
from repro.obs import MetricsRegistry
from repro.vmx.exit_reasons import ExitReason
from repro.x86.registers import GPR

_SEED = VMSeed(
    exit_reason=int(ExitReason.RDTSC),
    entries=[SeedEntry.for_gpr(GPR.RAX, 0x42)],
)

#: Every reader, by the tables it decodes.
READERS = {
    "validate": (
        lambda store: store.validate(),
        {"waves", "cells", "corpus_entries", "failures", "divergences",
         "crash_buckets"},
    ),
    "load_results": (
        lambda store: store.load_results(),
        {"cells", "corpus_entries", "failures", "divergences"},
    ),
    "completed_waves": (
        lambda store: store.completed_waves(), {"waves"},
    ),
    "failure_records": (
        lambda store: store.failure_records(), {"failures"},
    ),
    "divergence_records": (
        lambda store: store.divergence_records(), {"divergences"},
    ),
    "corpus": (
        lambda store: store.corpus(),
        {"cells", "corpus_entries", "failures", "divergences"},
    ),
    # The next checkpoint folds the wave's crash into the stored bucket.
    "checkpoint_wave": (
        lambda store: store.checkpoint_wave(
            1, [1], WaveOutcome(results={1: _result()})
        ),
        {"crash_buckets"},
    ),
}

#: (table, column, tampered value).
TAMPERING = [
    ("failures", "kind", "bogus"),
    ("failures", "log_tail", "{x"),
    ("failures", "log_tail", "[1, 2]"),
    ("failures", "entries", b"\x01"),
    ("failures", "entry_count", 1 << 40),
    ("cells", "area", "bogus"),
    ("cells", "exit_reason", 0xFFFF),
    ("cells", "new_lines", "{x"),
    ("corpus_entries", "entries", b"\xff" * 3),
    ("corpus_entries", "entry_count", -1),
    ("divergences", "kind", "bogus"),
    ("divergences", "entries", b""),
    ("waves", "metrics", "{x"),
    ("waves", "metrics", "[]"),
    ("waves", "cell_indices", "{x"),
    ("waves", "cell_indices", '["zero"]'),
    ("waves", "abandoned", "null"),
    ("crash_buckets", "seed_reasons", "{x"),
    ("crash_buckets", "kind", "bogus"),
    ("crash_buckets", "count", "many"),
]


def _result() -> FuzzResult:
    return FuzzResult(
        workload="cpu-bound",
        exit_reason=ExitReason.RDTSC,
        area=MutationArea.VMCS,
        mutations_run=5,
        hypervisor_crashes=1,
        failures=[FailureRecord(
            kind=FailureKind.HYPERVISOR_CRASH,
            cause="corrupt exit-reason field",
            crash_reason="synthetic crash",
            mutation_index=3,
            seed=_SEED,
            log_tail=("line one", "line two"),
        )],
        corpus=Corpus.from_entries([CorpusEntry(
            seed=_SEED, reason_kept="new-coverage", new_loc=2,
            coverage_fingerprint="abcd",
        )]),
        new_lines=frozenset({("arch/x86/hvm/hvm.c", 120)}),
        divergences=(DivergenceRecord(
            kind=DivergenceKind.OUTCOME, mutation_index=3, seed=_SEED,
            vmx_outcome="hypervisor-crash", svm_outcome="ok",
            detail="vmx hypervisor-crash vs svm ok",
        ),),
        seeds_compared=5,
    )


def _store() -> CampaignStore:
    registry = MetricsRegistry(record_wall=False)
    registry.inc("fuzz_mutations", value=5)
    store = CampaignStore(":memory:")
    store.initialize(CampaignConfig(campaign_seed=7, n_cells=1))
    store.checkpoint_wave(0, [0], WaveOutcome(
        results={0: _result()}, metrics=registry.snapshot(),
    ))
    return store


def test_untampered_store_reads_back():
    store = _store()
    for read, _tables in READERS.values():
        read(store)
    store.close()


@pytest.mark.parametrize(
    "table, column, value", TAMPERING,
    ids=[f"{t}.{c}={v!r}" for t, c, v in TAMPERING],
)
def test_tampered_column_raises_only_corrupt_store_error(
    table, column, value
):
    store = _store()
    with store._conn:
        store._conn.execute(f"UPDATE {table} SET {column} = ?", (value,))
    readers = [
        (name, read) for name, (read, tables) in READERS.items()
        if table in tables
    ]
    assert readers
    for name, read in readers:
        with pytest.raises(CorruptStoreError, match="undecodable"):
            read(store)
    store.close()
