"""SQLite-backed persistent campaign store.

The control plane's durability layer: everything a long-running
campaign accumulates — per-cell fuzz results, the retained-mutant
corpus, the cumulative coverage frontier, deduplicated crash buckets,
per-wave metrics — is written to one SQLite file in a **single
transaction per wave** (:meth:`CampaignStore.checkpoint_wave`).  A
process death between checkpoints therefore loses at most the wave in
flight; SQLite's journal guarantees a torn write rolls back to the
previous wave boundary instead of leaving partial state.

Serialization choices mirror the codecs the rest of the tree already
pins property tests on:

* seeds go through :func:`repro.core.seed.pack_entries` (the batched
  10-byte-entry codec), with the **full** ``exit_reason`` integer in
  its own column — ``VMSeed.pack()`` masks the reason to 16 bits, so
  round-tripping through ``pack()`` alone would not be faithful;
* coverage sets go through :meth:`CoverageMap.to_json` (the canonical
  bitmap JSON form);
* metrics go through :meth:`MetricsSnapshot.to_json`.

Anything doubtful about a store raises a typed
:class:`repro.errors.CampaignStoreError` subclass — resume never
guesses (see :meth:`validate`).
"""

from __future__ import annotations

import inspect
import json
import sqlite3
from dataclasses import dataclass, field, fields
from typing import Any, Callable, Iterator, Sequence

from repro.errors import (
    CorruptStoreError,
    StoreMismatchError,
    StoreSchemaError,
)
from repro.core.jsoncodec import JsonCodec
from repro.core.seed import VMSeed, pack_entries, unpack_entries
from repro.fuzz.corpus import Corpus, CorpusEntry
from repro.fuzz.differential import (
    DivergenceKind,
    DivergenceRecord,
    divergence_signature,
)
from repro.fuzz.failures import FailureKind, FailureRecord
from repro.fuzz.fuzzer import FuzzResult
from repro.fuzz.mutations import MutationArea
from repro.fuzz.parallel import WaveOutcome
from repro.fuzz.triage import crash_signature
from repro.hypervisor.coverage import CoverageMap
from repro.obs import MetricsSnapshot
from repro.vmx.exit_reasons import ExitReason, reason_name

#: Bump on any incompatible schema change.  A store written by a
#: different version refuses to load with a :class:`StoreSchemaError`
#: whose message is pinned by the campaign test suite.
#: v2: differential mode — cells carry comparison tallies, divergence
#: records persist in their own table with recomputable signatures.
SCHEMA_VERSION = 2

_TABLES = (
    "meta", "waves", "cells", "corpus_entries", "failures",
    "coverage_frontier", "crash_buckets", "divergences",
)

_SCHEMA = """
CREATE TABLE meta (
    key TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE waves (
    wave_index INTEGER PRIMARY KEY,
    cell_indices TEXT NOT NULL,
    abandoned TEXT NOT NULL,
    metrics TEXT
);
CREATE TABLE cells (
    cell_index INTEGER PRIMARY KEY,
    wave_index INTEGER NOT NULL,
    workload TEXT NOT NULL,
    exit_reason INTEGER NOT NULL,
    area TEXT NOT NULL,
    mutations_run INTEGER NOT NULL,
    baseline_loc INTEGER NOT NULL,
    new_loc INTEGER NOT NULL,
    vm_crashes INTEGER NOT NULL,
    hypervisor_crashes INTEGER NOT NULL,
    new_lines TEXT NOT NULL,
    seeds_compared INTEGER NOT NULL DEFAULT 0,
    untranslatable_seeds INTEGER NOT NULL DEFAULT 0
);
CREATE TABLE corpus_entries (
    cell_index INTEGER NOT NULL,
    position INTEGER NOT NULL,
    reason_kept TEXT NOT NULL,
    new_loc INTEGER NOT NULL,
    fingerprint TEXT NOT NULL,
    exit_reason INTEGER NOT NULL,
    entry_count INTEGER NOT NULL,
    entries BLOB NOT NULL,
    PRIMARY KEY (cell_index, position)
);
CREATE TABLE failures (
    cell_index INTEGER NOT NULL,
    position INTEGER NOT NULL,
    kind TEXT NOT NULL,
    cause TEXT NOT NULL,
    crash_reason TEXT NOT NULL,
    mutation_index INTEGER NOT NULL,
    exit_reason INTEGER NOT NULL,
    entry_count INTEGER NOT NULL,
    entries BLOB NOT NULL,
    log_tail TEXT NOT NULL,
    signature TEXT NOT NULL,
    PRIMARY KEY (cell_index, position)
);
CREATE TABLE coverage_frontier (
    wave_index INTEGER PRIMARY KEY,
    coverage TEXT NOT NULL
);
CREATE TABLE crash_buckets (
    signature TEXT PRIMARY KEY,
    kind TEXT NOT NULL,
    cause TEXT NOT NULL,
    count INTEGER NOT NULL,
    seed_reasons TEXT NOT NULL
);
CREATE TABLE divergences (
    cell_index INTEGER NOT NULL,
    position INTEGER NOT NULL,
    kind TEXT NOT NULL,
    mutation_index INTEGER NOT NULL,
    vmx_outcome TEXT NOT NULL,
    svm_outcome TEXT NOT NULL,
    detail TEXT NOT NULL,
    exit_reason INTEGER NOT NULL,
    entry_count INTEGER NOT NULL,
    entries BLOB NOT NULL,
    signature TEXT NOT NULL,
    PRIMARY KEY (cell_index, position)
);
"""


# ---- campaign identity ------------------------------------------------

@dataclass(frozen=True)
class CampaignConfig:
    """The deterministic identity of a campaign.

    Everything the merged result is a pure function of (the determinism
    contract in :mod:`repro.fuzz.parallel`), plus the wave plan —
    resume maps "last completed wave" back to cell sets, so the
    partition must not drift between runs.  ``jobs`` is deliberately
    absent: worker count never changes results, so a campaign may be
    resumed with a different ``--jobs`` value.

    ``extra`` carries opaque caller parameters (the CLI stores its
    recording knobs there so ``--resume`` can re-record the identical
    trace) as a sorted key/value tuple; it participates in identity.
    """

    campaign_seed: int
    n_cells: int
    shards_per_cell: int = 1
    wave_size: int = 1
    arch: str = "vmx"
    collect_metrics: bool = False
    differential: bool = False
    #: Mutation engine the campaign's cases run ("poc"/"smart").
    #: First-class (not ``extra``) so resume restores it and mismatch
    #: errors name it; defaults keep pre-engine stores loadable.
    engine: str = "poc"
    extra: tuple[tuple[str, str], ...] = ()

    def to_json(self) -> str:
        payload: dict[str, Any] = {
            f.name: getattr(self, f.name) for f in fields(self)
        }
        payload["extra"] = dict(self.extra)
        return json.dumps(payload, sort_keys=True,
                          separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "CampaignConfig":
        payload = json.loads(text)
        # Stores written before campaigns had one reset policy carry a
        # ``fast_reset`` flag.  It never changed a result byte, so such
        # a store resumes as if the key had never been written.
        payload.pop("fast_reset", None)
        extra = tuple(sorted(
            (str(k), str(v))
            for k, v in payload.pop("extra", {}).items()
        ))
        return cls(extra=extra, **payload)

    def describe_diff(self, other: "CampaignConfig") -> str:
        """Human-readable field-by-field diff (for mismatch errors)."""
        diffs = []
        for f in fields(self):
            mine, theirs = getattr(self, f.name), getattr(other, f.name)
            if mine != theirs:
                diffs.append(f"{f.name}: stored={mine!r} requested={theirs!r}")
        return "; ".join(diffs) or "identical"


@dataclass(frozen=True)
class StoredWave:
    """One completed wave as reloaded from the store."""

    wave_index: int
    cell_indices: tuple[int, ...]
    abandoned: tuple[int, ...]
    metrics: MetricsSnapshot | None


# ---- the store --------------------------------------------------------

class CampaignStore:
    """Transactional persistence for a resumable campaign.

    Use as a context manager or call :meth:`close` explicitly.  A path
    of ``":memory:"`` keeps the store in RAM (the property tests use
    this for speed); any other path is a SQLite file on disk.

    The ``fault_hook`` attribute, when set, is invoked with a named
    checkpoint-internal position (``"wave-row"``, ``"cell-rows"``,
    ``"frontier"``, ``"before-commit"``) from *inside* the wave
    transaction — the torn-checkpoint tests raise from it to prove a
    mid-write death rolls back cleanly.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self.fault_hook: Callable[[str], None] | None = None
        try:
            self._conn = sqlite3.connect(path)
        except sqlite3.Error as exc:  # pragma: no cover - defensive
            raise CorruptStoreError(
                f"cannot open campaign store {path!r}: {exc}"
            ) from exc

    # -- lifecycle -----------------------------------------------------

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "CampaignStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _hook(self, point: str) -> None:
        if self.fault_hook is not None:
            self.fault_hook(point)

    def _query(self, sql: str, params: Sequence[Any] = ()) -> list[Any]:
        """Run a read-only query, mapping SQLite damage to our error."""
        try:
            return list(self._conn.execute(sql, params))
        except sqlite3.DatabaseError as exc:
            raise CorruptStoreError(
                f"campaign store {self.path!r} is unreadable: {exc}"
            ) from exc

    # -- identity ------------------------------------------------------

    @property
    def initialized(self) -> bool:
        """Whether the store already holds a campaign.

        Raises :class:`StoreSchemaError` when it holds one written by
        an incompatible schema version, and :class:`CorruptStoreError`
        when the file is not a readable SQLite database.
        """
        rows = self._query(
            "SELECT name FROM sqlite_master "
            "WHERE type='table' AND name='meta'"
        )
        if not rows:
            return False
        self._check_schema_version()
        return True

    def _check_schema_version(self) -> None:
        rows = self._query(
            "SELECT value FROM meta WHERE key='schema_version'"
        )
        if not rows:
            raise CorruptStoreError(
                f"campaign store {self.path!r} has no schema version"
            )
        found = int(rows[0][0])
        if found != SCHEMA_VERSION:
            raise StoreSchemaError(
                f"campaign store schema version {found} is not "
                f"supported (expected {SCHEMA_VERSION})"
            )

    def initialize(self, config: CampaignConfig) -> None:
        """Create the schema and record the campaign's identity."""
        if self.initialized:
            raise StoreMismatchError(
                f"campaign store {self.path!r} already holds a "
                "campaign; resume it or use a fresh store"
            )
        with self._conn:
            self._conn.executescript(_SCHEMA)
            self._conn.executemany(
                "INSERT INTO meta (key, value) VALUES (?, ?)",
                [
                    ("schema_version", str(SCHEMA_VERSION)),
                    ("config", config.to_json()),
                ],
            )

    def config(self) -> CampaignConfig:
        self._check_schema_version()
        rows = self._query(
            "SELECT value FROM meta WHERE key='config'"
        )
        if not rows:
            raise CorruptStoreError(
                f"campaign store {self.path!r} has no campaign config"
            )
        return CampaignConfig.from_json(rows[0][0])

    # -- checkpointing -------------------------------------------------

    def checkpoint_wave(
        self,
        wave_index: int,
        cell_indices: Sequence[int],
        wave: WaveOutcome,
    ) -> None:
        """Persist one completed wave in a single transaction.

        Either the whole wave — cell results, corpus rows, failure
        rows, the advanced coverage frontier, crash-bucket tallies, and
        the wave row itself — commits, or none of it does.
        """
        last = self.last_completed_wave()
        expected = 0 if last is None else last + 1
        if wave_index != expected:
            raise StoreMismatchError(
                f"checkpoint for wave {wave_index} but store expects "
                f"wave {expected}"
            )
        frontier = self.coverage_frontier().union(CoverageMap.union_all(
            CoverageMap(result.new_lines)
            for result in wave.results.values()
        ))
        try:
            with self._conn:
                self._conn.execute(
                    "INSERT INTO waves (wave_index, cell_indices, "
                    "abandoned, metrics) VALUES (?, ?, ?, ?)",
                    (
                        wave_index,
                        json.dumps(sorted(cell_indices)),
                        json.dumps(sorted(wave.abandoned)),
                        None if wave.metrics is None
                        else wave.metrics.to_json(),
                    ),
                )
                self._hook("wave-row")
                for cell_index in sorted(wave.results):
                    self._insert_cell(
                        wave_index, cell_index,
                        wave.results[cell_index],
                    )
                self._hook("cell-rows")
                self._conn.execute(
                    "INSERT INTO coverage_frontier "
                    "(wave_index, coverage) VALUES (?, ?)",
                    (wave_index, frontier.to_json()),
                )
                self._hook("frontier")
                self._update_crash_buckets(wave)
                self._hook("before-commit")
        except sqlite3.DatabaseError as exc:
            raise CorruptStoreError(
                f"checkpoint of wave {wave_index} failed: {exc}"
            ) from exc

    def _insert_cell(
        self, wave_index: int, cell_index: int, result: FuzzResult
    ) -> None:
        self._conn.execute(
            "INSERT INTO cells (cell_index, wave_index, workload, "
            "exit_reason, area, mutations_run, baseline_loc, new_loc, "
            "vm_crashes, hypervisor_crashes, new_lines, "
            "seeds_compared, untranslatable_seeds) "
            "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
            (
                cell_index,
                wave_index,
                result.workload,
                int(result.exit_reason.value),
                result.area.value,
                result.mutations_run,
                result.baseline_loc,
                result.new_loc,
                result.vm_crashes,
                result.hypervisor_crashes,
                CoverageMap(result.new_lines).to_json(),
                result.seeds_compared,
                result.untranslatable_seeds,
            ),
        )
        self._conn.executemany(
            "INSERT INTO corpus_entries (cell_index, position, "
            "reason_kept, new_loc, fingerprint, exit_reason, "
            "entry_count, entries) VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
            [
                (
                    cell_index, position, entry.reason_kept,
                    entry.new_loc, entry.coverage_fingerprint,
                    entry.seed.exit_reason, len(entry.seed.entries),
                    pack_entries(entry.seed.entries),
                )
                for position, entry in enumerate(result.corpus.entries)
            ],
        )
        self._conn.executemany(
            "INSERT INTO failures (cell_index, position, kind, cause, "
            "crash_reason, mutation_index, exit_reason, entry_count, "
            "entries, log_tail, signature) "
            "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
            [
                (
                    cell_index, position, record.kind.value,
                    record.cause, record.crash_reason,
                    record.mutation_index, record.seed.exit_reason,
                    len(record.seed.entries),
                    pack_entries(record.seed.entries),
                    json.dumps(list(record.log_tail)),
                    crash_signature(record),
                )
                for position, record in enumerate(result.failures)
            ],
        )
        self._conn.executemany(
            "INSERT INTO divergences (cell_index, position, kind, "
            "mutation_index, vmx_outcome, svm_outcome, detail, "
            "exit_reason, entry_count, entries, signature) "
            "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
            [
                (
                    cell_index, position, record.kind.value,
                    record.mutation_index, record.vmx_outcome,
                    record.svm_outcome, record.detail,
                    record.seed.exit_reason,
                    len(record.seed.entries),
                    pack_entries(record.seed.entries),
                    divergence_signature(record),
                )
                for position, record in enumerate(result.divergences)
            ],
        )

    def _update_crash_buckets(self, wave: WaveOutcome) -> None:
        for result in wave.results.values():
            for record in result.failures:
                signature = crash_signature(record)
                reasons = {reason_name(record.seed.exit_reason)}
                count = 1
                for _, (stored, stored_reasons) in self._decoded(
                    "crash_buckets", only=signature
                ):
                    count += stored
                    reasons.update(stored_reasons)
                self._conn.execute(
                    "INSERT OR REPLACE INTO crash_buckets "
                    "(signature, kind, cause, count, seed_reasons) "
                    "VALUES (?, ?, ?, ?, ?)",
                    (
                        signature, record.kind.value, record.cause,
                        count, json.dumps(sorted(reasons)),
                    ),
                )

    # -- reloading -----------------------------------------------------

    def last_completed_wave(self) -> int | None:
        rows = self._query("SELECT MAX(wave_index) FROM waves")
        return rows[0][0] if rows and rows[0][0] is not None else None

    def completed_waves(self) -> list[StoredWave]:
        """Every committed wave, in wave order."""
        return [wave for _, wave in self._decoded("waves")]

    def load_results(self) -> dict[int, FuzzResult]:
        """Reconstruct every stored cell result, keyed by cell index.

        The reconstruction is exact: enum round-trips, the corpus
        rebuilt in stored (discovery) order with its fingerprint index
        reconstituted, failure seeds rebuilt from the batched codec
        plus the unmasked exit-reason column.
        """
        corpus = self._by_cell("corpus_entries")
        failures = self._by_cell("failures")
        divergences = self._by_cell("divergences")
        results: dict[int, FuzzResult] = {}
        for cell_index, result in self._decoded("cells"):
            result.corpus = Corpus.from_entries(
                corpus.get(cell_index, [])
            )
            result.failures = failures.get(cell_index, [])
            result.divergences = tuple(divergences.get(cell_index, []))
            results[cell_index] = result
        return results

    def _decoded(
        self, table: str, *, only: Any = None
    ) -> Iterator[tuple[Any, Any]]:
        """Every row of ``table`` (or ``only`` the one with that key)
        through its one row decoder, in row order, as ``(key, decoded
        row)``.

        Whatever a damaged row holds, only :class:`CorruptStoreError`
        escapes, naming the table and the row's key.
        """
        key, order, decode = _ROW_DECODERS[table]
        columns = ", ".join(inspect.signature(decode).parameters)
        where = "" if only is None else f" WHERE {key}=?"
        for row in self._query(
            f"SELECT {key}, {columns} FROM {table}{where} "
            f"ORDER BY {order}",
            () if only is None else (only,),
        ):
            try:
                yield row[0], decode(*row[1:])
            except Exception as exc:
                raise CorruptStoreError(
                    f"campaign store {self.path!r} {table} row "
                    f"({key} {row[0]}) is undecodable: {exc}"
                ) from exc

    def _by_cell(self, table: str) -> dict[int, list[Any]]:
        by_cell: dict[int, list[Any]] = {}
        for cell_index, record in self._decoded(table):
            by_cell.setdefault(cell_index, []).append(record)
        return by_cell

    def _decode_coverage(self, text: str) -> CoverageMap:
        try:
            return CoverageMap.from_json(text)
        except Exception as exc:
            raise CorruptStoreError(
                f"campaign store {self.path!r} holds an undecodable "
                f"coverage map: {exc}"
            ) from exc

    def coverage_frontier(self) -> CoverageMap:
        """Cumulative coverage up to the last committed wave."""
        if self.last_completed_wave() is None:
            return CoverageMap()
        rows = self._query(
            "SELECT coverage FROM coverage_frontier "
            "ORDER BY wave_index DESC LIMIT 1"
        )
        if not rows:
            raise CorruptStoreError(
                f"campaign store {self.path!r} has waves but no "
                "coverage frontier"
            )
        return self._decode_coverage(rows[0][0])

    def failure_records(self) -> list[FailureRecord]:
        """Every stored failure, in (cell, position) order."""
        return [record for _, record in self._decoded("failures")]

    def corpus(self) -> Corpus:
        """Canonical union of every stored cell's corpus."""
        return Corpus.merge_all(
            result.corpus for result in self.load_results().values()
        )

    def divergence_records(self) -> list[DivergenceRecord]:
        """Every stored divergence, in (cell, position) order."""
        return [record for _, record in self._decoded("divergences")]

    # -- integrity -----------------------------------------------------

    def validate(self) -> None:
        """Fail loudly on any structural damage; never guess.

        Checks, in order: SQLite page-level integrity, schema
        completeness, wave contiguity, cell/wave cross-references,
        frontier consistency (the last frontier must equal the union
        of every stored cell's coverage), and divergence-row
        authenticity (each stored signature must match one recomputed
        from the row's own fields — a tampered row cannot keep its
        signature honest).
        """
        rows = self._query("PRAGMA integrity_check")
        verdict = rows[0][0] if rows else "missing"
        if verdict != "ok":
            raise CorruptStoreError(
                f"campaign store {self.path!r} failed SQLite "
                f"integrity check: {verdict}"
            )
        have = {
            row[0] for row in self._query(
                "SELECT name FROM sqlite_master WHERE type='table'"
            )
        }
        missing = [t for t in _TABLES if t not in have]
        if missing:
            raise CorruptStoreError(
                f"campaign store {self.path!r} is missing tables: "
                f"{', '.join(missing)}"
            )
        self._check_schema_version()
        waves = self.completed_waves()
        if [w.wave_index for w in waves] != list(range(len(waves))):
            raise CorruptStoreError(
                f"campaign store {self.path!r} has non-contiguous "
                f"waves: {[w.wave_index for w in waves]}"
            )
        expected_cells: set[int] = set()
        for wave in waves:
            expected_cells.update(
                set(wave.cell_indices) - set(wave.abandoned)
            )
        # Decoding every row is itself a check: each table's one row
        # decoder raises CorruptStoreError on a damaged column.
        results = self.load_results()
        if set(results) != expected_cells:
            raise CorruptStoreError(
                f"campaign store {self.path!r} cell results disagree "
                f"with its wave log: waves expect "
                f"{sorted(expected_cells)}, cells hold "
                f"{sorted(results)}"
            )
        frontier_waves = [
            row[0] for row in self._query(
                "SELECT wave_index FROM coverage_frontier "
                "ORDER BY wave_index"
            )
        ]
        if frontier_waves != [w.wave_index for w in waves]:
            raise CorruptStoreError(
                f"campaign store {self.path!r} frontier log disagrees "
                f"with its wave log"
            )
        if waves:
            union = CoverageMap.union_all(
                CoverageMap(result.new_lines)
                for result in results.values()
            )
            if self.coverage_frontier().lines() != union.lines():
                raise CorruptStoreError(
                    f"campaign store {self.path!r} coverage frontier "
                    "does not match the union of its cell coverage"
                )
        list(self._decoded("crash_buckets"))
        signatures = self._query(
            "SELECT cell_index, position, signature FROM divergences "
            "ORDER BY cell_index, position"
        )
        for (cell_index, position, signature), record in zip(
            signatures, self.divergence_records()
        ):
            if divergence_signature(record) != signature:
                raise CorruptStoreError(
                    f"campaign store {self.path!r} divergence row "
                    f"(cell {cell_index}, position {position}) does "
                    "not match its stored signature: the row was "
                    "altered after checkpoint"
                )


# ---- row decoders -----------------------------------------------------
#
# One decoder per table, each a plain function of its row's columns.
# They may raise anything on a damaged row; CampaignStore._decoded is
# the one place that maps that to CorruptStoreError.

_CODEC = JsonCodec()


def _json(schema: Any, text: str) -> Any:
    return _CODEC.decode(schema, json.loads(text))


def _seed(exit_reason: int, count: int, blob: bytes) -> VMSeed:
    return VMSeed(
        exit_reason=exit_reason, entries=unpack_entries(blob, count),
    )


def _wave_row(
    wave_index: int, cell_indices: str, abandoned: str,
    metrics: str | None,
) -> StoredWave:
    return StoredWave(
        wave_index=wave_index,
        cell_indices=_json(tuple[int, ...], cell_indices),
        abandoned=_json(tuple[int, ...], abandoned),
        metrics=(
            None if metrics is None
            else MetricsSnapshot.from_json(metrics)
        ),
    )


def _cell_row(
    workload: str, exit_reason: int, area: str, mutations_run: int,
    baseline_loc: int, new_loc: int, vm_crashes: int,
    hypervisor_crashes: int, new_lines: str, seeds_compared: int,
    untranslatable_seeds: int,
) -> FuzzResult:
    """A cell's scalar columns; :meth:`CampaignStore.load_results`
    attaches its corpus, failure and divergence rows."""
    return FuzzResult(
        workload=workload,
        exit_reason=ExitReason(exit_reason),
        area=MutationArea(area),
        mutations_run=mutations_run,
        baseline_loc=baseline_loc,
        new_loc=new_loc,
        vm_crashes=vm_crashes,
        hypervisor_crashes=hypervisor_crashes,
        new_lines=CoverageMap.from_json(new_lines).lines(),
        seeds_compared=seeds_compared,
        untranslatable_seeds=untranslatable_seeds,
    )


def _corpus_row(
    reason_kept: str, new_loc: int, fingerprint: str,
    exit_reason: int, entry_count: int, entries: bytes,
) -> CorpusEntry:
    return CorpusEntry(
        seed=_seed(exit_reason, entry_count, entries),
        reason_kept=reason_kept,
        new_loc=new_loc,
        coverage_fingerprint=fingerprint,
    )


def _failure_row(
    kind: str, cause: str, crash_reason: str, mutation_index: int,
    exit_reason: int, entry_count: int, entries: bytes, log_tail: str,
) -> FailureRecord:
    return FailureRecord(
        kind=FailureKind(kind),
        cause=cause,
        crash_reason=crash_reason,
        mutation_index=mutation_index,
        seed=_seed(exit_reason, entry_count, entries),
        log_tail=_json(tuple[str, ...], log_tail),
    )


def _divergence_row(
    kind: str, mutation_index: int, vmx_outcome: str,
    svm_outcome: str, detail: str, exit_reason: int,
    entry_count: int, entries: bytes,
) -> DivergenceRecord:
    return DivergenceRecord(
        kind=DivergenceKind(kind),
        mutation_index=mutation_index,
        vmx_outcome=vmx_outcome,
        svm_outcome=svm_outcome,
        detail=detail,
        seed=_seed(exit_reason, entry_count, entries),
    )


def _crash_bucket_row(
    kind: str, cause: str, count: int, seed_reasons: str
) -> tuple[int, list[str]]:
    FailureKind(kind)
    return _CODEC.decode(int, count), _json(list[str], seed_reasons)


#: Per table: the key column, the row order, and the decoder, whose
#: parameters name the columns it reads.
_ROW_DECODERS: dict[str, tuple[str, str, Callable[..., Any]]] = {
    "waves": ("wave_index", "wave_index", _wave_row),
    "cells": ("cell_index", "cell_index", _cell_row),
    "corpus_entries": ("cell_index", "cell_index, position", _corpus_row),
    "failures": ("cell_index", "cell_index, position", _failure_row),
    "divergences": ("cell_index", "cell_index, position", _divergence_row),
    "crash_buckets": ("signature", "signature", _crash_bucket_row),
}
