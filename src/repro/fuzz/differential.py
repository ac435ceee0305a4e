"""Cross-arch differential fuzzing oracle (``iris-fuzz --differential``).

The PoC fuzzer has exactly one oracle — crashes.  This module adds a
second, richer one: *semantic disagreement between the two hypervisor
models*.  Every mutated seed is replayed twice — natively on the VT-x
backend, and on the SVM backend through the bidirectional seed
translation (:mod:`repro.svm.translate`) — and the observable behavior
is diffed:

* **outcome disagreement** — one backend crashes where the other
  survives (or they crash differently);
* **echo-write divergence** — the sets of fields the replayed handlers
  wrote back disagree, restricted to :data:`ROUND_TRIP_FIELDS` so
  translation loss (reported by the forward direction) is never
  misread as a hypervisor bug;
* **coverage divergence** — the *noise-filtered, baseline-relative*
  coverage deltas disagree.  Comparing deltas (mutant lines minus each
  backend's own baseline lines) cancels the constant per-arch
  dispatch differences, the same way the paper's §VI-B filter cancels
  asynchronous-event noise.

Each disagreement becomes a :class:`DivergenceRecord` with a stable
:func:`divergence_signature` (the :func:`repro.fuzz.triage.crash_signature`
normalization style), and collections of records merge through
:func:`merge_divergences` — an order-insensitive, idempotent,
associative union capped like :data:`FuzzResult.MAX_FAILURES_KEPT` —
so the merged divergence report is byte-identical for any jobs count,
wave partition, or transport (the determinism contract the
differential test matrix pins).

NecoFuzz (PAPERS.md) uses exactly this "two execution paths disagree"
signal to find nested-virtualization bugs that never crash.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from repro.arch.fields import ArchField
from repro.core.manager import IrisManager
from repro.core.replay import ReplayOutcome, SeedReplayResult
from repro.core.seed import VMSeed
from repro.core.snapshot import VmSnapshot, restore_snapshot, take_snapshot
from repro.fuzz.testcase import FuzzTestCase
from repro.fuzz.triage import _NORMALIZERS
from repro.hypervisor.coverage import denoise
from repro.svm.translate import (
    ROUND_TRIP_FIELDS,
    translate_seed,
    translate_seed_back,
)
from repro.vmx.exit_reasons import reason_name

#: Cap on retained divergence records per cell, mirroring
#: ``MAX_FAILURES_KEPT``: merged shards keep the lowest
#: :func:`divergence_identity` keys, and taking the K smallest is
#: associative, so chained merges land on the same retained set.
MAX_DIVERGENCES_KEPT = 64


class DivergenceKind(enum.Enum):
    """Taxonomy of observable cross-backend disagreements."""

    #: The two backends disagree on whether (or how) the mutant
    #: crashes — the strongest signal, reported alone when present.
    OUTCOME = "outcome-disagreement"
    #: The replayed handlers echo-wrote different round-trip fields.
    ECHO_WRITE = "echo-write-divergence"
    #: The noise-filtered, baseline-relative coverage deltas differ.
    COVERAGE = "coverage-divergence"
    #: The *unmutated* baseline (or its replay prefix) already refuses
    #: to replay on the secondary backend; per-mutant diffing for the
    #: cell is disabled and this one record explains why.
    BASELINE = "baseline-disagreement"


@dataclass(frozen=True)
class DivergenceRecord:
    """One observed cross-backend disagreement (one mutant)."""

    kind: DivergenceKind
    #: Index of the mutant within its shard's mutation loop
    #: (``-1`` for baseline disagreements).
    mutation_index: int
    #: The VT-x-addressed seed whose replay diverged.
    seed: VMSeed
    #: :class:`ReplayOutcome` values on each backend.
    vmx_outcome: str
    svm_outcome: str
    #: Deterministic human-readable description of the disagreement.
    detail: str

    def describe(self) -> str:
        return (
            f"[{self.kind.value}] mutation #{self.mutation_index} "
            f"({reason_name(self.seed.exit_reason)}): "
            f"vmx={self.vmx_outcome} svm={self.svm_outcome} — "
            f"{self.detail}"
        )


def divergence_signature(record: DivergenceRecord) -> str:
    """A stable identity for 'the same disagreement'.

    The volatile parts of the detail (addresses, large numbers) are
    normalized away with the same patterns
    :func:`repro.fuzz.triage.crash_signature` uses, so equivalent
    divergences found through different mutants share a signature.
    """
    detail = record.detail
    for pattern, replacement in _NORMALIZERS:
        detail = pattern.sub(replacement, detail)
    return (
        f"{record.kind.value}|{reason_name(record.seed.exit_reason)}"
        f"|{record.vmx_outcome}->{record.svm_outcome}|{detail}"
    )


def divergence_identity(record: DivergenceRecord) -> tuple:
    """Total order over divergence records, independent of shard order.

    Mutation index first, mirroring
    :func:`repro.fuzz.failures.failure_identity`: when merged shards
    overflow the retention cap, the earliest-discovered divergences
    win.  Every field participates, so the order is total and the
    dedup in :func:`merge_divergences` never conflates two distinct
    observations.
    """
    return (
        record.mutation_index,
        record.kind.value,
        record.vmx_outcome,
        record.svm_outcome,
        record.detail,
        record.seed.exit_reason,
        record.seed.pack(),
    )


def merge_divergences(
    *collections: Iterable[DivergenceRecord],
) -> tuple[DivergenceRecord, ...]:
    """Order-insensitive merge of divergence collections.

    A union keyed by :func:`divergence_identity` (so the merge is
    idempotent and commutative), re-sorted and capped at
    :data:`MAX_DIVERGENCES_KEPT` keeping the smallest identity keys
    (so chained merges are associative — capping an intermediate union
    at the K smallest never discards an element of the final K
    smallest).  This is the algebra :meth:`FuzzResult.merge` relies on
    for jobs-, wave-, and transport-invariant divergence reports.
    """
    by_key: dict[tuple, DivergenceRecord] = {}
    for collection in collections:
        for record in collection:
            by_key.setdefault(divergence_identity(record), record)
    return tuple(
        by_key[key] for key in sorted(by_key)
    )[:MAX_DIVERGENCES_KEPT]


# ---- triage / report rendering ---------------------------------------

@dataclass
class DivergenceBucket:
    """All observed instances of one distinct disagreement."""

    signature: str
    kind: DivergenceKind
    example: DivergenceRecord
    count: int = 0
    #: Exit reasons of the seeds that triggered it.
    seed_reasons: set[str] = field(default_factory=set)

    def add(self, record: DivergenceRecord) -> None:
        self.count += 1
        self.seed_reasons.add(reason_name(record.seed.exit_reason))


@dataclass
class DivergenceReport:
    """Deduplicated cross-backend disagreement summary."""

    buckets: list[DivergenceBucket] = field(default_factory=list)
    total_divergences: int = 0
    seeds_compared: int = 0
    untranslatable_seeds: int = 0

    @property
    def unique_divergences(self) -> int:
        return len(self.buckets)

    def rows(self) -> list[tuple]:
        """Table rows in a deterministic order (for render_table)."""
        return [
            (
                bucket.kind.value,
                bucket.count,
                ",".join(sorted(bucket.seed_reasons)),
                f"{bucket.example.vmx_outcome}/"
                f"{bucket.example.svm_outcome}",
                bucket.example.detail[:60],
            )
            for bucket in sorted(
                self.buckets, key=lambda b: (-b.count, b.signature)
            )
        ]


def triage_divergences(
    records: Iterable[DivergenceRecord],
    *,
    seeds_compared: int = 0,
    untranslatable_seeds: int = 0,
) -> DivergenceReport:
    """Bucket divergence records by signature."""
    by_signature: dict[str, DivergenceBucket] = {}
    total = 0
    for record in sorted(records, key=divergence_identity):
        total += 1
        signature = divergence_signature(record)
        bucket = by_signature.get(signature)
        if bucket is None:
            bucket = DivergenceBucket(
                signature=signature, kind=record.kind, example=record,
            )
            by_signature[signature] = bucket
        bucket.add(record)
    return DivergenceReport(
        buckets=list(by_signature.values()),
        total_divergences=total,
        seeds_compared=seeds_compared,
        untranslatable_seeds=untranslatable_seeds,
    )


def render_divergence_report(
    records: Iterable[DivergenceRecord],
    *,
    seeds_compared: int = 0,
    untranslatable_seeds: int = 0,
) -> str:
    """The rendered divergence report (a pure function of its inputs).

    Byte-identical for any ordering of ``records`` — rows are sorted
    by (count, signature) and every column is deterministic — which is
    what lets the test matrix compare reports across jobs counts and
    transports by simple string equality.
    """
    from repro.analysis import render_table

    report = triage_divergences(
        records,
        seeds_compared=seeds_compared,
        untranslatable_seeds=untranslatable_seeds,
    )
    table = render_table(
        ["kind", "count", "seed reasons", "vmx/svm", "example"],
        report.rows(),
        title=(
            f"Differential oracle: {report.unique_divergences} "
            f"distinct divergence(s) from "
            f"{report.total_divergences} retained, "
            f"{report.seeds_compared} seeds compared "
            f"({report.untranslatable_seeds} untranslatable)"
        ),
    )
    return table


# ---- the oracle -------------------------------------------------------

def normalize_seed(seed: VMSeed) -> VMSeed | None:
    """Round a VT-x seed through the SVM translation (and back).

    The result is what the secondary backend actually replays: VT-x
    addressed, but with translation-dropped fields removed and the
    exit-reason read re-synthesized from the exit code.  ``None`` when
    the seed's exit has no SVM counterpart.
    """
    svm_seed = translate_seed(seed)
    if svm_seed is None:
        return None
    return translate_seed_back(svm_seed)


def _echo_set(
    result: SeedReplayResult,
) -> frozenset[tuple[ArchField, int]]:
    """The replay's echo-writes, restricted to round-trip fields.

    Fields outside :data:`ROUND_TRIP_FIELDS` are dropped by the
    forward translation (and reported there), so their absence on the
    SVM side is a translation artifact, not a divergence.
    """
    return frozenset(
        (fld, value) for fld, value in result.vmwrites
        if fld in ROUND_TRIP_FIELDS
    )


def _format_fields(
    entries: Iterable[tuple[ArchField, int]], limit: int = 3
) -> str:
    ordered = sorted(entries, key=lambda e: (e[0].name, e[1]))
    shown = ", ".join(
        f"{fld.name}=0x{value:x}" for fld, value in ordered[:limit]
    )
    if len(ordered) > limit:
        shown += f", +{len(ordered) - limit} more"
    return shown or "none"


def _format_lines(
    lines: Iterable[tuple[str, int]], limit: int = 3
) -> str:
    ordered = sorted(lines)
    shown = ", ".join(
        f"{file}:{line}" for file, line in ordered[:limit]
    )
    if len(ordered) > limit:
        shown += f", +{len(ordered) - limit} more"
    return shown or "none"


class DifferentialOracle:
    """Mirrors one fuzzed cell on a secondary SVM backend and diffs.

    The primary fuzz loop (:class:`repro.fuzz.fuzzer.IrisFuzzer`)
    calls :meth:`begin_case` once per test case — the oracle builds a
    **fresh** SVM hypervisor, restores the same neutral snapshot,
    replays the translated prefix and baseline, and snapshots its own
    target state — then :meth:`observe` once per mutant.

    Determinism: every replay here is a pure function of
    ``(case, from_snapshot, mutant)``.  The oracle's own resets always
    take the full-restore path, so the secondary is the rebuild-mode
    reference for the primary's fast resets, and no reset shortcut on
    the primary side can change a divergence byte.
    """

    def __init__(self) -> None:
        self.seeds_compared = 0
        self.untranslatable_seeds = 0
        self._manager: IrisManager | None = None
        self._state_r: VmSnapshot | None = None
        self._baseline_lines: frozenset[tuple[str, int]] = frozenset()
        self._vmx_baseline_lines: frozenset[tuple[str, int]] = frozenset()
        self._enabled = False
        self._baseline_untranslatable = False

    # -- per-case setup ------------------------------------------------

    def begin_case(
        self,
        case: FuzzTestCase,
        from_snapshot: VmSnapshot | None,
        vmx_baseline_lines: frozenset[tuple[str, int]],
    ) -> DivergenceRecord | None:
        """Reach the cell's target state on the secondary backend.

        Returns a :class:`DivergenceKind.BASELINE` record (and
        disables per-mutant diffing) when the translated prefix or
        baseline refuses to replay on SVM; ``None`` when the oracle is
        armed.
        """
        self.seeds_compared = 0
        self.untranslatable_seeds = 0
        self._enabled = False
        self._baseline_untranslatable = False
        self._vmx_baseline_lines = frozenset(vmx_baseline_lines)

        manager = IrisManager(arch="svm", fast_reset=False)
        if (
            from_snapshot is not None
            and from_snapshot.clock_tsc > manager.hv.clock.now
        ):
            # Same clock-domain fast-forward run_shard performs for the
            # primary: timer deadlines in the snapshot are absolute.
            manager.hv.clock.advance(
                from_snapshot.clock_tsc - manager.hv.clock.now
            )
        self._manager = manager
        replayer = manager.create_dummy_vm(from_snapshot=from_snapshot)

        for position, record in enumerate(
            case.trace.records[:case.seed_index]
        ):
            normalized = normalize_seed(record.seed)
            if normalized is None:
                # No SVM counterpart for this prefix exit: skip it, as
                # the translated-trace replay does.  Deterministic — a
                # pure function of the recorded trace.
                continue
            result = replayer.submit(normalized)
            if result.outcome is not ReplayOutcome.OK:
                return self._baseline_divergence(
                    case,
                    f"translated prefix seed #{position} crashed on "
                    f"svm: {result.crash_reason}",
                    svm_outcome=result.outcome.value,
                )

        baseline_seed = normalize_seed(case.target_seed)
        if baseline_seed is None:
            # The target exit itself has no SVM counterpart: every
            # mutant of it is untranslatable.  Not a divergence — the
            # forward translation reports the gap — just uncomparable.
            self._baseline_untranslatable = True
            return None
        baseline = replayer.submit(baseline_seed)
        if baseline.outcome is not ReplayOutcome.OK:
            return self._baseline_divergence(
                case,
                "translated baseline seed crashed on svm: "
                f"{baseline.crash_reason}",
                svm_outcome=baseline.outcome.value,
            )
        self._baseline_lines = denoise(baseline.coverage_lines)
        assert manager.dummy_vm is not None
        self._state_r = take_snapshot(manager.hv, manager.dummy_vm)
        self._enabled = True
        return None

    def _baseline_divergence(
        self, case: FuzzTestCase, detail: str, *, svm_outcome: str
    ) -> DivergenceRecord:
        return DivergenceRecord(
            kind=DivergenceKind.BASELINE,
            mutation_index=-1,
            seed=case.target_seed,
            vmx_outcome=ReplayOutcome.OK.value,
            svm_outcome=svm_outcome,
            detail=detail,
        )

    # -- per-mutant comparison -----------------------------------------

    def observe(
        self,
        mutation_index: int,
        mutated: VMSeed,
        vmx_result: SeedReplayResult,
    ) -> DivergenceRecord | None:
        """Replay one mutant on the secondary backend and diff."""
        if not self._enabled:
            if self._baseline_untranslatable:
                # The cell's target exit has no SVM counterpart, so
                # neither does any mutant of it: tally them so the
                # report says how much of the cell went uncompared.
                self.untranslatable_seeds += 1
            return None
        normalized = normalize_seed(mutated)
        if normalized is None:
            self.untranslatable_seeds += 1
            return None
        assert self._manager is not None
        manager = self._manager
        replayer = manager.replayer
        assert replayer is not None and manager.dummy_vm is not None
        svm_result = replayer.submit(normalized)
        self.seeds_compared += 1

        divergence = self._diff(mutation_index, mutated,
                                vmx_result, svm_result)
        if (
            vmx_result.outcome is not ReplayOutcome.OK
            or svm_result.outcome is not ReplayOutcome.OK
        ):
            # Stay in lockstep with the primary loop's crash-revert
            # policy: the primary restores its target state whenever
            # *it* crashed, so the secondary restores whenever either
            # side did — keeping residual state aligned on every
            # mutant both sides agreed was healthy.
            assert self._state_r is not None
            restore_snapshot(
                manager.hv, manager.dummy_vm, self._state_r,
                fast=False,
            )
        return divergence

    def _diff(
        self,
        mutation_index: int,
        mutated: VMSeed,
        vmx_result: SeedReplayResult,
        svm_result: SeedReplayResult,
    ) -> DivergenceRecord | None:
        outcomes = (vmx_result.outcome.value, svm_result.outcome.value)
        if vmx_result.outcome is not svm_result.outcome:
            return DivergenceRecord(
                kind=DivergenceKind.OUTCOME,
                mutation_index=mutation_index,
                seed=mutated,
                vmx_outcome=outcomes[0],
                svm_outcome=outcomes[1],
                detail=(
                    f"vmx {outcomes[0]} "
                    f"({vmx_result.crash_reason or 'healthy'}) vs "
                    f"svm {outcomes[1]} "
                    f"({svm_result.crash_reason or 'healthy'})"
                ),
            )
        vmx_echo = _echo_set(vmx_result)
        svm_echo = _echo_set(svm_result)
        if vmx_echo != svm_echo:
            return DivergenceRecord(
                kind=DivergenceKind.ECHO_WRITE,
                mutation_index=mutation_index,
                seed=mutated,
                vmx_outcome=outcomes[0],
                svm_outcome=outcomes[1],
                detail=(
                    "echo-writes disagree: only-vmx "
                    f"[{_format_fields(vmx_echo - svm_echo)}] "
                    "only-svm "
                    f"[{_format_fields(svm_echo - vmx_echo)}]"
                ),
            )
        vmx_delta = (
            denoise(vmx_result.coverage_lines)
            - self._vmx_baseline_lines
        )
        svm_delta = (
            denoise(svm_result.coverage_lines) - self._baseline_lines
        )
        if vmx_delta != svm_delta:
            return DivergenceRecord(
                kind=DivergenceKind.COVERAGE,
                mutation_index=mutation_index,
                seed=mutated,
                vmx_outcome=outcomes[0],
                svm_outcome=outcomes[1],
                detail=(
                    "coverage deltas disagree: only-vmx "
                    f"[{_format_lines(vmx_delta - svm_delta)}] "
                    "only-svm "
                    f"[{_format_lines(svm_delta - vmx_delta)}]"
                ),
            )
        return None


def iter_divergences(
    results: Iterable,
) -> Iterator[DivergenceRecord]:
    """Flatten the divergence records out of fuzz results."""
    for result in results:
        yield from result.divergences
