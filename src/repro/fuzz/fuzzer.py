"""The IRIS-based fuzzer prototype (paper §VII, Fig. 11).

For each test case: replay the recorded VM behavior up to the target
seed (reaching the linked valid VM state), snapshot that state, then
submit N mutated versions of the target seed, restoring the state after
every crash.  Reports newly discovered coverage relative to the
baseline (the unmutated target seed's coverage) and the crash tallies
Table I summarizes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.core.manager import IrisManager
from repro.core.replay import ReplayOutcome
from repro.core.snapshot import VmSnapshot, restore_snapshot, take_snapshot
from repro.hypervisor.coverage import denoise
from repro.fuzz.corpus import Corpus
from repro.fuzz.differential import (
    MAX_DIVERGENCES_KEPT,
    DifferentialOracle,
    DivergenceRecord,
    merge_divergences,
)
from repro.fuzz.failures import (
    FailureKind,
    FailureRecord,
    classify_result,
    failure_identity,
)
from repro.fuzz.mutation_engine import build_engine
from repro.fuzz.mutations import MutationArea
from repro.fuzz.testcase import FuzzTestCase
from repro.obs import OBS
from repro.vmx.exit_reasons import ExitReason


@dataclass
class FuzzResult:
    """Outcome of one test case (one Table I cell)."""

    workload: str
    exit_reason: ExitReason
    area: MutationArea
    mutations_run: int = 0
    baseline_loc: int = 0
    new_loc: int = 0
    vm_crashes: int = 0
    hypervisor_crashes: int = 0
    failures: list[FailureRecord] = field(default_factory=list)
    corpus: Corpus = field(default_factory=Corpus)
    #: The discovered lines themselves (not just the count), so shard
    #: results can be merged without double-counting overlap.
    new_lines: frozenset[tuple[str, int]] = frozenset()
    #: Differential-mode observations (empty unless the fuzzer ran
    #: with a :class:`repro.fuzz.differential.DifferentialOracle`).
    divergences: tuple[DivergenceRecord, ...] = ()
    seeds_compared: int = 0
    untranslatable_seeds: int = 0

    @property
    def cell_key(self) -> tuple:
        """The Table-I cell this result belongs to."""
        return (self.workload, self.exit_reason, self.area)

    @property
    def coverage_increase_pct(self) -> float:
        """Table I's cell value: % coverage discovered over baseline."""
        if self.baseline_loc == 0:
            return 0.0
        return 100.0 * self.new_loc / self.baseline_loc

    @property
    def vm_crash_rate(self) -> float:
        return self.vm_crashes / max(self.mutations_run, 1)

    @property
    def hypervisor_crash_rate(self) -> float:
        return self.hypervisor_crashes / max(self.mutations_run, 1)

    def describe(self) -> str:
        return (
            f"{self.workload}/{self.exit_reason.name}/{self.area.value}"
            f": +{self.coverage_increase_pct:.0f}% coverage, "
            f"{self.vm_crashes} VM / {self.hypervisor_crashes} HV "
            f"crashes over {self.mutations_run} mutations"
        )

    def merge(self, other: "FuzzResult") -> "FuzzResult":
        """Order-insensitive merge of two shards of the same cell.

        Counts are summed, discovered coverage is unioned through
        ``new_lines`` (so overlap between shards is not double
        counted), corpora merge canonically, and the combined failure
        records are re-capped at :data:`MAX_FAILURES_KEPT` keeping the
        lowest :func:`failure_identity` keys — taking the K smallest is
        associative, so chained merges land on the same retained set as
        one flat merge, and merged shards can never silently exceed the
        per-cell cap.  Divergence records combine through the same
        algebra (:func:`repro.fuzz.differential.merge_divergences`),
        keeping differential reports jobs- and wave-invariant.
        """
        if self.cell_key != other.cell_key:
            raise ValueError(
                f"cannot merge results of different cells: "
                f"{self.cell_key} vs {other.cell_key}"
            )
        if self.baseline_loc != other.baseline_loc:
            raise ValueError(
                "shards disagree on the cell's baseline coverage "
                f"({self.baseline_loc} vs {other.baseline_loc} LOC): "
                "they did not replay from the same snapshot"
            )
        lines = self.new_lines | other.new_lines
        failures = sorted(
            self.failures + other.failures, key=failure_identity
        )[:MAX_FAILURES_KEPT]
        return FuzzResult(
            workload=self.workload,
            exit_reason=self.exit_reason,
            area=self.area,
            mutations_run=self.mutations_run + other.mutations_run,
            baseline_loc=self.baseline_loc,
            new_loc=len(lines),
            vm_crashes=self.vm_crashes + other.vm_crashes,
            hypervisor_crashes=(
                self.hypervisor_crashes + other.hypervisor_crashes
            ),
            failures=failures,
            corpus=self.corpus.merge(other.corpus),
            new_lines=lines,
            divergences=merge_divergences(
                self.divergences, other.divergences
            ),
            seeds_compared=(
                self.seeds_compared + other.seeds_compared
            ),
            untranslatable_seeds=(
                self.untranslatable_seeds + other.untranslatable_seeds
            ),
        )


#: Cap on retained failure records per test case (triage artifacts).
MAX_FAILURES_KEPT = 64


@dataclass
class _TargetState:
    """Cached Fig.-11 target state (fast-reset reuse across cases).

    When consecutive test cases share the same replayed prefix —
    identical trace, seed index and starting snapshot — re-reaching
    ``VMseed_R`` is a snapshot revert, not a re-replay: restore
    ``state_r``, advance the clock by the cycles the original replay
    charged (so timing metrics still account the reach cost), and go
    straight to mutating.  Crash and mutation outcomes are unaffected;
    coverage accounting for the repeated case reuses the cached
    baseline instead of re-measuring it at the current TSC phase.
    """

    trace: object
    seed_index: int
    from_snapshot: VmSnapshot | None
    state_r: VmSnapshot
    baseline_lines: set[tuple[str, int]]
    reach_cycles: int

    def matches(
        self,
        case: FuzzTestCase,
        from_snapshot: VmSnapshot | None,
    ) -> bool:
        return (
            self.trace is case.trace
            and self.seed_index == case.seed_index
            and self.from_snapshot is from_snapshot
        )


class IrisFuzzer:
    """Drives fuzzing campaigns through an :class:`IrisManager`."""

    def __init__(
        self,
        manager: IrisManager,
        rng: random.Random | None = None,
        fast_reset: bool = True,
        oracle: DifferentialOracle | None = None,
    ) -> None:
        """``fast_reset`` enables the delta-restore path in the
        crash-revert loop (every mutation there goes through tracked
        state paths, the precondition ``restore_snapshot(fast=True)``
        documents); ``False`` rebuilds the full state on every revert,
        the pre-fast-reset behavior the differential tests compare
        against.  ``oracle`` arms differential mode: every mutant is
        also replayed on a secondary SVM backend and the observable
        behavior diffed into the result's ``divergences``."""
        self.manager = manager
        self.rng = rng or random.Random(0xF022)
        self.fast_reset = fast_reset
        self.oracle = oracle
        self._target_state: _TargetState | None = None

    # ---- single test case ---------------------------------------------

    def _reach_target_state(
        self,
        case: FuzzTestCase,
        from_snapshot: VmSnapshot | None,
    ) -> None:
        """Replay W until VMseed_R is reached (Fig. 11's first phase)."""
        self.manager.create_dummy_vm(from_snapshot=from_snapshot)
        assert self.manager.replayer is not None
        prefix = case.trace.records[:case.seed_index]
        for record in prefix:
            result = self.manager.replayer.submit(record.seed)
            if result.outcome is not ReplayOutcome.OK:
                raise RuntimeError(
                    "prefix replay crashed before reaching the target "
                    f"state: {result.crash_reason}"
                )

    def run_test_case(
        self,
        case: FuzzTestCase,
        from_snapshot: VmSnapshot | None = None,
    ) -> FuzzResult:
        """Execute one test case end-to-end."""
        with OBS.tracer.span(
            "iris.fuzz.case", reason=case.exit_reason.name,
            area=case.area.value, mutations=case.n_mutations,
        ):
            result = self._run_test_case(case, from_snapshot)
        if OBS.metrics.enabled:
            OBS.metrics.inc(
                "fuzz_cases", reason=case.exit_reason.name,
                area=case.area.value,
            )
            OBS.metrics.inc(
                "fuzz_mutations", value=result.mutations_run,
                reason=case.exit_reason.name, area=case.area.value,
            )
            OBS.metrics.inc(
                "fuzz_new_lines", value=result.new_loc,
                reason=case.exit_reason.name, area=case.area.value,
            )
            if self.oracle is not None:
                OBS.metrics.inc(
                    "differential_seeds_compared",
                    value=result.seeds_compared,
                    reason=case.exit_reason.name, area=case.area.value,
                )
                OBS.metrics.inc(
                    "differential_untranslatable_seeds",
                    value=result.untranslatable_seeds,
                    reason=case.exit_reason.name, area=case.area.value,
                )
                OBS.metrics.inc(
                    "differential_divergences",
                    value=len(result.divergences),
                    reason=case.exit_reason.name, area=case.area.value,
                )
        return result

    def _run_test_case(
        self,
        case: FuzzTestCase,
        from_snapshot: VmSnapshot | None = None,
    ) -> FuzzResult:
        manager = self.manager
        hv = manager.hv
        cached = self._target_state if self.fast_reset else None
        if (
            cached is not None
            and cached.matches(case, from_snapshot)
            and manager.replayer is not None
            and manager.dummy_vm is not None
            and manager.dummy_vm.restore_stamp is cached.state_r
        ):
            # Fast-reset reuse: the dummy VM is stamped with this very
            # target state, so re-reaching it is one delta restore.
            replayer = manager.replayer
            dummy = manager.dummy_vm
            restore_snapshot(hv, dummy, cached.state_r, fast=True)
            # Charge the skipped prefix+baseline replay's cycles in one
            # step, so timing metrics keep accounting the Fig.-11 reach
            # cost.  (The rebuild path's re-replay would charge *about*
            # this much — catch-up timer work varies with TSC phase —
            # which is why repeated-case coverage accounting is only
            # guaranteed identical where replay actually re-runs, e.g.
            # campaign shards.)
            hv.clock.advance(cached.reach_cycles)
            baseline_lines = cached.baseline_lines
            state_r = cached.state_r
        else:
            cycles_before = hv.clock.now
            self._reach_target_state(case, from_snapshot)
            assert manager.replayer is not None and manager.dummy_vm
            replayer = manager.replayer
            dummy = manager.dummy_vm

            # Baseline: the unmutated target seed's coverage.  The
            # asynchronous components' lines are filtered out of the
            # whole campaign's accounting — their firing depends on TSC
            # phase, not on the mutations (the same noise the paper's
            # §VI-B filters and MundoFuzz removes by differential
            # learning).
            baseline = replayer.submit(case.target_seed)
            if baseline.outcome is not ReplayOutcome.OK:
                raise RuntimeError(
                    f"baseline seed crashed: {baseline.crash_reason}"
                )
            baseline_lines = denoise(baseline.coverage_lines)
            state_r = take_snapshot(hv, dummy)
            self._target_state = _TargetState(
                trace=case.trace,
                seed_index=case.seed_index,
                from_snapshot=from_snapshot,
                state_r=state_r,
                baseline_lines=baseline_lines,
                reach_cycles=hv.clock.now - cycles_before,
            ) if self.fast_reset else None

        divergences: list[DivergenceRecord] = []
        if self.oracle is not None:
            # Arm the secondary (SVM) backend at the same target state
            # — after both the cached and rebuild paths, so fast-reset
            # reuse on the primary never skips the oracle's own setup.
            baseline_divergence = self.oracle.begin_case(
                case, from_snapshot, frozenset(baseline_lines)
            )
            if baseline_divergence is not None:
                divergences.append(baseline_divergence)

        # The engine owns mutant generation.  ``poc`` reproduces the
        # pre-engine loop's exact RNG stream; ``smart`` runs the
        # staged pipeline (dictionary/structural/havoc/splice) with
        # its cost-aware power schedule fed from the clock deltas
        # measured below.
        engine = build_engine(case, arch=manager.arch)
        result = FuzzResult(
            workload=case.trace.workload,
            exit_reason=case.exit_reason,
            area=case.area,
            baseline_loc=len(baseline_lines),
        )
        discovered: set[tuple[str, int]] = set()

        for index in range(case.n_mutations):
            cycles_before = hv.clock.now
            mutated = engine.next_mutant(self.rng)
            outcome = replayer.submit(mutated)
            result.mutations_run += 1

            if self.oracle is not None:
                # Generated in increasing mutation order (at most one
                # record per mutant), so the list is already sorted by
                # divergence identity: truncating here retains exactly
                # the records merge_divergences would keep.
                record = self.oracle.observe(index, mutated, outcome)
                if (
                    record is not None
                    and len(divergences) < MAX_DIVERGENCES_KEPT
                ):
                    divergences.append(record)

            lines = denoise(outcome.coverage_lines)
            fresh = lines - baseline_lines - discovered
            discovered |= fresh

            failure = classify_result(outcome, mutated, index, hv.log)
            if failure is not None:
                if failure.kind is FailureKind.VM_CRASH:
                    result.vm_crashes += 1
                else:
                    result.hypervisor_crashes += 1
                if len(result.failures) < MAX_FAILURES_KEPT:
                    result.failures.append(failure)
                result.corpus.consider(
                    mutated, lines, len(fresh), failure.kind
                )
                # Reset to the target VM state (the host "reboots" /
                # the dummy VM is reverted, paper Fig. 11).
                restore_snapshot(
                    hv, dummy, state_r, fast=self.fast_reset
                )
            elif fresh:
                result.corpus.consider(mutated, lines, len(fresh))
            engine.feedback(
                mutated, new_loc=len(fresh),
                cost_cycles=hv.clock.now - cycles_before,
                crashed=failure is not None,
            )

        result.new_loc = len(discovered)
        result.new_lines = frozenset(discovered)
        if OBS.metrics.enabled and engine.name == "smart":
            # Per-stage accounting for the staged pipeline only: the
            # poc path emits exactly the counters it always did, so
            # existing metrics goldens stay byte-identical.
            stage_counts: dict[str, int] = getattr(
                engine, "stage_counts", {}
            )
            for stage in sorted(stage_counts):
                if stage_counts[stage]:
                    OBS.metrics.inc(
                        "fuzz_stage_mutants",
                        value=stage_counts[stage], stage=stage,
                        reason=case.exit_reason.name,
                        area=case.area.value,
                    )
        if self.oracle is not None:
            result.divergences = tuple(divergences)
            result.seeds_compared = self.oracle.seeds_compared
            result.untranslatable_seeds = (
                self.oracle.untranslatable_seeds
            )
        return result
