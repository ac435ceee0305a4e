"""Parallel fuzzing campaign engine with deterministic shard merging.

The paper's Table I campaign (workload x exit reason x mutation area,
N mutations per cell) is embarrassingly parallel: every cell replays
the same recorded behavior up to its target seed and then mutates
independently.  :class:`ParallelCampaign` shards those cells (and,
optionally, each cell's mutation budget) across a ``multiprocessing``
worker pool, the way NecoFuzz scales virtualization fuzzing across
many harness VMs — while keeping rr's bargain: parallel replay is only
trustworthy if it stays bit-for-bit deterministic.

The determinism contract
------------------------

* Every shard runs in a **fresh** :class:`IrisManager` (fresh simulated
  hypervisor, clock at zero, empty log), so nothing about the host
  process, prior shards, or scheduling leaks into a shard's outcome.
* Each shard's ``random.Random`` seed is derived from
  ``(campaign_seed, cell_index, shard_index)`` via
  :func:`derive_shard_seed` — never from worker identity or wall time.
* Per-shard artifacts merge through order-insensitive operations:
  :meth:`FuzzResult.merge`, :meth:`Corpus.merge`, and
  :meth:`CoverageMap.union`.

Together these make the merged campaign result a pure function of
``(trace, snapshot, cases, campaign_seed, shards_per_cell, arch,
differential, engine)``: the ``jobs`` worker count never changes
results, only wall-clock time.  Shards always run the fast-reset
paths; the fast-reset differential tests pin that a campaign rebuilt
from scratch on every reset gives the identical merged result.

Fault isolation
---------------

A worker that dies mid-shard (hypervisor panic escaping the harness, a
pickling error, a timeout) is reported on the stats channel, its shard
is retried exactly once, and a shard that fails its retry is
*abandoned* — logged, surfaced in
:attr:`CampaignResult.abandoned_cells`, and excluded from the merge —
so the campaign degrades gracefully instead of aborting.

Transports
----------

*Where* shards run is delegated to a
:class:`repro.campaign.transport.WorkerTransport`.  The default is the
:class:`~repro.campaign.transport.LocalPoolTransport` — one warm
``multiprocessing`` pool per campaign, created lazily, primed once
with the (large) trace and snapshot, reused across waves and retries,
and torn down only on campaign exit or a shard hang.  Passing
``transport=`` (e.g. a
:class:`~repro.campaign.transport.SocketTransport` attached to
``iris-worker`` processes) moves execution elsewhere without touching
the engine: shards are hermetic, so the merged result is byte-identical
across transports — the property the transport differential tests pin.

Worker identity cannot leak into results — every shard builds a fresh
:class:`IrisManager` from the shipped context — so re-running a retry
on the worker that reported the original fault is safe, as is
reassigning a shard from a dead remote worker to a surviving one.
"""

from __future__ import annotations

import dataclasses
import hashlib
import random
import time
from dataclasses import dataclass, field
from functools import reduce
from typing import TYPE_CHECKING, Callable, Mapping, Sequence

if TYPE_CHECKING:  # circular at runtime: transport imports this module
    from repro.campaign.transport import WorkerTransport

from repro.core.seed import Trace
from repro.core.snapshot import VmSnapshot
from repro.fuzz.corpus import Corpus
from repro.fuzz.fuzzer import FuzzResult, IrisFuzzer
from repro.fuzz.mutations import MutationArea
from repro.fuzz.testcase import FuzzTestCase
from repro.hypervisor.coverage import CoverageMap
from repro.obs import MetricsRegistry, MetricsSnapshot, observability


# ---- deterministic seeding -------------------------------------------

def derive_shard_seed(
    campaign_seed: int, cell_index: int, shard_index: int = 0
) -> int:
    """Derive a shard's RNG seed from its campaign coordinates.

    SHA-256 over the coordinate string, so the seed is stable across
    Python versions, processes, and ``PYTHONHASHSEED`` — the property
    the jobs-independence contract rests on.
    """
    coords = f"iris-campaign:{campaign_seed}:{cell_index}:{shard_index}"
    digest = hashlib.sha256(coords.encode()).digest()
    return int.from_bytes(digest[:8], "little")


def split_mutations(n_mutations: int, shards: int) -> list[int]:
    """Split a cell's mutation budget into per-shard slices.

    Deterministic: earlier shards absorb the remainder; zero-sized
    slices are never produced (a cell smaller than the shard count
    simply uses fewer shards).
    """
    if n_mutations < 1:
        raise ValueError("need at least one mutation")
    if shards < 1:
        raise ValueError("need at least one shard")
    shards = min(shards, n_mutations)
    base, extra = divmod(n_mutations, shards)
    return [base + (1 if i < extra else 0) for i in range(shards)]


# ---- work units -------------------------------------------------------

@dataclass(frozen=True)
class ShardTask:
    """One unit of worker-pool work: a slice of one Table-I cell."""

    cell_index: int
    shard_index: int
    seed_index: int
    area: MutationArea
    n_mutations: int
    mutation_rule: str
    rng_seed: int
    attempt: int = 0
    #: Mutation engine the shard's fuzzer runs (``"poc"``/``"smart"``).
    #: Part of the task so the determinism contract covers it — the
    #: merged result is a function of the engine choice too.
    engine: str = "poc"
    #: Virtualization backend the shard's fresh hypervisor runs on.
    #: Part of the task (not ambient state) so the determinism contract
    #: covers it: the merged result is a function of the arch too.
    arch: str = "vmx"
    #: Fault-injection hook (tests / chaos drills): ``"raise"`` makes
    #: the worker raise, ``"hang"`` makes it sleep past any timeout.
    fault_kind: str | None = None
    #: Capture a hermetic per-shard :class:`MetricsSnapshot` (a fresh
    #: wall-clock-free registry installed around the shard, so the
    #: snapshot is a pure function of the task — mergeable across any
    #: ``jobs`` value without changing totals).
    collect_metrics: bool = False
    #: Differential mode: the shard also replays every mutant on a
    #: secondary SVM backend (through the seed translation) and records
    #: cross-backend divergences in its result.  Part of the task so
    #: the mode rides the same determinism contract as ``arch``.
    differential: bool = False


@dataclass(frozen=True)
class ShardOutcome:
    """What a worker sends back for one task (result *or* fault)."""

    cell_index: int
    shard_index: int
    attempt: int
    result: FuzzResult | None = None
    error: str | None = None
    error_traceback: str | None = None
    duration_seconds: float = 0.0
    worker_pid: int = 0
    #: Hermetic per-shard metrics (None unless the task asked).
    metrics: MetricsSnapshot | None = None

    @property
    def ok(self) -> bool:
        return self.result is not None


# ---- stats channel ----------------------------------------------------

@dataclass(frozen=True)
class WorkerFault:
    """One worker death, surfaced (not swallowed) on the stats channel."""

    cell_index: int
    shard_index: int
    attempt: int
    error: str
    traceback: str | None = None

    def describe(self) -> str:
        return (
            f"worker fault on cell {self.cell_index} shard "
            f"{self.shard_index} (attempt {self.attempt}): {self.error}"
        )


@dataclass
class ShardStats:
    """Per-shard progress record."""

    cell_index: int
    shard_index: int
    status: str = "pending"  # ok | retried | failed
    attempts: int = 0
    duration_seconds: float = 0.0
    mutations_run: int = 0
    worker_pid: int = 0
    error: str | None = None

    @property
    def mutations_per_second(self) -> float:
        if self.duration_seconds <= 0:
            return 0.0
        return self.mutations_run / self.duration_seconds


@dataclass
class CampaignStats:
    """The campaign's lightweight stats channel.

    Wall-clock numbers describe *this* run's worker pool; they are
    observability, not part of the deterministic merged result.
    """

    jobs: int = 1
    shards: list[ShardStats] = field(default_factory=list)
    faults: list[WorkerFault] = field(default_factory=list)
    wall_seconds: float = 0.0

    @property
    def total_mutations(self) -> int:
        return sum(s.mutations_run for s in self.shards)

    @property
    def mutations_per_second(self) -> float:
        if self.wall_seconds <= 0:
            return 0.0
        return self.total_mutations / self.wall_seconds

    @property
    def retried_shards(self) -> list[ShardStats]:
        return [s for s in self.shards if s.status == "retried"]

    @property
    def failed_shards(self) -> list[ShardStats]:
        return [s for s in self.shards if s.status == "failed"]

    @property
    def healthy(self) -> bool:
        """True when no worker died (not even a recovered one)."""
        return not self.faults

    def describe(self) -> str:
        return (
            f"{len(self.shards)} shards on {self.jobs} worker(s): "
            f"{self.total_mutations} mutations in "
            f"{self.wall_seconds:.2f}s "
            f"({self.mutations_per_second:.0f} mut/s), "
            f"{len(self.faults)} worker fault(s), "
            f"{len(self.retried_shards)} retried, "
            f"{len(self.failed_shards)} failed"
        )


# ---- campaign result --------------------------------------------------

@dataclass
class CampaignResult:
    """Merged outcome of a fuzzing campaign (what
    :meth:`repro.campaign.CampaignController.run` returns)."""

    results: list[FuzzResult]
    stats: CampaignStats
    abandoned_cells: list[int] = field(default_factory=list)
    #: Deterministic merge of the per-shard metrics snapshots (shards
    #: of abandoned cells excluded, mirroring ``results``).  ``None``
    #: unless the campaign ran with ``collect_metrics=True``.
    metrics: MetricsSnapshot | None = None
    #: Total waves in the campaign's plan.
    waves_total: int = 0
    #: Waves reloaded from the store rather than executed.
    waves_resumed: int = 0

    def merged_coverage(self) -> CoverageMap:
        """Union of every cell's newly discovered lines."""
        return CoverageMap.union_all(
            CoverageMap(result.new_lines) for result in self.results
        )

    def merged_corpus(self) -> Corpus:
        """Canonical union of every cell's corpus."""
        return Corpus.merge_all(
            result.corpus for result in self.results
        )

    def crash_tallies(self) -> dict[str, int]:
        return {
            "vm-crash": sum(r.vm_crashes for r in self.results),
            "hypervisor-crash": sum(
                r.hypervisor_crashes for r in self.results
            ),
        }

    def describe(self) -> str:
        tallies = self.crash_tallies()
        return (
            f"{len(self.results)} cells "
            f"({len(self.abandoned_cells)} abandoned), "
            f"{self.merged_coverage().loc} new LOC, "
            f"{tallies['vm-crash']} VM / "
            f"{tallies['hypervisor-crash']} HV crashes, "
            f"corpus of {len(self.merged_corpus())}"
        )


@dataclass
class WaveOutcome:
    """Merged outcome of one *wave* — a subset of the campaign's cells.

    The campaign controller's checkpoint unit: everything the
    persistent store needs to record the wave transactionally, and
    everything a resumed campaign needs to splice the wave back in.
    Cell results are keyed by cell index (never positional) so waves
    compose into a full campaign in any order.
    """

    #: Completed cells of this wave, keyed by cell index.
    results: dict[int, FuzzResult] = field(default_factory=dict)
    #: Cells of this wave abandoned after their retry.
    abandoned: list[int] = field(default_factory=list)
    #: Per-shard progress records, in task (plan) order.
    shard_stats: list[ShardStats] = field(default_factory=list)
    #: Worker deaths observed during the wave (recovered ones too).
    faults: list[WorkerFault] = field(default_factory=list)
    #: Deterministic merge of the wave's per-shard metrics snapshots
    #: (``None`` unless the campaign collects metrics).
    metrics: MetricsSnapshot | None = None


# ---- worker side ------------------------------------------------------

class InjectedWorkerFault(RuntimeError):
    """Raised by the fault-injection hook to simulate a worker death."""


def run_shard(
    task: ShardTask, trace: Trace, snapshot: VmSnapshot | None
) -> FuzzResult:
    """Run one shard hermetically: fresh manager, shard-derived RNG.

    This is the pure function the determinism contract is about — its
    output depends only on its arguments, never on which process (or
    how many siblings) it runs in.
    """
    from repro.core.manager import IrisManager

    manager = IrisManager(arch=task.arch)
    if snapshot is not None and snapshot.clock_tsc > manager.hv.clock.now:
        # Timer deadlines in the snapshot (vpt.next_due, vlapic) are
        # absolute TSC values on the recording host's clock.  A fresh
        # hypervisor starts at TSC 0, which would push every restored
        # deadline unreachably far into the future and silence the
        # interrupt-injection paths replay legitimately exercises.
        # Fast-forward into the snapshot's clock domain — a pure
        # function of the snapshot, so shards stay deterministic.
        manager.hv.clock.advance(snapshot.clock_tsc - manager.hv.clock.now)
    oracle = None
    if task.differential:
        from repro.fuzz.differential import DifferentialOracle

        oracle = DifferentialOracle()
    fuzzer = IrisFuzzer(
        manager, rng=random.Random(task.rng_seed), oracle=oracle,
    )
    case = FuzzTestCase(
        trace=trace,
        seed_index=task.seed_index,
        area=task.area,
        n_mutations=task.n_mutations,
        mutation_rule=task.mutation_rule,
        engine=task.engine,
    )
    return fuzzer.run_test_case(case, from_snapshot=snapshot)


def _execute_task(
    task: ShardTask, trace: Trace, snapshot: VmSnapshot | None
) -> ShardOutcome:
    """Run a task, converting any worker-side death into an outcome."""
    import os
    import traceback

    start = time.perf_counter()
    try:
        if task.fault_kind == "raise":
            raise InjectedWorkerFault(
                f"injected fault: cell {task.cell_index} shard "
                f"{task.shard_index} attempt {task.attempt}"
            )
        if task.fault_kind == "hang":
            time.sleep(3600)
        metrics_snapshot = None
        if task.collect_metrics:
            # Hermetic capture: a fresh wall-clock-free registry (and a
            # null tracer) scoped to this shard only, so the snapshot
            # is a pure function of the task and merges identically
            # for any ``jobs`` value.  Confined to this thread: when
            # the shard runs inside an in-process worker server, the
            # controller's own threads (transport counters, ambient
            # tracing) must neither leak into this snapshot nor lose
            # their events to it.
            from repro.obs import (
                NULL_TRACER,
                OBS,
                ThreadConfinedMetrics,
                ThreadConfinedTracer,
            )

            registry = MetricsRegistry(record_wall=False)
            with observability(
                tracer=ThreadConfinedTracer(NULL_TRACER, OBS.tracer),
                metrics=ThreadConfinedMetrics(registry, OBS.metrics),
            ):
                result = run_shard(task, trace, snapshot)
            metrics_snapshot = registry.snapshot()
        else:
            result = run_shard(task, trace, snapshot)
        return ShardOutcome(
            cell_index=task.cell_index,
            shard_index=task.shard_index,
            attempt=task.attempt,
            result=result,
            duration_seconds=time.perf_counter() - start,
            worker_pid=os.getpid(),
            metrics=metrics_snapshot,
        )
    except Exception as exc:
        return ShardOutcome(
            cell_index=task.cell_index,
            shard_index=task.shard_index,
            attempt=task.attempt,
            error=f"{type(exc).__name__}: {exc}",
            error_traceback=traceback.format_exc(),
            duration_seconds=time.perf_counter() - start,
            worker_pid=os.getpid(),
        )


# ---- the engine -------------------------------------------------------

class ParallelCampaign:
    """Shard Table-I cells across a worker pool and merge the results.

    ``jobs=1`` runs every shard inline (no pool) through the *same*
    hermetic per-shard path, so it produces bit-identical results to
    any ``jobs=N`` run — the property the differential tests pin.

    The engine executes waves (:meth:`run_wave`); the one driver that
    turns them into a campaign is
    :class:`repro.campaign.CampaignController`.
    """

    def __init__(
        self,
        trace: Trace,
        snapshot: VmSnapshot | None,
        cases: list[FuzzTestCase],
        *,
        campaign_seed: int = 0,
        jobs: int = 1,
        shards_per_cell: int = 1,
        shard_timeout: float | None = None,
        on_event: Callable[[object], None] | None = None,
        fault_plan: Mapping[int, tuple[str, int]] | None = None,
        arch: str = "vmx",
        collect_metrics: bool = False,
        differential: bool = False,
        transport: WorkerTransport | None = None,
    ) -> None:
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        if shards_per_cell < 1:
            raise ValueError("shards_per_cell must be >= 1")
        if differential and arch != "vmx":
            raise ValueError(
                "differential mode fuzzes the vmx backend natively and "
                "mirrors it on svm via the seed translation; "
                f"--arch {arch} has no secondary backend to diff against"
            )
        self.arch = arch
        self.differential = differential
        self.trace = trace
        self.snapshot = snapshot
        self.cases = list(cases)
        engines = {case.engine for case in self.cases}
        if len(engines) > 1:
            # One campaign, one engine: the config identity stores a
            # single engine name, so mixed plans are refused up front.
            raise ValueError(
                "cases mix mutation engines: "
                f"{', '.join(sorted(engines))}"
            )
        #: The campaign's mutation engine (part of its stored config
        #: identity; every shard task carries it).
        self.engine = engines.pop() if engines else "poc"
        self.campaign_seed = campaign_seed
        self.jobs = jobs
        self.shards_per_cell = shards_per_cell
        self.shard_timeout = shard_timeout
        self.on_event = on_event
        #: cell_index -> (fault kind, number of attempts to sabotage);
        #: the chaos hook the fault-isolation tests drive.
        self.fault_plan = dict(fault_plan or {})
        self.collect_metrics = collect_metrics
        #: Where shards run.  ``None`` means the default local warm
        #: pool, created lazily by the first wave; an explicit
        #: transport (e.g. ``SocketTransport``) moves execution off
        #: this host without changing any result byte.
        self._transport: WorkerTransport | None = transport

    # -- planning ------------------------------------------------------

    def plan(self) -> list[ShardTask]:
        """The deterministic shard list (before any retry bookkeeping)."""
        tasks: list[ShardTask] = []
        for cell_index, case in enumerate(self.cases):
            slices = split_mutations(
                case.n_mutations, self.shards_per_cell
            )
            for shard_index, n_mutations in enumerate(slices):
                tasks.append(ShardTask(
                    cell_index=cell_index,
                    shard_index=shard_index,
                    seed_index=case.seed_index,
                    area=case.area,
                    n_mutations=n_mutations,
                    mutation_rule=case.mutation_rule,
                    engine=case.engine,
                    rng_seed=derive_shard_seed(
                        self.campaign_seed, cell_index, shard_index
                    ),
                    fault_kind=self._fault_for(cell_index, attempt=0),
                    arch=self.arch,
                    collect_metrics=self.collect_metrics,
                    differential=self.differential,
                ))
        return tasks

    def _fault_for(self, cell_index: int, attempt: int) -> str | None:
        kind, bad_attempts = self.fault_plan.get(
            cell_index, (None, 0)
        )
        return kind if attempt < bad_attempts else None

    # -- execution -----------------------------------------------------

    def run_wave(self, cell_indices: Sequence[int]) -> WaveOutcome:
        """Run one wave — a subset of the campaign's cells — and merge it.

        The campaign controller's scheduling unit.  Shard RNG seeds are
        derived from *campaign* coordinates (:meth:`plan` filtered by
        cell index), never from wave membership, so partitioning the
        same cells into different waves — or resuming a stored campaign
        mid-way — cannot change any shard's work.  The worker pool
        stays warm across calls; the caller owns teardown via
        :meth:`close`.
        """
        wanted = set(cell_indices)
        unknown = wanted.difference(range(len(self.cases)))
        if unknown:
            raise ValueError(
                f"unknown cell indices in wave: {sorted(unknown)}"
            )
        tasks = [t for t in self.plan() if t.cell_index in wanted]
        shard_stats = {
            (t.cell_index, t.shard_index): ShardStats(
                cell_index=t.cell_index, shard_index=t.shard_index
            )
            for t in tasks
        }
        faults: list[WorkerFault] = []
        shard_results: dict[tuple[int, int], FuzzResult] = {}
        shard_metrics: dict[tuple[int, int], MetricsSnapshot] = {}

        outcomes = self._run_tasks(tasks)
        retries = []
        for task, outcome in zip(tasks, outcomes):
            self._account(shard_stats, shard_results,
                          shard_metrics, faults, task, outcome)
            if not outcome.ok:
                retries.append(self._retry_task(task))

        if retries:
            # Same warm pool (unless a hang already forced its
            # replacement): shards are hermetic, so worker reuse
            # cannot leak the failed attempt into the retry.
            for task, outcome in zip(retries,
                                     self._run_tasks(retries)):
                self._account(shard_stats, shard_results,
                              shard_metrics, faults, task, outcome)

        results, abandoned = self._merge_cells(
            shard_results, sorted(wanted)
        )
        return WaveOutcome(
            results=results,
            abandoned=abandoned,
            shard_stats=[
                shard_stats[(t.cell_index, t.shard_index)]
                for t in tasks
            ],
            faults=faults,
            metrics=self._merge_metrics(shard_metrics, abandoned),
        )

    def close(self) -> None:
        """Release the transport's workers (idempotent)."""
        if self._transport is not None:
            self._transport.close()

    def _retry_task(self, task: ShardTask) -> ShardTask:
        attempt = task.attempt + 1
        return dataclasses.replace(
            task, attempt=attempt,
            fault_kind=self._fault_for(task.cell_index, attempt),
        )

    # -- transport plumbing -------------------------------------------

    def identity(self) -> tuple[tuple[str, str], ...]:
        """The campaign's deterministic coordinates, for worker logs.

        Shipped in the HELLO frame so an operator can tell whose wave
        a remote worker is serving; informational only — results never
        depend on it.
        """
        return (
            ("campaign_seed", str(self.campaign_seed)),
            ("cells", str(len(self.cases))),
            ("shards_per_cell", str(self.shards_per_cell)),
            ("arch", self.arch),
            ("differential", str(self.differential)),
            ("engine", self.engine),
        )

    def transport(self) -> WorkerTransport:
        """The campaign's (primed) transport, default local pool."""
        from repro.campaign.transport import (
            LocalPoolTransport,
            TransportContext,
        )

        if self._transport is None:
            self._transport = LocalPoolTransport(
                jobs=self.jobs, shard_timeout=self.shard_timeout,
            )
        # Idempotent: the first prime wins, later calls are no-ops.
        self._transport.prime(TransportContext(
            trace=self.trace,
            snapshot=self.snapshot,
            identity=self.identity(),
        ))
        return self._transport

    def _run_tasks(
        self, tasks: list[ShardTask]
    ) -> list[ShardOutcome]:
        if not tasks:
            return []
        return self.transport().run_tasks(tasks)

    # -- bookkeeping / merging ----------------------------------------

    def _account(
        self,
        shard_stats: dict[tuple[int, int], ShardStats],
        shard_results: dict[tuple[int, int], FuzzResult],
        shard_metrics: dict[tuple[int, int], MetricsSnapshot],
        faults: list[WorkerFault],
        task: ShardTask,
        outcome: ShardOutcome,
    ) -> None:
        key = (task.cell_index, task.shard_index)
        record = shard_stats[key]
        record.attempts += 1
        record.duration_seconds += outcome.duration_seconds
        record.worker_pid = outcome.worker_pid
        if outcome.ok:
            assert outcome.result is not None
            record.mutations_run += outcome.result.mutations_run
            record.status = "retried" if task.attempt else "ok"
            record.error = None
            shard_results[key] = outcome.result
            if outcome.metrics is not None:
                shard_metrics[key] = outcome.metrics
            self._emit(("shard-completed", record))
        else:
            record.error = outcome.error
            fault = WorkerFault(
                cell_index=task.cell_index,
                shard_index=task.shard_index,
                attempt=task.attempt,
                error=outcome.error or "unknown",
                traceback=outcome.error_traceback,
            )
            faults.append(fault)
            if task.attempt == 0:
                self._emit(("worker-fault", fault))
            else:
                record.status = "failed"
                self._emit(("shard-abandoned", fault))

    def _emit(self, event: tuple[str, object]) -> None:
        if self.on_event is not None:
            self.on_event(event)

    def _merge_cells(
        self,
        shard_results: dict[tuple[int, int], FuzzResult],
        cell_indices: Sequence[int],
    ) -> tuple[dict[int, FuzzResult], list[int]]:
        results: dict[int, FuzzResult] = {}
        abandoned: list[int] = []
        for cell_index in cell_indices:
            case = self.cases[cell_index]
            n_shards = len(split_mutations(
                case.n_mutations, self.shards_per_cell
            ))
            cell_shards = [
                shard_results.get((cell_index, shard_index))
                for shard_index in range(n_shards)
            ]
            if any(r is None for r in cell_shards):
                abandoned.append(cell_index)
                continue
            results[cell_index] = reduce(FuzzResult.merge, cell_shards)
        return results, abandoned

    def _merge_metrics(
        self,
        shard_metrics: dict[tuple[int, int], MetricsSnapshot],
        abandoned: list[int],
    ) -> MetricsSnapshot | None:
        """Merge the per-shard snapshots in canonical key order.

        The merge is commutative/associative, so the ordering is only
        cosmetic — but excluding abandoned cells mirrors ``results``:
        the snapshot accounts exactly the work the merged result
        reflects, keeping totals identical for any ``jobs`` value.
        """
        if not self.collect_metrics:
            return None
        abandoned_cells = set(abandoned)
        return MetricsSnapshot.merge_all(
            shard_metrics[key]
            for key in sorted(shard_metrics)
            if key[0] not in abandoned_cells
        )

