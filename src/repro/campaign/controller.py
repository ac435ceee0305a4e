"""Campaign controller: the one way a fuzzing campaign runs.

Every campaign — the ``iris-fuzz`` CLI at any ``--jobs``, the bench
scenarios, the tests — runs through :meth:`CampaignController.run`,
which drives :meth:`ParallelCampaign.run_wave` on the engine's warm
worker pool.  Waves exist only so they can be checkpointed: without a
store the whole plan runs as a single wave (so every worker of the
pool gets work); with a :class:`CampaignStore` the cells are
partitioned into fixed-size waves, each committed transactionally
before the next starts.  A later run pointed at the same store with
``resume=True`` reloads every committed wave and continues from the
first uncommitted one.

Why resume is exact
-------------------

Three properties, each pinned by its own test suite, compose:

1. Shard RNG seeds are derived from *campaign* coordinates
   (:func:`repro.fuzz.parallel.derive_shard_seed`), never from wave
   membership, worker identity, or wall time — so wave ``k`` of a
   resumed campaign performs bit-identical work to wave ``k`` of an
   uninterrupted one.
2. Merges are order-insensitive and associative
   (:meth:`FuzzResult.merge`, :meth:`Corpus.merge`,
   :meth:`CoverageMap.union`, :meth:`MetricsSnapshot.merge`) — so
   splicing reloaded waves together with freshly run ones lands on the
   same merged output as running everything in one go.
3. The store round-trips every artifact exactly (the Hypothesis
   property suite) — so a reloaded wave *is* the wave that was saved.

Hence the headline differential test: kill after any wave, resume,
and the final corpus, coverage, failures, and metrics snapshot are
byte-identical to the uninterrupted run's.
"""

from __future__ import annotations

import time

from repro.errors import IrisError, StoreMismatchError
from repro.campaign.store import CampaignConfig, CampaignStore
from repro.fuzz.fuzzer import FuzzResult
from repro.fuzz.parallel import (
    CampaignResult,
    CampaignStats,
    ParallelCampaign,
    WaveOutcome,
)
from repro.obs import OBS, MetricsSnapshot


class CampaignInterrupted(IrisError):
    """The campaign stopped after a wave boundary (fault injection).

    Raised by the ``crash_after_wave`` hook *after* that wave's
    checkpoint committed — the closest a test can get to a process
    death between waves without actually killing the interpreter.
    """

    def __init__(self, wave_index: int) -> None:
        super().__init__(
            f"campaign interrupted after wave {wave_index}"
        )
        self.wave_index = wave_index


def plan_waves(n_cells: int, wave_size: int) -> list[list[int]]:
    """Partition cell indices into consecutive fixed-size waves.

    Purely cosmetic for results (cells are independent and merges are
    associative) but load-bearing for resume: the wave index recorded
    in the store maps back to cell sets through this function, so it
    must stay deterministic in ``(n_cells, wave_size)``.
    """
    if wave_size < 1:
        raise ValueError("wave_size must be >= 1")
    return [
        list(range(start, min(start + wave_size, n_cells)))
        for start in range(0, n_cells, wave_size)
    ]


class CampaignController:
    """Drive a :class:`ParallelCampaign` wave by wave, checkpointing.

    Without a store the whole plan is one wave and ``wave_size`` is
    unused.  With a store, each ``wave_size``-cell wave commits before
    the next starts, and :meth:`run` with ``resume=True`` continues a
    previously interrupted campaign.  Either way the merged result is
    identical (the equivalence test pins this).
    """

    def __init__(
        self,
        engine: ParallelCampaign,
        store: CampaignStore | None = None,
        *,
        wave_size: int = 1,
        config_extra: tuple[tuple[str, str], ...] = (),
        crash_after_wave: int | None = None,
    ) -> None:
        self.engine = engine
        self.store = store
        self.wave_size = wave_size
        self.config_extra = tuple(sorted(config_extra))
        #: Fault-injection hook: abort (after checkpointing) once the
        #: given wave index has committed, simulating a process death
        #: at a wave boundary.
        self.crash_after_wave = crash_after_wave

    def config(self) -> CampaignConfig:
        """This campaign's deterministic identity (what the store pins)."""
        return CampaignConfig(
            campaign_seed=self.engine.campaign_seed,
            n_cells=len(self.engine.cases),
            shards_per_cell=self.engine.shards_per_cell,
            wave_size=self.wave_size,
            arch=self.engine.arch,
            collect_metrics=self.engine.collect_metrics,
            differential=self.engine.differential,
            engine=self.engine.engine,
            extra=self.config_extra,
        )

    def run(self, *, resume: bool = False) -> CampaignResult:
        started = time.perf_counter()
        n_cells = len(self.engine.cases)
        # Waves exist only so a store can checkpoint them; without one
        # the whole plan is a single wave, so every pool worker gets
        # work at once.
        waves = plan_waves(
            n_cells,
            self.wave_size if self.store is not None else max(n_cells, 1),
        )
        start_wave = self._prepare_store(resume, len(waves))
        # Results are transport-independent (the differential suite
        # pins byte-identity local vs socket), so the transport is
        # pure observability here: say where the waves will run.
        transport = self.engine.transport()
        OBS.tracer.event(
            "iris.campaign.transport", transport=transport.describe(),
        )

        results: dict[int, FuzzResult] = {}
        abandoned: list[int] = []
        wave_metrics: list[MetricsSnapshot] = []
        stats = CampaignStats(jobs=self.engine.jobs)

        if start_wave:
            assert self.store is not None
            results.update(self.store.load_results())
            for stored in self.store.completed_waves():
                abandoned.extend(stored.abandoned)
                if stored.metrics is not None:
                    wave_metrics.append(stored.metrics)
            OBS.metrics.inc(
                "campaign_waves_resumed", value=start_wave,
            )
            OBS.tracer.event(
                "iris.campaign.resume",
                waves_resumed=start_wave,
                waves_total=len(waves),
            )

        try:
            for wave_index in range(start_wave, len(waves)):
                cell_indices = waves[wave_index]
                with OBS.tracer.span(
                    "iris.campaign.wave",
                    wave=wave_index, cells=len(cell_indices),
                ):
                    outcome = self.engine.run_wave(cell_indices)
                self._absorb(outcome, results, abandoned,
                             wave_metrics, stats)
                if self.store is not None:
                    self.store.checkpoint_wave(
                        wave_index, cell_indices, outcome,
                    )
                    OBS.metrics.inc("campaign_checkpoints")
                if self.crash_after_wave == wave_index:
                    raise CampaignInterrupted(wave_index)
        finally:
            self.engine.close()
            OBS.tracer.event(
                "iris.campaign.transport-stats",
                transport=transport.describe(),
                **vars(transport.stats),
            )

        stats.wall_seconds = time.perf_counter() - started
        return CampaignResult(
            results=[results[i] for i in sorted(results)],
            stats=stats,
            abandoned_cells=sorted(abandoned),
            metrics=(
                MetricsSnapshot.merge_all(wave_metrics)
                if self.engine.collect_metrics else None
            ),
            waves_total=len(waves),
            waves_resumed=start_wave,
        )

    def _absorb(
        self,
        outcome: WaveOutcome,
        results: dict[int, FuzzResult],
        abandoned: list[int],
        wave_metrics: list[MetricsSnapshot],
        stats: CampaignStats,
    ) -> None:
        results.update(outcome.results)
        abandoned.extend(outcome.abandoned)
        if outcome.metrics is not None:
            wave_metrics.append(outcome.metrics)
        stats.shards.extend(outcome.shard_stats)
        stats.faults.extend(outcome.faults)

    def _prepare_store(self, resume: bool, n_waves: int) -> int:
        """Initialize or reconcile the store; return the start wave."""
        if self.store is None:
            return 0
        if not self.store.initialized:
            if resume:
                raise StoreMismatchError(
                    f"campaign store {self.store.path!r} holds no "
                    "campaign to resume"
                )
            self.store.initialize(self.config())
            return 0
        if not resume:
            raise StoreMismatchError(
                f"campaign store {self.store.path!r} already holds a "
                "campaign; pass resume to continue it"
            )
        stored = self.store.config()
        mine = self.config()
        if stored != mine:
            raise StoreMismatchError(
                "resume refused: stored campaign identity disagrees "
                f"with the request ({stored.describe_diff(mine)})"
            )
        self.store.validate()
        last = self.store.last_completed_wave()
        start = 0 if last is None else last + 1
        if start > n_waves:
            raise StoreMismatchError(
                f"store has {start} completed waves but the campaign "
                f"plan only has {n_waves}"
            )
        return start
