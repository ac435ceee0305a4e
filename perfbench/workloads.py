"""The benchmark's three workloads, driven through the public Python API.

Each workload has a ``prepare`` step (everything before the timed
operation: the manager, and for the fuzzing workloads the recorded
input trace) and an ``operation`` that performs one whole user
operation and checks its outputs.  Sizes are fixed per workload, so an
operation's outputs are a pure function of the workload seed, and each
operation reports a canonical digest of them.  An operation times its
phases, and runs its checks, through the :class:`Phases` object the
caller passes: the runner's calibrates the host's speed around each
phase and keeps a traced run from counting the checks as work of the
layers they read.

All inputs derive from one workload seed: the guest workload seed, the
test VM's machine seed, the planner's RNG and the campaign seed.
"""

from __future__ import annotations

import hashlib
import json
import random
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.analysis.accuracy import coverage_fitting
from repro.campaign import CampaignController, CampaignInterrupted, CampaignStore
from repro.core.manager import IrisManager
from repro.core.tracestore import TraceReader
from repro.errors import CampaignStoreError
from repro.fuzz.corpus import entry_identity
from repro.fuzz.differential import divergence_identity
from repro.fuzz.failures import failure_identity
from repro.fuzz.mutations import MutationArea
from repro.fuzz.parallel import ParallelCampaign
from repro.fuzz.testcase import plan_test_cases
from repro.vmx.exit_reasons import ExitReason, reason_name
from repro.x86.costs import DEFAULT_COSTS
from timing import Phases

#: The seed whose output digests are committed in ``digests.json``.
DEFAULT_SEED = 1
DIGESTS_PATH = Path(__file__).with_name("digests.json")


def derive_seed(seed: int, purpose: str) -> int:
    """A 32-bit seed for one purpose, derived from the workload seed."""
    digest = hashlib.sha256(f"{seed}:{purpose}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def digest_of(value: Any) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def result_identity(result) -> tuple:
    """Everything a :class:`FuzzResult` reports, in canonical order."""
    return (
        result.workload,
        result.exit_reason.name,
        result.area.value,
        result.mutations_run,
        result.baseline_loc,
        result.new_loc,
        result.vm_crashes,
        result.hypervisor_crashes,
        tuple(sorted(result.new_lines)),
        tuple(failure_identity(f) for f in result.failures),
        tuple(sorted(entry_identity(e) for e in result.corpus.entries)),
        tuple(divergence_identity(d) for d in result.divergences),
        result.seeds_compared,
        result.untranslatable_seeds,
    )


class ManagerCapture:
    """Remembers every :class:`IrisManager` built while it is active.

    One call per manager (per campaign shard), so it adds nothing to
    the per-exit path; it lets the benchmark read the simulated clocks
    of the hermetic shard hypervisors after the campaign has run.
    """

    def __init__(self) -> None:
        self.managers: list[IrisManager] = []
        self._original = IrisManager.__init__

    def __enter__(self) -> "ManagerCapture":
        original = self._original
        managers = self.managers

        def init(manager: IrisManager, *args: Any, **kwargs: Any) -> None:
            original(manager, *args, **kwargs)
            managers.append(manager)

        IrisManager.__init__ = init  # type: ignore[method-assign]
        return self

    def __exit__(self, *exc: object) -> None:
        IrisManager.__init__ = self._original  # type: ignore[method-assign]

    def shard_cycles(self, arch: str, clock_domain: int) -> int:
        """Simulated cycles the ``arch`` shard hypervisors spent after
        their jump into the snapshot's clock domain."""
        return sum(
            m.hv.clock.now - clock_domain
            for m in self.managers if m.arch == arch
        )


@dataclass
class OpResult:
    """One timed operation: wall times, work counts and its checks."""

    #: the operation's timed phases
    phases: Phases
    #: unit name -> count (exits, seeds, mutants, cells, ...)
    counts: dict[str, float]
    digest: str
    #: operations attempted in this iteration (failure accounting
    #: unit); all of them count as failed when a check is violated
    attempted: int
    violations: list[str] = field(default_factory=list)
    #: values printed beside the paper's (first operation only)
    model: dict[str, float] = field(default_factory=dict)

    def wall(self, *names: str) -> float:
        """Wall seconds of the named phases (all when none are named)."""
        walls = self.phases.walls
        return sum(walls[n] for n in names or walls)

    def ref_wall(self, *names: str) -> float:
        """The same, scaled to the reference host's speed."""
        walls, speeds = self.phases.walls, self.phases.speeds
        return sum(walls[n] * speeds[n] for n in names or walls)


class Workload:
    """Common shape: prepare once, then repeat a checked operation."""

    name = ""
    arch = "vmx"

    def params(self) -> dict[str, Any]:
        raise NotImplementedError

    def prepare(self, seed: int) -> tuple[Any, dict[str, float]]:
        """Build the operation's inputs; returns them with timings."""
        raise NotImplementedError

    def operation(
        self, inputs: Any, workdir: Path, index: int, phases: Phases,
    ) -> OpResult:
        raise NotImplementedError

    def expected_digest(self, seed: int) -> str | None:
        """The committed digest, for the default seed at default sizes."""
        if seed != DEFAULT_SEED or not DIGESTS_PATH.exists():
            return None
        entry = json.loads(DIGESTS_PATH.read_text()).get(self.name)
        if entry is None or entry["params"] != self.params():
            return None
        return entry["digest"]


def _manager(arch: str, seed: int) -> IrisManager:
    """A manager with its test VM, as ``record_workload`` expects."""
    manager = IrisManager(arch=arch)
    manager.create_test_vm(machine_seed=derive_seed(seed, "machine"))
    return manager


def _record(
    manager: IrisManager, seed: int, workload: str, exits: int,
    precondition: str, spool_to: Path | None = None,
):
    return manager.record_workload(
        workload, n_exits=exits, precondition=precondition,
        workload_seed=derive_seed(seed, "workload"), spool_to=spool_to,
    )


class BootRecordReplay(Workload):
    """Record OS BOOT on vmx (BIOS precondition), spooled to IRISTRC2;
    reopen the file lazily and replay every seed on the dummy VM."""

    name = "boot-record-replay"

    def __init__(self, exits: int = 1500) -> None:
        self.exits = exits

    def params(self) -> dict[str, Any]:
        return {"exits": self.exits}

    def prepare(self, seed: int) -> tuple[Any, dict[str, float]]:
        start = time.perf_counter()
        _manager(self.arch, seed)
        return seed, {"prepare": time.perf_counter() - start}

    def operation(
        self, seed: int, workdir: Path, index: int, phases: Phases,
    ) -> OpResult:
        path = workdir / f"boot-{index}.iris"
        manager = _manager(self.arch, seed)
        with phases.phase("record"):
            session = _record(manager, seed, "os-boot", self.exits,
                              "bios", spool_to=path)
        session.trace.close()
        with TraceReader(path) as reader:
            with phases.phase("replay"):
                replay = manager.replay_trace(
                    reader, from_snapshot=session.snapshot,
                    record_metrics=True,
                )
            with phases.quiet():
                violations, model = self._check(
                    session, reader, replay, index
                )
            digest = digest_of((
                hashlib.sha256(path.read_bytes()).hexdigest(),
                session.wall_cycles,
                replay.wall_cycles,
                tuple(
                    (
                        r.outcome.value,
                        r.handled_reason.name if r.handled_reason
                        else None,
                        tuple(sorted(r.coverage_lines)),
                        tuple((f.name, v) for f, v in r.vmwrites),
                        r.handler_cycles,
                    )
                    for r in replay.results
                ),
            ))
        path.unlink()
        return OpResult(
            phases=phases,
            counts={
                "exits_recorded": session.recorder_stats.exits_recorded,
                "exits_delivered": session.machine_stats.exits_delivered,
                "seeds_completed": replay.completed,
                "replay_submits": len(replay.results),
                "sim_replay_seconds": replay.wall_seconds,
            },
            digest=digest,
            # one record operation and one replay operation
            attempted=2,
            violations=violations,
            model=model,
        )

    def _check(self, session, reader, replay, index: int):
        """Invariants that hold for any seed, and the model values."""
        violations = []
        recorded = session.recorder_stats.exits_recorded
        if len(reader) != recorded or recorded != self.exits:
            violations.append(
                f"trace holds {len(reader)} records, recorder "
                f"counted {recorded}, asked for {self.exits}"
            )
        decoded: dict[str, int] = {}
        for record in reader:
            name = reason_name(record.seed.exit_reason)
            decoded[name] = decoded.get(name, 0) + 1
        if reader.reason_histogram() != decoded:
            violations.append(
                "index-only reason histogram differs from the "
                "decoded one"
            )
        crashed = len(replay.results) - replay.completed
        if crashed or len(replay.results) != len(reader):
            violations.append(
                f"{crashed} of {len(replay.results)} replayed seeds "
                f"crashed ({len(reader)} in the trace)"
            )
        model = {}
        if index == 0:
            model["coverage_fitting_pct"] = coverage_fitting(
                reader, replay.results
            ).fitting_pct
        return violations, model


def _campaign_counts(cases, results, capture: ManagerCapture,
                     arch: str, clock_domain: int) -> dict[str, float]:
    mutants = sum(r.mutations_run for r in results)
    submits = sum(c.seed_index + 1 for c in cases) + mutants
    return {
        "mutants": mutants,
        "cells": len(results),
        # Primary-backend replay submits: every cell replays its prefix
        # and its unmutated target once, then each mutant.
        "replay_submits": submits,
        "sim_fuzz_seconds": DEFAULT_COSTS.seconds(
            capture.shard_cycles(arch, clock_domain)
        ),
    }


def _check_cells(cases, outcome, mutants: int) -> list[str]:
    violations = []
    if outcome.abandoned_cells:
        violations.append(f"abandoned cells {outcome.abandoned_cells}")
    if outcome.stats.faults or outcome.stats.retried_shards:
        violations.append(
            f"{len(outcome.stats.faults)} worker fault(s), "
            f"{len(outcome.stats.retried_shards)} retried shard(s)"
        )
    if len(outcome.results) != len(cases):
        violations.append(
            f"{len(outcome.results)} results for {len(cases)} cells"
        )
    for result in outcome.results:
        if result.mutations_run != mutants:
            violations.append(
                f"cell {result.exit_reason.name}/{result.area.value} ran "
                f"{result.mutations_run} of {mutants} mutations"
            )
    return violations


class Table1Cell(Workload):
    """One Table-I cell: RDTSC x VMCS with the poc bit-flip engine on a
    CPU-bound trace, through the campaign controller at ``jobs=1``."""

    name = "table1-cell"

    def __init__(self, exits: int = 200, mutants: int = 3000) -> None:
        self.exits = exits
        self.mutants = mutants

    def params(self) -> dict[str, Any]:
        return {"exits": self.exits, "mutants": self.mutants}

    def prepare(self, seed: int) -> tuple[Any, dict[str, float]]:
        start = time.perf_counter()
        manager = _manager(self.arch, seed)
        record_start = time.perf_counter()
        session = _record(manager, seed, "cpu-bound", self.exits, "boot")
        record_wall = time.perf_counter() - record_start
        cases = plan_test_cases(
            session.trace, [ExitReason.RDTSC], areas=(MutationArea.VMCS,),
            n_mutations=self.mutants,
            rng=random.Random(derive_seed(seed, "plan")), engine="poc",
        )
        if len(cases) != 1:
            raise RuntimeError("the CPU-bound trace holds no RDTSC exit")
        return (seed, session, cases), {
            "prepare": time.perf_counter() - start,
            "record": record_wall,
            "exits_recorded": session.recorder_stats.exits_recorded,
        }

    def operation(
        self, inputs, workdir: Path, index: int, phases: Phases,
    ) -> OpResult:
        seed, session, cases = inputs
        engine = ParallelCampaign(
            session.trace, session.snapshot, cases,
            campaign_seed=derive_seed(seed, "campaign"), jobs=1,
        )
        with ManagerCapture() as capture, phases.phase("fuzz"):
            outcome = CampaignController(engine).run()
        counts = _campaign_counts(cases, outcome.results, capture,
                                  self.arch, session.snapshot.clock_tsc)
        violations = _check_cells(cases, outcome, self.mutants)
        return OpResult(
            phases=phases,
            counts=counts,
            digest=digest_of((
                [result_identity(r) for r in outcome.results],
                capture.shard_cycles(
                    self.arch, session.snapshot.clock_tsc
                ),
            )),
            attempted=1,
            violations=violations,
        )


class CampaignResume(Workload):
    """Every reason x area cell of an OS BOOT trace with the smart
    engine in differential mode, checkpointed wave by wave into a
    campaign store, interrupted at the middle wave and resumed."""

    name = "campaign-resume"

    def __init__(self, exits: int = 300, mutants: int = 8) -> None:
        self.exits = exits
        self.mutants = mutants

    def params(self) -> dict[str, Any]:
        return {"exits": self.exits, "mutants": self.mutants}

    def prepare(self, seed: int) -> tuple[Any, dict[str, float]]:
        start = time.perf_counter()
        manager = _manager(self.arch, seed)
        record_start = time.perf_counter()
        session = _record(manager, seed, "os-boot", self.exits, "bios")
        record_wall = time.perf_counter() - record_start
        reasons = sorted(set(session.trace.reasons()), key=int)
        cases = plan_test_cases(
            session.trace, reasons,
            areas=(MutationArea.VMCS, MutationArea.GPR),
            n_mutations=self.mutants,
            rng=random.Random(derive_seed(seed, "plan")), engine="smart",
        )
        return (seed, session, cases), {
            "prepare": time.perf_counter() - start,
            "record": record_wall,
            "exits_recorded": session.recorder_stats.exits_recorded,
        }

    def engine(self, seed: int, session, cases) -> ParallelCampaign:
        return ParallelCampaign(
            session.trace, session.snapshot, cases,
            campaign_seed=derive_seed(seed, "campaign"), jobs=1,
            differential=True,
        )

    def uninterrupted_digest(self, inputs) -> str:
        """The digest the resumed campaign must reproduce."""
        seed, session, cases = inputs
        with ManagerCapture() as capture:
            outcome = CampaignController(
                self.engine(seed, session, cases)
            ).run()
        return self._digest(outcome, capture, session)

    def _digest(self, outcome, capture, session) -> str:
        cycles = capture.shard_cycles(self.arch, session.snapshot.clock_tsc)
        return digest_of((
            [result_identity(r) for r in outcome.results], cycles,
        ))

    def operation(
        self, inputs, workdir: Path, index: int, phases: Phases,
    ) -> OpResult:
        seed, session, cases = inputs
        db = workdir / f"campaign-{index}.db"
        interrupt_after = (len(cases) - 1) // 2
        violations = []
        with ManagerCapture() as capture:
            with CampaignStore(str(db)) as store:
                controller = CampaignController(
                    self.engine(seed, session, cases), store,
                    wave_size=1, crash_after_wave=interrupt_after,
                )
                try:
                    with phases.phase("first_leg"):
                        controller.run()
                    violations.append("the interrupt hook did not fire")
                except CampaignInterrupted:
                    pass
            with CampaignStore(str(db)) as store:
                controller = CampaignController(
                    self.engine(seed, session, cases), store, wave_size=1,
                )
                with phases.phase("resume"):
                    outcome = controller.run(resume=True)
        with phases.quiet(), CampaignStore(str(db)) as store:
            try:
                store.validate()
            except CampaignStoreError as exc:
                violations.append(f"store.validate(): {exc}")
        if outcome.waves_resumed != interrupt_after + 1:
            violations.append(
                f"resumed {outcome.waves_resumed} waves, expected "
                f"{interrupt_after + 1}"
            )
        cell_violations = _check_cells(cases, outcome, self.mutants)
        violations += cell_violations
        counts = _campaign_counts(cases, outcome.results, capture,
                                  self.arch, session.snapshot.clock_tsc)
        counts["db_bytes"] = db.stat().st_size
        digest = self._digest(outcome, capture, session)
        db.unlink()
        return OpResult(
            phases=phases,
            counts=counts,
            digest=digest,
            attempted=len(cases),
            violations=violations,
        )


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (BootRecordReplay, Table1Cell, CampaignResume)
}


def reference_digests() -> dict[str, dict[str, Any]]:
    """The contents of ``digests.json``: each workload's output digest
    for the default seed at default sizes.  For ``campaign-resume`` it
    is the digest of an uninterrupted campaign, which the interrupted
    and resumed one must reproduce."""
    digests = {}
    for name, cls in WORKLOADS.items():
        workload = cls()
        inputs, _ = workload.prepare(DEFAULT_SEED)
        if isinstance(workload, CampaignResume):
            digest = workload.uninterrupted_digest(inputs)
        else:
            with tempfile.TemporaryDirectory() as workdir:
                digest = workload.operation(
                    inputs, Path(workdir), 0, Phases()).digest
        digests[name] = {"params": workload.params(), "digest": digest}
    return digests
