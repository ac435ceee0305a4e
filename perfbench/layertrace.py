"""Per-layer tracing for the end-to-end benchmark, from outside the program.

The traced run wraps the public entry points of each layer of the
``repro`` package — patched at the place the caller looks them up —
and records one span per call: name, start, end, parent span and the
id of the operation the span belongs to.  Spans stay in memory until
the run ends.  A layer's *self time* is its spans' duration minus the
time their child spans cover, so the self times of all layers plus the
unattributed remainder add up to the traced wall time.

Alongside the spans, :class:`CycleLedger` wraps ``Clock.charge`` and
``Clock.advance`` and books every simulated cycle to one ``cycles.*``
layer.  The ledger is exact: per operation it must sum to the clocks'
deltas, cycle for cycle.

Nothing here changes what the program computes; the traced run checks
that by comparing its output digests with the untraced run's.
"""

from __future__ import annotations

import json
import os
import sys
import time
import weakref
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable

from repro.campaign.store import CampaignStore
from repro.core.record import Recorder
from repro.core.replay import ReplayOutcome, Replayer
from repro.core.snapshot import restore_snapshot, take_snapshot
from repro.core.tracestore import TraceReader, TraceWriter
from repro.fuzz import fuzzer as fuzzer_module
from repro.fuzz import parallel as parallel_module
from repro.fuzz.differential import DifferentialOracle
from repro.fuzz.fuzzer import IrisFuzzer
from repro.fuzz.mutation_engine import MutationEngine, PocEngine, SmartEngine
from repro.fuzz.parallel import ParallelCampaign
from repro.guest.machine import GuestMachine
from repro.hypervisor.clock import Clock
from repro.hypervisor.hypervisor import Hypervisor
from repro.svm.backend import SvmBackend
from repro.vmx.backend import VmxBackend
from repro.x86.costs import DEFAULT_COSTS

#: Cost-model entry -> ``cycles.*`` layer.  Every entry of the cost
#: table must appear here (checked at import), so a new cost name makes
#: the benchmark fail loudly instead of leaking out of the ledger.
#: ``gpr_load`` is rolled up by name: the replay injection's GPR copy is
#: booked to the world switch together with the VM-entry reload.
COST_LAYERS: dict[str, str] = {
    "vm_exit_context_switch": "world_switch",
    "vm_entry_context_switch": "world_switch",
    "gpr_save": "world_switch",
    "gpr_load": "world_switch",
    "vm_entry_checks": "entry_checks",
    "handler_dispatch": "dispatch_handlers",
    "handler_block": "dispatch_handlers",
    "vmread": "dispatch_handlers",
    "vmwrite": "dispatch_handlers",
    "preemption_handler": "dispatch_handlers",
    "guest_mem_access": "dispatch_handlers",
    "gcov_probe": "gcov",
    "pt_packet": "gcov",
    "pt_decode_block": "gcov",
    "record_base": "record",
    "record_entry": "record",
    "rdtsc_probe": "record",
    "inject_base": "replay_inject",
    "inject_entry": "replay_inject",
    "async_event": "async",
    "hypercall": "hypercall",
}
if set(COST_LAYERS) != set(DEFAULT_COSTS.table):
    raise RuntimeError(
        "cost-model entries without a ledger layer: "
        f"{sorted(set(DEFAULT_COSTS.table) ^ set(COST_LAYERS))}"
    )

#: Layers reported per exit and per mutant.  ``advance_direct`` holds
#: ``advance()`` calls made outside ``charge()``: guest instruction
#: cycles, the replay timer's guest cycles and the fuzzer's fast-reset
#: lump charge.  ``clock_sync`` holds the jump a fresh shard hypervisor
#: makes into the snapshot's clock domain; it is bookkeeping, not work,
#: so it is kept out of every rate.
CYCLE_LAYERS = (
    "world_switch", "entry_checks", "dispatch_handlers", "gcov",
    "record", "replay_inject", "async", "hypercall", "advance_direct",
)
SYNC_LAYER = "clock_sync"


class CycleLedger:
    """Simulated cycles per layer, booked at the clock itself."""

    def __init__(self) -> None:
        self.active = False
        self.cycles: dict[str, int] = defaultdict(int)
        #: id(clock) -> (clock, reading at first touch in this operation)
        self._bases: dict[int, tuple[Clock, int]] = {}
        self._charging = 0
        self._sync_codes = {
            parallel_module.run_shard.__code__,
            DifferentialOracle.begin_case.__code__,
        }

    def begin(self) -> None:
        self.cycles = defaultdict(int)
        self._bases = {}
        self.active = True

    def end(self) -> dict[str, int]:
        """Stop booking; return the ledger after checking it is exact."""
        self.active = False
        booked = sum(self.cycles.values())
        moved = sum(c.now - base for c, base in self._bases.values())
        if booked != moved:
            raise LedgerMismatch(
                f"cycle ledger books {booked} cycles but the clocks "
                f"moved {moved}"
            )
        return dict(self.cycles)

    def _touch(self, clock: Clock) -> None:
        if id(clock) not in self._bases:
            self._bases[id(clock)] = (clock, clock.now)

    def install(self, patches: "Patches") -> None:
        ledger = self
        orig_charge = Clock.charge
        orig_advance = Clock.advance
        layers = COST_LAYERS

        def charge(clock: Clock, name: str, times: int = 1) -> int:
            if not ledger.active:
                return orig_charge(clock, name, times)
            ledger._touch(clock)
            ledger._charging += 1
            try:
                cycles = orig_charge(clock, name, times)
            finally:
                ledger._charging -= 1
            ledger.cycles[layers[name]] += cycles
            return cycles

        def advance(clock: Clock, cycles: int) -> None:
            if not ledger.active or ledger._charging:
                return orig_advance(clock, cycles)
            ledger._touch(clock)
            orig_advance(clock, cycles)
            caller = sys._getframe(1).f_code
            layer = (
                SYNC_LAYER if caller in ledger._sync_codes
                else "advance_direct"
            )
            ledger.cycles[layer] += cycles

        patches.set(Clock, "charge", charge)
        patches.set(Clock, "advance", advance)


class LedgerMismatch(AssertionError):
    """The cycle ledger does not sum to the clocks' movement."""


class Patches:
    """Attribute replacements, undone in reverse order."""

    def __init__(self) -> None:
        self._undo: list[tuple[Any, str, Any]] = []

    def set(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def set_function_everywhere(self, func: Callable, value: Any) -> None:
        """Replace a module-level function in every ``repro`` module
        that bound it by name (``from m import f``), so each caller
        sees the wrapper where it looks the name up."""
        for name, module in list(sys.modules.items()):
            if module is None or not name.startswith("repro"):
                continue
            for attr, bound in list(vars(module).items()):
                if bound is func:
                    self.set(module, attr, value)

    def undo(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


class SpanTracer:
    """Spans around layer calls, plus the counts taken at the same calls."""

    def __init__(self) -> None:
        self.active = False
        self.op_id = 0
        #: (span id, parent id or -1, op id, name, start ns, end ns)
        self.spans: list[tuple[int, int, int, str, int, int]] = []
        #: ids of the open spans, innermost last
        self._stack: list[int] = []
        self._next_id = 0
        self.ledger = CycleLedger()
        self._patches = Patches()

    # -- wrapping ------------------------------------------------------

    def wrap(
        self, func: Callable, name: str,
        after: Callable[..., None] | None = None,
    ) -> Callable:
        """A wrapper that records a ``name`` span around ``func`` and
        then calls ``after(result, *args, **kwargs)`` for counts."""
        tracer = self
        clock = time.perf_counter_ns

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not tracer.active:
                return func(*args, **kwargs)
            span_id = tracer._next_id
            tracer._next_id += 1
            stack = tracer._stack
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                tracer.spans.append(
                    (span_id, parent, tracer.op_id, name, start, end)
                )
            if after is not None:
                after(result, *args, **kwargs)
            return result

        return wrapper

    def install(self, counts: dict[str, float]) -> None:
        """Patch every layer boundary.  Calls are counted by their
        spans; ``counts`` receives what depends on a call's result."""
        p = self._patches
        w = self.wrap

        def count(key: str, by: Callable[..., float] | None = None):
            def after(result: Any, *args: Any, **kwargs: Any) -> None:
                counts[key] += 1 if by is None else by(result, *args,
                                                        **kwargs)
            return after

        def method(owner: Any, attr: str, name: str, after=None) -> None:
            p.set(owner, attr, w(owner.__dict__[attr], name, after))

        method(GuestMachine, "run", "guest.run",
               count("guest.exits", lambda exits, *a, **k: exits))
        method(Hypervisor, "handle_vmexit", "hypervisor.vmexit")
        for backend, arch in ((VmxBackend, "vmx"), (SvmBackend, "svm")):
            method(backend, "validate_entry", f"{arch}.validate_entry",
                   count("entry.failed", lambda violations, *a, **k:
                         bool(violations)))
        method(Recorder, "on_exit_start", "record.hooks")
        seen: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

        def recorded(result, recorder, *a, **k) -> None:
            now = recorder.stats.exits_recorded
            counts["record.exits_recorded"] += now - seen.get(recorder, 0)
            seen[recorder] = now
        method(Recorder, "on_exit_end", "record.hooks", recorded)
        for attr in ("append", "flush"):
            method(TraceWriter, attr, "tracestore.write")

        def sealed(result, writer, *a, **k) -> None:
            counts["tracestore.bytes_written"] += os.path.getsize(
                writer.path
            )
        method(TraceWriter, "close", "tracestore.write", sealed)
        method(TraceReader, "__init__", "tracestore.read")
        method(TraceReader, "_decode", "tracestore.decode")
        method(TraceReader, "reason_histogram", "tracestore.read")
        method(TraceReader, "reasons", "tracestore.read")

        method(Replayer, "submit", "replay.submit",
               count("replay.ok", lambda result, *a, **k:
                     result.outcome is ReplayOutcome.OK))
        method(IrisFuzzer, "_reach_target_state", "fuzz.reach")
        p.set_function_everywhere(
            take_snapshot, w(take_snapshot, "snapshot.take"),
        )
        p.set_function_everywhere(
            restore_snapshot, w(restore_snapshot, "snapshot.restore"),
        )
        for engine in (PocEngine, SmartEngine):
            method(engine, "next_mutant", "fuzz.next_mutant")

        def fed(result, *a, new_loc: int, crashed: bool = False,
                **k) -> None:
            counts["fuzz.useful"] += new_loc > 0
            counts["fuzz.crashed"] += crashed
        for engine in (MutationEngine, SmartEngine):
            method(engine, "feedback", "fuzz.feedback", fed)
        p.set(fuzzer_module, "classify_result",
              w(fuzzer_module.classify_result, "fuzz.classify"))
        compared: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

        def armed(result, oracle, *a, **k) -> None:
            compared[oracle] = oracle.seeds_compared

        def observed(result, oracle, *a, **k) -> None:
            counts["differential.seeds_compared"] += (
                oracle.seeds_compared - compared[oracle]
            )
            compared[oracle] = oracle.seeds_compared
        method(DifferentialOracle, "begin_case", "differential.begin_case",
               armed)
        method(DifferentialOracle, "observe", "differential.observe",
               observed)
        p.set(parallel_module, "run_shard",
              w(parallel_module.run_shard, "parallel.run_shard"))
        method(ParallelCampaign, "run_wave", "parallel.run_wave")
        method(CampaignStore, "checkpoint_wave", "store.checkpoint")
        for attr in ("load_results", "completed_waves", "validate"):
            method(CampaignStore, attr, "store.resume_load")
        self.ledger.install(p)

    def uninstall(self) -> None:
        self._patches.undo()

    # -- analysis ------------------------------------------------------

    def self_times(self, op_ids: set[int]) -> dict[str, float]:
        """Self seconds per span name over the given operations."""
        child_ns: dict[int, int] = defaultdict(int)
        for span_id, parent, op, _, start, end in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for span_id, _, op, name, start, end in self.spans:
            if op in op_ids:
                totals[name] += (end - start - child_ns[span_id]) / 1e9
        return totals

    def calls(self, op_ids: set[int]) -> dict[str, int]:
        """Span count per name over the given operations: every call,
        including those that raised."""
        totals: dict[str, int] = defaultdict(int)
        for _, _, op, name, _, _ in self.spans:
            if op in op_ids:
                totals[name] += 1
        return totals

    def durations_us(self, name: str, op_ids: set[int]) -> list[float]:
        return [
            (end - start) / 1e3
            for _, _, op, span_name, start, end in self.spans
            if span_name == name and op in op_ids
        ]

    def reach_submits(self, op_ids: set[int]) -> int:
        """Replay submits made while reaching a target state: under the
        fuzzer's prefix replay or the oracle's per-case setup."""
        names = {s[0]: (s[1], s[3]) for s in self.spans}
        reach = {"fuzz.reach", "differential.begin_case"}
        total = 0
        for span_id, parent, op, name, _, _ in self.spans:
            if name != "replay.submit" or op not in op_ids:
                continue
            while parent >= 0:
                parent, parent_name = names[parent]
                if parent_name in reach:
                    total += 1
                    break
        return total

    def write(self, path: Path) -> None:
        """Write every span as one JSON array per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")
