"""End-to-end benchmark of the IRIS reproduction.

    python3 perfbench/run.py --workload boot-record-replay --seed 1 \\
        --seconds 30 --trace 0

Runs one workload (see ``workloads.py`` and ``README.md``) from the
root of a checkout, through the public Python API of ``src/repro`` in
this one process.  It sets the workload up several times and reports
the median set-up time, then repeats the workload's operation for
``--seconds`` seconds and reports medians.  Every operation's outputs
are checked; the last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, measured with
tracing off.  With ``--trace 1`` they are the per-layer ones: half the
time runs untraced, half traced (``layertrace.py``), and the traced
outputs must equal the untraced ones.  Lines above the JSON are a
human-readable report.  Without ``src/repro`` next to it the benchmark
exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from pathlib import Path

from timing import Phases, calibrated

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch files (spooled traces, campaign stores) and the span dumps.
WORK = ROOT / ".perfbench"

#: Fresh-interpreter start-ups measured per run for ``setup_s``.
COLD_STARTS = 7
#: In-process preparations measured per run for ``setup_s``.
PREPARES = 3
#: Operations measured per run at least, whatever ``--seconds`` says.
MIN_OPS = 3

#: Paper reference values (EXPERIMENTS.md), shown beside the model's.
PAPER_REPLAY_EXITS_PER_S = (18_500.0, 23_800.0)
PAPER_BOOT_FITTING_PCT = 99.9

END_TO_END = (
    ("setup_s", "s"),
    ("exits_per_s", "exits/ref_s"),
    ("replay_seeds_per_s", "seeds/ref_s"),
    ("sim_seeds_per_s", "seeds/sim_s"),
    ("peak_rss_mb", "MB"),
)

_CYCLE_METRICS = tuple(
    metric
    for layer in (
        "world_switch", "entry_checks", "dispatch_handlers", "gcov",
        "record", "replay_inject", "async", "hypercall", "advance_direct",
    )
    for metric in (
        (f"cycles.{layer}", "cycles"),
        (f"cycles.{layer}.per_exit", "cycles/exit"),
        (f"cycles.{layer}.per_mutant", "cycles/mutant"),
    )
)

PER_LAYER = (
    ("guest.run_s", "s"),
    ("guest.exits", "count"),
    ("guest.setup_run_s", "s"),
    ("hypervisor.vmexit_s", "s"),
    ("hypervisor.exits", "count"),
    ("hypervisor.vmexit_us_per_exit", "us"),
    ("vmx.validate_entry_s", "s"),
    ("vmx.validate_entry_calls", "count"),
    ("svm.validate_entry_s", "s"),
    ("svm.validate_entry_calls", "count"),
    ("entry.failed_ratio", "ratio"),
    ("record.hooks_s", "s"),
    ("record.exits_recorded", "count"),
    ("tracestore.write_s", "s"),
    ("tracestore.bytes_written", "bytes"),
    ("tracestore.read_s", "s"),
    ("tracestore.records_decoded", "count"),
    ("replay.submit_s", "s"),
    ("replay.seeds", "count"),
    ("replay.submit_us_p50", "us"),
    ("replay.submit_us_p99", "us"),
    ("replay.ok_ratio", "ratio"),
    ("replay.reach_seeds", "count"),
    ("replay.reach_ratio", "ratio"),
    ("snapshot.take_s", "s"),
    ("snapshot.takes", "count"),
    ("snapshot.restore_s", "s"),
    ("snapshot.restores", "count"),
    ("fuzz.next_mutant_s", "s"),
    ("fuzz.feedback_s", "s"),
    ("fuzz.classify_s", "s"),
    ("fuzz.mutants", "count"),
    ("fuzz.useful_ratio", "ratio"),
    ("fuzz.crash_ratio", "ratio"),
    ("differential.begin_case_s", "s"),
    ("differential.observe_s", "s"),
    ("differential.seeds_compared", "count"),
    ("parallel.run_shard_s", "s"),
    ("parallel.run_wave_s", "s"),
    ("parallel.shards", "count"),
    ("parallel.retries", "count"),
    ("store.checkpoint_s", "s"),
    ("store.checkpoints", "count"),
    ("store.resume_load_s", "s"),
    ("store.db_bytes", "bytes"),
) + _CYCLE_METRICS + (
    ("cycles.clock_sync", "cycles"),
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
)


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _spread(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)}, IQR {q1:.4g}..{q3:.4g}"


def cold_start_seconds() -> float:
    """Wall time of a fresh interpreter importing the manager and
    building one with its test VM: what every CLI invocation pays."""
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); "
        "from repro.core.manager import IrisManager; "
        "IrisManager(arch='vmx').create_test_vm()"
    )
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", code, str(SRC)], cwd=ROOT, check=True,
        stdout=subprocess.DEVNULL,
    )
    return time.perf_counter() - start


class Run:
    """One benchmark run: its operations and its failure accounting."""

    def __init__(self, workload, seed: int, workdir: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.expected = workload.expected_digest(seed)
        #: calibration kernel times around the operations' phases
        self.calibration: list[float] = []

    def operations(
        self, inputs, seconds: float, min_ops: int, first_index: int = 0,
        quiet=nullcontext, around=lambda index: nullcontext(),
    ) -> list:
        """Repeat the operation for ``seconds`` (at least ``min_ops``
        times); ``around(index)`` wraps each one (the traced leg)."""
        ops = []
        start = time.perf_counter()
        while (len(ops) < min_ops
               or time.perf_counter() - start < seconds):
            index = first_index + len(ops)
            gc.collect()
            try:
                with around(index):
                    op = self.workload.operation(
                        inputs, self.workdir, index,
                        Phases(self.calibration, quiet),
                    )
            except Exception:
                # An exception is a failed operation: report it, stop.
                self.attempted += 1
                self.failed += 1
                self.problems.append(traceback.format_exc())
                break
            self.account(op)
            ops.append(op)
        return ops

    def account(self, op) -> None:
        problems = list(op.violations)
        if self.expected is not None and op.digest != self.expected:
            problems.append(
                f"digest {op.digest} differs from the committed "
                f"{self.expected}"
            )
        self.attempted += op.attempted
        if problems:
            self.failed += op.attempted
            self.problems += problems

    def compare_digests(self, ops, other=None, what="repeats") -> None:
        """Every operation of one seed must produce the same outputs."""
        digests = {op.digest for op in ops} | (
            {op.digest for op in other} if other else set()
        )
        if len(digests) > 1:
            self.failed += 1
            self.attempted += 1
            self.problems.append(f"output digests differ between {what}")


def end_to_end_metrics(workload, setup: dict, ops: list) -> dict:
    """Every end-to-end number: name -> (median, unit, samples).

    Names ending in ``@ref`` scale each wall-clock sample to the
    reference host's speed; the gated metrics are taken from them.
    The others are raw host seconds, or exact simulated rates.
    """
    name = workload.name
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    report: dict[str, tuple[float, str, list[float]]] = {}

    def put(metric: str, unit: str, values: list[float]) -> None:
        report[metric] = (_median(values), unit, values)

    def rate(metric: str, unit: str, count, *phases: str) -> None:
        put(metric, f"{unit}/s", [count(op) / op.wall(*phases) for op in ops])
        put(f"{metric}@ref", f"{unit}/ref_s",
            [count(op) / op.ref_wall(*phases) for op in ops])

    put("setup_s@ref", "s", [setup["setup_s"]])
    put("op_s", "s", [op.wall() for op in ops])
    if name == "boot-record-replay":
        rate("exits_per_s", "exits", lambda op: (
            op.counts["exits_delivered"] + op.counts["seeds_completed"]))
        rate("record_exits_per_s", "exits",
             lambda op: op.counts["exits_recorded"], "record")
        rate("replay_seeds_per_s", "seeds",
             lambda op: op.counts["seeds_completed"], "replay")
        sim = [op.counts["seeds_completed"] / op.counts["sim_replay_seconds"]
               for op in ops]
        put("sim_seeds_per_s", "seeds/sim_s", sim)
        put("sim_replay_exits_per_s", "exits/sim_s", sim)
    else:
        put("record_exits_per_s@ref", "exits/ref_s", setup["record_rate"])
        # every exit a fuzzing campaign handles is a replay submit
        rate("exits_per_s", "exits", lambda op: op.counts["replay_submits"])
        rate("replay_seeds_per_s", "seeds",
             lambda op: op.counts["replay_submits"])
        put("sim_seeds_per_s", "seeds/sim_s", [
            op.counts["replay_submits"] / op.counts["sim_fuzz_seconds"]
            for op in ops
        ])
        rate("fuzz_execs_per_s", "mutants", lambda op: op.counts["mutants"])
        put("sim_fuzz_execs_per_s", "mutants/sim_s", [
            op.counts["mutants"] / op.counts["sim_fuzz_seconds"]
            for op in ops
        ])
    if name == "campaign-resume":
        rate("campaign_cells_per_s", "cells", lambda op: op.counts["cells"])
        put("resume_s", "s", [op.wall("resume") for op in ops])
    put("peak_rss_mb", "MB", [rss_mb])
    put("host_speed", "x", [op.ref_wall() / op.wall() for op in ops])
    return report


def print_model_error(ops) -> None:
    """The simulated numbers beside the paper's (boot-record-replay)."""
    sim = ops[0].counts["seeds_completed"] / ops[0].counts[
        "sim_replay_seconds"]
    low, high = PAPER_REPLAY_EXITS_PER_S
    outside = 0.0 if low <= sim <= high else (
        (sim - low) / low if sim < low else (sim - high) / high
    )
    mid = (low + high) / 2
    print(f"model vs paper: replay throughput {sim:.1f} exits/sim_s, "
          f"paper §VI-C {low:.0f}..{high:.0f} exits/s: "
          f"{100 * outside:+.2f}% outside the band, "
          f"{100 * (sim - mid) / mid:+.2f}% from its middle")
    fitting = ops[0].model.get("coverage_fitting_pct")
    if fitting is not None:
        print(f"model vs paper: OS BOOT coverage fitting {fitting:.2f}%, "
              f"paper {PAPER_BOOT_FITTING_PCT}%: "
              f"{fitting - PAPER_BOOT_FITTING_PCT:+.2f} points")


def per_layer_metrics(tracer, counts, ledgers, ops,
                      overhead_pct: float) -> dict:
    """Per-operation means of the traced operations' layer numbers."""
    n = len(ops)
    op_ids = set(range(1, n + 1))
    self_s = tracer.self_times(op_ids)
    setup_s = tracer.self_times({0})

    calls = tracer.calls(op_ids)

    def c(key: str) -> float:
        return counts.get(key, 0) / n

    def k(name: str) -> float:
        return calls[name] / n

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    submit_us = sorted(tracer.durations_us("replay.submit", op_ids))

    def pct(q: float) -> float:
        if not submit_us:
            return 0.0
        return submit_us[min(len(submit_us) - 1, int(q * len(submit_us)))]

    exits = k("hypervisor.vmexit")
    mutants = k("fuzz.next_mutant")
    seeds = k("replay.submit")
    entry_calls = k("vmx.validate_entry") + k("svm.validate_entry")
    reach = tracer.reach_submits(op_ids) / n
    cells = _median([op.counts.get("cells", 0) for op in ops])
    values = {
        "guest.run_s": self_s["guest.run"] / n,
        "guest.exits": c("guest.exits"),
        "guest.setup_run_s": setup_s["guest.run"],
        "hypervisor.vmexit_s": self_s["hypervisor.vmexit"] / n,
        "hypervisor.exits": exits,
        "hypervisor.vmexit_us_per_exit": ratio(
            1e6 * self_s["hypervisor.vmexit"] / n, exits),
        "vmx.validate_entry_s": self_s["vmx.validate_entry"] / n,
        "vmx.validate_entry_calls": k("vmx.validate_entry"),
        "svm.validate_entry_s": self_s["svm.validate_entry"] / n,
        "svm.validate_entry_calls": k("svm.validate_entry"),
        "entry.failed_ratio": ratio(c("entry.failed"), entry_calls),
        "record.hooks_s": self_s["record.hooks"] / n,
        "record.exits_recorded": c("record.exits_recorded"),
        "tracestore.write_s": self_s["tracestore.write"] / n,
        "tracestore.bytes_written": c("tracestore.bytes_written"),
        "tracestore.read_s": (
            self_s["tracestore.read"] + self_s["tracestore.decode"]) / n,
        "tracestore.records_decoded": k("tracestore.decode"),
        "replay.submit_s": self_s["replay.submit"] / n,
        "replay.seeds": seeds,
        "replay.submit_us_p50": pct(0.50),
        "replay.submit_us_p99": pct(0.99),
        "replay.ok_ratio": ratio(c("replay.ok"), seeds),
        "replay.reach_seeds": reach,
        "replay.reach_ratio": ratio(reach, seeds),
        "snapshot.take_s": self_s["snapshot.take"] / n,
        "snapshot.takes": k("snapshot.take"),
        "snapshot.restore_s": self_s["snapshot.restore"] / n,
        "snapshot.restores": k("snapshot.restore"),
        "fuzz.next_mutant_s": self_s["fuzz.next_mutant"] / n,
        "fuzz.feedback_s": self_s["fuzz.feedback"] / n,
        "fuzz.classify_s": self_s["fuzz.classify"] / n,
        "fuzz.mutants": mutants,
        "fuzz.useful_ratio": ratio(c("fuzz.useful"), mutants),
        "fuzz.crash_ratio": ratio(c("fuzz.crashed"), mutants),
        "differential.begin_case_s": self_s["differential.begin_case"] / n,
        "differential.observe_s": self_s["differential.observe"] / n,
        "differential.seeds_compared": c("differential.seeds_compared"),
        "parallel.run_shard_s": self_s["parallel.run_shard"] / n,
        "parallel.run_wave_s": self_s["parallel.run_wave"] / n,
        "parallel.shards": k("parallel.run_shard"),
        "parallel.retries": max(k("parallel.run_shard") - cells, 0.0),
        "store.checkpoint_s": self_s["store.checkpoint"] / n,
        "store.checkpoints": k("store.checkpoint"),
        "store.resume_load_s": self_s["store.resume_load"] / n,
        "store.db_bytes": _median(
            [op.counts.get("db_bytes", 0) for op in ops]),
    }
    ledger = ledgers[0] if ledgers else {}
    for metric, _ in _CYCLE_METRICS:
        if metric.endswith((".per_exit", ".per_mutant")):
            continue
        cycles = ledger.get(metric.removeprefix("cycles."), 0)
        values[metric] = cycles
        values[f"{metric}.per_exit"] = ratio(cycles, exits)
        values[f"{metric}.per_mutant"] = ratio(cycles, mutants)
    values["cycles.clock_sync"] = ledger.get("clock_sync", 0)
    values["trace.overhead_pct"] = overhead_pct
    values["trace.spans"] = sum(
        1 for span in tracer.spans if span[2] in op_ids) / n
    return values


@contextmanager
def _workdir():
    path = WORK / f"run-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def measure_setup(workload, seed: int):
    """Set the workload up several times; returns the inputs of the
    last set-up and its timings scaled to the reference host."""
    calibration: list[float] = []
    cold = []
    for _ in range(COLD_STARTS):
        wall, speed = calibrated(cold_start_seconds, calibration)
        cold.append(wall * speed)
    prepare, record_rate = [], []
    for _ in range(PREPARES):
        gc.collect()
        (inputs, timing), speed = calibrated(
            lambda: workload.prepare(seed), calibration)
        prepare.append(timing["prepare"] * speed)
        if "record" in timing:
            record_rate.append(
                timing["exits_recorded"] / (timing["record"] * speed))
    setup = {"setup_s": _median(cold) + _median(prepare),
             "record_rate": record_rate}
    return inputs, setup


def run_untraced(run: Run, seconds: float) -> dict:
    workload = run.workload
    inputs, setup = measure_setup(workload, run.seed)
    ops = run.operations(inputs, seconds, MIN_OPS)
    if not ops:
        return {}
    run.compare_digests(ops)
    report = end_to_end_metrics(workload, setup, ops)
    for metric, (value, unit, values) in report.items():
        print(f"{metric} = {value:.6g} {unit} ({_spread(values)})")
    if workload.name == "boot-record-replay":
        print_model_error(ops)
    return {name: {"value": report.get(f"{name}@ref", report.get(name))[0],
                   "unit": unit}
            for name, unit in END_TO_END}


def run_traced(run: Run, seconds: float) -> dict:
    from layertrace import LedgerMismatch, SpanTracer

    workload = run.workload
    inputs, _ = workload.prepare(run.seed)
    untraced_ops = run.operations(inputs, seconds / 2, 1)
    if not untraced_ops:
        return {}
    untraced_s = _median([op.ref_wall() for op in untraced_ops])
    run.calibration = []
    tracer = SpanTracer()
    counts: dict[str, float] = defaultdict(float)
    tracer.install(counts)
    ledgers: list[dict[str, int]] = []

    @contextmanager
    def quiet():
        tracer.active = False
        try:
            yield
        finally:
            tracer.active = True

    @contextmanager
    def traced(index: int):
        tracer.op_id = index
        tracer.ledger.begin()
        tracer.active = True
        try:
            yield
        finally:
            tracer.active = False
            try:
                ledgers.append(tracer.ledger.end())
            except LedgerMismatch as exc:
                run.problems.append(str(exc))
                run.failed += 1
                run.attempted += 1

    try:
        tracer.op_id = 0
        tracer.active = True
        workload.prepare(run.seed)
        tracer.active = False
        counts.clear()
        ops = run.operations(inputs, seconds / 2, 1, first_index=1,
                             quiet=quiet, around=traced)
    finally:
        tracer.uninstall()
    if not ops:
        return {}
    run.compare_digests(ops, untraced_ops, "traced and untraced runs")
    if any(ledger != ledgers[0] for ledger in ledgers):
        run.problems.append("cycle ledgers differ between repeats")
        run.failed += 1
        run.attempted += 1
    tracer.write(WORK / "spans" / f"{workload.name}-seed{run.seed}.jsonl")
    traced_s = _median([op.ref_wall() for op in ops])
    values = per_layer_metrics(tracer, counts, ledgers, ops,
                               100 * (traced_s / untraced_s - 1))
    units = dict(PER_LAYER)
    for metric, value in values.items():
        print(f"{metric} = {value:.6g} {units[metric]}")
    print(f"cycle ledger exact on {len(ledgers)} traced operation(s); "
          f"spans -> {WORK.name}/spans/")
    return {name: {"value": values[name], "unit": unit}
            for name, unit in PER_LAYER}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: {SRC}/repro not found; run the benchmark from "
              "a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r} (expected "
              f"one of {', '.join(WORKLOADS)})", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]()
    print(f"workload {workload.name}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}, sizes "
          f"{workload.params()}")
    with _workdir() as workdir:
        run = Run(workload, args.seed, workdir)
        if args.trace:
            metrics = run_traced(run, args.seconds)
        else:
            metrics = run_untraced(run, args.seconds)
    for problem in run.problems:
        print(f"FAILED: {problem}", file=sys.stderr)
    ratio = run.failed / run.attempted if run.attempted else 1.0
    print(f"operations attempted {run.attempted}, failed {run.failed}, "
          f"failed_op_ratio = {ratio:.6g} ratio")
    if run.expected is None:
        print("digest: no committed value for this seed and size; "
              "invariant checks only")
    else:
        print(f"digest: checked against the committed {run.expected[:16]}")
    print(json.dumps({
        "correct": run.attempted > 0 and run.failed == 0,
        "attempted": max(run.attempted, 1),
        "failed": run.failed if run.attempted else 1,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
