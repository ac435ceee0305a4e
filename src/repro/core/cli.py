"""``iris`` command-line interface (the paper's user-space CLI, §IV-C).

Sub-commands::

    iris workloads                     list available workloads
    iris record  -w cpu-bound -o t.iris   record a trace
    iris inspect t.iris                summarize a trace file
    iris replay  t.iris                replay a trace on a dummy VM
    iris evaluate -w cpu-bound         record+replay accuracy report
"""

from __future__ import annotations

import argparse
import sys

from repro.analysis import (
    coverage_fitting,
    render_histogram,
    render_table,
    vmwrite_fitting,
)
from repro.arch.backend import BACKEND_NAMES
from repro.core.manager import IrisManager
from repro.core.tracestore import open_trace
from repro.guest.workloads import WorkloadName
from repro.obs.cliobs import add_obs_options, cli_observability


def _add_record_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "-w", "--workload", required=True,
        choices=[w.value for w in WorkloadName],
        help="workload to run on the test VM",
    )
    parser.add_argument(
        "-n", "--exits", type=int, default=5000,
        help="VM exits to record (paper default: 5000)",
    )
    parser.add_argument(
        "-p", "--precondition",
        choices=["none", "bios", "boot"], default=None,
        help="fast-forward the test VM before recording "
             "(default: bios for os-boot, boot otherwise)",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="workload RNG seed"
    )
    _add_arch_option(parser)


def _add_arch_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--arch", choices=list(BACKEND_NAMES), default="vmx",
        help="virtualization backend to run on (paper §IX: the "
             "record/replay mechanism is architecture-neutral)",
    )


def _resolve_precondition(args) -> str:
    if args.precondition is not None:
        return args.precondition
    return "bios" if args.workload in ("os-boot", "full-boot") else "boot"


def _cmd_workloads(_args) -> int:
    rows = [(w.value,) for w in WorkloadName]
    print(render_table(["workload"], rows, title="Available workloads"))
    return 0


def _cmd_record(args) -> int:
    with cli_observability(args):
        manager = IrisManager(arch=args.arch)
        session = manager.record_workload(
            args.workload, n_exits=args.exits,
            precondition=_resolve_precondition(args),
            workload_seed=args.seed,
            spool_to=args.output,
        )
    print(f"recorded {len(session.trace)} exits "
          f"({session.wall_seconds:.3f} simulated s) -> {args.output}")
    # The trace streamed to OUTPUT as IRISTRC2, so this histogram is
    # answered from the file's footer index alone — no record payload
    # is decoded.
    print(render_histogram(session.trace.reason_histogram(),
                           title="Exit reasons"))
    return 0


def _cmd_inspect(args) -> int:
    trace = open_trace(args.trace)
    sizes = [s.size_bytes() for s in trace.seeds()]
    print(f"workload: {trace.workload}")
    print(f"records:  {len(trace)}")
    if sizes:
        print(f"seed size: min={min(sizes)} max={max(sizes)} bytes")
    print(render_histogram(trace.reason_histogram(),
                           title="Exit reasons"))
    return 0


def _cmd_stats(args) -> int:
    from repro.core.tracetools import trace_stats

    trace = open_trace(args.trace)
    stats = trace_stats(trace)
    print(render_table(["metric", "value"], stats.rows(),
                       title=f"Trace statistics: {args.trace}"))
    print(render_histogram(stats.reasons, title="Exit reasons"))
    return 0


def _cmd_diff(args) -> int:
    from repro.core.tracetools import diff_traces

    a = open_trace(args.trace_a)
    b = open_trace(args.trace_b)
    diff = diff_traces(a, b)
    rows = [
        ("coverage Jaccard", f"{diff.coverage_jaccard:.3f}"),
        ("LOC only in A", diff.loc_only_in_a),
        ("LOC only in B", diff.loc_only_in_b),
        ("LOC shared", diff.loc_shared),
    ]
    rows += [
        (f"reason only in A: {name}", count)
        for name, count in diff.reasons_only_in_a.items()
    ]
    rows += [
        (f"reason only in B: {name}", count)
        for name, count in diff.reasons_only_in_b.items()
    ]
    rows += [
        (f"reason delta: {name}", f"{delta:+d}")
        for name, delta in diff.reason_deltas.items()
    ]
    print(render_table(
        ["comparison", "value"], rows,
        title=f"{args.trace_a} vs {args.trace_b}",
    ))
    return 0


def _cmd_svm_export(args) -> int:
    from repro.svm import translate_trace

    trace = open_trace(args.trace)
    report = translate_trace(trace)
    rows = [
        ("seeds translated",
         f"{len(report.seeds)}/{len(trace)}"),
        ("entries translated", report.translated_entries),
        ("entries dropped (VT-x-only)", report.dropped_entries),
        ("entry coverage", f"{report.entry_coverage_pct:.1f}%"),
    ]
    rows += [
        (f"dropped field: {field.name}", count)
        for field, count in sorted(
            report.dropped_fields.items(), key=lambda kv: -kv[1]
        )
    ]
    print(render_table(
        ["metric", "value"], rows,
        title=f"SVM/VMCB translation: {args.trace} (paper §IX)",
    ))
    return 0


def _cmd_replay(args) -> int:
    trace = open_trace(args.trace)
    with cli_observability(args):
        manager = IrisManager(arch=args.arch)
        session = manager.replay_trace(trace)
    print(f"replayed {session.completed}/{len(session.results)} seeds "
          f"in {session.wall_seconds:.3f} simulated s "
          f"({session.throughput_exits_per_second():.0f} exits/s)")
    if session.crashed:
        last = session.results[-1]
        print(f"replay stopped: {last.crash_reason}")
        print("hint: workloads recorded on a booted OS need the boot "
              "state first (paper §VI-B, 'bad RIP for mode 0')")
    return 0


def _cmd_evaluate(args) -> int:
    with cli_observability(args):
        manager = IrisManager(arch=args.arch)
        session = manager.record_workload(
            args.workload, n_exits=args.exits,
            precondition=_resolve_precondition(args),
            workload_seed=args.seed,
        )
        replay = manager.replay_trace(
            session.trace, from_snapshot=session.snapshot
        )
    fitting = coverage_fitting(session.trace, replay.results)
    writes = vmwrite_fitting(session.trace, replay.results)
    rows = [
        ("exits recorded", len(session.trace)),
        ("exits replayed", replay.completed),
        ("real execution (s)", f"{session.wall_seconds:.3f}"),
        ("IRIS replay (s)", f"{replay.wall_seconds:.3f}"),
        ("speedup", f"{session.wall_seconds / max(replay.wall_seconds, 1e-12):.1f}x"),
        ("coverage fitting", f"{fitting.fitting_pct:.1f}%"),
        ("VMWRITE fitting", f"{writes.fitting_pct:.1f}%"),
    ]
    print(render_table(
        ["metric", "value"], rows,
        title=f"IRIS evaluation: {args.workload}",
    ))
    return 0


def _cmd_trace(args) -> int:
    """Inspect observability artifacts (DESIGN.md §7).

    Auto-detects the file kind: a metrics-snapshot JSON (one object
    with ``counters``/``histograms``) renders the campaign flight
    recorder; a JSONL event trace renders event tallies and span
    durations.
    """
    import json

    from repro.obs import (
        MetricsSnapshot,
        flight_summary,
        load_trace_events,
        summarize_trace_events,
    )

    with open(args.file, "r", encoding="utf-8") as fh:
        first = fh.readline().strip()
    if not first:
        print(f"{args.file}: empty observability file", file=sys.stderr)
        return 1
    try:
        payload = json.loads(first)
    except json.JSONDecodeError:
        print(f"{args.file}: not an observability JSON/JSONL file",
              file=sys.stderr)
        return 1
    if isinstance(payload, dict) and (
        "counters" in payload or "histograms" in payload
    ):
        snapshot = MetricsSnapshot.from_json(first)
        print(flight_summary(snapshot, top_n=args.top))
    else:
        events = load_trace_events(args.file)
        print(summarize_trace_events(events, top_n=args.top))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="iris",
        description="IRIS record/replay framework (DSN'23 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("workloads", help="list workloads")

    record = sub.add_parser("record", help="record a VM behavior")
    _add_record_options(record)
    record.add_argument(
        "-o", "--output", required=True,
        help="trace file to write; records stream to it as they "
             "arrive (IRISTRC2 format, bounded recording memory)",
    )
    add_obs_options(record)

    inspect = sub.add_parser("inspect", help="summarize a trace file")
    inspect.add_argument("trace")

    stats = sub.add_parser("stats", help="detailed trace statistics")
    stats.add_argument("trace")

    diff = sub.add_parser("diff", help="compare two trace files")
    diff.add_argument("trace_a")
    diff.add_argument("trace_b")

    svm = sub.add_parser(
        "svm-export",
        help="translate a trace onto AMD SVM's VMCB (paper §IX)",
    )
    svm.add_argument("trace")

    replay = sub.add_parser("replay", help="replay a trace file")
    replay.add_argument("trace")
    _add_arch_option(replay)
    add_obs_options(replay)

    evaluate = sub.add_parser(
        "evaluate", help="record + replay + accuracy report"
    )
    _add_record_options(evaluate)
    add_obs_options(evaluate)

    trace = sub.add_parser(
        "trace",
        help="summarize an observability trace (JSONL) or metrics "
             "snapshot (JSON) written by --trace/--metrics",
    )
    trace.add_argument("file", help="JSONL event trace or metrics JSON")
    trace.add_argument("--top", type=int, default=10,
                       help="rows per summary table")
    return parser


_COMMANDS = {
    "workloads": _cmd_workloads,
    "record": _cmd_record,
    "inspect": _cmd_inspect,
    "stats": _cmd_stats,
    "diff": _cmd_diff,
    "svm-export": _cmd_svm_export,
    "replay": _cmd_replay,
    "evaluate": _cmd_evaluate,
    "trace": _cmd_trace,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
