#!/usr/bin/env python3
"""OS BOOT analysis: the paper's accuracy experiments on a boot trace.

Records the kernel boot (after the BIOS, like the paper's OS BOOT
trace), replays it, and walks through the §VI-B analyses:

* exit-reason distribution (Fig. 5's OS BOOT bar);
* cumulative coverage, record vs replay, with the fitting (Fig. 6);
* the per-seed coverage differences and their clustering (Fig. 7);
* the CR0-derived operating-mode ladder (Fig. 8);
* trace-file round trip (the seeds persist in the paper's 10-byte
  entry format).

Run:  python examples/boot_analysis.py
"""

import os
import tempfile
from pathlib import Path

from repro import IrisManager, Trace
from repro.analysis import (
    coverage_fitting,
    cr0_mode_trajectory,
    per_seed_coverage_diffs,
    cluster_diffs_by_reason,
    render_histogram,
    render_series,
    render_table,
    vmwrite_fitting,
)
from repro.core.tracestore import write_trace


#: Overridable so the test suite can smoke-run with a tiny budget.
N_EXITS = int(os.environ.get("IRIS_EXAMPLE_EXITS", "3000"))


def main() -> None:
    manager = IrisManager()

    print(f"recording {N_EXITS} OS BOOT exits (BIOS excluded, as in "
          "the paper)...")
    session = manager.record_workload(
        "os-boot", n_exits=N_EXITS, precondition="bios"
    )
    trace = session.trace

    print()
    print(render_histogram(
        trace.reason_histogram(),
        title="Exit reasons (Fig. 5, OS BOOT: I/O + CR dominate)",
        width=30,
    ))

    print("\nreplaying from the recording-start snapshot...")
    replay = manager.replay_trace(
        trace, from_snapshot=session.snapshot
    )

    fitting = coverage_fitting(trace, replay.results)
    print(render_series(
        {
            "recording": fitting.recording_curve,
            "replaying": fitting.replaying_curve,
        },
        title=f"\nCumulative coverage (Fig. 6) — fitting "
              f"{fitting.fitting_pct:.1f}% (paper: 99.9%)",
    ))

    diffs = per_seed_coverage_diffs(trace, replay.results)
    clusters = cluster_diffs_by_reason(diffs)
    print()
    print(render_table(
        ["exit reason", "diffs", "min LOC", "max LOC"],
        [
            (c.reason, c.count, c.min_diff, c.max_diff)
            for c in sorted(clusters.values(), key=lambda c: -c.count)
        ],
        title="Coverage differences by exit reason (Fig. 7)",
    ))

    writes = vmwrite_fitting(trace, replay.results)
    modes = cr0_mode_trajectory(trace)
    print(f"\nguest-state VMWRITE fitting: {writes.fitting_pct:.1f}% "
          f"(paper: 100%)")
    print("CR0 operating-mode ladder (Fig. 8): "
          + " -> ".join(m.name for m in modes))

    # Persist and reload the trace (the streaming IRISTRC2 format).
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "os-boot.iris"
        write_trace(trace, path)
        reloaded = Trace.load(path)
        print(f"\ntrace file: {path.stat().st_size:,} bytes for "
              f"{len(reloaded)} seeds "
              f"({path.stat().st_size // len(reloaded)} B/seed)")
        assert reloaded.reason_histogram() == trace.reason_histogram()


if __name__ == "__main__":
    main()
