"""Table I: new code coverage discovered by the IRIS-based fuzzer.

The paper mutates a randomly chosen seed per (workload x exit reason x
seed area) cell with 10000 single bit-flips and reports the coverage
increase over the unmutated seed's baseline, plus crash rates: ~15%
hypervisor crashes and ~1% VM crashes under VMCS mutation, GPR mutation
essentially benign (a few VM crashes only together with CR ACCESS).

``IRIS_FUZZ_MUTATIONS`` scales the per-cell mutation count (default
400; the paper's 10000 works but takes minutes per cell).
``IRIS_FUZZ_JOBS`` runs the campaign through the parallel engine with
that many workers — by the engine's determinism contract the grid is
identical at any job count, so both paths feed the same assertions.
"""

from __future__ import annotations

import os
import random
import time

import pytest

from benchmarks.conftest import FUZZ_JOBS, FUZZ_MUTATIONS
from repro.analysis import render_table
from repro.campaign import CampaignController
from repro.fuzz.mutations import MutationArea
from repro.fuzz.parallel import ParallelCampaign
from repro.fuzz.testcase import plan_test_cases
from repro.vmx.exit_reasons import ExitReason

#: Table I's row vocabulary.
TABLE_REASONS = (
    ExitReason.EXTERNAL_INTERRUPT,
    ExitReason.INTERRUPT_WINDOW,
    ExitReason.CPUID,
    ExitReason.HLT,
    ExitReason.RDTSC,
    ExitReason.VMCALL,
    ExitReason.CR_ACCESS,
    ExitReason.IO_INSTRUCTION,
    ExitReason.EPT_VIOLATION,
)


@pytest.fixture(scope="module")
def table1(boot_experiment, cpu_experiment, idle_experiment):
    """Run the full Table I grid through the campaign engine; returns
    {workload: {(reason, area): FuzzResult}}.

    ``IRIS_FUZZ_JOBS`` selects the worker count; per the engine's
    determinism contract the grid is the same at any setting.
    """
    grid = {}
    for name, experiment in (
        ("OS BOOT", boot_experiment),
        ("CPU-bound", cpu_experiment),
        ("IDLE", idle_experiment),
    ):
        cases = plan_test_cases(
            experiment.session.trace, list(TABLE_REASONS),
            n_mutations=FUZZ_MUTATIONS, rng=random.Random(7),
        )
        outcome = CampaignController(ParallelCampaign(
            experiment.session.trace, experiment.session.snapshot,
            cases, campaign_seed=0xF0 + len(grid), jobs=FUZZ_JOBS,
        )).run()
        assert not outcome.abandoned_cells
        grid[name] = {
            (result.exit_reason, result.area): result
            for result in outcome.results
        }
    return grid


def test_table1_new_coverage(table1, benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)

    rows = []
    for reason in TABLE_REASONS:
        row = [reason.name]
        for workload in ("OS BOOT", "CPU-bound", "IDLE"):
            for area in (MutationArea.VMCS, MutationArea.GPR):
                result = table1[workload].get((reason, area))
                row.append(
                    "-" if result is None
                    else f"+{result.coverage_increase_pct:.0f}%"
                )
        rows.append(tuple(row))
    print()
    print(render_table(
        ["Exit Reason",
         "BOOT/VMCS", "BOOT/GPR",
         "CPU/VMCS", "CPU/GPR",
         "IDLE/VMCS", "IDLE/GPR"],
        rows,
        title=f"Table I — new coverage per test case "
              f"({FUZZ_MUTATIONS} mutations/cell; paper: 10000)",
    ))

    # Every populated cell discovered *some* new coverage ("In all
    # tests, we can observe newly discovered coverage").
    nonzero = 0
    total = 0
    for cells in table1.values():
        for result in cells.values():
            total += 1
            if result.coverage_increase_pct > 0:
                nonzero += 1
    assert nonzero / total > 0.85

    # VMCS mutations beat GPR mutations for the same cell, on average
    # (Table I's dominant pattern).
    wins = ties = losses = 0
    for cells in table1.values():
        for reason in TABLE_REASONS:
            vmcs = cells.get((reason, MutationArea.VMCS))
            gpr = cells.get((reason, MutationArea.GPR))
            if vmcs is None or gpr is None:
                continue
            if vmcs.coverage_increase_pct > gpr.coverage_increase_pct:
                wins += 1
            elif vmcs.coverage_increase_pct == \
                    gpr.coverage_increase_pct:
                ties += 1
            else:
                losses += 1
    assert wins > losses

    # OS BOOT cells show the largest increases ("a significant
    # increase in the OS BOOT case, due to the complexity of the
    # workload itself") — compare the per-workload maxima.
    def max_increase(workload):
        return max(
            r.coverage_increase_pct
            for r in table1[workload].values()
        )

    assert max_increase("OS BOOT") >= max_increase("CPU-bound")
    assert max_increase("OS BOOT") >= max_increase("IDLE")


def test_table1_crash_rates(table1, benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    vmcs_results = [
        result
        for cells in table1.values()
        for (reason, area), result in cells.items()
        if area is MutationArea.VMCS
    ]
    gpr_results = [
        result
        for cells in table1.values()
        for (reason, area), result in cells.items()
        if area is MutationArea.GPR
    ]

    rows = []
    for label, results in (("VMCS", vmcs_results),
                           ("GPR", gpr_results)):
        mutations = sum(r.mutations_run for r in results)
        vm = sum(r.vm_crashes for r in results)
        hv = sum(r.hypervisor_crashes for r in results)
        rows.append((
            label,
            f"{100 * vm / mutations:.1f}%",
            f"{100 * hv / mutations:.1f}%",
        ))
    print()
    print(render_table(
        ["mutated area", "VM crashes", "hypervisor crashes"],
        rows,
        title="Table I companion — crash rates "
              "(paper: VMCS -> 1% VM / 15% hypervisor)",
    ))

    total_vmcs = sum(r.mutations_run for r in vmcs_results)
    hv_rate = sum(
        r.hypervisor_crashes for r in vmcs_results
    ) / total_vmcs
    vm_rate = sum(r.vm_crashes for r in vmcs_results) / total_vmcs
    # Hypervisor crashes around the paper's 15%, dominating VM crashes.
    assert 0.05 < hv_rate < 0.30
    assert vm_rate < hv_rate

    # GPR mutations: essentially benign; any VM crashes come from CR
    # ACCESS cells ("A small number of VM crashes ... when mutating
    # the GPR together with a CR ACCESS").
    for cells in table1.values():
        for (reason, area), result in cells.items():
            if area is MutationArea.GPR:
                assert result.hypervisor_crashes == 0, reason
                if reason is not ExitReason.CR_ACCESS:
                    assert result.vm_crashes == 0, reason


# ---- the parallel path -----------------------------------------------

def _campaign_cases(experiment, reasons, mutations):
    return plan_test_cases(
        experiment.session.trace, list(reasons),
        n_mutations=mutations, rng=random.Random(7),
    )


def test_table1_serial_and_parallel_paths_agree(
    cpu_experiment, benchmark
):
    """Both bench paths (jobs=1 inline, jobs=2 pool) produce the same
    grid — the engine's determinism contract at bench scale."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    cases = _campaign_cases(
        cpu_experiment, (ExitReason.RDTSC, ExitReason.CPUID),
        min(FUZZ_MUTATIONS, 200),
    )
    run = lambda jobs: CampaignController(ParallelCampaign(
        cpu_experiment.session.trace, cpu_experiment.session.snapshot,
        cases, campaign_seed=0xF1, jobs=jobs,
    )).run()
    serial, parallel = run(1), run(2)
    assert serial.results == parallel.results
    assert serial.merged_coverage() == parallel.merged_coverage()
    assert serial.crash_tallies() == parallel.crash_tallies()
    assert serial.merged_corpus() == parallel.merged_corpus()


@pytest.mark.skipif(
    (os.cpu_count() or 1) < 2,
    reason="parallel speedup needs >= 2 CPU cores",
)
def test_table1_parallel_speedup(cpu_experiment, benchmark):
    """--jobs 2 beats serial by >= 1.5x wall-clock on >= 2 cores.

    Per-cell work (prefix replay + N mutations) dominates the pool's
    pickling/fork overhead at bench scale, so two workers should land
    near 2x; 1.5x leaves room for scheduler noise.
    """
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    cases = _campaign_cases(cpu_experiment, TABLE_REASONS,
                            FUZZ_MUTATIONS)

    def timed(jobs):
        start = time.perf_counter()
        outcome = CampaignController(ParallelCampaign(
            cpu_experiment.session.trace,
            cpu_experiment.session.snapshot,
            cases, campaign_seed=0xF2, jobs=jobs,
        )).run()
        return time.perf_counter() - start, outcome

    serial_s, serial = timed(1)
    parallel_s, parallel = timed(2)
    speedup = serial_s / parallel_s
    print(f"\nTable I campaign: serial {serial_s:.2f}s, "
          f"--jobs 2 {parallel_s:.2f}s -> {speedup:.2f}x speedup "
          f"({serial.stats.total_mutations} mutations)")
    assert serial.results == parallel.results
    assert speedup >= 1.5
