#!/usr/bin/env python3
"""Fuzzing campaign: the paper's §VII proof-of-concept, end to end.

1. record a CPU-bound VM behavior on a booted guest;
2. plan test cases over the Table I exit reasons x {VMCS, GPR};
3. run the cases as one campaign through the campaign controller:
   each case replays up to its target seed (reaching a valid VM
   state), then submits single bit-flip mutations of it;
4. report newly discovered coverage, crash rates, and the crash-triage
   artifacts the fuzzer keeps.

Run:  python examples/fuzzing_campaign.py
"""

import os
import random
from collections import Counter

from repro import IrisManager
from repro.analysis import render_table
from repro.campaign import CampaignController
from repro.fuzz.parallel import ParallelCampaign
from repro.fuzz.testcase import plan_test_cases
from repro.vmx import ExitReason

# The paper uses 10000 mutations per cell; overridable (with the trace
# length) so the test suite can smoke-run with a tiny budget.
MUTATIONS_PER_CASE = int(
    os.environ.get("IRIS_EXAMPLE_MUTATIONS", "250")
)
N_EXITS = int(os.environ.get("IRIS_EXAMPLE_EXITS", "1000"))


def main() -> None:
    manager = IrisManager()
    print(f"recording {N_EXITS} CPU-bound exits for the seed "
          "corpus...")
    session = manager.record_workload(
        "cpu-bound", n_exits=N_EXITS, precondition="boot"
    )

    cases = plan_test_cases(
        session.trace,
        [ExitReason.RDTSC, ExitReason.CPUID, ExitReason.VMCALL,
         ExitReason.CR_ACCESS, ExitReason.EPT_VIOLATION],
        n_mutations=MUTATIONS_PER_CASE,
        rng=random.Random(42),
    )
    print(f"planned {len(cases)} test cases "
          f"({MUTATIONS_PER_CASE} mutations each)\n")

    outcome = CampaignController(ParallelCampaign(
        session.trace, session.snapshot, cases, campaign_seed=1,
    )).run()
    rows = []
    causes: Counter[str] = Counter()
    sample = None
    for result in outcome.results:
        if sample is None and result.failures:
            sample = result.failures[0]
        rows.append((
            result.exit_reason.name,
            result.area.value.upper(),
            result.baseline_loc,
            f"+{result.coverage_increase_pct:.0f}%",
            result.vm_crashes,
            result.hypervisor_crashes,
            len(result.corpus),
        ))
        for failure in result.failures:
            causes[failure.cause] += 1

    print(render_table(
        ["exit reason", "area", "baseline LOC", "new coverage",
         "VM crashes", "HV crashes", "corpus"],
        rows,
        title="Fuzzing campaign results (Table I shape)",
    ))

    print()
    print(render_table(
        ["crash cause (triage)", "count"],
        sorted(causes.items(), key=lambda kv: -kv[1]),
        title="Failure triage (from saved seeds + hypervisor log)",
    ))

    # Show one kept crash artifact, the way §VII-3 saves them.
    if sample is not None:
        print("\nsample crash artifact:")
        print(f"  {sample.describe()}")
        print(f"  mutated seed: {sample.seed.describe()}")
        for line in sample.log_tail[-3:]:
            print(f"  {line}")


if __name__ == "__main__":
    main()
