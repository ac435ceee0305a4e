"""Unit/integration tests for the fuzzing campaign runner."""

import random

import pytest

from repro.campaign import CampaignController
from repro.fuzz.fuzzer import IrisFuzzer
from repro.fuzz.mutations import MutationArea
from repro.fuzz.parallel import ParallelCampaign
from repro.fuzz.testcase import FuzzTestCase, plan_test_cases
from repro.vmx.exit_reasons import ExitReason


@pytest.fixture(scope="module")
def campaign(cpu_session):
    """One small VMCS + one GPR campaign on a shared recorded trace."""
    manager, session = cpu_session
    fuzzer = IrisFuzzer(manager, rng=random.Random(11))
    cases = plan_test_cases(
        session.trace, [ExitReason.RDTSC], n_mutations=150,
        rng=random.Random(2),
    )
    results = {
        case.area: fuzzer.run_test_case(
            case, from_snapshot=session.snapshot
        )
        for case in cases
    }
    return results


class TestFuzzResult:
    def test_all_mutations_executed(self, campaign):
        for result in campaign.values():
            assert result.mutations_run == 150

    def test_baseline_coverage_positive(self, campaign):
        for result in campaign.values():
            assert result.baseline_loc > 0

    def test_vmcs_mutations_discover_more_than_gpr(self, campaign):
        # Table I's central shape: corrupting the VMCS area explores
        # more new hypervisor code than corrupting GPRs.
        assert campaign[MutationArea.VMCS].coverage_increase_pct > \
            campaign[MutationArea.GPR].coverage_increase_pct

    def test_vmcs_mutations_crash_the_hypervisor(self, campaign):
        result = campaign[MutationArea.VMCS]
        assert result.hypervisor_crashes > 0
        # Paper: ~15% hypervisor crashes under VMCS mutation; we allow
        # a generous band around it.
        assert 0.03 < result.hypervisor_crash_rate < 0.40

    def test_hv_crashes_dominate_vm_crashes_for_vmcs(self, campaign):
        result = campaign[MutationArea.VMCS]
        assert result.hypervisor_crashes > result.vm_crashes

    def test_gpr_mutations_on_rdtsc_are_benign(self, campaign):
        result = campaign[MutationArea.GPR]
        assert result.vm_crashes == 0
        assert result.hypervisor_crashes == 0

    def test_failures_recorded_for_triage(self, campaign):
        result = campaign[MutationArea.VMCS]
        assert result.failures
        failure = result.failures[0]
        assert failure.seed.entries  # the mutated seed is kept
        assert failure.crash_reason

    def test_corpus_retains_interesting_mutants(self, campaign):
        result = campaign[MutationArea.VMCS]
        assert len(result.corpus) > 0

    def test_describe_is_informative(self, campaign):
        text = campaign[MutationArea.VMCS].describe()
        assert "RDTSC" in text and "vmcs" in text


class TestCampaignMechanics:
    def test_state_restored_after_crashes(self, cpu_session):
        # After a campaign with crashes, the same test case can run
        # again from scratch — the dummy VM is not left dead.
        manager, session = cpu_session
        fuzzer = IrisFuzzer(manager, rng=random.Random(3))
        case = FuzzTestCase(
            trace=session.trace, seed_index=5,
            area=MutationArea.VMCS, n_mutations=60,
        )
        first = fuzzer.run_test_case(case,
                                     from_snapshot=session.snapshot)
        second = fuzzer.run_test_case(case,
                                      from_snapshot=session.snapshot)
        assert first.mutations_run == second.mutations_run == 60

    def test_campaign_runs_case_list(self, cpu_session):
        _manager, session = cpu_session
        cases = plan_test_cases(
            session.trace, [ExitReason.CPUID], n_mutations=20,
            rng=random.Random(5),
        )
        outcome = CampaignController(ParallelCampaign(
            session.trace, session.snapshot, cases, campaign_seed=4,
        )).run()
        assert len(outcome.results) == len(cases)
        assert [r.area for r in outcome.results] == \
            [c.area for c in cases]

    def test_deterministic_given_seed(self, cpu_session):
        manager, session = cpu_session
        case = FuzzTestCase(
            trace=session.trace, seed_index=3,
            area=MutationArea.VMCS, n_mutations=40,
        )
        a = IrisFuzzer(manager, rng=random.Random(9)).run_test_case(
            case, from_snapshot=session.snapshot
        )
        b = IrisFuzzer(manager, rng=random.Random(9)).run_test_case(
            case, from_snapshot=session.snapshot
        )
        # Crash outcomes depend only on the mutated values, hence on
        # the RNG seed.  Coverage may differ by a few LOC: the second
        # run starts at a later TSC, so the asynchronous vlapic/vpt
        # noise (the paper's Fig. 7 noise) lands on different seeds.
        assert a.vm_crashes == b.vm_crashes
        assert a.hypervisor_crashes == b.hypervisor_crashes
        # Bound: the full vlapic+vpt+irq async block set is ~55 LOC.
        assert abs(a.new_loc - b.new_loc) <= 60
