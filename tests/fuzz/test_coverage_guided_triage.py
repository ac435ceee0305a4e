"""Tests for the coverage-guided fuzzer and crash triage extensions."""

import dataclasses
import random

import pytest

from repro.fuzz.failures import FailureKind, FailureRecord
from repro.fuzz.fuzzer import IrisFuzzer
from repro.fuzz.mutations import MutationArea
from repro.fuzz.testcase import FuzzTestCase, plan_test_cases
from repro.fuzz.triage import crash_signature, triage
from repro.core.seed import VMSeed
from repro.vmx.exit_reasons import ExitReason


@pytest.fixture(scope="module")
def guided_case(cpu_session):
    manager, session = cpu_session
    cases = plan_test_cases(
        session.trace, [ExitReason.RDTSC],
        areas=(MutationArea.VMCS,), n_mutations=1,
        rng=random.Random(4),
    )
    return manager, session, cases[0]


def run_engine(guided_case, engine, budget, seed):
    """One fuzz-loop run of the guided case on ``engine``."""
    manager, session, case = guided_case
    case = dataclasses.replace(case, n_mutations=budget, engine=engine)
    return IrisFuzzer(manager, rng=random.Random(seed)).run_test_case(
        case, from_snapshot=session.snapshot
    )


class TestCoverageGuided:
    """The smart engine (§IX's coverage-guided fuzzer) through the one
    fuzz loop, :meth:`IrisFuzzer.run_test_case`."""

    def test_campaign_runs_to_budget(self, guided_case):
        result = run_engine(guided_case, "smart", budget=150, seed=21)
        assert result.mutations_run == 150

    def test_discoveries_join_corpus(self, guided_case):
        result = run_engine(guided_case, "smart", budget=150, seed=23)
        assert result.new_loc > 0
        assert any(
            entry.reason_kept == "new-coverage"
            for entry in result.corpus.entries
        )

    def test_guided_beats_naive_on_equal_budget(self, guided_case):
        # The §IX motivation: smarter scheduling finds more coverage
        # than the PoC's single bit-flip for the same execution count.
        guided = run_engine(guided_case, "smart", budget=250, seed=24)
        naive = run_engine(guided_case, "poc", budget=250, seed=24)
        assert guided.new_loc >= naive.new_loc

    def test_crashes_restored_and_counted(self, guided_case):
        result = run_engine(guided_case, "smart", budget=200, seed=25)
        # Mutation stacks hit the same crash arms the PoC does.
        assert result.vm_crashes + result.hypervisor_crashes > 0
        assert result.failures


def record_of(kind, cause, reason, seed_reason=ExitReason.RDTSC):
    return FailureRecord(
        kind=kind, cause=cause, crash_reason=reason,
        mutation_index=0,
        seed=VMSeed(exit_reason=int(seed_reason)),
    )


class TestTriage:
    def test_signature_normalizes_addresses(self):
        a = record_of(FailureKind.VM_CRASH, "bad rip",
                      "bad RIP 0x1000 for mode 0")
        b = record_of(FailureKind.VM_CRASH, "bad rip",
                      "bad RIP 0xbeef0 for mode 0")
        assert crash_signature(a) == crash_signature(b)

    def test_signature_distinguishes_kinds(self):
        a = record_of(FailureKind.VM_CRASH, "x", "panic: y")
        b = record_of(FailureKind.HYPERVISOR_CRASH, "x", "panic: y")
        assert crash_signature(a) != crash_signature(b)

    def test_signature_normalizes_numbers(self):
        a = record_of(FailureKind.HYPERVISOR_CRASH, "len",
                      "bad instruction length 99")
        b = record_of(FailureKind.HYPERVISOR_CRASH, "len",
                      "bad instruction length 130")
        assert crash_signature(a) == crash_signature(b)

    def test_buckets_dedupe(self):
        records = [
            record_of(FailureKind.VM_CRASH, "bad rip",
                      f"bad RIP 0x{i:x} for mode 0")
            for i in range(20)
        ] + [
            record_of(FailureKind.HYPERVISOR_CRASH, "assert",
                      "PANIC: update_guest_eip"),
        ]
        report = triage(records)
        assert report.total_failures == 21
        assert report.unique_crashes == 2
        assert len(report.vm_buckets()) == 1
        assert len(report.hypervisor_buckets()) == 1
        assert report.buckets[0].count == 20

    def test_rows_sorted_by_frequency(self):
        records = (
            [record_of(FailureKind.VM_CRASH, "a", "one")] * 2
            + [record_of(FailureKind.VM_CRASH, "b", "two")] * 5
        )
        rows = triage(records).rows()
        assert rows[0][2] == 5

    def test_seed_reasons_aggregated(self):
        records = [
            record_of(FailureKind.VM_CRASH, "a", "x",
                      seed_reason=ExitReason.RDTSC),
            record_of(FailureKind.VM_CRASH, "a", "x",
                      seed_reason=ExitReason.CPUID),
        ]
        report = triage(records)
        assert report.buckets[0].seed_reasons == {"RDTSC", "CPUID"}

    def test_empty_triage(self):
        report = triage([])
        assert report.unique_crashes == 0
        assert report.rows() == []


class TestFuzzerTriageIntegration:
    def test_campaign_failures_triage_cleanly(self, guided_case):
        manager, session, case = guided_case
        naive_case = FuzzTestCase(
            trace=case.trace, seed_index=case.seed_index,
            area=MutationArea.VMCS, n_mutations=300,
        )
        result = IrisFuzzer(
            manager, rng=random.Random(31)
        ).run_test_case(naive_case, from_snapshot=session.snapshot)
        report = triage(result.failures)
        assert report.total_failures == len(result.failures)
        # The barrage collapses into a handful of distinct crashes.
        assert 1 <= report.unique_crashes <= 12
        assert report.unique_crashes < report.total_failures