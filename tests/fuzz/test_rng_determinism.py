"""Fuzzer randomness audit (ISSUE satellite c).

All fuzzer randomness must flow through explicitly seeded
``random.Random`` instances — never the module-level ``random.*``
functions, whose hidden global state would make campaigns
irreproducible and jobs-dependent.  These tests (1) poison the
module-level API and prove a whole campaign still runs, and (2) pin
that two identically seeded campaigns produce identical results even
with the global RNG deliberately scrambled between them.
"""

from __future__ import annotations

import random

import pytest

from repro.campaign import CampaignController
from repro.core.manager import IrisManager
from repro.fuzz.fuzzer import IrisFuzzer
from repro.fuzz.parallel import ParallelCampaign
from repro.fuzz.testcase import plan_test_cases
from repro.vmx.exit_reasons import ExitReason

#: The module-level functions a stray ``random.foo()`` call would hit.
_POISONED = [
    "random", "randint", "randrange", "choice", "choices", "shuffle",
    "sample", "uniform", "getrandbits", "gauss", "betavariate",
    "expovariate", "seed",
]


@pytest.fixture
def poisoned_global_random(monkeypatch):
    """Make every module-level random.* call raise.

    Seeded ``random.Random`` instances are untouched — only the hidden
    global generator is booby-trapped.
    """
    def boom(name):
        def _trap(*args, **kwargs):
            raise AssertionError(
                f"module-level random.{name}() called: fuzzer "
                "randomness must come from a seeded random.Random"
            )
        return _trap

    for name in _POISONED:
        monkeypatch.setattr(random, name, boom(name))


@pytest.fixture(scope="module")
def recorded():
    manager = IrisManager()
    session = manager.record_workload(
        "cpu-bound", n_exits=100, precondition="bios"
    )
    return session


def _cases(session, n_mutations=20):
    return plan_test_cases(
        session.trace, [ExitReason.RDTSC, ExitReason.CPUID],
        n_mutations=n_mutations, rng=random.Random(9),
    )


def _result_fingerprint(results):
    return [
        (r.exit_reason.name, r.area.value, r.mutations_run,
         r.new_loc, r.vm_crashes, r.hypervisor_crashes,
         sorted(r.new_lines))
        for r in results
    ]


def test_campaign_runs_with_global_random_poisoned(
    recorded, poisoned_global_random
):
    """No code on the campaign path touches the global generator."""
    cases = _cases(recorded)
    assert cases
    outcome = CampaignController(ParallelCampaign(
        recorded.trace, recorded.snapshot, cases,
        campaign_seed=4, jobs=1, shards_per_cell=2,
    )).run()
    assert not outcome.abandoned_cells
    assert all(r.mutations_run == 20 for r in outcome.results)


def test_serial_fuzzer_runs_with_global_random_poisoned(
    recorded, poisoned_global_random
):
    manager = IrisManager()
    fuzzer = IrisFuzzer(manager, rng=random.Random(7))
    case = _cases(recorded, n_mutations=10)[0]
    result = fuzzer.run_test_case(
        case, from_snapshot=recorded.snapshot
    )
    assert result.mutations_run == 10


def test_campaign_ignores_global_random_state(recorded):
    """Scrambling (re-seeding) the global RNG between two identically
    seeded campaigns must not change a single result."""
    cases = _cases(recorded)

    def run():
        return CampaignController(ParallelCampaign(
            recorded.trace, recorded.snapshot, cases,
            campaign_seed=4, jobs=1, shards_per_cell=2,
        )).run()

    random.seed(12345)
    first = _result_fingerprint(run().results)
    random.seed(99999)
    random.random()  # advance the global stream for good measure
    second = _result_fingerprint(run().results)
    assert first == second
