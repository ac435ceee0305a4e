"""IRIS-based fuzzer prototype (paper §VII).

The fuzzing loop: replay a recorded VM behavior up to a randomly chosen
seed to reach a valid VM state, then submit N single-bit-flip mutations
of that seed (in either the VMCS or the GPR seed area) through the IRIS
replay mechanism, measuring newly discovered hypervisor coverage and
classifying failures as VM crashes or hypervisor crashes.
"""

from repro.fuzz.mutations import (
    MutationArea,
    bit_flip,
    byte_flip,
    arithmetic_mutation,
    MUTATION_RULES,
)
from repro.fuzz.testcase import FuzzTestCase
from repro.fuzz.failures import (
    FailureKind,
    FailureRecord,
    classify_result,
)
from repro.fuzz.corpus import Corpus, CorpusEntry
from repro.fuzz.differential import (
    MAX_DIVERGENCES_KEPT,
    DifferentialOracle,
    DivergenceKind,
    DivergenceRecord,
    DivergenceReport,
    divergence_identity,
    divergence_signature,
    iter_divergences,
    merge_divergences,
    render_divergence_report,
    triage_divergences,
)
from repro.fuzz.fuzzer import IrisFuzzer, FuzzResult
from repro.fuzz.triage import (
    CrashBucket,
    TriageReport,
    crash_signature,
    triage,
)
from repro.fuzz.minimize import (
    EntryDelta,
    MinimizationResult,
    minimize_crash,
    seed_deltas,
)
from repro.fuzz.parallel import (
    CampaignResult,
    CampaignStats,
    ParallelCampaign,
    ShardStats,
    ShardTask,
    WorkerFault,
    derive_shard_seed,
    split_mutations,
)

__all__ = [
    "CampaignResult",
    "CampaignStats",
    "ParallelCampaign",
    "ShardStats",
    "ShardTask",
    "WorkerFault",
    "derive_shard_seed",
    "split_mutations",
    "CrashBucket",
    "TriageReport",
    "crash_signature",
    "triage",
    "EntryDelta",
    "MinimizationResult",
    "minimize_crash",
    "seed_deltas",
    "MutationArea",
    "bit_flip",
    "byte_flip",
    "arithmetic_mutation",
    "MUTATION_RULES",
    "FuzzTestCase",
    "FailureKind",
    "FailureRecord",
    "classify_result",
    "Corpus",
    "CorpusEntry",
    "IrisFuzzer",
    "FuzzResult",
    "MAX_DIVERGENCES_KEPT",
    "DifferentialOracle",
    "DivergenceKind",
    "DivergenceRecord",
    "DivergenceReport",
    "divergence_identity",
    "divergence_signature",
    "iter_divergences",
    "merge_divergences",
    "render_divergence_report",
    "triage_divergences",
]
