"""Persistent, resumable campaign control plane (DESIGN.md §10).

Public surface:

* :class:`CampaignStore` — SQLite-backed, schema-versioned persistence
  with transactional per-wave checkpoints.
* :class:`CampaignController` — the one way a campaign runs: wave
  scheduling over the warm
  :class:`repro.fuzz.parallel.ParallelCampaign` pool, with exact
  resume from a store.
* :class:`CampaignConfig` — the campaign's deterministic identity.
* :class:`WorkerTransport` and its implementations
  (:class:`LocalPoolTransport`, :class:`SocketTransport`) — *where*
  the engine's shards run (DESIGN.md §11).
* :class:`WorkerServer` — the ``iris-worker`` side of the socket
  transport.
"""

from repro.campaign.controller import (
    CampaignController,
    CampaignInterrupted,
    plan_waves,
)
from repro.campaign.store import (
    SCHEMA_VERSION,
    CampaignConfig,
    CampaignStore,
    StoredWave,
)
from repro.campaign.transport import (
    LocalPoolTransport,
    SocketTransport,
    TransportContext,
    TransportStats,
    WorkerTransport,
    parse_worker_address,
)
from repro.campaign.worker import WorkerServer

__all__ = [
    "SCHEMA_VERSION",
    "CampaignConfig",
    "CampaignController",
    "CampaignInterrupted",
    "CampaignStore",
    "LocalPoolTransport",
    "SocketTransport",
    "StoredWave",
    "TransportContext",
    "TransportStats",
    "WorkerServer",
    "WorkerTransport",
    "parse_worker_address",
    "plan_waves",
]
