"""Sharded multi-process fleet for the SoC manager (docs/FLEET.md).

A :class:`~repro.fleet.coordinator.FleetCoordinator` shards tenants
across N worker processes — one :class:`~repro.soc.manager.SocManager`
(own modeled engine, own write-ahead journal) each — and supervises
them: heartbeat deadlines, bounded-jitter backoff restarts with
journal-replay recovery, and checkpoint-handoff migration of healthy
tenants away from crash-looping shards.  The coordinator speaks the
manager's own surface (``run_events`` / ``health`` / ``tenant`` /
``tenants``), so the serve front door and the eval harness run over a
fleet unchanged.

Bulk round payloads cross the process boundary through one transport
(:mod:`repro.fleet.transport`): zero-copy shared-memory rings by
default; without rings (``transport="pipe"``, or any fallback) they
ride the pipe inline.  When
``FleetConfig.rebalance_ratio`` is set, placement is load-aware — the
coordinator migrates tenants between shards at round boundaries to
level the modeled makespan.
"""

from repro.fleet.coordinator import (
    FLEET_COUNTERS,
    PLACEMENT_COUNTERS,
    TRANSPORT_COUNTERS,
    FleetConfig,
    FleetCoordinator,
)
from repro.fleet.demo import demo_factory
from repro.fleet.transport import (
    ShmRing,
    TRANSPORT_NAMES,
)

__all__ = [
    "FLEET_COUNTERS",
    "PLACEMENT_COUNTERS",
    "TRANSPORT_COUNTERS",
    "TRANSPORT_NAMES",
    "FleetConfig",
    "FleetCoordinator",
    "ShmRing",
    "demo_factory",
    "messages",
]
