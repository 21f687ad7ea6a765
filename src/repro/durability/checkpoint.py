"""Checkpoint capture/restore for :class:`repro.soc.manager.SocManager`.

A checkpoint is taken at a *round boundary*, which buys two structural
guarantees: the dataplanes are quiescent (a pipeline is a plain chain
that holds no batch between calls) and all per-round state is about
to be reset anyway (``TenantRuntime.reset`` runs at the top of every
round).  What must survive is the *lifetime* state: the manager's
round counter, the arbiter's per-lane watchdog trip counts, each
tenant's health-machine fields, the MCM's counters, the session
dataplane/encoder carry state, and the metrics registries.  There is
no record log — a round returns its records — but the last round run
is kept whole (its index and each tenant's records), so a caller that
lost that round's return can still fetch it after a crash.  Models
and drivers are deliberately absent — they are code plus weights,
re-supplied at :meth:`SocManager.recover` time.

The payload is a plain JSON-able dict so it rides in a single
:class:`~repro.durability.journal.RecordKind.CHECKPOINT` record.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import JournalCorruptionError
from repro.mcm.mcm import InferenceRecord

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.soc.manager import SocManager, TenantRuntime

#: Bump on any incompatible change to the checkpoint layout.
CHECKPOINT_VERSION = 2


def capture_tenant_state(runtime: "TenantRuntime") -> dict:
    """Snapshot one tenant's lifetime state as a JSON-able dict.

    This per-tenant document is also the fleet's migration-handoff
    unit (docs/FLEET.md): a tenant evicted from a crash-looping shard
    is re-admitted on a sibling by building a fresh runtime from its
    deployment and restoring this document into it.
    """
    return {
        "name": runtime.name,
        "health": runtime.health.value,
        "crashes": runtime.crashes,
        "bad_rounds": runtime._bad_rounds,
        "clean_rounds": runtime._clean_rounds,
        "quarantined_rounds": runtime._quarantined_rounds,
        "seen_loss": runtime._seen_loss,
        "seen_trips": runtime._seen_trips,
        "mcm": runtime.mcm.export_state(),
        "session": {
            "pipeline": runtime.pipeline.export_state(),
            "encoder": runtime.encoder.export_state(),
        },
        "metrics": runtime.metrics.export_state(),
    }


def restore_tenant_state(runtime: "TenantRuntime", doc: dict) -> None:
    """Restore one tenant runtime from its captured document.

    The runtime must have been built from the same deployment (same
    model, converter, detector, config) that was live at capture time;
    the document carries state, not code.
    """
    from repro.soc.manager import TenantHealth

    if doc["name"] != runtime.name:
        raise JournalCorruptionError(
            f"tenant document {doc['name']!r} restored into runtime "
            f"{runtime.name!r}"
        )
    runtime.health = TenantHealth(doc["health"])
    runtime.crashes = doc["crashes"]
    runtime._bad_rounds = doc["bad_rounds"]
    runtime._clean_rounds = doc["clean_rounds"]
    runtime._quarantined_rounds = doc["quarantined_rounds"]
    runtime._seen_loss = doc["seen_loss"]
    runtime._seen_trips = doc["seen_trips"]
    runtime.mcm.restore_state(doc["mcm"])
    runtime.pipeline.restore_state(doc["session"]["pipeline"])
    runtime.encoder.restore_state(doc["session"]["encoder"])
    runtime.metrics.restore_state(doc["metrics"])


def capture_checkpoint(manager: "SocManager") -> dict:
    """Snapshot the manager's lifetime state as a JSON-able dict."""
    tenants = [
        capture_tenant_state(runtime) for runtime in manager.tenants
    ]
    return {
        "version": CHECKPOINT_VERSION,
        "round": manager._round,
        "last_round": manager.last_round,
        "last_records": {
            name: [dict(vars(r), score=float(r.score)) for r in records]
            for name, records in manager.last_records.items()
        },
        "watchdog_trips": list(manager.arbiter.watchdog_trips),
        "tenants": tenants,
        "metrics": manager.metrics.export_state(),
    }


def restore_checkpoint(manager: "SocManager", state: dict) -> None:
    """Restore a freshly built manager from a checkpoint dict.

    The manager must have been constructed with the same deployments
    (same tenant names, same order) that were live at capture time —
    checkpoints carry state, not topology.
    """
    version = state.get("version")
    if version != CHECKPOINT_VERSION:
        raise JournalCorruptionError(
            f"unsupported checkpoint version {version!r}"
        )
    names = [doc["name"] for doc in state["tenants"]]
    live = [runtime.name for runtime in manager.tenants]
    if names != live:
        raise JournalCorruptionError(
            f"checkpoint tenants {names} do not match deployments {live}"
        )
    manager._round = state["round"]
    manager.last_round = state["last_round"]
    manager.last_records = {
        name: [InferenceRecord(**doc) for doc in docs]
        for name, docs in state["last_records"].items()
    }
    trips = state["watchdog_trips"]
    if len(trips) != len(manager.arbiter.watchdog_trips):
        raise JournalCorruptionError(
            "checkpoint watchdog state does not match lane count"
        )
    manager.arbiter.watchdog_trips[:] = [int(t) for t in trips]
    manager.metrics.restore_state(state["metrics"])
    for runtime, doc in zip(manager.tenants, state["tenants"]):
        restore_tenant_state(runtime, doc)
