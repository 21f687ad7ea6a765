"""SocManager durability: journaled rounds, checkpoints, recovery.

Small-scale (two tenants, a few hundred events) counterparts of the
``python -m repro.eval recovery`` harness, plus the membership and
health-state contracts that the harness does not cover: readmitting a
removed tenant yields a cleanly reset session, and recovery preserves
a quarantined tenant's quarantine (including its probation progress).
"""

import pytest

from repro.durability import MemoryJournal, RecordKind
from repro.errors import (
    JournalCorruptionError,
    ProcessCrashError,
    SocConfigError,
)
from repro.eval.metrics import build_demo_deployments, demo_events
from repro.eval.report import record_signature
from repro.faults.crashpoints import CrashPointInjector
from repro.obs import MetricsRegistry
from repro.soc.manager import SocManager, TenantHealth

KIND = "lstm"
TENANTS = 2
EVENTS = 400
CHUNK_EVENTS = 128  # several TRACE_CHUNK records per tenant per round


def _traces(round_index):
    return {
        f"tenant{i}": demo_events(
            KIND, 0, EVENTS, run_label=f"durab-t{i}-r{round_index}"
        )
        for i in range(TENANTS)
    }


def _manager(**kwargs):
    return SocManager(
        build_demo_deployments(num_tenants=TENANTS, kind=KIND),
        metrics=MetricsRegistry(),
        journal_chunk_events=CHUNK_EVENTS,
        **kwargs,
    )


def _recover(journal, **kwargs):
    return SocManager.recover(
        journal,
        build_demo_deployments(num_tenants=TENANTS, kind=KIND),
        metrics=MetricsRegistry(),
        journal_chunk_events=CHUNK_EVENTS,
        **kwargs,
    )


def _log(manager):
    return {
        runtime.name: [record_signature(r) for r in runtime.mcm.records]
        for runtime in manager.tenants
    }


def _baseline_log(rounds):
    manager = _manager()
    for r in range(rounds):
        manager.run_events(_traces(r))
    return _log(manager)


def test_journaling_is_invisible():
    journal = MemoryJournal()
    journaled = _manager(journal=journal)
    for r in range(2):
        records = journaled.run_events(_traces(r))
        assert any(records.values())  # the round actually inferred
    assert _log(journaled) == _baseline_log(2)
    # Wire protocol: BEGIN, then chunks, then COMMIT, for every round.
    kinds = [record.kind for record in journal.records()]
    assert kinds[0] is RecordKind.ROUND_BEGIN
    assert kinds.count(RecordKind.ROUND_BEGIN) == 2
    assert kinds.count(RecordKind.ROUND_COMMIT) == 2
    chunks_per_trace = (EVENTS + CHUNK_EVENTS - 1) // CHUNK_EVENTS
    assert kinds.count(RecordKind.TRACE_CHUNK) == (
        2 * TENANTS * chunks_per_trace
    )


def test_kill_mid_round_recovers_byte_identical():
    # Learn the per-round crash-site count from a counting-only run.
    counting = CrashPointInjector(kill_at=None)
    probe = _manager(journal=MemoryJournal(), crash_points=counting)
    probe.run_events(_traces(0))
    round_sites = counting.sites_reached

    # Kill inside round 1's journaling: round 0 is committed, round 1
    # is an uncommitted tail that recovery must discard.
    journal = MemoryJournal()
    victim = _manager(
        journal=journal,
        crash_points=CrashPointInjector(kill_at=round_sites + 1),
    )
    victim.run_events(_traces(0))
    with pytest.raises(ProcessCrashError):
        victim.run_events(_traces(1))

    recovered = _recover(journal)
    assert recovered.next_round == 1
    assert recovered.metrics.counter("socmgr.recoveries").value == 1
    assert (
        recovered.metrics.counter("socmgr.rounds_replayed").value == 1
    )
    recovered.run_events(_traces(1))
    assert _log(recovered) == _baseline_log(2)


@pytest.mark.parametrize("dataplane", ["batched", "loop"])
def test_kill_mid_batched_round_recovers_byte_identical(dataplane):
    """Crash inside a round served with cross-tenant batched dispatch.

    Exact-mode drivers + ``batch_limit > 1`` mean the shared engine
    coalesces compatible lane heads into fused dispatches.  Replay is
    deterministic either way: the recovered log must be byte-identical
    to the uninterrupted batched run on both trace dataplanes.
    """
    batched_kwargs = dict(
        num_tenants=TENANTS,
        kind=KIND,
        dataplane=dataplane,
        execute_on_gpu=True,
    )

    def batched_manager(**kwargs):
        return SocManager(
            build_demo_deployments(**batched_kwargs),
            metrics=MetricsRegistry(),
            journal_chunk_events=CHUNK_EVENTS,
            batch_limit=TENANTS,
            **kwargs,
        )

    baseline = batched_manager()
    for r in range(2):
        baseline.run_events(_traces(r))
    counters = baseline.metrics.snapshot()["counters"]
    assert counters["mcm.arbiter.batch.grants"] > 0  # fusion happened

    counting = CrashPointInjector(kill_at=None)
    probe = batched_manager(journal=MemoryJournal(), crash_points=counting)
    probe.run_events(_traces(0))
    round_sites = counting.sites_reached

    journal = MemoryJournal()
    victim = batched_manager(
        journal=journal,
        crash_points=CrashPointInjector(kill_at=round_sites + 1),
    )
    victim.run_events(_traces(0))
    with pytest.raises(ProcessCrashError):
        victim.run_events(_traces(1))

    recovered = SocManager.recover(
        journal,
        build_demo_deployments(**batched_kwargs),
        metrics=MetricsRegistry(),
        journal_chunk_events=CHUNK_EVENTS,
        batch_limit=TENANTS,
    )
    assert recovered.next_round == 1
    recovered.run_events(_traces(1))
    assert _log(recovered) == _log(baseline)


def test_recovery_from_checkpoint_skips_replayed_segments():
    journal = MemoryJournal()
    # Checkpoint after every committed round (interval below one
    # round's event count), so recovery restores state instead of
    # replaying from round zero.
    manager = _manager(journal=journal, checkpoint_interval_events=1)
    manager.run_events(_traces(0))
    manager.run_events(_traces(1))
    kinds = [record.kind for record in journal.records()]
    assert kinds.count(RecordKind.CHECKPOINT) == 2

    recovered = _recover(journal, checkpoint_interval_events=1)
    assert recovered.next_round == 2
    # Nothing after the newest checkpoint: pure restore, no replay.
    assert (
        recovered.metrics.counter("socmgr.rounds_replayed").value == 0
    )
    recovered.run_events(_traces(2))
    assert _log(recovered) == _baseline_log(3)


def test_remove_then_admit_same_deployment_resets_session():
    manager = _manager()
    # A twin manager whose tenant1 idles through round 0 — the state a
    # *cleanly reset* readmitted tenant must be indistinguishable from.
    twin = _manager()
    round0 = _traces(0)
    manager.run_events(round0)
    twin.run_events({"tenant0": round0["tenant0"]})
    assert manager.tenant("tenant1").mcm.records

    deployment = manager.remove_tenant("tenant1")
    assert [r.name for r in manager.tenants] == ["tenant0"]
    runtime = manager.admit_tenant(deployment)
    assert runtime.health is TenantHealth.HEALTHY
    assert runtime.crashes == 0
    assert runtime.mcm.records == []

    round1 = _traces(1)
    manager.run_events(round1)
    twin.run_events(round1)
    assert _log(manager)["tenant1"] == _log(twin)["tenant1"]
    # The readmitted lane restarts its record numbering from zero.
    assert manager.tenant("tenant1").mcm.records[0].sequence_number == 0


def test_remove_last_tenant_refused():
    manager = _manager()
    manager.remove_tenant("tenant1")
    with pytest.raises(SocConfigError):
        manager.remove_tenant("tenant0")


def test_recovery_preserves_quarantine():
    journal = MemoryJournal()
    manager = _manager(journal=journal, checkpoint_interval_events=1)
    manager.run_events(_traces(0))
    manager._quarantine(manager.tenant("tenant1"))
    # A quarantined round: tenant1 is skipped and its probation clock
    # advances; the round's checkpoint must capture both facts.
    records = manager.run_events(_traces(1))
    assert records["tenant1"] == []

    recovered = _recover(journal, checkpoint_interval_events=1)
    runtime = recovered.tenant("tenant1")
    assert runtime.health is TenantHealth.QUARANTINED
    assert (
        runtime._quarantined_rounds
        == manager.tenant("tenant1")._quarantined_rounds
    )
    # From here on, original and recovered evolve identically — the
    # readmission round included.
    for r in (2, 3, 4):
        traces = _traces(r)
        manager.run_events(traces)
        recovered.run_events(traces)
        assert recovered.health() == manager.health()
    assert _log(recovered) == _log(manager)
    assert (
        recovered.tenant("tenant1").health is not TenantHealth.QUARANTINED
    )


def test_recover_with_mismatched_deployments_is_corruption():
    journal = MemoryJournal()
    manager = _manager(journal=journal, checkpoint_interval_events=1)
    manager.run_events(_traces(0))
    with pytest.raises(JournalCorruptionError):
        SocManager.recover(
            journal,
            build_demo_deployments(num_tenants=TENANTS + 1, kind=KIND),
            metrics=MetricsRegistry(),
            checkpoint_interval_events=1,
            journal_chunk_events=CHUNK_EVENTS,
        )
