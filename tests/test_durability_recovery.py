"""SocManager durability: journaled rounds, checkpoints, recovery.

Small-scale (two tenants, a few hundred events) counterparts of the
``python -m repro.eval recovery`` harness, plus the membership and
health-state contracts that the harness does not cover: readmitting a
removed tenant yields a cleanly reset session, and recovery preserves
a quarantined tenant's quarantine (including its probation progress).
"""

import pytest

from repro.durability import (
    FileJournal,
    MemoryJournal,
    RecordKind,
    capture_checkpoint,
    encode_round,
)
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


def _log(records):
    """One round's returned records, serialized."""
    return {
        name: [record_signature(r) for r in tenant_records]
        for name, tenant_records in records.items()
    }


def _baseline_log(rounds):
    manager = _manager()
    return [_log(manager.run_events(_traces(r))) for r in range(rounds)]


def test_journaling_is_invisible():
    journal = MemoryJournal()
    journaled = _manager(journal=journal)
    delivered = []
    for r in range(2):
        records = journaled.run_events(_traces(r))
        assert any(records.values())  # the round actually inferred
        delivered.append(_log(records))
    assert delivered == _baseline_log(2)
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
    delivered = [_log(victim.run_events(_traces(0)))]
    with pytest.raises(ProcessCrashError):
        victim.run_events(_traces(1))

    recovered = _recover(journal)
    assert recovered.next_round == 1
    assert recovered.metrics.counter("socmgr.recoveries").value == 1
    assert (
        recovered.metrics.counter("socmgr.rounds_replayed").value == 1
    )
    delivered.append(_log(recovered.run_events(_traces(1))))
    assert delivered == _baseline_log(2)


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
    baseline_log = [_log(baseline.run_events(_traces(r))) for r in range(2)]
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
    delivered = [_log(victim.run_events(_traces(0)))]
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
    delivered.append(_log(recovered.run_events(_traces(1))))
    assert delivered == baseline_log


def test_recovery_from_checkpoint_skips_replayed_segments():
    journal = MemoryJournal()
    # Checkpoint after every committed round (interval below one
    # round's event count), so recovery restores state instead of
    # replaying from round zero.
    manager = _manager(journal=journal, checkpoint_interval_events=1)
    delivered = [_log(manager.run_events(_traces(r))) for r in range(2)]
    kinds = [record.kind for record in journal.records()]
    assert kinds.count(RecordKind.CHECKPOINT) == 2

    recovered = _recover(journal, checkpoint_interval_events=1)
    assert recovered.next_round == 2
    # Nothing after the newest checkpoint: pure restore, no replay.
    assert (
        recovered.metrics.counter("socmgr.rounds_replayed").value == 0
    )
    delivered.append(_log(recovered.run_events(_traces(2))))
    assert delivered == _baseline_log(3)


def test_remove_then_admit_same_deployment_resets_session():
    manager = _manager()
    # A twin manager whose tenant1 idles through round 0 — the state a
    # *cleanly reset* readmitted tenant must be indistinguishable from.
    twin = _manager()
    round0 = _traces(0)
    assert manager.run_events(round0)["tenant1"]
    twin.run_events({"tenant0": round0["tenant0"]})

    deployment = manager.remove_tenant("tenant1")
    assert [r.name for r in manager.tenants] == ["tenant0"]
    runtime = manager.admit_tenant(deployment)
    assert runtime.health is TenantHealth.HEALTHY
    assert runtime.crashes == 0
    assert runtime.mcm.records == []

    round1 = _traces(1)
    records = manager.run_events(round1)
    assert _log(records)["tenant1"] == _log(twin.run_events(round1))[
        "tenant1"
    ]
    # The readmitted lane restarts its record numbering from zero.
    assert records["tenant1"][0].sequence_number == 0


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
        assert _log(recovered.run_events(traces)) == _log(
            manager.run_events(traces)
        )
        assert recovered.health() == manager.health()
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


def test_round_handed_its_encoded_payloads_journals_the_same_records():
    # A fleet shard hands run_events the chunks it received (here as
    # memoryviews, like a shared-memory ring slot); the journal must
    # hold exactly what encoding the round itself would have written.
    traces = _traces(0)
    plain_journal, handed_journal = MemoryJournal(), MemoryJournal()
    plain = _manager(journal=plain_journal)
    handed = _manager(journal=handed_journal)
    plain_records = plain.run_events(traces)
    payloads = [
        memoryview(payload)
        for payload in encode_round(0, traces, CHUNK_EVENTS)
    ]
    handed_records = handed.run_events(traces, 0, payloads)
    assert [(r.kind, r.payload) for r in handed_journal.records()] == [
        (r.kind, r.payload) for r in plain_journal.records()
    ]
    assert {
        name: [record_signature(r) for r in records]
        for name, records in handed_records.items()
    } == {
        name: [record_signature(r) for r in records]
        for name, records in plain_records.items()
    }


def test_payloads_that_do_not_match_the_round_are_refused():
    traces = _traces(0)
    journal = MemoryJournal()
    manager = _manager(journal=journal)
    payloads = encode_round(0, traces, CHUNK_EVENTS)
    with pytest.raises(SocConfigError):
        manager.run_events(traces, 0, payloads[:-1])
    assert journal.records() == []


@pytest.mark.parametrize("interval", [None, 1], ids=["replay", "restore"])
def test_skipped_round_numbers_recover_like_an_uninterrupted_run(interval):
    journal = MemoryJournal()
    manager = _manager(journal=journal, checkpoint_interval_events=interval)
    for r in (0, 2, 5):
        manager.run_events(_traces(r), r)
    assert manager.next_round == 6

    recovered = _recover(journal, checkpoint_interval_events=interval)
    assert recovered.next_round == 6
    assert _log(recovered.last_records) == _log(manager.last_records)

    def state(soc):
        # The manager-level registry differs by the recovery counters.
        return {
            key: value
            for key, value in capture_checkpoint(soc).items()
            if key != "metrics"
        }

    assert state(recovered) == state(manager)
    assert _log(recovered.run_events(_traces(7), 7)) == _log(
        manager.run_events(_traces(7), 7)
    )


def test_lower_round_index_is_refused():
    journal = MemoryJournal()
    manager = _manager(journal=journal)
    manager.run_events(_traces(3), 3)
    journaled = len(journal.records())
    for behind in (2, 3):
        with pytest.raises(SocConfigError):
            manager.run_events(_traces(behind), behind)
    assert len(journal.records()) == journaled
    assert manager.next_round == 4


def test_record_state_is_bounded_by_one_round(tmp_path):
    # A round returns its records and nothing keeps them: after 1,000
    # rounds the lane holds only the last round's records and
    # interrupts, and the checkpoint is no larger than after 10.
    import json

    from repro.durability import capture_checkpoint

    manager = SocManager(
        build_demo_deployments(num_tenants=1, kind=KIND),
        metrics=MetricsRegistry(),
        journal=FileJournal(str(tmp_path)),
    )
    # A walk whose round raises an interrupt, so both lists are held.
    trace = {"tenant0": demo_events(KIND, 0, 300, run_label="bounded-2")}
    sizes = {}
    for r in range(1, 1001):
        records = manager.run_events(trace)["tenant0"]
        if r in (10, 1000):
            sizes[r] = len(json.dumps(capture_checkpoint(manager)))
    lane = manager.tenant("tenant0").mcm
    assert records and lane.records is records
    anomalous = [r.sequence_number for r in records if r.anomalous]
    assert anomalous  # the round raised interrupts
    assert [i.sequence_number for i in lane.interrupts.fired] == anomalous
    assert sizes[1000] <= 1.1 * sizes[10]


def test_a_round_committed_before_a_double_fault_is_read_from_the_checkpoint(
    tmp_path,
):
    # Killed at round 1's commit, recovered and checkpointed (as a
    # restarted fleet worker does), then killed again before anyone
    # fetched round 1: the second recovery still answers with round
    # 1's records, from the checkpoint alone.
    baseline = _manager()
    expected = [_log(baseline.run_events(_traces(r))) for r in range(3)]

    counting = CrashPointInjector(kill_at=None)
    _manager(journal=MemoryJournal(), crash_points=counting).run_events(
        _traces(0)
    )
    round_sites = counting.sites_reached  # the commit is the last one
    injector = CrashPointInjector(kill_at=2 * round_sites - 1)
    directory = str(tmp_path)
    victim = _manager(journal=FileJournal(directory), crash_points=injector)
    victim.run_events(_traces(0))
    with pytest.raises(ProcessCrashError):
        victim.run_events(_traces(1))
    assert injector.fired_site == "wal.commit"

    _recover(FileJournal(directory)).checkpoint()
    journal = FileJournal(directory)
    # Nothing after the checkpoint: the second recovery replays nothing.
    assert journal.records()[-1].kind is RecordKind.CHECKPOINT
    recovered = _recover(journal)
    assert recovered.next_round == 2
    assert recovered.last_round == 1
    assert _log(recovered.last_records) == expected[1]
    assert _log(recovered.run_events(_traces(2))) == expected[2]
