"""Fleet supervision: crash recovery, restart pacing, migration.

The supervisor's promises, exercised with real worker deaths (a
deterministically armed ``SIGKILL`` mid-round, and external ``kill
-9`` between rounds):

- an admitted round is never lost: the restarted worker recovers its
  journal and the coordinator re-feeds (or reconciles) the in-flight
  round, with records byte-identical to a fault-free solo manager of
  the same topology;
- a crash-looping shard has its HEALTHY tenants migrated to siblings
  at a round boundary — leaving at least one tenant behind — while
  QUARANTINED tenants stay pinned to the sick shard;
- every supervision event lands in the ``fleet.*`` counters and the
  conservation law survives kills, restarts, and migrations.
"""

import functools
import os
import signal
import tempfile

import pytest

from repro.errors import Backoff
from repro.eval.metrics import demo_events
from repro.eval.report import record_signature, verdict_flags
from repro.faults import FaultKind, FaultPlan, FaultSpec
from repro.fleet import FleetConfig, FleetCoordinator, demo_factory
from repro.obs import MetricsRegistry
from repro.soc.manager import SocManager, TenantHealth

KIND = "lstm"
TENANTS = 4
EVENTS = 200
KILL_SITE = "wal.chunk.done"  # inputs journaled, round uncommitted

#: Fast supervision config for tests: restart almost immediately.
def _config(**overrides):
    return FleetConfig(
        num_shards=2,
        max_restarts=1,
        backoff=Backoff(base_s=0.01, cap_s=0.05, label="test.restart"),
        **overrides,
    )


CONFIG = _config()


def _names():
    return [f"tenant{i}" for i in range(TENANTS)]


def _traces(round_index):
    return {
        name: demo_events(
            KIND, 0, EVENTS, run_label=f"sup-{name}-r{round_index}"
        )
        for name in _names()
    }


def _fleet(factory=demo_factory, config=CONFIG):
    return FleetCoordinator(
        factory,
        _names(),
        tempfile.mkdtemp(prefix="repro-fleet-sup-"),
        config,
    )


def _kill_worker(shard):
    """kill -9 the worker and wait until it is really gone."""
    os.kill(shard.pid, signal.SIGKILL)
    shard.process.join(timeout=10.0)
    assert not shard.alive


def _assert_conservation(counters):
    fresh = sum(
        value
        for name, value in counters.items()
        if name.startswith("fleet.shard.") and name.endswith(".rounds")
    )
    assert counters["fleet.rounds.admitted"] == (
        fresh + counters["fleet.rounds.replayed"]
    )


class TestMidRoundKill:
    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_armed_sigkill_recovers_without_losing_the_round(
        self, start_method
    ):
        rounds = [_traces(r) for r in range(3)]
        with _fleet(config=_config(start_method=start_method)) as fleet:
            placement = {
                shard.id: list(shard.tenants) for shard in fleet.shards
            }
            logs = [fleet.run_events(rounds[0])]
            # Die at the first WAL chunk boundary of the next dispatch:
            # round 1's inputs are journaled but the round is not
            # committed, so the coordinator must re-feed it.
            fleet.arm_kill(0, KILL_SITE)
            logs.append(fleet.run_events(rounds[1]))
            logs.append(fleet.run_events(rounds[2]))
            counts = dict(fleet.counts)
            counters = fleet.counters()
            stats = fleet.transport_stats()

        assert counts["fleet.restarts"] == 1
        assert counts["fleet.rounds.refed"] == 1
        assert counts["fleet.rounds.reconciled"] == 0
        assert counts["fleet.rounds.admitted"] == 6  # 3 rounds x 2
        assert counters["fleet.rounds.replayed"] >= 1  # WAL replay ran
        _assert_conservation(counters)

        # The kill landed with a shm slot in flight: its staged bytes
        # are discarded (never double-consumed), the restarted worker
        # gets a fresh ring pair, and the byte ledger still balances.
        assert stats["fleet.transport.bytes.discarded"] > 0
        assert stats["fleet.transport.shm.reinits"] >= 1
        assert stats["fleet.transport.bytes.staged"] == (
            stats["fleet.transport.bytes.consumed"]
            + stats["fleet.transport.bytes.discarded"]
        )

        # Zero lost rounds, byte-identical to a fault-free solo manager
        # of the same topology — killed shard's tenants included.
        for tenant_subset in placement.values():
            solo = SocManager(
                demo_factory(tenant_subset, kind=KIND),
                metrics=MetricsRegistry(),
            )
            for traces, log in zip(rounds, logs):
                reference = solo.run_events(
                    {name: traces[name] for name in tenant_subset}
                )
                for name in tenant_subset:
                    assert [
                        record_signature(r) for r in log[name]
                    ] == [
                        record_signature(r) for r in reference[name]
                    ]


class TestCrashLoopMigration:
    def test_repeated_kills_migrate_healthy_tenants(self):
        rounds = [_traces(r) for r in range(2)]
        solo = SocManager(
            demo_factory(_names(), kind=KIND), metrics=MetricsRegistry()
        )
        references = [solo.run_events(traces) for traces in rounds]
        with _fleet() as fleet:
            shard0, shard1 = fleet.shards
            logs = [fleet.run_events(rounds[0])]
            # Two consecutive heartbeat deaths exhaust max_restarts=1;
            # the second miss triggers migration off the sick shard.
            for expected_restarts in (1, 2):
                _kill_worker(shard0)
                assert not fleet.heartbeat()
                assert shard0.total_restarts == expected_restarts
            counts = dict(fleet.counts)
            assert counts["fleet.heartbeat.misses"] == 2
            assert counts["fleet.migrations"] == 1
            # All of shard0 was healthy: one tenant is left behind so
            # the shard is never emptied, the other moves to a sibling.
            assert counts["fleet.tenants.migrated"] == 1
            assert shard0.tenants == ["tenant0"]
            assert sorted(shard1.tenants) == [
                "tenant1", "tenant2", "tenant3",
            ]
            assert fleet.shard_of("tenant2") is shard1
            # Consecutive-restart pressure resets after migration.
            assert shard0.restarts == 0
            # The fleet keeps serving everyone after the handoff, and
            # verdict flags still match the solo reference (the moved
            # tenant's state travelled in its checkpoint document).
            logs.append(fleet.run_events(rounds[1]))
            liveness = {
                row["shard"]: row for row in fleet.liveness()
            }
            counters = fleet.counters()
        for log, reference in zip(logs, references):
            for name in _names():
                assert verdict_flags(log[name]) == verdict_flags(
                    reference[name]
                )
        assert liveness[0]["restarts"] == 2
        assert liveness[0]["alive"] and liveness[1]["alive"]
        assert liveness[1]["tenants"] == shard1.tenants
        _assert_conservation(counters)

    def test_quarantined_tenants_stay_pinned(self):
        # tenant0 crashes in round 0 and is quarantined; when its
        # shard later crash-loops, only the HEALTHY co-tenant moves —
        # a sick tenant is not spread to healthy shards.
        crash = FaultPlan(
            seed=0,
            specs=(FaultSpec(FaultKind.TENANT_CRASH, rate=1.0),),
        )
        factory = functools.partial(
            demo_factory, fault_plans={"tenant0": crash}
        )
        with _fleet(factory) as fleet:
            shard0, shard1 = fleet.shards
            assert shard0.tenants == ["tenant0", "tenant2"]
            fleet.run_events(_traces(0))
            assert fleet.health()["tenant0"] is TenantHealth.QUARANTINED
            for _ in range(2):
                _kill_worker(shard0)
                fleet.heartbeat(shard0)
            counts = dict(fleet.counts)
            placement0 = list(shard0.tenants)
            placement1 = sorted(shard1.tenants)
            health = fleet.health()
        assert counts["fleet.migrations"] == 1
        assert counts["fleet.tenants.migrated"] == 1
        # The quarantined tenant is pinned; the healthy one moved with
        # no leave-one-behind trim (the pinned tenant anchors the
        # shard).
        assert placement0 == ["tenant0"]
        assert placement1 == ["tenant1", "tenant2", "tenant3"]
        assert health["tenant0"] is TenantHealth.QUARANTINED
