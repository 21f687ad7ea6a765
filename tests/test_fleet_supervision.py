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

from repro.errors import Backoff, FleetError
from repro.eval.metrics import demo_events
from repro.eval.report import record_signature, verdict_flags
from repro.faults import FaultKind, FaultPlan, FaultSpec
from repro.faults.service import crash_fraction
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


def _fleet(root, factory=demo_factory, config=CONFIG):
    return FleetCoordinator(
        factory,
        _names(),
        root,
        config,
    )


@pytest.fixture
def make_fleet(tmp_path):
    """Fleet builder whose journals live under this test's ``tmp_path``."""

    def build(*args, **kwargs):
        return _fleet(tempfile.mkdtemp(dir=tmp_path), *args, **kwargs)

    return build


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
        self, start_method, make_fleet
    ):
        rounds = [_traces(r) for r in range(3)]
        with make_fleet(config=_config(start_method=start_method)) as fleet:
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


class TestReconcileReadsTheLastRound:
    def test_a_last_round_other_than_the_one_in_flight_is_refused(
        self, make_fleet
    ):
        with make_fleet() as fleet:
            fleet.run_events(_traces(0))
            fleet.run_events(_traces(1))
            # The shard is past round 0, but its last round is round 1,
            # whose records must not be delivered as round 0's.
            with pytest.raises(FleetError, match="last round is 1"):
                fleet._reconcile(fleet.shards[0], 0, [], None)
            assert fleet.counts["fleet.rounds.reconciled"] == 0


class TestCrashLoopMigration:
    def test_repeated_kills_migrate_healthy_tenants(self, make_fleet):
        rounds = [_traces(r) for r in range(2)]
        solo = SocManager(
            demo_factory(_names(), kind=KIND), metrics=MetricsRegistry()
        )
        references = [solo.run_events(traces) for traces in rounds]
        with make_fleet() as fleet:
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

    def test_quarantined_tenants_stay_pinned(self, make_fleet):
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
        with make_fleet(factory) as fleet:
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


class TestIdleShardKeepsTheFleetRoundIndex:
    """A shard without traffic skips a round; the next round it runs
    still carries the fleet's round number, in its journal and in its
    round-keyed fault plans."""

    @staticmethod
    def _rounds():
        # Round 0 reaches shard 0 only (tenant0, tenant2); round 1
        # reaches every shard.
        first = _traces(0)
        return [
            {name: first[name] for name in ("tenant0", "tenant2")},
            _traces(1),
        ]

    def test_commit_kill_after_an_idle_round_is_reconciled(
        self, make_fleet
    ):
        rounds = self._rounds()
        with make_fleet() as fleet:
            placement = [list(shard.tenants) for shard in fleet.shards]
            assert placement[1] == ["tenant1", "tenant3"]
            logs = [fleet.run_events(rounds[0])]
            # Shard 1 commits fleet round 1 and dies before replying:
            # the recovered shard is past round 1, so the coordinator
            # must fetch the records, not run the round again.
            fleet.arm_kill(1, "wal.commit")
            logs.append(fleet.run_events(rounds[1]))
            counts = dict(fleet.counts)
            counters = fleet.counters()
        assert counts["fleet.restarts"] == 1
        assert counts["fleet.rounds.reconciled"] == 1
        assert counts["fleet.rounds.refed"] == 0
        _assert_conservation(counters)
        for tenant_subset in placement:
            solo = SocManager(
                demo_factory(tenant_subset, kind=KIND),
                metrics=MetricsRegistry(),
            )
            for traces, log in zip(rounds, logs):
                part = {
                    name: traces[name]
                    for name in tenant_subset
                    if name in traces
                }
                if not part:
                    continue  # the idle shard ran nothing either
                reference = solo.run_events(part)
                for name in part:
                    assert [
                        record_signature(r) for r in log[name]
                    ] == [
                        record_signature(r) for r in reference[name]
                    ]

    def test_round_keyed_tenant_crash_fires_on_the_fleet_round(
        self, make_fleet
    ):
        crash = FaultPlan(
            seed=15,
            specs=(FaultSpec(FaultKind.TENANT_CRASH, rate=0.5),),
        )
        # This seed crashes the tenant in round 1 and not in round 0.
        assert crash_fraction(crash, 0) is None
        assert crash_fraction(crash, 1) is not None
        plans = {"tenant1": crash}
        rounds = self._rounds()
        solo = SocManager(
            demo_factory(_names(), kind=KIND, fault_plans=plans),
            metrics=MetricsRegistry(),
        )
        references = [solo.run_events(traces) for traces in rounds]
        factory = functools.partial(demo_factory, fault_plans=plans)
        with make_fleet(factory) as fleet:
            logs = [fleet.run_events(traces) for traces in rounds]
            health = fleet.health()
        assert health == solo.health()
        assert health["tenant1"] is TenantHealth.QUARANTINED
        for log, reference in zip(logs, references):
            for name, records in reference.items():
                assert verdict_flags(log.get(name, [])) == verdict_flags(
                    records
                )

    def test_probation_counts_the_rounds_a_shard_idled(self, make_fleet):
        # tenant1 crashes in round 1 and is quarantined for two rounds.
        # Round 2 reaches shard 0 only, so tenant1's shard idles
        # through it; probation still counts it, as the solo manager
        # does, and tenant1 is readmitted in round 4 in both.
        crash = FaultPlan(
            seed=15,
            specs=(FaultSpec(FaultKind.TENANT_CRASH, rate=0.5),),
        )
        plans = {"tenant1": crash}
        shard0_only = ("tenant0", "tenant2")
        rounds = [_traces(r) for r in range(5)]
        rounds[2] = {name: rounds[2][name] for name in shard0_only}
        solo = SocManager(
            demo_factory(_names(), kind=KIND, fault_plans=plans),
            metrics=MetricsRegistry(),
        )
        factory = functools.partial(demo_factory, fault_plans=plans)
        with make_fleet(factory) as fleet:
            assert fleet.shard_of("tenant1").tenants == ["tenant1", "tenant3"]
            for round_index, traces in enumerate(rounds):
                reference = solo.run_events(traces)
                log = fleet.run_events(traces)
                assert fleet.health() == solo.health(), round_index
                for name, records in reference.items():
                    got = log.get(name, [])
                    assert len(got) == len(records), (round_index, name)
                    assert verdict_flags(got) == verdict_flags(records)
        assert solo.health()["tenant1"] is TenantHealth.DEGRADED
        assert reference["tenant1"]
