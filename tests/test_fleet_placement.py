"""Load-aware tenant placement and serve sticky routing.

The placer's contract: when ``rebalance_ratio`` is set, a sustained
makespan imbalance moves HEALTHY tenants from the hottest to the
coldest shard at round boundaries — through the same checkpoint
handoff crash migration uses, so verdicts stay bit-identical to a
static placement — while hysteresis keeps balanced fleets still and
quarantined tenants stay pinned.  Every move bumps
``placement_epoch``, and the serve front door swaps its sticky
tenant -> shard routing table atomically at its next drain boundary.
"""

import asyncio
import functools
import tempfile

import pytest

from repro.eval.metrics import demo_events
from repro.eval.report import verdict_flags
from repro.faults import FaultKind, FaultPlan, FaultSpec
from repro.fleet import FleetConfig, FleetCoordinator, demo_factory
from repro.obs import MetricsRegistry
from repro.serve import IngestServer, ServeClient, ServeConfig
from repro.soc.manager import SocManager, TenantHealth

KIND = "lstm"
NAMES = [f"tenant{i}" for i in range(4)]
EVENTS = 300

#: Aggressive hysteresis so a four-round test leg can observe a move.
REBALANCE = dict(
    rebalance_ratio=1.2,
    rebalance_warmup_rounds=1,
    rebalance_cooldown_rounds=1,
)


def _traces(round_index, heavy=None, factor=4):
    return {
        name: demo_events(
            KIND,
            0,
            EVENTS * (factor if name == heavy else 1),
            run_label=f"place-{name}-r{round_index}",
        )
        for name in NAMES
    }


def _fleet(root, factory=demo_factory, **overrides):
    return FleetCoordinator(
        factory,
        NAMES,
        root,
        FleetConfig(num_shards=2, **overrides),
    )


@pytest.fixture
def make_fleet(tmp_path):
    """Fleet builder whose journals live under this test's ``tmp_path``."""

    def build(*args, **kwargs):
        return _fleet(tempfile.mkdtemp(dir=tmp_path), *args, **kwargs)

    return build


class TestLoadAwarePlacer:
    def test_imbalanced_load_rebalances_and_flags_match_reference(
        self, make_fleet
    ):
        # tenant0 carries 4x the events: its shard's makespan EWMA
        # pulls ahead, the placer moves a co-tenant off the hot shard,
        # and the verdicts still match a solo all-tenants manager.
        rounds = [_traces(r, heavy="tenant0") for r in range(4)]
        solo = SocManager(
            demo_factory(NAMES, kind=KIND), metrics=MetricsRegistry()
        )
        references = [solo.run_events(traces) for traces in rounds]
        with make_fleet(**REBALANCE) as fleet:
            before = fleet.routing_table()
            logs = [fleet.run_events(traces) for traces in rounds]
            counts = dict(fleet.counts)
            after = fleet.routing_table()
            epoch = fleet.placement_epoch
        assert counts["fleet.placement.rebalances"] >= 1
        assert counts["fleet.placement.tenants_moved"] >= 1
        assert after != before
        assert epoch == counts["fleet.placement.epoch"] > 0
        for log, reference in zip(logs, references):
            for name in NAMES:
                assert verdict_flags(log[name]) == verdict_flags(
                    reference[name]
                )

    def test_balanced_load_holds_still(self, make_fleet):
        with make_fleet(**REBALANCE) as fleet:
            before = fleet.routing_table()
            for round_index in range(4):
                fleet.run_events(_traces(round_index))
            counts = dict(fleet.counts)
            assert fleet.routing_table() == before
            assert fleet.placement_epoch == 0
        assert counts["fleet.placement.rounds"] == 4
        assert counts["fleet.placement.rebalances"] == 0
        assert counts["fleet.placement.skipped"] >= 3

    def test_static_placement_by_default(self, make_fleet):
        # rebalance_ratio=None (the default) disables the placer
        # entirely — imbalance or not, placement never changes.
        with make_fleet() as fleet:
            before = fleet.routing_table()
            for round_index in range(2):
                fleet.run_events(_traces(round_index, heavy="tenant0"))
            counts = dict(fleet.counts)
            assert fleet.routing_table() == before
        assert counts["fleet.placement.rounds"] == 0
        assert counts["fleet.placement.rebalances"] == 0

    def test_quarantined_tenants_are_not_rebalanced(self, make_fleet):
        # tenant2 crashes in round 0 and is QUARANTINED.  The placer
        # may still level load by moving HEALTHY tenants around it,
        # but the sick tenant itself stays pinned to its shard — a
        # quarantined tenant is never spread for load reasons.
        crash = FaultPlan(
            seed=0,
            specs=(FaultSpec(FaultKind.TENANT_CRASH, rate=1.0),),
        )
        factory = functools.partial(
            demo_factory, fault_plans={"tenant2": crash}
        )
        with make_fleet(factory, **REBALANCE) as fleet:
            assert fleet.shards[0].tenants == ["tenant0", "tenant2"]
            home = fleet.routing_table()["tenant2"]
            for round_index in range(4):
                fleet.run_events(_traces(round_index, heavy="tenant0"))
                assert fleet.routing_table()["tenant2"] == home
            assert (
                fleet.health()["tenant2"] is TenantHealth.QUARANTINED
            )


class TestServeStickyRouting:
    def test_routes_follow_placement_epoch(self, make_fleet):
        async def scenario():
            fleet = make_fleet(**REBALANCE)
            server = IngestServer(fleet, ServeConfig())
            try:
                stats = server.stats()
                assert stats["routes"] == fleet.routing_table()
                assert stats["route_epoch"] == 0
                updates0 = server.counts["serve.route.updates"]
                # Tenants move at a round boundary behind the server's
                # back...
                for round_index in range(4):
                    fleet.run_events(
                        _traces(round_index, heavy="tenant0")
                    )
                assert fleet.placement_epoch > 0
                # ...and the front door swaps its sticky table in one
                # atomic step at its next drain boundary.
                client = ServeClient.local(server)
                await client.hello("tenant1")
                await client.send_events(demo_events(KIND, 0, 40))
                server.drain_once()
                stats = server.stats()
                await client.bye()
                await server.stop()
                return (
                    stats,
                    fleet.routing_table(),
                    fleet.placement_epoch,
                    updates0,
                )
            finally:
                fleet.close()

        stats, table, epoch, updates0 = asyncio.run(scenario())
        assert stats["routes"] == table
        assert stats["route_epoch"] == epoch
        assert stats["serve.route.updates"] == updates0 + 1
