"""Property tests: checkpoint capture/restore is a lossless snapshot.

The durability layer (crash recovery) and the fleet (tenant migration
handoff) both lean on :mod:`repro.durability.checkpoint` documents
being *complete*: a manager restored from a captured document must be
behaviourally indistinguishable from the original — the very next
round's verdicts byte-identical — for **arbitrary** tenant mixes and
health states, not just the happy paths the example tests pin.

Hypothesis drives the topology (tenant count, rounds of history) and
the health mix (HEALTHY / DEGRADED mid-probation / QUARANTINED) and
the properties assert:

1. full-checkpoint round trip: a fresh manager restored from the
   document produces byte-identical records and health on the next
   round;
2. per-tenant round trip (the migration handoff unit): a tenant's
   document restored into a runtime on a *different* manager yields
   byte-identical next-round records for that tenant;
3. mismatched restores are refused as corruption, never absorbed.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.durability.checkpoint import (
    capture_checkpoint,
    capture_tenant_state,
    restore_checkpoint,
    restore_tenant_state,
)
from repro.errors import JournalCorruptionError
from repro.eval.metrics import build_demo_deployments, demo_events
from repro.eval.report import record_signature
from repro.fleet import demo_factory
from repro.obs import MetricsRegistry
from repro.soc.manager import SocManager, TenantHealth

KIND = "lstm"
EVENTS = 120  # small rounds: each example builds + runs two managers

HEALTH_CHOICES = ("healthy", "degraded", "quarantined")


@st.composite
def scenarios(draw):
    num_tenants = draw(st.integers(2, 4))
    rounds = draw(st.integers(1, 2))
    mix = draw(
        st.lists(
            st.sampled_from(HEALTH_CHOICES),
            min_size=num_tenants,
            max_size=num_tenants,
        )
    )
    return num_tenants, rounds, mix


def _traces(num_tenants, round_index):
    return {
        f"tenant{i}": demo_events(
            KIND, 0, EVENTS, run_label=f"ckpt-t{i}-r{round_index}"
        )
        for i in range(num_tenants)
    }


def _manager(num_tenants):
    return SocManager(
        build_demo_deployments(num_tenants=num_tenants, kind=KIND),
        metrics=MetricsRegistry(),
    )


def _apply_mix(manager, mix):
    """Force the drawn health states at a round boundary."""
    for runtime, state in zip(manager.tenants, mix):
        if state == "quarantined":
            manager._quarantine(runtime)
        elif state == "degraded":
            runtime.health = TenantHealth.DEGRADED
            runtime._bad_rounds = 1
            runtime.crashes = 1


def _log(records):
    return {
        name: [record_signature(r) for r in tenant_records]
        for name, tenant_records in records.items()
    }


class TestFullCheckpointRoundTrip:
    @given(scenario=scenarios())
    @settings(max_examples=20, deadline=None)
    def test_restored_manager_is_byte_identical(self, scenario):
        num_tenants, rounds, mix = scenario
        original = _manager(num_tenants)
        for r in range(rounds):
            original.run_events(_traces(num_tenants, r))
        _apply_mix(original, mix)

        document = capture_checkpoint(original)
        restored = _manager(num_tenants)
        restore_checkpoint(restored, document)

        assert restored.next_round == original.next_round
        assert restored.health() == original.health()
        # The next round — quarantine skips, probation clocks, record
        # numbering, carry state — must evolve identically.
        traces = _traces(num_tenants, rounds)
        assert _log(restored.run_events(traces)) == _log(
            original.run_events(traces)
        )
        assert restored.health() == original.health()

    @given(scenario=scenarios())
    @settings(max_examples=10, deadline=None)
    def test_document_survives_json(self, scenario):
        # The checkpoint rides in one JSON journal record; every drawn
        # state must survive a JSON round trip unchanged.
        import json

        num_tenants, rounds, mix = scenario
        manager = _manager(num_tenants)
        for r in range(rounds):
            manager.run_events(_traces(num_tenants, r))
        _apply_mix(manager, mix)
        document = capture_checkpoint(manager)
        restored = _manager(num_tenants)
        restore_checkpoint(restored, json.loads(json.dumps(document)))
        traces = _traces(num_tenants, rounds)
        assert _log(restored.run_events(traces)) == _log(
            manager.run_events(traces)
        )


class TestTenantHandoff:
    """The per-tenant document is the fleet's migration unit."""

    @given(
        scenario=scenarios(), tenant_index=st.integers(0, 3)
    )
    @settings(max_examples=15, deadline=None)
    def test_tenant_document_round_trips_across_managers(
        self, scenario, tenant_index
    ):
        num_tenants, rounds, mix = scenario
        tenant_index %= num_tenants
        name = f"tenant{tenant_index}"
        original = _manager(num_tenants)
        for r in range(rounds):
            original.run_events(_traces(num_tenants, r))
        _apply_mix(original, mix)

        # Adopt the captured tenant on a fresh single-tenant manager,
        # the way a sibling shard does after an eviction.
        document = capture_tenant_state(original.tenant(name))
        adopter = SocManager(
            demo_factory([name], kind=KIND),
            metrics=MetricsRegistry(),
        )
        restore_tenant_state(adopter.tenant(name), document)

        # Feed only this tenant on both sides: its records (numbering,
        # scores, verdicts, timestamps) must continue identically.
        trace = demo_events(
            KIND, 0, EVENTS, run_label=f"ckpt-handoff-{name}"
        )
        assert _log(adopter.run_events({name: trace}))[name] == _log(
            original.run_events({name: trace})
        )[name]
        assert (
            adopter.tenant(name).health is original.tenant(name).health
        )


class TestMismatchRefused:
    def test_tenant_name_mismatch_is_corruption(self):
        manager = _manager(2)
        document = capture_tenant_state(manager.tenant("tenant0"))
        with pytest.raises(JournalCorruptionError):
            restore_tenant_state(manager.tenant("tenant1"), document)

    def test_topology_mismatch_is_corruption(self):
        manager = _manager(2)
        document = capture_checkpoint(manager)
        with pytest.raises(JournalCorruptionError):
            restore_checkpoint(_manager(3), document)

    def test_version_mismatch_is_corruption(self):
        manager = _manager(2)
        document = dict(capture_checkpoint(manager), version=99)
        with pytest.raises(JournalCorruptionError):
            restore_checkpoint(_manager(2), document)
