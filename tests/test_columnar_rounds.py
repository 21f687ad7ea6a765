"""A columnar round never builds its object view.

A round travels as an :class:`~repro.eventbatch.EventBatch` of numpy
columns from the decoder to the last dataplane stage.  On the
fault-free batched path no stage walks events one by one, so
``EventBatch.events`` (the per-event object view) must never be built:
not by a solo :class:`~repro.soc.manager.SocManager` under either
grammar, and not by fleet workers hosting a CoreSight and an E-Trace
tenant over shared-memory rings.  The tests patch the cached property
so that building it fails, and check the verdicts against the same
rounds run from objects.
"""

import functools

import pytest

from repro.eval.metrics import build_demo_manager, demo_events
from repro.eval.report import record_signature, verdict_flags
from repro.eventbatch import EventBatch
from repro.fleet import FleetConfig, FleetCoordinator, demo_factory

FRONTENDS = {"tenant0": "coresight", "tenant1": "etrace"}
ROUNDS = 3
EVENTS = 600


class _NoObjectView:
    """``EventBatch.events`` that returns a view a caller handed in
    (``from_events``) but refuses to build one from the columns."""

    def __get__(self, batch, owner=None):
        if batch is None:
            return self
        try:
            return batch.__dict__["events"]
        except KeyError:
            raise AssertionError(
                "a columnar round built its object view"
            ) from None

    def __set__(self, batch, events):
        batch.__dict__["events"] = events


def _rounds(names):
    return [
        {
            name: demo_events("lstm", 0, EVENTS, run_label=f"{name}-r{index}")
            for name in names
        }
        for index in range(ROUNDS)
    ]


def _columns(events):
    full = EventBatch.from_events(events)
    return EventBatch(
        full.cycle, full.source, full.target, full.kind, full.taken
    )


def _run(manager, rounds, identity, columnar):
    """Per round, per tenant: ``identity`` of the round's records."""
    return [
        {
            name: identity(records)
            for name, records in manager.run_events(
                {
                    name: _columns(events) if columnar else events
                    for name, events in traces.items()
                }
            ).items()
        }
        for traces in rounds
    ]


def _signatures(records):
    return [record_signature(record) for record in records]


@pytest.mark.parametrize("frontend", ["coresight", "etrace"])
def test_solo_rounds_stay_columnar(frontend, monkeypatch):
    rounds = _rounds(["tenant0", "tenant1"])
    frontends = {"tenant0": frontend, "tenant1": frontend}
    reference = _run(
        build_demo_manager(2, frontends=frontends),
        rounds,
        _signatures,
        columnar=False,
    )
    manager = build_demo_manager(2, frontends=frontends)
    monkeypatch.setattr(EventBatch, "events", _NoObjectView())
    got = _run(manager, rounds, _signatures, columnar=True)
    assert got == reference
    assert any(records for by_name in got for records in by_name.values())


def test_fleet_rounds_stay_columnar(tmp_path, monkeypatch):
    rounds = _rounds(list(FRONTENDS))
    # A shard's private engine numbers and times its dispatches apart
    # from a shared one: compare verdicts, as the fleet tests do.
    reference = _run(
        build_demo_manager(2, frontends=FRONTENDS),
        rounds,
        verdict_flags,
        columnar=False,
    )
    # Patched before the fork, so both workers inherit it.
    monkeypatch.setattr(EventBatch, "events", _NoObjectView())
    factory = functools.partial(demo_factory, frontends=FRONTENDS)
    with FleetCoordinator(
        factory,
        list(FRONTENDS),
        str(tmp_path),
        FleetConfig(num_shards=2, transport="shm", start_method="fork"),
        tenant_frontends=FRONTENDS,
    ) as fleet:
        got = _run(fleet, rounds, verdict_flags, columnar=True)
        assert fleet.transport_names() == {0: "shm", 1: "shm"}
        assert all(row["restarts"] == 0 for row in fleet.liveness())
    assert got == reference
    assert any(flags for by_name in got for flags in by_name.values())
