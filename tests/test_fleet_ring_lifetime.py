"""Ring-view lifetime: a round's zero-copy columns never outlive its RUN.

A worker decodes each RUN's TRACE_CHUNK payloads into column views
over the shared-memory ring slot, and the coordinator overwrites that
slot with the next round.  Two properties keep that safe:

1. **No stale reads.**  Over rounds whose slot bytes change every
   round, a 2-shard shm fleet's records and tenant checkpoints equal
   a pipe fleet's (whose payloads are private bytes) and a solo
   manager's per shard.
2. **No outstanding exports.**  After each RUN reply, nothing in the
   worker still holds a view into the ring: closing the worker's ring
   takes the clean path, not the one that leaves the mapping to
   process exit.
"""

import functools
import glob
import os

from repro.durability import (
    FileJournal,
    RecordKind,
    decode_json_payload,
    encode_round,
)
from repro.durability.checkpoint import capture_tenant_state
from repro.eval.metrics import demo_events
from repro.eval.report import record_signature
from repro.fleet import (
    FleetConfig,
    FleetCoordinator,
    ShmRing,
    demo_factory,
    messages,
)
from repro.fleet.transport import (
    WIRE_SHM,
    CoordinatorTransport,
    WorkerTransport,
)
from repro.fleet.worker import _serve, build_manager
from repro.obs import MetricsRegistry
from repro.soc.manager import SocManager

KIND = "lstm"
NAMES = [f"tenant{index}" for index in range(4)]
# Round-robin placement puts one CoreSight and one E-Trace tenant on
# each shard, so both the columnar encode and the object view run.
FRONTENDS = {
    "tenant0": "coresight",
    "tenant1": "coresight",
    "tenant2": "etrace",
    "tenant3": "etrace",
}
FACTORY = functools.partial(demo_factory, kind=KIND, frontends=FRONTENDS)
ROUNDS = 4
#: Every round commits a checkpoint, so the journal's last one holds
#: each tenant's state after the last round.
MANAGER_KWARGS = {"checkpoint_interval_events": 1}


def _traces(round_index, names=NAMES):
    # Fresh walks of a new length every round: each RUN overwrites the
    # ring slot with different bytes.
    return {
        name: demo_events(
            KIND,
            0,
            160 + 24 * round_index,
            run_label=f"ring-{name}-r{round_index}",
        )
        for name in names
    }


def _signatures(records):
    return {
        name: [record_signature(record) for record in tenant_records]
        for name, tenant_records in records.items()
    }


def _last_checkpoint_tenants(journal_dir):
    checkpoints = [
        record
        for record in FileJournal(journal_dir).records()
        if record.kind is RecordKind.CHECKPOINT
    ]
    doc = decode_json_payload(checkpoints[-1].payload)
    return {tenant["name"]: tenant for tenant in doc["tenants"]}


def _run_fleet(root, transport):
    config = FleetConfig(
        num_shards=2, transport=transport, start_method="fork"
    )
    with FleetCoordinator(
        FACTORY, NAMES, root, config, manager_kwargs=MANAGER_KWARGS
    ) as fleet:
        assert fleet.transport_names() == {0: transport, 1: transport}
        placement = [list(shard.tenants) for shard in fleet.shards]
        logs = [
            _signatures(fleet.run_events(_traces(round_index)))
            for round_index in range(ROUNDS)
        ]
    tenants = {}
    for journal_dir in sorted(glob.glob(os.path.join(root, "shard-*"))):
        tenants.update(_last_checkpoint_tenants(journal_dir))
    return placement, logs, tenants


def test_shm_fleet_equals_pipe_fleet_and_solo_per_shard(tmp_path):
    placement, shm_logs, shm_tenants = _run_fleet(
        str(tmp_path / "shm"), "shm"
    )
    pipe = _run_fleet(str(tmp_path / "pipe"), "pipe")
    assert (placement, shm_logs, shm_tenants) == pipe
    assert placement == [["tenant0", "tenant2"], ["tenant1", "tenant3"]]
    for names in placement:
        solo = SocManager(FACTORY(names), metrics=MetricsRegistry())
        for round_index, fleet_log in enumerate(shm_logs):
            records = solo.run_events(_traces(round_index, names))
            assert _signatures(records) == {
                name: fleet_log[name] for name in names
            }
        for name in names:
            assert capture_tenant_state(solo.tenant(name)) == (
                shm_tenants[name]
            )


class _ScriptedConn:
    """The coordinator's end of a worker pipe, scripted: hands the
    worker one request at a time and inspects each reply as it is
    sent, while the worker is still inside its serve loop."""

    def __init__(self, requests, on_reply):
        self._requests = iter(requests)
        self._on_reply = on_reply

    def poll(self, timeout=None):
        return True

    def recv(self):
        return next(self._requests)

    def send(self, message):
        self._on_reply(message)


def test_no_ring_view_outlives_its_run(tmp_path):
    names = ["tenant0", "tenant2"]
    manager = build_manager(
        FACTORY, names, str(tmp_path / "wal"), MANAGER_KWARGS
    )
    solo = SocManager(FACTORY(names), metrics=MetricsRegistry())
    coordinator = CoordinatorTransport(ring_bytes=1 << 20)
    worker = WorkerTransport(coordinator.spec)
    chunk_events = FleetConfig().journal_chunk_events
    sent = {}
    clean = []

    def requests():
        for round_index in range(ROUNDS):
            traces = _traces(round_index, names)
            wire = coordinator.stage(
                encode_round(round_index, traces, chunk_events)
            )
            assert wire[0] == WIRE_SHM
            sent["traces"] = traces
            yield (messages.RUN, round_index, wire)
        yield (messages.STOP,)

    def on_reply(message):
        tag, wire = message
        assert tag == messages.OK, wire
        if wire is None:
            return  # the STOP acknowledgement
        reply = coordinator.fetch_reply(wire)
        expected = solo.run_events(sent["traces"])
        assert _signatures(reply["records"]) == _signatures(expected)
        # The worker has replied: the ring must hold no live view.
        clean.append(worker.c2w.close())
        worker.c2w = ShmRing.attach(coordinator.c2w.name)

    try:
        _serve(_ScriptedConn(requests(), on_reply), manager, FACTORY, worker)
    finally:
        worker.close()
        coordinator.close()
    assert clean == [True] * ROUNDS
