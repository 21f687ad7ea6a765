"""One fleet shard: a :class:`SocManager` in its own process.

``worker_main`` is the child-process entry point.  It builds the
shard's deployments with the (picklable) factory the coordinator
supplied, opens the shard's own write-ahead journal directory, and —
this is the crash-recovery contract — *recovers* instead of starting
fresh whenever that journal already has records: the checkpoint is
restored, committed rounds are replayed, and an uncommitted tail is
discarded so the coordinator can re-feed it.  After that it serves the
tiny request/reply vocabulary of :mod:`repro.fleet.messages` until
STOP (or until a deterministically armed ``SIGKILL`` takes it down
mid-round, which is the point of the chaos experiments).  A RUN
round runs under the fleet's round number, and the shard journals the
TRACE_CHUNK payloads it received as they are; nothing is re-encoded.

The worker appends a fresh checkpoint after recovery and after any
topology change (EVICT/ADOPT): recovery work stays bounded across
repeated crashes, and a journal never replays into a tenant set it
does not describe.  That checkpoint carries the last committed round,
so a worker that dies again before the coordinator fetched the round
still answers ROUND with it.
"""

from __future__ import annotations

import time
import traceback
from typing import Callable, List, Optional, Sequence, Tuple

from repro.durability.journal import FileJournal, decode_round
from repro.errors import TransportError
from repro.faults.crashpoints import SigkillInjector
from repro.fleet import messages
from repro.fleet.transport import WorkerTransport
from repro.obs import MetricsRegistry
from repro.soc.manager import Deployment, SocManager


def build_manager(
    factory: Callable[..., List[Deployment]],
    tenant_names: Sequence[str],
    journal_dir: str,
    manager_kwargs: Optional[dict] = None,
) -> SocManager:
    """Construct (or recover) one shard's manager around its journal."""
    kwargs = dict(manager_kwargs or {})
    metrics = MetricsRegistry()
    deployments = factory(list(tenant_names))
    journal = FileJournal(journal_dir)
    if journal.records():
        manager = SocManager.recover(
            journal, deployments, metrics=metrics, **kwargs
        )
        # Checkpoint the recovered state so the *next* crash replays
        # from here, not from the previous lineage's checkpoint.
        manager.checkpoint()
    else:
        manager = SocManager(
            deployments, metrics=metrics, journal=journal, **kwargs
        )
    return manager


def worker_main(
    conn,
    shard_id: int,
    factory: Callable[..., List[Deployment]],
    tenant_names: Sequence[str],
    journal_dir: str,
    manager_kwargs: Optional[dict] = None,
    transport_spec: Optional[Tuple[str, str]] = None,
) -> None:
    """Child-process entry: serve requests until STOP or death."""
    manager = build_manager(
        factory, tenant_names, journal_dir, manager_kwargs
    )
    transport = WorkerTransport(transport_spec)
    try:
        _serve(conn, manager, factory, transport)
    finally:
        transport.close()


def _health(manager: SocManager) -> dict:
    return {name: health.value for name, health in manager.health().items()}


def _serve(conn, manager: SocManager, factory, transport) -> None:
    while True:
        try:
            # Block in poll (not recv) so the recv below times only
            # the drain of an already-arrived request, never the wait
            # for one — and time it with the thread CPU clock, so a
            # scheduler preemption mid-drain (routine on
            # core-constrained hosts) is not billed to the transport.
            conn.poll(None)
            recv_started_ns = time.thread_time_ns()
            request = conn.recv()
            recv_ns = time.thread_time_ns() - recv_started_ns
        except (EOFError, OSError):
            return  # coordinator went away; nothing left to serve
        verb, args = request[0], request[1:]
        try:
            if verb == messages.RUN:
                round_index, wire = args
                try:
                    fetch_started_ns = time.thread_time_ns()
                    buffers = transport.fetch(wire)
                    fetch_ns = time.thread_time_ns() - fetch_started_ns
                except TransportError as error:
                    # Torn slot or unmappable descriptor: nothing was
                    # run, the round is intact on the coordinator.
                    # Signal it to fall back to the pipe and re-send.
                    conn.send(
                        (messages.ERR, messages.TRANSPORT_ERR + str(error))
                    )
                    continue
                consumed = sum(len(buffer) for buffer in buffers)
                started_ns = time.perf_counter_ns()
                # The fleet's round number and the received chunks
                # themselves: the shard journals them verbatim, and the
                # traces are zero-copy column views over them.
                try:
                    traces = decode_round(round_index, buffers)
                    records = manager.run_events(
                        traces, round_index, buffers
                    )
                finally:
                    # Drop every ring view before the slot recycles.
                    traces = buffers = None
                reply = {
                    "records": records,
                    "health": _health(manager),
                    # End-to-end transport receipt + the compute share
                    # of the coordinator's wall clock (decode + run),
                    # so transport time = wall - compute on both paths;
                    # recv_ns/fetch_ns are the worker's shares of the
                    # coordinator->worker byte path (post-poll drain +
                    # payload materialisation), measured on the thread
                    # CPU clock: no idle waiting, no preempting
                    # neighbour's slice, and no cross-process clock
                    # comparison for the coordinator's sum.
                    "consumed_bytes": consumed,
                    "compute_ns": time.perf_counter_ns() - started_ns,
                    "recv_ns": recv_ns,
                    "fetch_ns": fetch_ns,
                }
                conn.send(
                    (messages.OK, transport.stage_reply(reply, wire[0]))
                )
            elif verb == messages.PING:
                conn.send((messages.OK, args[0]))
            elif verb == messages.COUNTERS:
                snapshot = manager.metrics.snapshot()
                conn.send((messages.OK, dict(snapshot["counters"])))
            elif verb == messages.ROUND:
                reply = {
                    "next_round": manager.next_round,
                    "last_round": manager.last_round,
                    "records": manager.last_records,
                    "health": _health(manager),
                }
                conn.send((messages.OK, reply))
            elif verb == messages.EVICT:
                from repro.durability.checkpoint import (
                    capture_tenant_state,
                )

                names = args[0]
                docs = [
                    capture_tenant_state(manager.tenant(name))
                    for name in names
                ]
                for name in names:
                    manager.remove_tenant(name)
                manager.checkpoint()
                conn.send((messages.OK, docs))
            elif verb == messages.ADOPT:
                from repro.durability.checkpoint import (
                    restore_tenant_state,
                )

                names, docs = args
                gpu = manager.tenants[0].deployment.driver.gpu
                deployments = factory(list(names), gpu=gpu)
                for deployment, doc in zip(deployments, docs):
                    runtime = manager.admit_tenant(deployment)
                    restore_tenant_state(runtime, doc)
                manager.checkpoint()
                conn.send((messages.OK, None))
            elif verb == messages.ARM_KILL:
                site, index = args
                manager._crash_points = SigkillInjector(
                    kill_at=index, site_filter=site
                )
                conn.send((messages.OK, None))
            elif verb == messages.STOP:
                conn.send((messages.OK, None))
                return
            else:
                conn.send((messages.ERR, f"unknown verb {verb!r}"))
        except Exception:
            # Report and keep serving: a refused request (unknown
            # tenant, bad chunk) must not look like a dead shard.
            conn.send((messages.ERR, traceback.format_exc()))
