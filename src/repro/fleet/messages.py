"""Coordinator <-> worker message vocabulary (repro.fleet).

Each worker shard is driven over one duplex :mod:`multiprocessing`
pipe.  Requests are small picklable tuples ``(verb, *args)``; replies
are ``(OK, payload)`` or ``(ERR, message)``.  Round inputs do not ride
as pickled event lists — they are encoded with the durability layer's
columnar TRACE_CHUNK codec (:func:`repro.durability.journal.
encode_trace_chunk`), the exact bytes the worker's own write-ahead
journal stores, so the wire format and the replay format can never
drift apart.

How those chunk payloads cross the process boundary is the transport
layer's business (:mod:`repro.fleet.transport`): a RUN request carries
``(RUN, round_index, wire)`` where ``wire`` is either ``("inline",
[payload, ...])`` (payloads pickled into the pipe) or ``("shm",
sequence, [chunk lengths], crc)`` (a shared-memory slot descriptor,
payload bytes never pickled).  Replies are shaped the same way.  :func:`decode_round` accepts any buffers the
chunk codec accepts — bytes or zero-copy memoryviews over a ring.

The vocabulary is deliberately tiny and synchronous (one request, one
reply) — supervision lives entirely in the coordinator, and a worker
that dies mid-request is detected by EOF/timeout on the pipe, not by a
protocol state machine.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence, Tuple

from repro.durability.journal import (
    decode_trace_chunk,
    encode_trace_chunk,
)
from repro.errors import FleetError
from repro.workloads.cfg import BranchEvent

# -- request verbs (coordinator -> worker) ---------------------------------

#: One monitoring round: ``(RUN, round_index, [chunk_bytes, ...])``.
RUN = "run"
#: Liveness probe: ``(PING, token)`` -> ``(OK, token)``.
PING = "ping"
#: Current tenant health: ``-> (OK, {tenant: health_value})``.
HEALTH = "health"
#: Manager-level counter snapshot: ``-> (OK, {name: value})``.
COUNTERS = "counters"
#: Round cursor: ``-> (OK, next_round)`` (first round not committed).
ROUND = "round"
#: Lifetime records past a cursor: ``(RECORDS_AFTER, {tenant: count})``
#: -> ``(OK, {tenant: [records]})`` — the post-commit-pre-reply crash
#: reconciliation path.
RECORDS_AFTER = "records_after"
#: Migration out: ``(EVICT, [names])`` -> ``(OK, [tenant docs])``.
EVICT = "evict"
#: Migration in: ``(ADOPT, [names], [tenant docs])`` -> ``(OK, None)``.
ADOPT = "adopt"
#: Deterministic chaos: ``(ARM_KILL, site, index)`` — SIGKILL self at
#: the ``index``-th visit of WAL crash site ``site``.
ARM_KILL = "arm_kill"
#: Clean shutdown: ``-> (OK, None)``, then the worker exits.
STOP = "stop"

# -- reply tags (worker -> coordinator) ------------------------------------

OK = "ok"
ERR = "err"

#: Marker prefix on ERR messages caused by the bulk transport (torn
#: ring slot, unmappable descriptor).  The coordinator treats these as
#: "fall back to the pipe transport and re-send the round", not as a
#: refused request.
TRANSPORT_ERR = "transport: "


def encode_round(
    round_index: int,
    traces: Mapping[str, Sequence[BranchEvent]],
    chunk_events: int = 8192,
) -> List[bytes]:
    """One round's traces as TRACE_CHUNK payloads, in tenant order."""
    if chunk_events < 1:
        raise FleetError("chunk_events must be >= 1")
    payloads: List[bytes] = []
    for name, events in traces.items():
        if not len(events):
            continue
        for chunk_index, start in enumerate(
            range(0, len(events), chunk_events)
        ):
            payloads.append(
                encode_trace_chunk(
                    name,
                    round_index,
                    chunk_index,
                    events[start : start + chunk_events],
                )
            )
    return payloads


def decode_round(
    round_index: int, payloads: Sequence
) -> Dict[str, Tuple[BranchEvent, ...]]:
    """Reassemble a round's per-tenant traces from chunk payloads.

    ``payloads`` may be ``bytes`` or any buffer-protocol objects
    (e.g. memoryviews over a shared-memory ring) — the chunk codec
    maps columns with ``np.frombuffer`` either way, so the shm path
    materialises events without an intermediate copy.
    """
    pending: Dict[str, List[BranchEvent]] = {}
    for payload in payloads:
        chunk = decode_trace_chunk(payload)
        if chunk.round_index != round_index:
            raise FleetError(
                f"chunk for round {chunk.round_index} in a round-"
                f"{round_index} dispatch"
            )
        pending.setdefault(chunk.tenant, []).extend(chunk.events)
    return {
        name: tuple(events) for name, events in pending.items()
    }
