"""Coordinator <-> worker message vocabulary (repro.fleet).

Each worker shard is driven over one duplex :mod:`multiprocessing`
pipe.  Requests are small picklable tuples ``(verb, *args)``; replies
are ``(OK, payload)`` or ``(ERR, message)``.

A RUN request carries ``(RUN, round_index, wire)``.  ``round_index``
is the fleet's round number, and the shard runs the round under it.
The round's inputs are the journal's own TRACE_CHUNK payloads
(:func:`repro.durability.journal.encode_round`, chunked every
``FleetConfig.journal_chunk_events`` events): the worker decodes them
to run the round and appends the very same buffers to its
write-ahead journal, so the wire and the WAL hold one encoding.

How those payloads cross the process boundary is the transport
layer's business (:mod:`repro.fleet.transport`): ``wire`` is either
``("inline", [payload, ...])`` (payloads pickled into the pipe) or
``("shm", sequence, [chunk lengths], crc)`` (a shared-memory slot
descriptor, payload bytes never pickled).  Replies are shaped the
same way.

The vocabulary is deliberately tiny and synchronous (one request, one
reply) — supervision lives entirely in the coordinator, and a worker
that dies mid-request is detected by EOF/timeout on the pipe, not by a
protocol state machine.
"""

from __future__ import annotations

# -- request verbs (coordinator -> worker) ---------------------------------

#: One monitoring round: ``(RUN, round_index, wire)``.
RUN = "run"
#: Liveness probe: ``(PING, token)`` -> ``(OK, token)``.
PING = "ping"
#: Manager-level counter snapshot: ``-> (OK, {name: value})``.
COUNTERS = "counters"
#: The shard's last round: ``-> (OK, {"next_round", "last_round",
#: "records", "health"})`` — one past its last committed round and
#: that round's index (fleet numbering), the records that round
#: returned (``{tenant: [records]}``) and the current tenant health
#: (``{tenant: health_value}``).  Reconciliation after a crash between
#: commit and reply reads the round from here.
ROUND = "round"
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

