"""Coordinator <-> worker bulk-byte transport (docs/FLEET.md §5).

Round dispatches used to cross the coordinator/worker boundary as
pickled TRACE_CHUNK payload lists inside the duplex pipe — one
serialize and several copies per round, a tax that grows linearly with
offered load.  One transport now moves those bytes, as a
:class:`CoordinatorTransport` / :class:`WorkerTransport` pair:

- with rings (``FleetConfig.transport="shm"``), one round's payloads
  are written **once** into a per-shard :class:`ShmRing` (a
  ``multiprocessing.shared_memory`` segment) as a single batched
  journal-format record, and the pipe carries only a tiny slot
  descriptor plus the per-chunk lengths.  The worker validates the
  slot (CRC + sequence — the durability layer's integrity
  vocabulary, torn slots detected exactly like torn WAL records, one
  contiguous CRC pass for the whole round), splits it into zero-copy
  per-chunk views, and maps the columnar TRACE_CHUNK arrays as numpy
  views straight over the ring.  Round replies come back through a
  second ring the same way;
- without rings (``transport="pipe"``, or any fallback below), every
  wire is inline: payloads and replies ride the pipe inside the
  pickled request/reply tuples.

Control messages — PING heartbeats, ROUND, COUNTERS, EVICT/ADOPT,
ARM_KILL, STOP — always stay on the pipe: they are tiny, and the pipe
is the liveness channel the supervisor watches.

Fallback matrix (never drop a round):

- ring creation fails (platform without shm, exhausted ``/dev/shm``)
  → the shard is built without rings;
- the worker cannot attach the rings (stale name after an exec-style
  spawn failure) → it serves without rings and answers the first
  descriptor with a ``transport:`` ERR, which the coordinator converts
  into a permanent per-shard pipe fallback and an immediate re-send
  of the same round;
- a round larger than the ring spills inline onto the pipe whole
  (counted per payload) — backpressure without loss;
- a torn reply slot is treated like a dead shard: restart +
  reconcile, so the round is fetched (never recomputed) — exactly-once
  delivery survives transport corruption.

Every transition is a ``fleet.transport.*`` counter, and staged bytes
obey the conservation law the eval harness asserts::

    fleet.transport.bytes.staged ==
        fleet.transport.bytes.consumed + fleet.transport.bytes.discarded

where ``consumed`` is the byte count the *worker* reports back per
round (an end-to-end receipt, not coordinator bookkeeping) and
``discarded`` covers rounds whose worker died or refused before
consuming them.
"""

from __future__ import annotations

import itertools
import os
import pickle
import struct
import zlib
from typing import Callable, List, Optional, Sequence, Tuple

from repro.durability.journal import (
    read_record_from,
    record_size,
    write_record_into,
)
from repro.errors import JournalCorruptionError, TransportError

#: Registered transport selectors (``FleetConfig.transport``).
TRANSPORT_NAMES = ("pipe", "shm")

#: Ring record kinds (the journal header's ``kind`` byte; values are
#: disjoint from :class:`~repro.durability.journal.RecordKind` so a
#: slot can never be mistaken for an on-disk WAL record).
SLOT_KIND_CHUNK = 0x51
SLOT_KIND_REPLY = 0x52

#: Wire tags inside RUN requests / replies.
WIRE_INLINE = "inline"
WIRE_SHM = "shm"

#: Default per-ring capacity.  One monitoring round's payloads must fit
#: or the whole round spills inline, so size this to the largest round.
DEFAULT_RING_BYTES = 1 << 22

#: ``magic | capacity`` segment header ahead of the data region.
_RING_HEADER = struct.Struct("<8sQ")
_RING_MAGIC = b"RFLTRNG1"

#: Distinguishes segments of fleets sharing one coordinator process.
_RING_SERIAL = itertools.count()


def _attach_untracked(name: str):
    """Attach a segment without registering it for cleanup.

    Python < 3.13 registers *every* attach with the resource tracker
    (there is no ``track=False`` yet), which would unlink the segment
    out from under the coordinator when the first worker exits — and
    the tracker cache is shared across the process tree, so
    unregistering after the fact would strip the owner's registration
    too.  Suppress registration for just this call instead: the
    coordinator owns the lifetime, workers only borrow a mapping.
    """
    from multiprocessing import resource_tracker, shared_memory

    original = resource_tracker.register
    resource_tracker.register = lambda *args, **kwargs: None
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original


class ShmRing:
    """One-slot shared-memory buffer holding a journal-format record.

    Slot layout *is* the WAL record layout::

        [u32 length][u32 crc32][u64 sequence][u8 kind][payload ...]

    so torn-slot detection (CRC over the body, strictly monotonic
    sequence numbers) reuses the durability layer's validators
    verbatim.  The fleet's request/reply protocol is strictly
    alternating (one round in flight per shard), so each direction
    needs exactly one slot, always at offset 0: staging a round
    overwrites the previous one, and the sequence number carried by
    the descriptor is what tells them apart — a stale descriptor can
    never be satisfied by a newer slot.  A record larger than the data
    region is refused (:meth:`try_stage` returns ``None``) and the
    caller spills its payloads inline — backpressure without loss.
    """

    def __init__(self, shm, capacity: int, owner: bool) -> None:
        self._shm = shm
        self.capacity = capacity
        self._owner = owner
        self.data = memoryview(shm.buf)[
            _RING_HEADER.size:_RING_HEADER.size + capacity
        ]
        self.next_sequence = 0
        self._closed = False

    @property
    def name(self) -> str:
        return self._shm.name

    # -- lifecycle ----------------------------------------------------------

    @classmethod
    def create(cls, name: str, capacity: int) -> "ShmRing":
        from multiprocessing import shared_memory

        if capacity < 4096:
            raise TransportError(
                f"ring capacity must be >= 4096 bytes, got {capacity}"
            )
        try:
            shm = shared_memory.SharedMemory(
                name=name, create=True, size=_RING_HEADER.size + capacity
            )
        except Exception as error:
            raise TransportError(
                f"cannot create shared-memory ring {name!r}: "
                f"{type(error).__name__}: {error}"
            ) from error
        _RING_HEADER.pack_into(shm.buf, 0, _RING_MAGIC, capacity)
        ring = cls(shm, capacity, owner=True)
        # Prefault the data region: staging must never eat first-touch
        # page faults on the hot path (~100 us per round otherwise).
        ring.data[:] = bytes(capacity)
        return ring

    @classmethod
    def attach(cls, name: str) -> "ShmRing":
        try:
            shm = _attach_untracked(name)
        except Exception as error:
            raise TransportError(
                f"cannot attach shared-memory ring {name!r}: "
                f"{type(error).__name__}: {error}"
            ) from error
        magic, capacity = _RING_HEADER.unpack_from(shm.buf, 0)
        if magic != _RING_MAGIC:
            shm.close()
            raise TransportError(
                f"segment {name!r} is not a fleet ring (bad magic)"
            )
        return cls(shm, int(capacity), owner=False)

    def close(self) -> bool:
        """Release the mapping; the owner also unlinks the segment.

        Returns False when views into the ring were still alive, so
        the mapping outlives this call (process exit, or the views'
        refcount hitting zero, reclaims it).
        """
        if self._closed:
            return True
        self._closed = True
        released = True
        try:
            self.data.release()
        except BufferError:
            released = False
        try:
            self._shm.close()
        except BufferError:
            released = False
        if self._owner:
            try:
                self._shm.unlink()
            except FileNotFoundError:
                pass
        return released

    # -- producer -----------------------------------------------------------

    def try_stage(
        self, kind: int, payload, payload_crc: Optional[int] = None
    ) -> Optional[int]:
        """Write one record at offset 0; returns its sequence or ``None``.

        ``payload`` is one buffer or a list of buffers written
        back-to-back as a single record (one header, one CRC pass for
        a whole round's chunks).  ``None`` means the record does not
        fit the data region; the caller spills the payloads inline
        instead of losing them.

        Slot CRCs use the payload-first composition so payloads tagged
        once (:func:`chain_crc`, e.g. at TRACE_CHUNK assembly) cost
        only a 9-byte hash to stage.
        """
        parts = (
            payload if isinstance(payload, (list, tuple)) else (payload,)
        )
        if record_size(sum(len(part) for part in parts)) > self.capacity:
            return None
        if payload_crc is None:
            # Readers always validate the payload-first composition,
            # so untagged payloads are chained here, not in the writer.
            payload_crc = chain_crc(parts)
        sequence = self.next_sequence
        write_record_into(self.data, 0, sequence, kind, parts, payload_crc)
        self.next_sequence += 1
        return sequence

    # -- consumer -----------------------------------------------------------

    def read(
        self,
        sequence: int,
        kind: int,
        payload_crc: Optional[int] = None,
        length: Optional[int] = None,
    ):
        """Validate the slot and return its payload view.

        Zero-copy: the returned memoryview aliases the ring.  A torn
        slot — truncated header, CRC mismatch, stale sequence — raises
        :class:`TransportError` (wrapping the journal's corruption
        taxonomy) rather than returning bytes that cannot be trusted.

        When the descriptor carried the writer's payload tag
        (``payload_crc``), verification is tiered: the stored header
        CRC is checked against ``crc32(prefix, payload_crc)``, and the
        stored ``length`` — the one header field outside CRC coverage
        — against the descriptor's ``length``, so every header tear is
        caught without re-hashing the payload.  That is sufficient in
        the live protocol: a slot is only ever read after its
        descriptor arrived through the pipe, the write completed
        before the descriptor was sent (the pipe syscall is the
        barrier), sequence numbers are strictly monotonic, and rings
        are fresh per worker generation — so a torn payload under an
        intact, in-sequence header is not observable.  Without a tag
        the whole body is hashed, exactly like a WAL segment scan.
        """
        try:
            got_sequence, got_kind, payload, _ = read_record_from(
                self.data,
                0,
                expected_sequence=sequence,
                payload_first_crc=True,
                payload_crc=payload_crc,
                expected_payload_length=length,
            )
        except JournalCorruptionError as error:
            raise TransportError(
                f"torn ring slot (seq {sequence}): {error}"
            ) from error
        if got_kind != kind:
            raise TransportError(
                f"ring slot has kind {got_kind:#x}, expected {kind:#x}"
            )
        return payload


def chain_crc(parts: Sequence) -> int:
    """``zlib.crc32`` chained across ``parts`` in order — the CRC of
    their concatenation, which is what a batched slot's body holds."""
    crc = 0
    for part in parts:
        crc = zlib.crc32(part, crc)
    return crc


def _open_pair(open_ring: Callable[[str], ShmRing], names: Sequence[str]):
    """Open the ``(c2w, w2c)`` ring pair, leaking neither on failure."""
    c2w = open_ring(names[0])
    try:
        return c2w, open_ring(names[1])
    except TransportError:
        c2w.close()
        raise


def _mapped(ring: Optional[ShmRing]) -> ShmRing:
    """The ring a descriptor points into; refuse when there is none."""
    if ring is None:
        raise TransportError("no ring attached for a shm descriptor")
    return ring


class CoordinatorTransport:
    """Coordinator half: one round's payloads out, its reply back.

    ``ring_bytes`` sizes the per-direction rings (``c2w`` for
    dispatches, ``w2c`` for replies); ``None`` builds the ring-less
    transport, on which every wire is inline.  Creation failure raises
    :class:`TransportError` with nothing left allocated.  ``spec`` is
    the picklable ring-name pair (or ``None``) handed to
    ``worker_main`` so the child can build its matching half.
    """

    def __init__(self, ring_bytes: Optional[int] = None) -> None:
        self.c2w = self.w2c = None
        if ring_bytes is not None:
            label = f"rfleet-{os.getpid()}-{next(_RING_SERIAL)}"
            self.c2w, self.w2c = _open_pair(
                lambda name: ShmRing.create(name, ring_bytes),
                (f"{label}-c2w", f"{label}-w2c"),
            )
        self.name = "pipe" if self.c2w is None else "shm"
        self.spec = (
            None if self.c2w is None else (self.c2w.name, self.w2c.name)
        )

    def stage(
        self,
        payloads: Sequence[bytes],
        crc: Optional[int] = None,
    ):
        """Turn one round's payloads into the RUN wire object.

        With rings, the chunks are copied back-to-back into a single
        ring record and the wire carries ``(tag, sequence, lengths,
        crc)`` — one header write, one contiguous CRC pass on the
        worker, and the per-chunk split costs only zero-copy view
        slicing.  A round that does not fit the ring spills inline
        whole.  ``crc`` is an optional pre-computed :func:`chain_crc`
        tag over the payloads — computed once at dispatch assembly and
        reused across retries, so staging hashes only the slot prefix.
        """
        payloads = list(payloads)
        if self.c2w is None or not payloads:
            return (WIRE_INLINE, payloads)
        if crc is None:
            crc = chain_crc(payloads)
        sequence = self.c2w.try_stage(SLOT_KIND_CHUNK, payloads, crc)
        if sequence is None:
            return (WIRE_INLINE, payloads)
        # The payload tag rides the descriptor over the reliable pipe,
        # so the worker verifies the slot header against it instead of
        # re-hashing the payload bytes (see :meth:`ShmRing.read`).
        return (
            WIRE_SHM,
            sequence,
            [len(payload) for payload in payloads],
            crc,
        )

    def fetch_reply(self, wire):
        """Turn the OK reply's wire object back into the reply dict."""
        if wire[0] == WIRE_INLINE:
            return wire[1]
        _, sequence, length, payload_crc = wire
        view = _mapped(self.w2c).read(
            sequence, SLOT_KIND_REPLY, payload_crc=payload_crc, length=length
        )
        try:
            return pickle.loads(view)
        finally:
            view.release()

    def close(self) -> None:
        if self.c2w is not None:
            self.c2w.close()
            self.w2c.close()


class WorkerTransport:
    """Worker half: ``fetch`` maps a RUN wire object to payload
    buffers (bytes or zero-copy ring views), ``stage_reply`` turns the
    reply dict into the wire object sent back with OK.

    ``spec`` is the coordinator half's :attr:`CoordinatorTransport.spec`.
    Attach failure degrades to the ring-less transport instead of
    killing the worker: the first descriptor it cannot map draws a
    ``transport:`` ERR, and the coordinator falls back shard-wide.
    """

    def __init__(self, spec: Optional[Tuple[str, str]] = None) -> None:
        self.c2w = self.w2c = None
        if spec is not None:
            try:
                self.c2w, self.w2c = _open_pair(ShmRing.attach, spec)
            except TransportError:
                pass

    def fetch(self, wire) -> List:
        if wire[0] == WIRE_INLINE:
            return list(wire[1])
        _, sequence, lengths, payload_crc = wire
        view = _mapped(self.c2w).read(
            sequence,
            SLOT_KIND_CHUNK,
            payload_crc=payload_crc,
            length=sum(lengths),
        )
        buffers: List = []
        start = 0
        for length in lengths:
            buffers.append(view[start:start + length])
            start += length
        return buffers

    def stage_reply(self, reply, request_tag: str):
        """Mirror the request's channel: a round that arrived inline is
        answered inline even when a reply ring exists, so a coordinator
        that fell back to the pipe mid-life never receives a
        descriptor it can no longer map."""
        if request_tag == WIRE_INLINE:
            return (WIRE_INLINE, reply)
        payload = pickle.dumps(reply, pickle.HIGHEST_PROTOCOL)
        payload_crc = zlib.crc32(payload)
        sequence = self.w2c.try_stage(SLOT_KIND_REPLY, payload, payload_crc)
        if sequence is None:
            return (WIRE_INLINE, reply)
        return (WIRE_SHM, sequence, len(payload), payload_crc)

    def close(self) -> None:
        if self.c2w is not None:
            self.c2w.close()
            self.w2c.close()
