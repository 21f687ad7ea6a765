"""Concrete trace-path stages, batched.

Each stage reproduces one segment of the per-event reference loop in
:meth:`repro.soc.loop.LoopDataplane.run` — packet encoding, link
framing, PTM-FIFO batching, address map + vector encode, and vector
delivery — but operates on numpy arrays over whole chunks of events.

**Exactness contract.**  Every byte count, simulated timestamp, and
observability counter matches the reference loop bit-for-bit.  The
vectorised encoders (:class:`PtmEncodeStage` for CoreSight,
:class:`EtraceEncodeStage` for E-Trace) model the stream at the
*byte-accounting* level: per-packet lengths (compressed branch
addresses, atom packets and branch maps, sync bursts) are computed
with array arithmetic, and the data-dependent sync placement is
resolved by :func:`_place_syncs` with a binary-search loop over the
cumulative byte counts — one Python iteration per sync instead of one
per branch.  For the one CoreSight configuration the PTM stage does
not model (waypoint mode) the frontend builds a
:class:`ByteCountEncodeStage` over a real
:class:`~repro.coresight.ptm.Ptm` instead.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.coresight.ptm import PtmConfig
from repro.errors import PacketEncodeError, SocConfigError
from repro.eventbatch import EventBatch
from repro.frontends.etrace.encoder import EtraceConfig
from repro.frontends.etrace.packets import (
    ALIGN_PREAMBLE,
    MAX_MAP_BRANCHES,
    SUPPORT_PAYLOAD,
    SYNC_START_PAYLOAD,
    encode_address,
    encode_sync_start,
)
from repro.igm.address_mapper import AddressMapper
from repro.igm.vector_encoder import EncoderMode, InputVector, VectorEncoder
from repro.obs import MetricsRegistry
from repro.pipeline.batch import FifoFlush, TraceBatch
from repro.pipeline.stage import StageBase
from repro.soc.clocks import CPU_CLOCK, RTAD_CLOCK, ClockDomain

#: Branch-address diff thresholds: a diff below ``_DIFF_BOUNDS[k]``
#: fits in ``k + 1`` packet bytes (6 + 7 + 7 + 7 + 3 address bits).
_DIFF_BOUNDS = np.array(
    [1 << 6, 1 << 13, 1 << 20, 1 << 27], dtype=np.int64
)

#: a-sync (6) + i-sync (6) + context-ID (5) burst bytes.
_SYNC_BURST_BYTES = 17
#: Timestamp packet appended to the burst when enabled.
_TIMESTAMP_BYTES = 9

#: LEB128 group thresholds: a value below ``_VARINT_BOUNDS[k]`` fits in
#: ``k + 1`` bytes.
_VARINT_BOUNDS = np.array(
    [1 << 7, 1 << 14, 1 << 21, 1 << 28], dtype=np.int64
)
#: E-Trace mid-run sync: align preamble + sync-start packet.
_ETRACE_SYNC_BYTES = len(ALIGN_PREAMBLE) + 1 + SYNC_START_PAYLOAD
#: E-Trace start burst: a sync plus the support packet.
_ETRACE_START_BYTES = _ETRACE_SYNC_BYTES + 1 + SUPPORT_PAYLOAD
#: A full branch map: header byte + ``MAX_MAP_BRANCHES`` outcome bits.
_FULL_MAP_BYTES = 1 + (MAX_MAP_BRANCHES + 7) // 8


def _sync_burst_bytes(config: PtmConfig) -> int:
    return _SYNC_BURST_BYTES + (
        _TIMESTAMP_BYTES if config.timestamps_enabled else 0
    )


def _run_lengths(is_map: np.ndarray, carried: int) -> np.ndarray:
    """Outcome bits pending at each event of a batch.

    A map-only event reports the run it extends (itself included); an
    address event reports the run it flushes.  ``carried`` outcomes
    were pending before the batch and join the first run.
    """
    cum = np.cumsum(is_map, dtype=np.int64)
    marks = np.where(is_map, 0, cum)
    run = cum - np.concatenate(([0], np.maximum.accumulate(marks)[:-1]))
    first_address = len(is_map) if is_map.all() else int(np.argmin(is_map))
    run[: first_address + 1] += carried
    return run


def _place_syncs(
    cum: np.ndarray,
    addr_events: np.ndarray,
    addr_bytes: np.ndarray,
    relength: Callable[[int, int], int],
    since_sync: int,
    start_bytes: Optional[int],
    sync_bytes: int,
    interval: int,
) -> Tuple[List[int], Dict[int, int], int]:
    """Place one batch's data-dependent syncs (both encode stages).

    Both grammars check ``bytes_since_sync >= interval`` after each
    event's packets and, when it holds, append a ``sync_bytes`` burst
    that restarts address compression from that event's source.
    ``cum`` is the cumulative per-event byte count without syncs, and
    ``addr_events``/``addr_bytes`` are the address packets' events and
    compressed lengths.  Inside a sync-to-sync run those counts hold,
    except that the first address packet after a sync restarts from
    the sync address — a patch of one element, whose new length is
    ``relength(k, j)`` for address packet ``k`` after a sync at event
    ``j``.  Each run boundary is found with searchsorted over ``cum``.
    ``start_bytes`` is the start burst ahead of event 0 when the
    encoder has not started yet (``None`` once it has).

    Returns the mid-run sync events, the length deltas of the patched
    address packets by position, and the bytes since the last sync at
    the end of the batch.
    """
    n = len(cum)
    syncs: List[int] = []
    committed: Dict[int, int] = {}
    pend_pos, pend_delta, pend_event = -1, 0, n
    s = since_sync
    p = 0
    if start_bytes is not None:
        if len(addr_events):
            pend_pos = 0
            pend_delta = relength(0, 0) - int(addr_bytes[0])
            pend_event = int(addr_events[0])
        s = start_bytes
    while True:
        c0 = int(cum[p - 1]) if p > 0 else 0
        j = -1
        hi = min(pend_event, n)
        if p < hi:
            jj = int(
                np.searchsorted(cum[p:hi], interval - s + c0, side="left")
            ) + p
            if jj < hi:
                j = jj
        if j < 0 and pend_event < n:
            lo = max(p, pend_event)
            jj = int(
                np.searchsorted(
                    cum[lo:], interval - s + c0 - pend_delta, side="left"
                )
            ) + lo
            if jj < n:
                j = jj
        if j < 0:
            break
        if pend_pos >= 0 and pend_event <= j and pend_delta:
            # The patched packet is behind the new sync: it was really
            # encoded with the patched length.
            committed[pend_pos] = pend_delta
        # A pending patch *ahead* of the sync is superseded: that
        # packet restarts from the newer sync's address instead.
        syncs.append(j)
        k = int(np.searchsorted(addr_events, j, side="right"))
        if k < len(addr_events):
            pend_pos = k
            pend_delta = relength(k, j) - int(addr_bytes[k])
            pend_event = int(addr_events[k])
        else:
            pend_pos, pend_delta, pend_event = -1, 0, n
        s = sync_bytes
        p = j + 1
    if pend_pos >= 0 and pend_event < n and pend_delta:
        committed[pend_pos] = pend_delta
    c0 = int(cum[p - 1]) if p > 0 else 0
    since_sync = (
        s + int(cum[-1]) - c0 + (pend_delta if pend_event < n else 0)
    )
    return syncs, committed, since_sync


class PtmEncodeStage(StageBase):
    """Branch events -> per-event PTM byte counts (batched).

    Carries the encoder context across batches: compression base
    address, pending atom count, bytes-since-sync, and the started
    flag — exactly the state a :class:`Ptm` holds.  Only configs
    :meth:`models` accepts are allowed.
    """

    name = "ptm"

    def __init__(
        self,
        config: Optional[PtmConfig] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        super().__init__(metrics=metrics)
        self.config = config or PtmConfig()
        if not self.models(self.config):
            raise SocConfigError(
                "the vectorised PTM stage needs branch broadcast"
            )
        self._sync_len = _sync_burst_bytes(self.config)
        self.reset()
        self._m_events = self.metrics.counter("ptm.events")
        self._m_bytes = self.metrics.counter("ptm.bytes")
        self._m_sync_bytes = self.metrics.counter("ptm.sync_bytes")
        self._m_packets = {
            kind: self.metrics.counter(f"ptm.packets.{kind}")
            for kind in (
                "async", "isync", "context", "timestamp", "atom", "branch",
            )
        }

    def reset(self) -> None:
        self._started = False
        self._last_address = 0
        self._pending_atoms = 0
        self._bytes_since_sync = 0

    @staticmethod
    def models(config: PtmConfig) -> bool:
        """Whether this stage models ``config``: branch-broadcast
        encoding, at any sync interval."""
        return config.branch_broadcast

    def export_state(self) -> dict:
        return {
            "started": self._started,
            "last_address": self._last_address,
            "pending_atoms": self._pending_atoms,
            "bytes_since_sync": self._bytes_since_sync,
        }

    def restore_state(self, state: dict) -> None:
        self._started = state["started"]
        self._last_address = state["last_address"]
        self._pending_atoms = state["pending_atoms"]
        self._bytes_since_sync = state["bytes_since_sync"]

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------

    @staticmethod
    def _packet_len(target: int, previous: int, syscall: bool) -> int:
        """Byte length of one branch-address packet (reference math)."""
        if syscall:
            return 6  # full 5 address bytes + exception info byte
        diff = (target >> 2) ^ ((previous >> 2) & 0x3FFFFFFF)
        for count, bound in enumerate(_DIFF_BOUNDS, start=1):
            if diff < bound:
                return count
        return 5

    # ------------------------------------------------------------------
    # Processing
    # ------------------------------------------------------------------

    def process(self, batch: TraceBatch) -> TraceBatch:
        self._account_batch(batch)
        if batch.tail:
            return self._process_tail(batch)
        if len(batch) == 0:
            batch.ptm_bytes = np.zeros(0, dtype=np.int64)
            return batch
        return self._process_fast(batch)

    def _process_tail(self, batch: TraceBatch) -> TraceBatch:
        if self._pending_atoms > 0:
            batch.tail_ptm_bytes = 1
            self._pending_atoms = 0
            self._bytes_since_sync += 1
            self._m_bytes.inc(1)
            self._m_packets["atom"].inc()
        return batch

    def _process_fast(self, batch: TraceBatch) -> TraceBatch:
        ev = batch.events
        assert ev is not None
        is_atom = ev.atom
        is_branch = ~is_atom
        bidx = np.nonzero(is_branch)[0]
        if len(bidx):
            btargets = ev.target[bidx]
            if np.any((btargets & 0x3) != 0):
                raise PacketEncodeError("branch address not word aligned")
            if np.any((btargets < 0) | (btargets > 0xFFFFFFFF)):
                raise PacketEncodeError("branch address out of range")

        # --- atom packets -------------------------------------------------
        # Atoms accumulate per run (between taken branches); a packet
        # closes at every 4th atom, and a branch flushes the remainder.
        run_count = _run_lengths(is_atom, self._pending_atoms)
        atom_emit = is_atom & (run_count % 4 == 0)
        branch_flush = is_branch & (run_count % 4 != 0)

        nb = atom_emit.astype(np.int64)

        # --- branch-address packet lengths --------------------------------
        nbytes = np.zeros(0, dtype=np.int64)
        if len(bidx):
            word = ev.target[bidx] >> 2
            prev_word = np.empty_like(word)
            prev_word[0] = (self._last_address >> 2) & 0x3FFFFFFF
            prev_word[1:] = word[:-1]
            diff = word ^ prev_word
            nbytes = (
                np.searchsorted(_DIFF_BOUNDS, diff, side="right").astype(
                    np.int64
                )
                + 1
            )
            nbytes[ev.syscall[bidx]] = 6
            nb[bidx] = branch_flush[bidx].astype(np.int64) + nbytes

        # --- data-dependent sync placement --------------------------------
        def relength(k: int, j: int) -> int:
            b = int(bidx[k])
            return self._packet_len(
                int(ev.target[b]), int(ev.source[j]) & ~0x3,
                bool(ev.syscall[b]),
            )

        sync_len = self._sync_len
        initial_sync = not self._started
        syncs, committed, self._bytes_since_sync = _place_syncs(
            np.cumsum(nb),
            bidx,
            nbytes,
            relength,
            self._bytes_since_sync,
            sync_len if initial_sync else None,
            sync_len,
            self.config.sync_interval_bytes,
        )
        self._started = True

        # --- finalize per-event byte counts -------------------------------
        for pos, delta in committed.items():
            nb[bidx[pos]] += delta
        if initial_sync:
            nb[0] += sync_len
        nb[np.asarray(syncs, dtype=np.int64)] += sync_len

        # --- carry state ---------------------------------------------------
        self._pending_atoms = int(run_count[-1]) % 4 if is_atom[-1] else 0
        lb = int(bidx[-1]) if len(bidx) else -1
        # Mid-run syncs reset the compression base *after* the event's
        # own packet; the initial burst precedes the first packet.
        ls = syncs[-1] if syncs else -1
        if ls >= 0 and ls >= lb:
            self._last_address = int(ev.source[ls]) & ~0x3
        elif lb >= 0:
            self._last_address = int(ev.target[lb])
        elif initial_sync:
            self._last_address = int(ev.source[0]) & ~0x3

        # --- observability -------------------------------------------------
        num_syncs = len(syncs) + initial_sync
        self._m_events.inc(len(ev))
        self._m_bytes.inc(int(nb.sum()))
        self._m_sync_bytes.inc(sync_len * num_syncs)
        self._m_packets["branch"].inc(int(len(bidx)))
        self._m_packets["atom"].inc(
            int(atom_emit.sum()) + int(branch_flush.sum())
        )
        for kind in ("async", "isync", "context"):
            self._m_packets[kind].inc(num_syncs)
        if self.config.timestamps_enabled:
            self._m_packets["timestamp"].inc(num_syncs)

        batch.ptm_bytes = nb
        return batch


class EtraceEncodeStage(StageBase):
    """Branch events -> per-event E-Trace byte counts (batched).

    The vectorised model of
    :class:`~repro.frontends.etrace.encoder.EtraceEncoder`, for every
    :class:`~repro.frontends.etrace.encoder.EtraceConfig`:

    - a map-only event (not-taken conditional) adds one outcome bit to
      the pending branch map, which flushes ``1 + ceil(k / 8)`` bytes
      at every ``MAX_MAP_BRANCHES``-th outcome and at the next address
      packet;
    - every other event is an address packet: one header byte, the
      LEB128 length of ``zigzag((target >> 1) - previous units)``, and
      a cause byte on a syscall;
    - the start burst and the mid-run syncs are placed by
      :func:`_place_syncs`, which re-sizes the next address packet
      against ``source & ~1``.

    Carried state and its checkpoint document are the encoder's:
    :meth:`export_state` returns the ``{"encoder": ...}`` document of
    a :class:`ByteCountEncodeStage` over an ``EtraceEncoder``, and, as
    there, the encoder (with its ``etrace.*`` counters) comes into
    being at the first non-empty batch.
    """

    name = "etrace"

    def __init__(
        self,
        config: Optional[EtraceConfig] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        super().__init__(metrics=metrics)
        self.config = config or EtraceConfig()
        self.reset()

    def reset(self) -> None:
        self._on = False

    def _power_up(self) -> None:
        """A fresh encoder: zeroed carry state and its counters."""
        self._on = True
        self._last_units = 0
        self._pending = 0
        self._bytes_since_sync = 0
        self._started = False
        self.total_bytes = 0
        self.packet_counts = {
            "support": 0, "sync": 0, "context": 0, "map": 0, "address": 0,
        }
        self._m_events = self.metrics.counter("etrace.events")
        self._m_bytes = self.metrics.counter("etrace.bytes")
        self._m_sync_bytes = self.metrics.counter("etrace.sync_bytes")
        self._m_packets = {
            kind: self.metrics.counter(f"etrace.packets.{kind}")
            for kind in self.packet_counts
        }

    def export_state(self) -> dict:
        if not self._on:
            return {"encoder": None}
        return {
            "encoder": {
                "context_id": self.config.context_id,
                "last_units": self._last_units,
                "pending_map": [False] * self._pending,
                "bytes_since_sync": self._bytes_since_sync,
                "started": self._started,
                "total_bytes": self.total_bytes,
                "packet_counts": dict(self.packet_counts),
            },
        }

    def restore_state(self, state: dict) -> None:
        doc = state["encoder"]
        if doc is None:
            self._on = False
            return
        self._power_up()
        self.config.context_id = doc["context_id"]
        self._last_units = doc["last_units"]
        self._pending = len(doc["pending_map"])
        self._bytes_since_sync = doc["bytes_since_sync"]
        self._started = doc["started"]
        self.total_bytes = doc["total_bytes"]
        self.packet_counts = dict(doc["packet_counts"])

    def _count(self, kind: str, amount: int) -> None:
        self.packet_counts[kind] += amount
        self._m_packets[kind].inc(amount)

    def _account(self, nbytes: int) -> None:
        self.total_bytes += nbytes
        self._bytes_since_sync += nbytes
        self._m_bytes.inc(nbytes)

    def process(self, batch: TraceBatch) -> TraceBatch:
        self._account_batch(batch)
        if batch.tail:
            if self._on and self._pending:
                # End of session: the pending branch map goes out.
                tail = 1 + (self._pending + 7) // 8
                batch.tail_ptm_bytes = tail
                self._pending = 0
                self._count("map", 1)
                self._account(tail)
            return batch
        if len(batch) == 0:
            batch.ptm_bytes = np.zeros(0, dtype=np.int64)
            return batch
        if not self._on:
            self._power_up()
        ev = batch.events
        assert ev is not None
        (
            nb, start, syncs, maps, addresses,
            self._last_units, self._pending, since_sync,
        ) = self._byte_counts(ev)
        self._started = True
        self._m_events.inc(len(ev))
        self._account(int(nb.sum()))
        self._bytes_since_sync = since_sync
        self._count("support", start)
        self._count("sync", start + syncs)
        self._count("map", maps)
        self._count("address", addresses)
        self._m_sync_bytes.inc(
            _ETRACE_START_BYTES * start + _ETRACE_SYNC_BYTES * syncs
        )
        batch.ptm_bytes = nb
        return batch

    def _byte_counts(self, ev: EventBatch) -> tuple:
        """Per-event bytes and the carry after ``ev``; no state changes.

        Raises the encoder's :class:`PacketEncodeError` for the first
        offending event.
        """
        source = ev.source
        context_id = self.config.context_id
        if not self._started:
            # The start burst's sync is checked before event 0's target.
            encode_sync_start(int(source[0]) & ~0x1, context_id)
        is_map = ev.atom
        aidx = np.flatnonzero(~is_map)
        targets = ev.target[aidx]
        bad = ((targets & 0x1) != 0) | (targets < 0) | (targets > 0xFFFF_FFFF)
        if bad.any():
            first = int(np.argmax(bad))
            if aidx[first]:
                # A sync ahead of the offending event may fail first.
                self._byte_counts(ev[: int(aidx[first])])
            raise PacketEncodeError(
                "branch target not halfword aligned"
                if targets[first] & 0x1
                else "branch target out of range"
            )

        # --- branch maps --------------------------------------------------
        pending = _run_lengths(is_map, self._pending) % MAX_MAP_BRANCHES
        full_maps = is_map & (pending == 0)
        nb = full_maps * _FULL_MAP_BYTES
        flushed = pending[aidx]
        map_bytes = np.where(flushed > 0, 1 + (flushed + 7) // 8, 0)

        # --- address packets ----------------------------------------------
        units = targets >> 1
        deltas = np.diff(units, prepend=self._last_units)
        zigzag = (deltas << 1) ^ (deltas >> 63)
        syscall = ev.syscall[aidx]
        addr_bytes = (
            np.searchsorted(_VARINT_BOUNDS, zigzag, side="right") + 2
        ) + syscall
        nb[aidx] = map_bytes + addr_bytes

        # --- sync placement -----------------------------------------------
        def relength(k: int, j: int) -> int:
            # The encoder's own packet functions: the sync at ``j``
            # fails on a bad address before packet ``k`` is sized.
            address = int(source[j]) & ~0x1
            encode_sync_start(address, context_id)
            delta = int(units[k]) - (address >> 1)
            return len(encode_address(delta, trap=bool(syscall[k])))

        start = not self._started
        syncs, committed, since_sync = _place_syncs(
            np.cumsum(nb),
            aidx,
            addr_bytes,
            relength,
            self._bytes_since_sync,
            _ETRACE_START_BYTES if start else None,
            _ETRACE_SYNC_BYTES,
            self.config.sync_interval_bytes,
        )
        sync_events = np.asarray(syncs, dtype=np.int64)
        for address in (source[sync_events] & ~0x1).tolist():
            # Also the syncs after the last address packet, which no
            # re-length has checked.
            encode_sync_start(address, context_id)
        for pos, delta_len in committed.items():
            nb[aidx[pos]] += delta_len
        if start:
            nb[0] += _ETRACE_START_BYTES
        nb[sync_events] += _ETRACE_SYNC_BYTES

        # --- carry ----------------------------------------------------------
        # A mid-run sync resets the compression base *after* its
        # event's own packet; the start burst precedes the first one.
        last_address = int(aidx[-1]) if len(aidx) else -1
        last_sync = syncs[-1] if syncs else -1
        if last_sync >= 0 and last_sync >= last_address:
            last_units = (int(source[last_sync]) & ~0x1) >> 1
        elif last_address >= 0:
            last_units = int(units[-1])
        elif start:
            last_units = (int(source[0]) & ~0x1) >> 1
        else:
            last_units = self._last_units
        return (
            nb,
            int(start),
            len(syncs),
            int(full_maps.sum()) + int(np.count_nonzero(flushed)),
            len(aidx),
            last_units,
            int(pending[-1]) if is_map[-1] else 0,
            since_sync,
        )


class ByteCountEncodeStage(StageBase):
    """CoreSight's fallback encode stage: drives a per-event encoder.

    Feeds each event of the batch's object view to an encoder exposing
    ``feed(event) -> bytes`` and ``flush() -> bytes`` (plus
    ``export_state``/``restore_state``) and records the byte counts —
    exact by construction, one Python call per event.  The CoreSight
    frontend builds it over a real :class:`~repro.coresight.ptm.Ptm`
    for the configs :meth:`PtmEncodeStage.models` refuses (waypoint
    mode); the differential
    tests also run it over an ``EtraceEncoder`` as the oracle of
    :class:`EtraceEncodeStage`.
    """

    def __init__(
        self,
        name: str,
        encoder_factory: Callable[[], object],
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        # Counter names derive from ``self.name`` inside StageBase, so
        # the instance attribute must exist before super().__init__.
        self.name = name
        super().__init__(metrics=metrics)
        self._encoder_factory = encoder_factory
        self._encoder: Optional[object] = None

    def reset(self) -> None:
        self._encoder = None

    def export_state(self) -> dict:
        return {
            "encoder": (
                self._encoder.export_state()
                if self._encoder is not None
                else None
            ),
        }

    def restore_state(self, state: dict) -> None:
        if state["encoder"] is not None:
            self._encoder = self._encoder_factory()
            self._encoder.restore_state(state["encoder"])
        else:
            self._encoder = None

    def process(self, batch: TraceBatch) -> TraceBatch:
        self._account_batch(batch)
        if batch.tail:
            if self._encoder is not None:
                batch.tail_ptm_bytes = len(self._encoder.flush())
            return batch
        if len(batch) == 0:
            batch.ptm_bytes = np.zeros(0, dtype=np.int64)
            return batch
        if self._encoder is None:
            self._encoder = self._encoder_factory()
        encoder = self._encoder
        assert batch.events is not None
        # The one per-event encode: it walks the batch's object view.
        batch.ptm_bytes = np.fromiter(
            (len(encoder.feed(event)) for event in batch.events.events),
            np.int64,
            count=len(batch),
        )
        return batch


class LinkFrameStage(StageBase):
    """Packet byte counts -> link-frame bytes leaving the trace port.

    The vectorised model of a :class:`~repro.tracepath.LinkFramer`
    subclass (``framer``), which supplies the link geometry — payload
    bytes per frame, full-frame bytes, sync-pattern bytes, and whether
    the tail frame is padded to full size (TPIU) or sent short (ETP) —
    and the counter names; ``name`` is the stage's (``tpiu``,
    ``etrace_link``).
    """

    def __init__(
        self,
        name: str,
        framer: type,
        sync_period: int = 64,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        # Counter names derive from ``self.name`` inside StageBase.
        self.name = name
        super().__init__(metrics=metrics)
        if sync_period < 1:
            raise ValueError("sync_period must be >= 1")
        self.sync_period = sync_period
        self._payload = framer.payload_per_frame
        self._frame = framer.frame_size
        self._sync = len(framer.sync_pattern)
        self._padded_tail = framer.padded_tail
        self.reset()
        prefix = framer.counter_prefix
        self._m_frames = self.metrics.counter(f"{prefix}.frames")
        self._m_sync_frames = self.metrics.counter(f"{prefix}.sync_frames")
        self._m_payload = self.metrics.counter(f"{prefix}.payload_bytes")
        if self._padded_tail:
            self._m_padding = self.metrics.counter(f"{prefix}.padding_bytes")

    def reset(self) -> None:
        self._buffer = 0
        # A fresh framer emits the sync pattern before its first frame.
        self._frames_since_sync = self.sync_period

    def export_state(self) -> dict:
        return {
            "buffer": self._buffer,
            "frames_since_sync": self._frames_since_sync,
        }

    def restore_state(self, state: dict) -> None:
        self._buffer = state["buffer"]
        self._frames_since_sync = state["frames_since_sync"]

    def _advance_frames(self, frames: int) -> int:
        """Consume ``frames`` data-frame slots; return sync patterns."""
        period = self.sync_period
        g0 = period - self._frames_since_sync
        if frames <= g0:
            self._frames_since_sync += frames
            return 0
        syncs = (frames - g0 - 1) // period + 1
        last = g0 + (syncs - 1) * period
        self._frames_since_sync = frames - last
        return syncs

    def process(self, batch: TraceBatch) -> TraceBatch:
        self._account_batch(batch)
        payload = self._payload
        if batch.tail:
            total = self._buffer + batch.tail_ptm_bytes
            complete, remainder = divmod(total, payload)
            data_frames = complete + (1 if remainder else 0)
            syncs = self._advance_frames(data_frames)
            tail_frame = 0
            if remainder:
                # A short tail frame keeps the full frame's overhead.
                tail_frame = (
                    self._frame
                    if self._padded_tail
                    else self._frame - payload + remainder
                )
            batch.tail_frame_bytes = (
                complete * self._frame + tail_frame + syncs * self._sync
            )
            self._buffer = 0
            self._m_frames.inc(data_frames)
            self._m_sync_frames.inc(syncs)
            self._m_payload.inc(total)
            if remainder and self._padded_tail:
                self._m_padding.inc(payload - remainder)
            return batch
        if len(batch) == 0:
            batch.frame_bytes = np.zeros(0, dtype=np.int64)
            return batch
        assert batch.ptm_bytes is not None
        cumulative = self._buffer + np.cumsum(batch.ptm_bytes)
        frames_after = cumulative // payload
        frames_per_event = np.diff(frames_after, prepend=0)
        total_frames = int(frames_after[-1])
        period = self.sync_period
        g0 = period - self._frames_since_sync
        syncs_before = np.where(
            frames_after <= g0,
            0,
            (frames_after - g0 - 1) // period + 1,
        )
        syncs_per_event = np.diff(syncs_before, prepend=0)
        batch.frame_bytes = (
            frames_per_event * self._frame + syncs_per_event * self._sync
        )
        total_syncs = int(syncs_before[-1])
        self._advance_frames(total_frames)
        self._buffer = int(cumulative[-1]) % payload
        self._m_frames.inc(total_frames)
        self._m_sync_frames.inc(total_syncs)
        self._m_payload.inc(payload * total_frames)
        return batch


class PtmFifoStage(StageBase):
    """CPU-internal PTM FIFO: frame bytes accumulate, drain in bulk.

    Reproduces :class:`repro.soc.cpu.PtmFifoModel` batching: bytes
    queue until occupancy reaches the threshold, then everything
    drains at 4 bytes per trace-port cycle.  At the tail everything
    still buffered drains as one delivering flush — even when the
    final push itself crosses the threshold (the reference loop once
    dropped that drain handle, silently losing the session's last
    vectors; both dataplanes now deliver them).
    """

    name = "ptm_fifo"

    def __init__(
        self,
        threshold_bytes: int = 176,
        port_clock: ClockDomain = RTAD_CLOCK,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        super().__init__(metrics=metrics)
        self.threshold_bytes = threshold_bytes
        self.port_clock = port_clock
        self.reset()
        self._m_occupancy = self.metrics.gauge("ptm_fifo.occupancy")
        self._m_flushes = self.metrics.counter("ptm_fifo.flushes")
        self._m_flushed_bytes = self.metrics.counter("ptm_fifo.flushed_bytes")

    def reset(self) -> None:
        self._occupancy = 0
        self._last_ns = 0.0

    def export_state(self) -> dict:
        return {"occupancy": self._occupancy, "last_ns": self._last_ns}

    def restore_state(self, state: dict) -> None:
        self._occupancy = state["occupancy"]
        self._last_ns = state["last_ns"]

    def _drain_ns(self, occupancy: int) -> float:
        return self.port_clock.to_ns((occupancy + 3) // 4)

    def _record_flush(self, flush: FifoFlush) -> None:
        self._m_flushes.inc()
        self._m_flushed_bytes.inc(flush.amount)
        self._m_occupancy.set(flush.amount)
        self._m_occupancy.set(0)

    def process(self, batch: TraceBatch) -> TraceBatch:
        self._account_batch(batch)
        if batch.tail:
            flushes: List[FifoFlush] = []
            occupancy = self._occupancy + batch.tail_frame_bytes
            if occupancy > 0:
                # End of session: everything left drains in one go and
                # carries the pending vectors with it, whether or not
                # the tail bytes happened to cross the threshold.
                flush = FifoFlush(
                    event_pos=0,
                    done_ns=self._last_ns + self._drain_ns(occupancy),
                    amount=occupancy,
                    delivers=True,
                )
                self._record_flush(flush)
                flushes.append(flush)
            self._occupancy = 0
            batch.flushes = flushes
            return batch
        if len(batch) == 0:
            return batch
        assert batch.frame_bytes is not None and batch.events is not None
        times = batch.events.time_ns
        cumulative = self._occupancy + np.cumsum(batch.frame_bytes)
        flushes = []
        flushed = 0
        threshold = self.threshold_bytes
        while True:
            i = int(
                np.searchsorted(cumulative, flushed + threshold, side="left")
            )
            if i >= len(cumulative):
                break
            amount = int(cumulative[i]) - flushed
            flush = FifoFlush(
                event_pos=i,
                done_ns=float(times[i]) + self._drain_ns(amount),
                amount=amount,
            )
            self._record_flush(flush)
            flushes.append(flush)
            flushed = int(cumulative[i])
        self._occupancy = int(cumulative[-1]) - flushed
        self._m_occupancy.set(self._occupancy)
        self._last_ns = float(times[-1])
        batch.flushes = flushes
        return batch


class IgmStage(StageBase):
    """Address map + vector encode over a batch of events.

    The mapper lookup becomes one ``searchsorted`` against the sorted
    monitored-address table (indices are assigned in sorted order, so
    position + 1 *is* the mapper index), and window completion becomes
    a sliding-window view over the mapped-index stream.  The stage
    mirrors its progress back onto the wrapped
    :class:`~repro.igm.vector_encoder.VectorEncoder` so sequence
    numbers stay coherent if the caller mixes batched and per-event
    use of the same SoC.
    """

    name = "igm"

    def __init__(
        self,
        mapper: AddressMapper,
        encoder: VectorEncoder,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        super().__init__(metrics=metrics)
        if encoder.stride != 1:
            raise ValueError(
                "batched IGM stage supports stride=1 encoders only"
            )
        self.mapper = mapper
        self.encoder = encoder
        self.reset()
        self._m_hits = self.metrics.counter("igm.mapper.hits")
        self._m_misses = self.metrics.counter("igm.mapper.misses")
        self._m_pushes = self.metrics.counter("igm.encoder.pushes")
        self._m_vectors = self.metrics.counter("igm.vectors_encoded")

    def reset(self) -> None:
        self._tail = np.zeros(0, dtype=np.int64)
        self._pushes = 0
        self._sequence = 0

    def export_state(self) -> dict:
        return {
            "tail": [int(v) for v in self._tail],
            "pushes": self._pushes,
            "sequence": self._sequence,
        }

    def restore_state(self, state: dict) -> None:
        self._tail = np.asarray(state["tail"], dtype=np.int64)
        self._pushes = state["pushes"]
        self._sequence = state["sequence"]
        self._sync_encoder()

    def _window_values(self, window: np.ndarray) -> np.ndarray:
        if self.encoder.mode is EncoderMode.SEQUENCE:
            return np.array(window, dtype=np.int64)
        counts = np.bincount(
            window, minlength=self.encoder.vocabulary_size
        ).astype(np.int64)
        return counts[: self.encoder.vocabulary_size]

    def process(self, batch: TraceBatch) -> TraceBatch:
        self._account_batch(batch)
        if batch.tail or len(batch) == 0:
            self._sync_encoder()
            return batch
        ev = batch.events
        assert ev is not None
        table = np.fromiter(
            self.mapper.entries, np.int64, count=self.mapper.size
        )
        if len(table):
            pos = np.searchsorted(table, ev.target)
            safe = np.minimum(pos, len(table) - 1)
            hit = (pos < len(table)) & (table[safe] == ev.target)
        else:
            safe = np.zeros(len(ev), dtype=np.int64)
            hit = np.zeros(len(ev), dtype=bool)
        hit_idx = np.nonzero(hit)[0]
        num_hits = int(len(hit_idx))
        num_misses = len(ev) - num_hits
        self.mapper.hits += num_hits
        self.mapper.misses += num_misses
        self._m_hits.inc(num_hits)
        self._m_misses.inc(num_misses)
        self._m_pushes.inc(num_hits)

        window = self.encoder.window
        prior = self._pushes
        indices = (safe[hit_idx] + 1).astype(np.int64)
        vectors: List[InputVector] = []
        positions: List[int] = []
        emit_from = max(0, window - 1 - prior)
        if num_hits > emit_from:
            buf = np.concatenate([self._tail, indices])
            if window == 1:
                windows = indices[emit_from:, None]
            else:
                view = np.lib.stride_tricks.sliding_window_view(buf, window)
                start = len(self._tail) + emit_from - window + 1
                windows = view[start : start + (num_hits - emit_from)]
            for row, k in enumerate(range(emit_from, num_hits)):
                event_pos = int(hit_idx[k])
                vectors.append(
                    InputVector(
                        values=self._window_values(windows[row]),
                        sequence_number=self._sequence,
                        trigger_address=int(ev.target[event_pos]),
                        trigger_cycle=int(ev.cycle[event_pos]),
                    )
                )
                self._sequence += 1
                positions.append(event_pos)
        # carry the last window-1 mapped indices across the boundary
        keep = min(window - 1, prior + num_hits)
        if keep:
            merged = (
                indices
                if num_hits >= keep
                else np.concatenate([self._tail, indices])
            )
            self._tail = merged[len(merged) - keep :].copy()
        self._pushes = prior + num_hits
        self._m_vectors.inc(len(vectors))
        self._sync_encoder()
        batch.vectors = vectors
        batch.vector_event_pos = np.asarray(positions, dtype=np.int64)
        return batch

    def _sync_encoder(self) -> None:
        """Mirror progress onto the wrapped per-event encoder."""
        encoder = self.encoder
        encoder._sequence_number = self._sequence
        encoder.vectors_emitted = self._sequence
        encoder._history.clear()
        encoder._history.extend(int(v) for v in self._tail)


class DeliverStage(StageBase):
    """Join encoded vectors to FIFO drains and hand them to the sink.

    A vector leaves the IGM when the PTM FIFO drain that carries its
    trace bytes completes; the fixed IGM vectorize latency is added on
    top, exactly as in ``LoopDataplane._deliver``.
    """

    name = "deliver"

    def __init__(
        self,
        sink: Callable[[InputVector, float], None],
        igm_pipe_ns: float = 24.0,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        super().__init__(metrics=metrics)
        self.sink = sink
        self.igm_pipe_ns = igm_pipe_ns
        self.reset()
        self._m_read = self.metrics.histogram("pipeline.read_ns")
        self._m_vectorize = self.metrics.histogram("pipeline.vectorize_ns")
        self._m_delivered = self.metrics.counter("pipeline.deliver.vectors")
        self._m_lost = self.metrics.counter("pipeline.deliver.lost_vectors")

    def reset(self) -> None:
        self._pending: List[InputVector] = []

    def export_state(self) -> dict:
        return {
            "pending": [
                {
                    "values": [int(v) for v in vector.values],
                    "sequence_number": vector.sequence_number,
                    "trigger_address": vector.trigger_address,
                    "trigger_cycle": vector.trigger_cycle,
                }
                for vector in self._pending
            ]
        }

    def restore_state(self, state: dict) -> None:
        self._pending = [
            InputVector(
                values=np.asarray(doc["values"], dtype=np.int64),
                sequence_number=doc["sequence_number"],
                trigger_address=doc["trigger_address"],
                trigger_cycle=doc["trigger_cycle"],
            )
            for doc in state["pending"]
        ]

    def _deliver(self, vectors: List[InputVector], flush_ns: float) -> None:
        for vector in vectors:
            trigger_ns = CPU_CLOCK.to_ns(vector.trigger_cycle)
            self._m_read.observe(max(0.0, flush_ns - trigger_ns))
            self._m_vectorize.observe(self.igm_pipe_ns)
            self._m_delivered.inc()
            self.sink(vector, flush_ns + self.igm_pipe_ns)

    def process(self, batch: TraceBatch) -> TraceBatch:
        self._account_batch(batch)
        if batch.tail:
            for flush in batch.flushes:
                if flush.delivers:
                    self._deliver(self._pending, flush.done_ns)
                    self._pending = []
            if self._pending:
                # Safety net: a tail whose flushes were all marked
                # non-delivering strands its pending vectors; count
                # the loss instead of leaking them into the next
                # session.  (PtmFifoStage no longer produces such a
                # tail — its end-of-session drain always delivers.)
                self._m_lost.inc(len(self._pending))
                self._pending = []
            return batch
        vectors = batch.vectors
        flushes = batch.flushes
        if not flushes:
            self._pending.extend(vectors)
            return batch
        bounds = np.fromiter(
            (flush.event_pos for flush in flushes),
            np.int64,
            count=len(flushes),
        )
        slots = (
            np.searchsorted(bounds, batch.vector_event_pos, side="left")
            if len(vectors)
            else np.zeros(0, dtype=np.int64)
        )
        for index, flush in enumerate(flushes):
            group = [
                vectors[k] for k in np.nonzero(slots == index)[0]
            ]
            if index == 0 and self._pending:
                group = self._pending + group
                self._pending = []
            if group:
                self._deliver(group, flush.done_ns)
        leftover = np.nonzero(slots == len(flushes))[0]
        self._pending.extend(vectors[k] for k in leftover)
        return batch
