"""The grammar-neutral trace path every trace frontend is built from.

In the paper only the IGM's trace analyzer knows the trace grammar;
everything else sees byte counts and branch targets.  The frontends
keep that split: each role of the trace path exists once, here, and a
grammar (``repro.coresight``, ``repro.frontends.etrace``) supplies
only what is really its own:

- :class:`TraceDriver` — the kernel-driver facade over an encoder and
  a link framer.  A grammar supplies the encoder and framer factories,
  the two checkpoint keys and its "not enabled" label.
- :class:`LinkFramer` — buffering, sync cadence, counters and state.
  A grammar supplies the link geometry and its ``_frame`` layout.
- :class:`LinkDeframer` — discard/resync accounting and state.  A
  grammar supplies its counter names and its ``push``.
- :class:`TraceDecoder` — the streaming scaffold (``feed``,
  ``finish``, resync hunting, modes, counters, state).  A grammar
  supplies its states, its hunt pattern, its column bulk path
  (``_scan`` and ``_settle``) and its byte machine ``_step``.
- :class:`DecodedItems` — what ``feed`` returns: the chunk's branch
  columns, with its decoded items built only when read.

This module imports neither grammar, so both can import it.
"""

from __future__ import annotations

import enum
from collections.abc import Sequence
from functools import cached_property
from typing import (
    Callable,
    ClassVar,
    Dict,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Tuple,
)

import numpy as np

from repro.errors import FrameSyncError, PacketDecodeError, SocConfigError
from repro.obs import MetricsRegistry, NULL_REGISTRY
from repro.workloads.cfg import BranchEvent


class TraceDriver:
    """Configures and drives one grammar's encoder -> link framer path.

    The session lifecycle is explicit: a freshly created driver is
    *disabled* and refuses to trace; ``enable`` powers up a fresh
    encoder + link framer, ``disable`` tears them down.  Session
    owners (:class:`repro.soc.loop.LoopDataplane`) enable at session
    start, so a frontend is never traced before the session begins.

    ``config`` is the encoder configuration shared with the batched
    stages (``set_context_id`` writes its ``context_id``);
    ``new_encoder``/``new_framer`` build the pieces given ``metrics=``;
    ``state_keys`` name the encoder and framer checkpoint documents;
    ``label`` names the path in the "not enabled" error.
    """

    def __init__(
        self,
        config,
        new_encoder: Callable[..., object],
        new_framer: Callable[..., "LinkFramer"],
        state_keys: Tuple[str, str],
        label: str,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.config = config
        self.metrics = metrics or NULL_REGISTRY
        self._new_encoder = new_encoder
        self._new_framer = new_framer
        self._state_keys = state_keys
        self._not_enabled = f"{label} not enabled"
        self._encoder = None
        self._framer = None
        self.enabled = False

    # ------------------------------------------------------------------
    # Control-plane (what the kernel driver's ioctls would do)
    # ------------------------------------------------------------------

    def enable(self) -> None:
        """Power up the encoder and framer with the current configuration."""
        self._encoder = self._new_encoder(metrics=self.metrics)
        self._framer = self._new_framer(metrics=self.metrics)
        self.enabled = True

    def disable(self) -> None:
        self._encoder = None
        self._framer = None
        self.enabled = False

    def set_context_id(self, context_id: int) -> None:
        """Track a different process (takes effect on next enable)."""
        if self.enabled:
            raise SocConfigError("disable tracing before reconfiguring")
        self.config.context_id = context_id

    # ------------------------------------------------------------------
    # Durability
    # ------------------------------------------------------------------

    def export_state(self) -> dict:
        """JSON-able carry state for checkpointing (see repro.durability)."""
        if not self.enabled:
            raise SocConfigError(self._not_enabled)
        encoder_key, framer_key = self._state_keys
        return {
            encoder_key: self._encoder.export_state(),
            framer_key: self._framer.export_state(),
        }

    def restore_state(self, state: dict) -> None:
        self.enable()
        encoder_key, framer_key = self._state_keys
        self._encoder.restore_state(state[encoder_key])
        self._framer.restore_state(state[framer_key])

    # ------------------------------------------------------------------
    # Data-plane
    # ------------------------------------------------------------------

    def trace(self, event: BranchEvent) -> bytes:
        """Push one branch event through the encoder; returns frame bytes."""
        if not self.enabled:
            raise SocConfigError(self._not_enabled)
        return self._framer.push(self._encoder.feed(event))

    def flush(self) -> bytes:
        if not self.enabled:
            raise SocConfigError(self._not_enabled)
        out = self._framer.push(self._encoder.flush())
        out += self._framer.flush()
        return out

    def trace_all(self, events: Iterable[BranchEvent]) -> bytes:
        """Trace a whole event stream and flush (training collection)."""
        out = bytearray()
        for event in events:
            out += self.trace(event)
        out += self.flush()
        return bytes(out)


class LinkFramer:
    """Link transmitter: accepts packet bytes, emits complete frames.

    A grammar supplies the link geometry as class attributes (what
    :class:`repro.pipeline.stages.LinkFrameStage` models) and
    ``_frame(payload)``, the bytes of one data frame.  Every
    ``sync_period`` frames the ``sync_pattern`` goes out first, so a
    late-attaching receiver can align; a fresh framer syncs at once.
    """

    #: Payload bytes per full frame.
    payload_per_frame: ClassVar[int]
    #: Bytes of a full frame on the wire.
    frame_size: ClassVar[int]
    #: Inserted every ``sync_period`` frames.
    sync_pattern: ClassVar[bytes]
    #: True: a flushed short payload is padded to ``frame_size``;
    #: False: the tail frame goes out short.
    padded_tail: ClassVar[bool]
    #: Prefix of the ``.frames``/``.sync_frames``/``.payload_bytes``
    #: counters.
    counter_prefix: ClassVar[str]

    def __init__(
        self,
        sync_period: int = 64,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if sync_period < 1:
            raise ValueError("sync_period must be >= 1")
        self.sync_period = sync_period
        self._buffer = bytearray()
        self._frames_since_sync = sync_period  # sync immediately at start
        self.frames_emitted = 0
        self.metrics = metrics or NULL_REGISTRY
        prefix = self.counter_prefix
        self._m_frames = self.metrics.counter(f"{prefix}.frames")
        self._m_sync_frames = self.metrics.counter(f"{prefix}.sync_frames")
        self._m_payload = self.metrics.counter(f"{prefix}.payload_bytes")

    def export_state(self) -> dict:
        """JSON-able carry state for checkpointing (see repro.durability)."""
        return {
            "buffer": bytes(self._buffer).hex(),
            "frames_since_sync": self._frames_since_sync,
            "frames_emitted": self.frames_emitted,
        }

    def restore_state(self, state: dict) -> None:
        self._buffer = bytearray(bytes.fromhex(state["buffer"]))
        self._frames_since_sync = state["frames_since_sync"]
        self.frames_emitted = state["frames_emitted"]

    def push(self, data: bytes) -> bytes:
        """Buffer packet bytes; return any complete frames produced."""
        self._buffer += data
        size = self.payload_per_frame
        out = bytearray()
        while len(self._buffer) >= size:
            payload = bytes(self._buffer[:size])
            del self._buffer[:size]
            out += self._emit(payload)
        return bytes(out)

    def flush(self) -> bytes:
        """Emit a final (possibly short) frame with whatever remains."""
        if not self._buffer:
            return b""
        payload = bytes(self._buffer)
        self._buffer.clear()
        return self._emit(payload)

    def _emit(self, payload: bytes) -> bytes:
        assert 1 <= len(payload) <= self.payload_per_frame
        out = bytearray()
        if self._frames_since_sync >= self.sync_period:
            out += self.sync_pattern
            self._frames_since_sync = 0
            self._m_sync_frames.inc()
        out += self._frame(payload)
        self.frames_emitted += 1
        self._frames_since_sync += 1
        self._m_frames.inc()
        self._m_payload.inc(len(payload))
        return bytes(out)

    def _frame(self, payload: bytes) -> bytes:  # pragma: no cover
        raise NotImplementedError


class LinkDeframer:
    """Receiver side: frames back to the packet byte stream.

    Starts unsynchronised, as a receiver attaching to a running trace
    port does: a grammar's ``push`` discards bytes until its sync
    pattern is seen, then consumes frames.  With ``resync_hunt=True``
    a malformed frame (the symptom of byte loss shifting the frame
    boundary) does not raise: the deframer drops sync, counts a
    resync and hunts for the next sync pattern.
    """

    #: ``(resyncs, bytes discarded)`` counter names.
    counters: ClassVar[Tuple[str, str]]

    def __init__(
        self,
        resync_hunt: bool = False,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.resync_hunt = resync_hunt
        self._synced = False
        self._buffer = bytearray()
        self.frames_consumed = 0
        self.bytes_discarded = 0
        self.frame_resyncs = 0
        self.metrics = metrics or NULL_REGISTRY
        resyncs, discarded = self.counters
        self._m_frame_resyncs = self.metrics.counter(resyncs)
        self._m_bytes_discarded = self.metrics.counter(discarded)

    def _discard(self, amount: int) -> None:
        self.bytes_discarded += amount
        self._m_bytes_discarded.inc(amount)

    def _desync(self, amount: int, message: str) -> int:
        """A malformed frame: raise ``message`` unless hunting; else drop
        sync, discard ``amount`` bytes and return ``amount``."""
        if not self.resync_hunt:
            raise FrameSyncError(message)
        self._synced = False
        self.frame_resyncs += 1
        self._m_frame_resyncs.inc()
        self._discard(amount)
        return amount

    def export_state(self) -> dict:
        """JSON-able carry state for checkpointing (see repro.durability)."""
        return {
            "synced": self._synced,
            "buffer": bytes(self._buffer).hex(),
            "frames_consumed": self.frames_consumed,
            "bytes_discarded": self.bytes_discarded,
            "frame_resyncs": self.frame_resyncs,
        }

    def restore_state(self, state: dict) -> None:
        self._synced = state["synced"]
        self._buffer = bytearray(bytes.fromhex(state["buffer"]))
        self.frames_consumed = state["frames_consumed"]
        self.bytes_discarded = state["bytes_discarded"]
        self.frame_resyncs = state["frame_resyncs"]

    @property
    def synced(self) -> bool:
        return self._synced


def continuation_runs(padded: np.ndarray) -> np.ndarray:
    """At every byte, how many bytes from it on carry the continuation
    bit (0x80) — a varint's or a multi-byte packet's length in one
    scan.  ``padded`` must end in a byte without the bit."""
    size = len(padded)
    place = np.arange(size)
    stops = np.where(padded < 0x80, place, size)
    return np.minimum.accumulate(stops[::-1])[::-1] - place


class ClaimedRun(NamedTuple):
    """A run of common packets the bulk path claimed.

    ``target``/``is_syscall`` are the columns of its taken branches;
    ``build()`` returns its items, as the byte machine would.
    """

    target: np.ndarray
    is_syscall: np.ndarray
    build: Callable[[], List[object]]


_NO_TARGETS = np.zeros(0, dtype=np.int64)
_NO_FLAGS = np.zeros(0, dtype=bool)


class DecodedItems(Sequence):
    """One chunk's decode, as :meth:`TraceDecoder.feed` returns it.

    ``target`` (int64) and ``is_syscall`` (bool) are the columns of
    the chunk's taken-branch items, in stream order.  The items
    themselves — exactly the list the byte machine returns — are built
    on first use (``len``, indexing, iteration, ``==``), so a
    reader of the columns alone builds no per-item object.

    ``parts`` are, in stream order, byte-machine item lists and
    :class:`ClaimedRun` s; ``branch_type`` is the grammar's branch
    item, whose ``address``/``is_syscall`` the columns read from the
    byte-machine lists.
    """

    __hash__ = None  # type: ignore[assignment]

    def __init__(self, parts: List[object], branch_type: type) -> None:
        self._parts = parts
        targets: List[object] = []
        flags: List[object] = []
        for part in parts:
            if type(part) is list:
                found = [item for item in part if type(item) is branch_type]
                if found:
                    targets.append([item.address for item in found])
                    flags.append([item.is_syscall for item in found])
            else:
                targets.append(part.target)
                flags.append(part.is_syscall)
        if not targets:
            self.target, self.is_syscall = _NO_TARGETS, _NO_FLAGS
        elif len(targets) == 1 and type(targets[0]) is not list:
            self.target, self.is_syscall = targets[0], flags[0]
        else:
            self.target = np.concatenate(targets, dtype=np.int64)
            self.is_syscall = np.concatenate(flags, dtype=bool)

    @cached_property
    def items(self) -> List[object]:
        items: List[object] = []
        for part in self._parts:
            items += part if type(part) is list else part.build()
        return items

    def __len__(self) -> int:
        return len(self.items)

    def __getitem__(self, index):
        return self.items[index]

    def __iter__(self):
        return iter(self.items)

    def __eq__(self, other) -> bool:
        if isinstance(other, DecodedItems):
            other = other.items
        if isinstance(other, list):
            return self.items == other
        return NotImplemented

    def __repr__(self) -> str:
        return f"DecodedItems({self.items!r})"


class TraceDecoder:
    """Streaming packet decoder scaffold.

    Bytes can be fed in arbitrary chunks; packet state is carried
    across calls.  The byte machine (a grammar's ``_step``, exposed as
    :meth:`step_byte`) is the reference.  :meth:`feed` decodes runs of
    common packets as columns while the decoder is idle and hands
    every other packet, from its first byte, to the byte machine,
    which owns sync, errors, hunting and truncation.

    The column bulk path is the grammar's, in two steps.
    ``_scan(data)`` computes with numpy, at every byte of the chunk,
    the length of the common packet that would start there (0: none),
    as a ``bytes`` object, reading the chunk as if zero bytes followed
    it: a zero byte starts no common packet in either grammar, so the
    lengths are 0 from ``len(data)`` for ``_PAD`` entries.  From each
    idle position ``feed`` follows those lengths to the first byte no
    common packet starts at, dropping a last packet the chunk end
    cuts.  ``_settle`` then decodes the packets it passed as columns,
    updates the grammar state as the byte machine would, and returns
    the index where the claim really ends (a run stops early at a
    packet whose check needs the running state, such as E-Trace's
    target range) with the :class:`ClaimedRun`, or ``None`` if it
    claimed nothing.

    Three error-handling modes:

    - ``strict=True`` (default): any malformed byte raises
      :class:`PacketDecodeError` — the golden-verification mode.
    - ``strict=False``: lenient mode; unknown bytes are skipped and
      decoding continues optimistically.
    - ``resync_hunt=True``: full recovery mode.  Any decode error (and
      start-of-stream) puts the decoder into a *hunt* state that scans
      for the grammar's sync preamble (``fill_count`` or more
      ``fill_byte`` then ``end_byte``), re-locks there, and counts the
      event in ``resyncs``.  The initial lock of a late-attaching
      decoder is not a resync.

    A grammar supplies, as class attributes: its state enum's idle,
    hunt and fill states, the hunt pattern, the counter names, the
    decoded branch and truncation types, and the initial value of each
    grammar state field (checkpointed under its key, held in
    ``_<key>``).
    """

    #: Zero bytes ``_scan`` reads past a chunk: more than the longest
    #: common packet.
    _PAD = 8

    _IDLE: ClassVar[enum.Enum]
    _HUNT: ClassVar[enum.Enum]
    #: The state counting sync fill bytes (its pending bytes are
    #: ``_zeros``, not ``_scratch``).
    _FILL: ClassVar[enum.Enum]
    fill_byte: ClassVar[int]
    end_byte: ClassVar[int]
    fill_count: ClassVar[int]
    #: ``(resyncs, truncated, hunt bytes)`` counter names.
    counters: ClassVar[Tuple[str, str, str]]
    branch_type: ClassVar[type]
    truncation_type: ClassVar[type]
    grammar_state: ClassVar[Dict[str, object]]

    def __init__(
        self,
        strict: bool = True,
        resync_hunt: bool = False,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.strict = strict
        self.resync_hunt = resync_hunt
        self._state = self._HUNT if resync_hunt else self._IDLE
        self._scratch: List[int] = []
        self._zeros = 0
        for key, value in self.grammar_state.items():
            setattr(self, "_" + key, value)
        self._ever_locked = False
        self.resyncs = 0
        self.truncated = 0
        self.hunt_bytes = 0
        self.metrics = metrics or NULL_REGISTRY
        resyncs, truncated, hunt_bytes = self.counters
        self._m_resyncs = self.metrics.counter(resyncs)
        self._m_truncated = self.metrics.counter(truncated)
        self._m_hunt_bytes = self.metrics.counter(hunt_bytes)

    # ------------------------------------------------------------------

    def feed(self, data: bytes) -> DecodedItems:
        """Decode a chunk; returns the packets completed by it."""
        parts: List[object] = []
        items: List[object] = []
        index = 0
        end = len(data)
        idle = self._IDLE
        lengths = None
        while index < end:
            if self._state is idle:
                if lengths is None:
                    lengths, scan = self._scan(data)
                starts: List[int] = []
                stop = index
                size = lengths[stop]
                while size:
                    starts.append(stop)
                    stop += size
                    size = lengths[stop]
                if stop > end:  # the chunk ends inside the last packet
                    stop = starts.pop()
                if starts:
                    index, run = self._settle(scan, starts, stop)
                    if run is not None:
                        if items:
                            parts.append(items)
                            items = []
                        parts.append(run)
                    if index == end:
                        break
            decoded = self._step(data[index])
            if decoded:
                items += decoded
            index += 1
        if items:
            parts.append(items)
        return DecodedItems(parts, self.branch_type)

    def step_byte(self, byte: int) -> List[object]:
        """Decode exactly one byte (the TA-unit per-lane granularity)."""
        return self._step(byte) or []

    def finish(self) -> List[object]:
        """Declare end-of-stream; surface a truncated trailing packet.

        A decoder left mid-packet has lost data: strict decoders raise
        :class:`PacketDecodeError`, others count the event and return
        a ``truncation_type`` marker.  Idle (or hunting) decoders
        return ``[]``.  Either way the decoder is reset to its start
        state, ready for a new stream.
        """
        state = self._state
        if state is self._IDLE or state is self._HUNT:
            return []
        pending = self._zeros if state is self._FILL else len(self._scratch)
        self._scratch = []
        self._zeros = 0
        self._state = self._HUNT if self.resync_hunt else self._IDLE
        self.truncated += 1
        self._m_truncated.inc()
        if self.strict and not self.resync_hunt:
            raise PacketDecodeError(
                f"truncated {state.value} packet at end of stream "
                f"({pending} byte(s) pending)"
            )
        return [self.truncation_type(state=state.value, pending_bytes=pending)]

    # ------------------------------------------------------------------
    # Durability
    # ------------------------------------------------------------------

    def export_state(self) -> dict:
        """JSON-able carry state for checkpointing (see repro.durability)."""
        return {
            "state": self._state.value,
            "scratch": list(self._scratch),
            "zeros": self._zeros,
            **{key: getattr(self, "_" + key) for key in self.grammar_state},
            "ever_locked": self._ever_locked,
            "resyncs": self.resyncs,
            "truncated": self.truncated,
            "hunt_bytes": self.hunt_bytes,
        }

    def restore_state(self, state: dict) -> None:
        self._state = type(self._IDLE)(state["state"])
        self._scratch = list(state["scratch"])
        self._zeros = state["zeros"]
        for key in self.grammar_state:
            setattr(self, "_" + key, state[key])
        self._ever_locked = state["ever_locked"]
        self.resyncs = state["resyncs"]
        self.truncated = state["truncated"]
        self.hunt_bytes = state["hunt_bytes"]

    # ------------------------------------------------------------------

    def _begin_hunt(self, byte: Optional[int]) -> Optional[List[object]]:
        """Enter hunt mode after an error; optionally retry ``byte``."""
        self._scratch = []
        self._zeros = 0
        self._state = self._HUNT
        if byte is None:
            return None
        return self._hunt(byte)

    def _hunt(self, byte: int) -> Optional[List[object]]:
        """Scan for the sync preamble (>= ``fill_count`` fill bytes,
        then the end byte)."""
        if byte == self.fill_byte:
            self._zeros += 1
            return None
        if byte == self.end_byte and self._zeros >= self.fill_count:
            self._state = self._IDLE
            self._zeros = 0
            if self._ever_locked:
                self.resyncs += 1
                self._m_resyncs.inc()
            self._ever_locked = True
            return []
        self.hunt_bytes += self._zeros + 1
        self._m_hunt_bytes.inc(self._zeros + 1)
        self._zeros = 0
        return None

    def _scan(self, data) -> Tuple[List[int], object]:
        """Bulk path: per-byte common-packet lengths of ``data`` (with
        the 0 sentinel), and the arrays ``_settle`` reads."""
        raise NotImplementedError  # pragma: no cover

    def _settle(
        self, scan, starts: List[int], stop: int
    ) -> Tuple[int, Optional[ClaimedRun]]:
        """Bulk path: claim the packets at ``starts`` (ending at
        ``stop``) while idle; return where the claim ends and its run."""
        raise NotImplementedError  # pragma: no cover

    def _step(self, byte: int) -> Optional[List[object]]:
        raise NotImplementedError  # pragma: no cover
