"""Golden software decoder for the PFT-inspired packet stream.

This is the reference the hardware trace analyzer (IGM) is verified
against — the role the paper's step-4 "verify" plays for ML-MIAOW, here
applied to the trace path.  The decoder is fully streaming: bytes can
be fed in arbitrary chunks and packet state is carried across calls.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional

from repro.coresight.packets import (
    ASYNC_FILL_COUNT,
    BRANCH_ADDR_MAX_BYTES,
    ExceptionType,
    HEADER_ASYNC_END,
    HEADER_ASYNC_FILL,
    HEADER_CONTEXT_ID,
    HEADER_IGNORE,
    HEADER_ISYNC,
    HEADER_TIMESTAMP,
    decode_atom_byte,
    is_atom_header,
    is_branch_header,
    merge_compressed_address,
)
from repro.errors import PacketDecodeError
from repro.obs import MetricsRegistry, NULL_REGISTRY

_ADDR_BITS_BY_COUNT = [6, 13, 20, 27, 30]


@dataclass(frozen=True)
class DecodedBranch:
    """One taken branch recovered from the stream."""

    address: int
    exception: ExceptionType = ExceptionType.NONE

    @property
    def is_syscall(self) -> bool:
        return self.exception is ExceptionType.SVC


@dataclass(frozen=True)
class DecodedAtom:
    taken: bool


@dataclass(frozen=True)
class DecodedISync:
    address: int
    context_id: int


@dataclass(frozen=True)
class DecodedContext:
    context_id: int


@dataclass(frozen=True)
class DecodedTimestamp:
    cycles: int


@dataclass(frozen=True)
class TruncatedPacket:
    """End-of-stream marker: a packet was cut off mid-flight.

    Emitted by :meth:`PftDecoder.finish` on non-strict decoders (strict
    ones raise instead) so callers can distinguish "stream ended
    cleanly" from "the tail packet was truncated" without depending on
    flush order.
    """

    state: str
    pending_bytes: int


class _State(enum.Enum):
    IDLE = "idle"
    ASYNC = "async"
    ISYNC = "isync"
    CONTEXT = "context"
    TIMESTAMP = "timestamp"
    BRANCH = "branch"
    BRANCH_EXC = "branch-exc"
    HUNT = "hunt"


class PftDecoder:
    """Streaming packet decoder.

    Three error-handling modes:

    - ``strict=True`` (default): any malformed byte raises
      :class:`PacketDecodeError` — the golden-verification mode.
    - ``strict=False``: legacy lenient mode; unknown bytes are skipped
      in place and decoding continues optimistically.
    - ``resync_hunt=True``: full recovery mode.  Any decode error (and
      start-of-stream) puts the decoder into a *hunt* state that scans
      for the next a-sync burst, re-locks there, and counts the event
      in ``resyncs`` / the ``coresight.decoder.resyncs`` counter.  The
      initial lock of a late-attaching decoder is not a resync.
    """

    def __init__(
        self,
        strict: bool = True,
        resync_hunt: bool = False,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.strict = strict
        self.resync_hunt = resync_hunt
        self._state = _State.HUNT if resync_hunt else _State.IDLE
        self._scratch: List[int] = []
        self._zeros = 0
        self._last_address = 0
        self._branch_complete = False
        self._ever_locked = False
        self.resyncs = 0
        self.truncated = 0
        self.hunt_bytes = 0
        self.metrics = metrics or NULL_REGISTRY
        self._m_resyncs = self.metrics.counter("coresight.decoder.resyncs")
        self._m_truncated = self.metrics.counter(
            "coresight.decoder.truncated"
        )
        self._m_hunt_bytes = self.metrics.counter(
            "coresight.decoder.hunt_bytes"
        )

    # ------------------------------------------------------------------

    def feed(self, data: bytes) -> List[object]:
        """Decode a chunk; returns the packets completed by it."""
        out: List[object] = []
        for byte in data:
            decoded = self._step(byte)
            if decoded is not None:
                out.extend(decoded)
        return out

    def branches(self, data: bytes) -> List[DecodedBranch]:
        """Feed and keep only the branch-address packets."""
        return [p for p in self.feed(data) if isinstance(p, DecodedBranch)]

    def step_byte(self, byte: int) -> List[object]:
        """Decode exactly one byte (the TA-unit per-lane granularity)."""
        return self._step(byte) or []

    def finish(self) -> List[object]:
        """Declare end-of-stream; surface a truncated trailing packet.

        A decoder left mid-packet has lost data: strict decoders raise
        :class:`PacketDecodeError`, others count the event and return a
        :class:`TruncatedPacket` marker.  Idle (or hunting) decoders
        return ``[]``.  Either way the decoder is reset to its start
        state, ready for a new stream.
        """
        state = self._state
        if state in (_State.IDLE, _State.HUNT):
            return []
        pending = self._zeros if state is _State.ASYNC else len(self._scratch)
        self._scratch = []
        self._zeros = 0
        self._state = _State.HUNT if self.resync_hunt else _State.IDLE
        self.truncated += 1
        self._m_truncated.inc()
        if self.strict and not self.resync_hunt:
            raise PacketDecodeError(
                f"truncated {state.value} packet at end of stream "
                f"({pending} byte(s) pending)"
            )
        return [TruncatedPacket(state=state.value, pending_bytes=pending)]

    # ------------------------------------------------------------------
    # Durability
    # ------------------------------------------------------------------

    def export_state(self) -> dict:
        """JSON-able carry state for checkpointing (see repro.durability)."""
        return {
            "state": self._state.value,
            "scratch": list(self._scratch),
            "zeros": self._zeros,
            "last_address": self._last_address,
            "branch_complete": self._branch_complete,
            "ever_locked": self._ever_locked,
            "resyncs": self.resyncs,
            "truncated": self.truncated,
            "hunt_bytes": self.hunt_bytes,
        }

    def restore_state(self, state: dict) -> None:
        self._state = _State(state["state"])
        self._scratch = list(state["scratch"])
        self._zeros = state["zeros"]
        self._last_address = state["last_address"]
        self._branch_complete = state["branch_complete"]
        self._ever_locked = state["ever_locked"]
        self.resyncs = state["resyncs"]
        self.truncated = state["truncated"]
        self.hunt_bytes = state["hunt_bytes"]

    # ------------------------------------------------------------------

    def _begin_hunt(self, byte: Optional[int]) -> Optional[List[object]]:
        """Enter hunt mode after an error; optionally retry ``byte``."""
        self._scratch = []
        self._zeros = 0
        self._state = _State.HUNT
        if byte is None:
            return None
        return self._hunt(byte)

    def _hunt(self, byte: int) -> Optional[List[object]]:
        """Scan for the a-sync pattern (>=5 x 0x00 then 0x80)."""
        if byte == HEADER_ASYNC_FILL:
            self._zeros += 1
            return None
        if byte == HEADER_ASYNC_END and self._zeros >= ASYNC_FILL_COUNT:
            self._state = _State.IDLE
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

    def _step(self, byte: int) -> Optional[List[object]]:
        state = self._state
        if state is _State.HUNT:
            return self._hunt(byte)
        if state is _State.IDLE:
            return self._handle_header(byte)
        if state is _State.ASYNC:
            if byte == HEADER_ASYNC_FILL:
                self._zeros += 1
                return None
            if byte == HEADER_ASYNC_END and self._zeros >= ASYNC_FILL_COUNT:
                self._state = _State.IDLE
                self._zeros = 0
                self._ever_locked = True
                return []
            if self.resync_hunt:
                return self._begin_hunt(byte)
            if self.strict:
                raise PacketDecodeError(
                    f"bad a-sync termination byte {byte:#04x}"
                )
            self._state = _State.IDLE
            self._zeros = 0
            return self._handle_header(byte)
        if state is _State.ISYNC:
            self._scratch.append(byte)
            if len(self._scratch) == 5:
                address = int.from_bytes(bytes(self._scratch[:4]), "little")
                context = self._scratch[4]
                self._scratch = []
                self._state = _State.IDLE
                self._last_address = address
                return [DecodedISync(address=address, context_id=context)]
            return None
        if state is _State.CONTEXT:
            self._scratch.append(byte)
            if len(self._scratch) == 4:
                context = int.from_bytes(bytes(self._scratch), "little")
                self._scratch = []
                self._state = _State.IDLE
                return [DecodedContext(context_id=context)]
            return None
        if state is _State.TIMESTAMP:
            self._scratch.append(byte)
            if len(self._scratch) == 8:
                cycles = int.from_bytes(bytes(self._scratch), "little")
                self._scratch = []
                self._state = _State.IDLE
                return [DecodedTimestamp(cycles=cycles)]
            return None
        if state is _State.BRANCH:
            self._scratch.append(byte)
            return self._maybe_finish_branch()
        if state is _State.BRANCH_EXC:
            return self._finish_branch_with_exception(byte)
        raise PacketDecodeError(f"decoder in impossible state {state}")

    def _handle_header(self, byte: int) -> Optional[List[object]]:
        if byte == HEADER_ASYNC_FILL:
            self._state = _State.ASYNC
            self._zeros = 1
            return None
        if byte == HEADER_IGNORE:
            return []
        if is_branch_header(byte):
            self._scratch = [byte]
            self._state = _State.BRANCH
            return self._maybe_finish_branch()
        if is_atom_header(byte):
            try:
                return [DecodedAtom(taken=a) for a in decode_atom_byte(byte)]
            except PacketDecodeError:
                # A corrupted atom byte is a decode error like any other.
                if self.resync_hunt:
                    return self._begin_hunt(byte)
                if self.strict:
                    raise
                return []
        if byte == HEADER_ISYNC:
            self._state = _State.ISYNC
            self._scratch = []
            return None
        if byte == HEADER_CONTEXT_ID:
            self._state = _State.CONTEXT
            self._scratch = []
            return None
        if byte == HEADER_TIMESTAMP:
            self._state = _State.TIMESTAMP
            self._scratch = []
            return None
        if self.resync_hunt:
            return self._begin_hunt(byte)
        if self.strict:
            raise PacketDecodeError(f"unknown header byte {byte:#04x}")
        return []

    def _maybe_finish_branch(self) -> Optional[List[object]]:
        count = len(self._scratch)
        last = self._scratch[-1]
        full_length = count == BRANCH_ADDR_MAX_BYTES
        if not full_length and (last & 0x80):
            return None  # continuation bit set, more bytes coming
        if full_length and (self._scratch[-1] & 0x40):
            self._state = _State.BRANCH_EXC
            return None
        return self._complete_branch(ExceptionType.NONE)

    def _finish_branch_with_exception(self, info_byte: int) -> List[object]:
        try:
            exception = ExceptionType(info_byte & 0x0F)
        except ValueError:
            if self.resync_hunt:
                return self._begin_hunt(info_byte) or []
            if self.strict:
                raise PacketDecodeError(
                    f"unknown exception type {info_byte & 0x0F}"
                ) from None
            exception = ExceptionType.NONE
        return self._complete_branch(exception)

    def _complete_branch(self, exception: ExceptionType) -> List[object]:
        word = 0
        shift = 0
        for index, byte in enumerate(self._scratch):
            if index == 0:
                word |= ((byte >> 1) & 0x3F) << shift
                shift += 6
            elif index == BRANCH_ADDR_MAX_BYTES - 1:
                word |= (byte & 0x07) << shift
                shift += 3
            else:
                word |= (byte & 0x7F) << shift
                shift += 7
        received_bits = _ADDR_BITS_BY_COUNT[len(self._scratch) - 1]
        address = merge_compressed_address(
            word, received_bits, self._last_address
        )
        self._last_address = address
        self._scratch = []
        self._state = _State.IDLE
        return [DecodedBranch(address=address, exception=exception)]
