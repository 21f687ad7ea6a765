"""Golden software decoder for the E-Trace-inspired packet stream.

The structural twin of :class:`repro.coresight.decoder.PftDecoder`:
fully streaming (bytes can arrive in arbitrary chunks with packet
state carried across calls), three error-handling modes (strict /
lenient / resync-hunt), an end-of-stream ``finish`` that surfaces
truncated tail packets, and checkpoint export/restore.  Resync hunting
scans for the alignment preamble (``4 x 0x00`` then ``0xAA``) the
encoder emits before every sync burst.

As in :mod:`repro.coresight.decoder`, the byte machine
(:meth:`EtraceDecoder.step_byte`) is the reference and ``feed`` runs a
bulk path beside it while the decoder is locked and idle: it claims
whole address, trap-address and branch-map packets and hands every
other packet, from its first byte, to the byte machine.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.errors import PacketDecodeError
from repro.frontends.etrace.packets import (
    ADDRESS_VARINT_MAX_BYTES,
    ALIGN_END,
    ALIGN_FILL,
    ALIGN_FILL_COUNT,
    CONTEXT_PAYLOAD,
    FMT_ADDRESS,
    FMT_BRANCH_MAP,
    FMT_SYNC,
    HEADER_ADDRESS,
    HEADER_ADDRESS_TRAP,
    MAX_CAUSE,
    SUPPORT_PAYLOAD,
    SYNC_START_PAYLOAD,
    SYNC_SUB_CONTEXT,
    SYNC_SUB_START,
    SYNC_SUB_SUPPORT,
    zigzag_decode,
)
from repro.obs import MetricsRegistry, NULL_REGISTRY


@dataclass(frozen=True)
class EtraceBranch:
    """One taken branch recovered from the stream."""

    address: int
    trap: bool = False
    cause: int = 0

    @property
    def is_syscall(self) -> bool:
        return self.trap


@dataclass(frozen=True)
class EtraceBranchMap:
    """A run of single-bit branch outcomes (True = taken)."""

    taken: Tuple[bool, ...]


@dataclass(frozen=True)
class EtraceSync:
    address: int
    context_id: int


@dataclass(frozen=True)
class EtraceContext:
    context_id: int


@dataclass(frozen=True)
class EtraceSupport:
    options: int
    version: int


@dataclass(frozen=True)
class EtraceTruncation:
    """End-of-stream marker: a packet was cut off mid-flight."""

    state: str
    pending_bytes: int


#: Bulk path: the eight outcomes one branch-map payload byte carries.
_MAP_TAKEN = tuple(
    tuple(not (byte >> bit) & 1 for bit in range(8)) for byte in range(256)
)


class _State(enum.Enum):
    IDLE = "idle"
    ALIGN = "align"
    SYNC = "sync"
    CONTEXT = "context"
    SUPPORT = "support"
    MAP = "map"
    ADDRESS = "address"
    ADDRESS_CAUSE = "address-cause"
    HUNT = "hunt"


class EtraceDecoder:
    """Streaming packet decoder (see :class:`PftDecoder` for modes)."""

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
        self._map_count = 0
        self._trap = False
        self._pending_address = 0
        self._last_units = 0
        self._ever_locked = False
        self.resyncs = 0
        self.truncated = 0
        self.hunt_bytes = 0
        self.metrics = metrics or NULL_REGISTRY
        self._m_resyncs = self.metrics.counter("etrace.decoder.resyncs")
        self._m_truncated = self.metrics.counter("etrace.decoder.truncated")
        self._m_hunt_bytes = self.metrics.counter("etrace.decoder.hunt_bytes")

    # ------------------------------------------------------------------

    def feed(self, data: bytes) -> List[object]:
        """Decode a chunk; returns the packets completed by it."""
        out: List[object] = []
        index = 0
        end = len(data)
        while index < end:
            if self._state is _State.IDLE:
                index = self._claim(data, index, out)
                if index == end:
                    break
            decoded = self._step(data[index])
            if decoded:
                out.extend(decoded)
            index += 1
        return out

    def branches(self, data: bytes) -> List[EtraceBranch]:
        """Feed and keep only the taken-branch address packets."""
        return [p for p in self.feed(data) if isinstance(p, EtraceBranch)]

    def step_byte(self, byte: int) -> List[object]:
        """Decode exactly one byte."""
        return self._step(byte) or []

    def finish(self) -> List[object]:
        """Declare end-of-stream; surface a truncated trailing packet.

        Same contract as :meth:`PftDecoder.finish`: strict decoders
        raise, others count the event and return an
        :class:`EtraceTruncation` marker; idle or hunting decoders
        return ``[]``.  Either way the decoder is reset to its start
        state, ready for a new stream.
        """
        state = self._state
        if state in (_State.IDLE, _State.HUNT):
            return []
        pending = (
            self._zeros if state is _State.ALIGN else len(self._scratch)
        )
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
        return [EtraceTruncation(state=state.value, pending_bytes=pending)]

    # ------------------------------------------------------------------
    # Durability
    # ------------------------------------------------------------------

    def export_state(self) -> dict:
        """JSON-able carry state for checkpointing (see repro.durability)."""
        return {
            "state": self._state.value,
            "scratch": list(self._scratch),
            "zeros": self._zeros,
            "map_count": self._map_count,
            "trap": self._trap,
            "pending_address": self._pending_address,
            "last_units": self._last_units,
            "ever_locked": self._ever_locked,
            "resyncs": self.resyncs,
            "truncated": self.truncated,
            "hunt_bytes": self.hunt_bytes,
        }

    def restore_state(self, state: dict) -> None:
        self._state = _State(state["state"])
        self._scratch = list(state["scratch"])
        self._zeros = state["zeros"]
        self._map_count = state["map_count"]
        self._trap = state["trap"]
        self._pending_address = state["pending_address"]
        self._last_units = state["last_units"]
        self._ever_locked = state["ever_locked"]
        self.resyncs = state["resyncs"]
        self.truncated = state["truncated"]
        self.hunt_bytes = state["hunt_bytes"]

    # ------------------------------------------------------------------

    def _error(
        self, byte: Optional[int], message: str
    ) -> Optional[List[object]]:
        """Shared error path: hunt, raise, or skip per the mode."""
        if self.resync_hunt:
            return self._begin_hunt(byte)
        if self.strict:
            raise PacketDecodeError(message)
        self._scratch = []
        self._zeros = 0
        self._state = _State.IDLE
        return []

    def _begin_hunt(self, byte: Optional[int]) -> Optional[List[object]]:
        """Enter hunt mode after an error; optionally retry ``byte``."""
        self._scratch = []
        self._zeros = 0
        self._state = _State.HUNT
        if byte is None:
            return None
        return self._hunt(byte)

    def _hunt(self, byte: int) -> Optional[List[object]]:
        """Scan for the align preamble (>=4 x 0x00 then 0xAA)."""
        if byte == ALIGN_FILL:
            self._zeros += 1
            return None
        if byte == ALIGN_END and self._zeros >= ALIGN_FILL_COUNT:
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

    def _claim(self, data, index: int, out: List[object]) -> int:
        """Bulk path: decode whole common packets from ``data[index:]``.

        Runs only while idle, where the byte machine holds no scratch
        bytes.  Claims address packets whose varint ends inside
        ``data`` with an in-range delta, trap-address packets with a
        valid cause byte, and branch maps whose payload is in
        ``data``, leaving the state exactly as the byte machine would.
        Returns the index of the first byte it does not claim.
        """
        end = len(data)
        units = self._last_units
        while index < end:
            byte = data[index]
            if byte == HEADER_ADDRESS or byte == HEADER_ADDRESS_TRAP:
                value = 0
                shift = 0
                stop = index + 1
                group = 0x80
                while group & 0x80 and stop < end and shift < 35:
                    group = data[stop]
                    stop += 1
                    value |= (group & 0x7F) << shift
                    shift += 7
                if group & 0x80:
                    break  # over-long varint, or the chunk ends
                target = units + zigzag_decode(value)
                if not 0 <= target <= 0x7FFF_FFFF:
                    break
                if byte == HEADER_ADDRESS:
                    out.append(EtraceBranch(target << 1))
                else:
                    if stop == end or data[stop] > MAX_CAUSE:
                        break
                    self._pending_address = target << 1
                    out.append(EtraceBranch(target << 1, True, data[stop]))
                    stop += 1
                self._trap = False
                units = target
                index = stop
                continue
            count = byte >> 3
            stop = index + 1 + ((count + 7) >> 3)
            if byte & 0x07 != FMT_BRANCH_MAP or not count or stop > end:
                break
            taken = _MAP_TAKEN[data[index + 1]]
            for payload in data[index + 2:stop]:
                taken += _MAP_TAKEN[payload]
            out.append(EtraceBranchMap(taken[:count]))
            self._map_count = 0
            index = stop
        self._last_units = units
        return index

    def _step(self, byte: int) -> Optional[List[object]]:
        state = self._state
        if state is _State.HUNT:
            return self._hunt(byte)
        if state is _State.IDLE:
            return self._handle_header(byte)
        if state is _State.ALIGN:
            if byte == ALIGN_FILL:
                self._zeros += 1
                return None
            if byte == ALIGN_END and self._zeros >= ALIGN_FILL_COUNT:
                self._state = _State.IDLE
                self._zeros = 0
                self._ever_locked = True
                return []
            return self._error(
                byte, f"bad align termination byte {byte:#04x}"
            )
        if state is _State.SYNC:
            self._scratch.append(byte)
            if len(self._scratch) == SYNC_START_PAYLOAD:
                address = int.from_bytes(bytes(self._scratch[:4]), "little")
                context = int.from_bytes(bytes(self._scratch[4:]), "little")
                self._scratch = []
                self._state = _State.IDLE
                self._last_units = address >> 1
                return [EtraceSync(address=address, context_id=context)]
            return None
        if state is _State.CONTEXT:
            self._scratch.append(byte)
            if len(self._scratch) == CONTEXT_PAYLOAD:
                context = int.from_bytes(bytes(self._scratch), "little")
                self._scratch = []
                self._state = _State.IDLE
                return [EtraceContext(context_id=context)]
            return None
        if state is _State.SUPPORT:
            self._scratch.append(byte)
            if len(self._scratch) == SUPPORT_PAYLOAD:
                options, version = self._scratch
                self._scratch = []
                self._state = _State.IDLE
                return [EtraceSupport(options=options, version=version)]
            return None
        if state is _State.MAP:
            self._scratch.append(byte)
            if len(self._scratch) == (self._map_count + 7) // 8:
                return self._complete_map()
            return None
        if state is _State.ADDRESS:
            self._scratch.append(byte)
            if byte & 0x80:
                if len(self._scratch) >= ADDRESS_VARINT_MAX_BYTES:
                    return self._error(
                        None, "address varint exceeds 5 bytes"
                    )
                return None
            return self._complete_address()
        if state is _State.ADDRESS_CAUSE:
            if byte > MAX_CAUSE:
                return self._error(
                    None, f"trap cause {byte:#04x} out of range"
                )
            self._state = _State.IDLE
            return [
                EtraceBranch(
                    address=self._pending_address, trap=True, cause=byte
                )
            ]
        raise PacketDecodeError(f"decoder in impossible state {state}")

    def _handle_header(self, byte: int) -> Optional[List[object]]:
        if byte == ALIGN_FILL:
            self._state = _State.ALIGN
            self._zeros = 1
            return None
        fmt = byte & 0x3
        if fmt == FMT_BRANCH_MAP:
            if byte & 0x04:
                return self._error(
                    byte, f"reserved branch-map header bit {byte:#04x}"
                )
            count = byte >> 3
            if count < 1:
                return self._error(
                    byte, "branch map with zero outcomes"
                )
            self._map_count = count
            self._scratch = []
            self._state = _State.MAP
            return None
        if fmt == FMT_ADDRESS:
            if byte not in (HEADER_ADDRESS, HEADER_ADDRESS_TRAP):
                return self._error(
                    byte, f"reserved address header bits {byte:#04x}"
                )
            self._trap = byte == HEADER_ADDRESS_TRAP
            self._scratch = []
            self._state = _State.ADDRESS
            return None
        if fmt == FMT_SYNC:
            if byte & 0xF0:
                return self._error(
                    byte, f"reserved sync header bits {byte:#04x}"
                )
            sub = (byte >> 2) & 0x3
            self._scratch = []
            if sub == SYNC_SUB_START:
                self._state = _State.SYNC
                return None
            if sub == SYNC_SUB_CONTEXT:
                self._state = _State.CONTEXT
                return None
            if sub == SYNC_SUB_SUPPORT:
                self._state = _State.SUPPORT
                return None
            return self._error(byte, "reserved sync subformat 3")
        return self._error(byte, f"unknown header byte {byte:#04x}")

    def _complete_map(self) -> List[object]:
        count = self._map_count
        payload = self._scratch
        self._scratch = []
        self._map_count = 0
        self._state = _State.IDLE
        taken = tuple(
            (payload[i // 8] >> (i % 8)) & 1 == 0 for i in range(count)
        )
        return [EtraceBranchMap(taken=taken)]

    def _complete_address(self) -> Optional[List[object]]:
        value = 0
        for index, group in enumerate(self._scratch):
            value |= (group & 0x7F) << (7 * index)
        self._scratch = []
        units = self._last_units + zigzag_decode(value)
        if not 0 <= units <= 0x7FFF_FFFF:
            return self._error(None, "address delta out of range")
        self._last_units = units
        address = units << 1
        if self._trap:
            self._trap = False
            self._pending_address = address
            self._state = _State.ADDRESS_CAUSE
            return None
        self._state = _State.IDLE
        return [EtraceBranch(address=address)]
