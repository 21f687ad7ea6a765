"""Golden software decoder for the E-Trace-inspired packet stream.

The streaming scaffold (``feed``, ``finish``, the strict / lenient /
resync-hunt modes, state) is the shared
:class:`repro.tracepath.TraceDecoder`, as for
:class:`repro.coresight.decoder.PftDecoder`.  This module supplies the
E-Trace byte machine (``_step``), its bulk path (``_claim``, which
claims whole address, trap-address and branch-map packets while the
decoder is locked and idle) and the hunt pattern: the alignment
preamble (``4 x 0x00`` then ``0xAA``) the encoder emits before every
sync burst.
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
from repro.tracepath import TraceDecoder


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


class EtraceDecoder(TraceDecoder):
    """Streaming E-Trace packet decoder (modes: see :class:`TraceDecoder`)."""

    _IDLE = _State.IDLE
    _HUNT = _State.HUNT
    _FILL = _State.ALIGN
    fill_byte = ALIGN_FILL
    end_byte = ALIGN_END
    fill_count = ALIGN_FILL_COUNT
    counters = (
        "etrace.decoder.resyncs",
        "etrace.decoder.truncated",
        "etrace.decoder.hunt_bytes",
    )
    branch_type = EtraceBranch
    truncation_type = EtraceTruncation
    grammar_state = {
        "map_count": 0,
        "trap": False,
        "pending_address": 0,
        "last_units": 0,
    }

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
