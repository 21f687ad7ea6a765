"""Golden software decoder for the E-Trace-inspired packet stream.

The streaming scaffold (``feed``, ``finish``, the strict / lenient /
resync-hunt modes, state) is the shared
:class:`repro.tracepath.TraceDecoder`, as for
:class:`repro.coresight.decoder.PftDecoder`.  This module supplies the
E-Trace byte machine (``_step``), its column bulk path (``_scan``,
``_settle``, which claim runs of whole address, trap-address and
branch-map packets while the decoder is locked and idle) and the hunt
pattern: the alignment
preamble (``4 x 0x00`` then ``0xAA``) the encoder emits before every
sync burst.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import partial
from typing import List, Optional, Tuple

import numpy as np

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
from repro.tracepath import ClaimedRun, TraceDecoder, continuation_runs


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


def _common_length(groups: int, head: int) -> int:
    """Length of the common packet ``head`` starts when ``groups``
    continuation bytes follow it (5: an over-long varint), else 0."""
    if head in (HEADER_ADDRESS, HEADER_ADDRESS_TRAP):
        if groups == ADDRESS_VARINT_MAX_BYTES:
            return 0
        return 2 + groups + (head == HEADER_ADDRESS_TRAP)
    count = head >> 3
    if head & 0x07 == FMT_BRANCH_MAP and count:
        return 1 + (count + 7) // 8
    return 0


#: Bulk path: :func:`_common_length` by ``[groups, head]``.
_LENGTHS = np.array(
    [
        [_common_length(groups, head) for head in range(256)]
        for groups in range(ADDRESS_VARINT_MAX_BYTES + 1)
    ],
    dtype=np.uint8,
)
#: Bulk path: by continuation-group count, the bits a varint of that
#: many groups (+1) takes of the eight bytes after its header, top bits
#: cleared (an over-long one: its first five), and each group's byte.
_VARINT_GROUPS = np.array(
    [
        int.from_bytes(bytes([0x7F] * min(groups + 1, 5)), "little")
        for groups in range(ADDRESS_VARINT_MAX_BYTES + 1)
    ],
    dtype=np.int64,
)
_VARINT_SHIFTS = np.arange(ADDRESS_VARINT_MAX_BYTES)[:, None]
_VARINT_BYTES = 0x7F << 8 * _VARINT_SHIFTS
#: Bulk path: whether each header byte starts an address packet.
_ADDRESS_HEADS = np.zeros(256, dtype=bool)
_ADDRESS_HEADS[[HEADER_ADDRESS, HEADER_ADDRESS_TRAP]] = True
#: Zero bytes after a chunk: the scan's reach, plus the eight-byte
#: view past its last position.
_PADDING = bytes(2 * TraceDecoder._PAD)


def _run_items(padded, starts: List[int], lengths, target) -> List[object]:
    """The items of a claimed run: its branches and maps, in order."""
    out: List[object] = []
    addresses = iter(target.tolist())
    data = padded.tobytes()
    for start in starts:
        head = data[start]
        if head == HEADER_ADDRESS:
            out.append(EtraceBranch(next(addresses)))
            continue
        stop = start + int(lengths[start])
        if head == HEADER_ADDRESS_TRAP:
            out.append(EtraceBranch(next(addresses), True, data[stop - 1]))
            continue
        taken = ()
        for payload in data[start + 1:stop]:
            taken += _MAP_TAKEN[payload]
        out.append(EtraceBranchMap(taken[:head >> 3]))
    return out


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

    def _scan(self, data) -> Tuple[bytes, tuple]:
        """Bulk path: the common-packet length at every byte of ``data``.

        An address header starts its varint (up to five groups, ending
        at the first without a continuation bit), plus a cause byte
        after a trap header (its range is ``_settle``'s to check).  A
        branch-map header with a non-zero count starts its payload.
        Beside the lengths goes the zigzag delta an address packet at
        each address header would carry.
        """
        padded = np.frombuffer(bytes(data) + _PADDING, dtype=np.uint8)
        span = len(data) + self._PAD
        heads = padded[:span]
        groups = np.minimum(
            continuation_runs(padded)[1:1 + span], ADDRESS_VARINT_MAX_BYTES
        )
        lengths = _LENGTHS[groups, heads]
        address = _ADDRESS_HEADS[heads]
        where = np.flatnonzero(address)
        # The eight bytes after each address header, little-endian,
        # with all but the varint's groups cleared; group g moves
        # from bit 8g to bit 7g.
        value = np.ndarray(span, np.int64, padded, 1, (1,))[where]
        value &= _VARINT_GROUPS[groups[where]]
        value = ((value & _VARINT_BYTES) >> _VARINT_SHIFTS).sum(axis=0)
        delta = np.zeros(span, dtype=np.int64)
        delta[where] = (value >> 1) ^ -(value & 1)
        return lengths.tobytes(), (padded, lengths, address, delta)

    def _settle(self, scan, starts: List[int], stop: int):
        """Bulk path: the branch targets of a claimed run.

        Targets are the running sum of the zigzag deltas from the
        address before the run.  The first packet the byte machine
        would reject — a target out of the 31-bit range, a trap cause
        out of range — ends the claim.
        """
        padded, lengths, address, delta = scan
        where = np.fromiter(starts, np.int64, len(starts))
        address = where[address[where]]
        count = len(address)
        units = np.cumsum(delta[address])
        units += self._last_units
        trap = padded[address] == HEADER_ADDRESS_TRAP
        # Out of range either side is above the top as unsigned.
        if count and (
            trap.any() or units.view(np.uint64).max() > 0x7FFF_FFFF
        ):
            count = self._first_rejected(padded, lengths, address, units, trap)
            if count < len(address):
                stop = int(address[count])
                starts = starts[:int(np.searchsorted(where, stop))]
                if not starts:
                    return stop, None
                units = units[:count]
                trap = trap[:count]
        target = units << 1
        if count:
            self._last_units = int(units[-1])
            self._trap = False
            if trap.any():
                self._pending_address = int(target[trap][-1])
        if len(starts) > count:
            self._map_count = 0
        run = ClaimedRun(
            target, trap, partial(_run_items, padded, starts, lengths, target)
        )
        return stop, run

    @staticmethod
    def _first_rejected(padded, lengths, address, units, trap) -> int:
        """Index of the first address packet of a run the byte machine
        rejects (a target out of range, a trap cause out of range), or
        ``len(address)``."""
        bad = (units < 0) | (units > 0x7FFF_FFFF)
        traps = address[trap]
        bad[trap] |= padded[traps + lengths[traps] - 1] > MAX_CAUSE
        return int(bad.argmax()) if bad.any() else len(address)

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
