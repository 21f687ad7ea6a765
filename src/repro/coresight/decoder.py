"""Golden software decoder for the PFT-inspired packet stream.

This is the reference the hardware trace analyzer (IGM) is verified
against — the role the paper's step-4 "verify" plays for ML-MIAOW, here
applied to the trace path.  The streaming scaffold (``feed``,
``finish``, modes, resync hunting, state) is the shared
:class:`repro.tracepath.TraceDecoder`; this module supplies the PFT
byte machine (``_step``) and its column bulk path (``_scan``,
``_settle``), which claims runs of whole branch-address, atom and
ignore packets while the decoder is locked and idle.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import partial
from typing import List, Optional, Tuple

import numpy as np

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
from repro.tracepath import ClaimedRun, TraceDecoder, continuation_runs

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


_ATOMS = {True: DecodedAtom(taken=True), False: DecodedAtom(taken=False)}


def _atom_items(byte: int):
    try:
        return tuple(_ATOMS[taken] for taken in decode_atom_byte(byte))
    except PacketDecodeError:
        return None


#: Bulk path: the (shared, immutable) items of each valid atom byte,
#: ``None`` for every byte that is not one.
_ATOM_ITEMS = tuple(_atom_items(byte) for byte in range(256))


def _common_length(more: int, fifth: int, head: int) -> int:
    """Length of the common packet ``head`` starts, or 0.

    ``more`` is how many bytes from the header on carry the
    continuation bit (capped at 4), ``fifth`` the top two bits of the
    fifth byte: a branch packet runs to its first byte without the
    bit, or to its fifth byte, whose 0x40 bit must not flag an
    exception byte.  A valid atom byte and the ignore byte are
    one-byte packets.
    """
    if head & 0x01:
        if more == BRANCH_ADDR_MAX_BYTES - 1 and fifth & 0x1:
            return 0
        return more + 1
    return int(_ATOM_ITEMS[head] is not None or head == HEADER_IGNORE)


#: Bulk path: :func:`_common_length` by ``[more, fifth, head]``.
_LENGTHS = np.array(
    [
        [[_common_length(more, fifth, head) for head in range(256)]
         for fifth in range(4)]
        for more in range(BRANCH_ADDR_MAX_BYTES)
    ],
    dtype=np.uint8,
)
#: Bulk path: the address bits of each byte (row) of a branch
#: packet, read from the eight bytes at the packet, and the right
#: shift that moves byte g's bits to ``7 * g``, so the rows sum to
#: ``word << 1`` (the header carries word bits [5:0] in its [6:1]).
_GROUP_ROWS = np.arange(BRANCH_ADDR_MAX_BYTES)[:, None]
_GROUP_BYTES = np.array(
    [0x7E, 0x7F << 8, 0x7F << 16, 0x7F << 24, 0x07 << 32], dtype=np.uint64
)[:, None]
_GROUP_SHIFTS = _GROUP_ROWS.astype(np.uint64)


def _full_packet(address: int) -> int:
    """The bytes (little-endian) of a five-byte packet carrying
    ``address`` whole, as a uint64 — its address bits only."""
    word = (address >> 2) & 0x3FFF_FFFF
    return (
        (word & 0x3F) << 1
        | (word >> 6 & 0x7F) << 8
        | (word >> 13 & 0x7F) << 16
        | (word >> 20 & 0x7F) << 24
        | (word >> 27) << 32
    )


_NO_TARGETS = np.zeros(0, dtype=np.int64)
_PADDING = bytes(2 * TraceDecoder._PAD)


def _run_items(padded, starts: List[int], target) -> List[object]:
    """The items of a claimed run: its branches and atoms, in order."""
    out: List[object] = []
    addresses = iter(target.tolist())
    none = ExceptionType.NONE
    heads = padded.tobytes()
    for start in starts:
        head = heads[start]
        if head & 0x01:
            out.append(DecodedBranch(next(addresses), none))
        else:
            out += _ATOM_ITEMS[head] or ()
    return out


class _State(enum.Enum):
    IDLE = "idle"
    ASYNC = "async"
    ISYNC = "isync"
    CONTEXT = "context"
    TIMESTAMP = "timestamp"
    BRANCH = "branch"
    BRANCH_EXC = "branch-exc"
    HUNT = "hunt"


class PftDecoder(TraceDecoder):
    """Streaming PFT packet decoder (modes: see :class:`TraceDecoder`).

    Resync hunting scans for the a-sync burst (>= 5 x 0x00 then 0x80).
    """

    _IDLE = _State.IDLE
    _HUNT = _State.HUNT
    _FILL = _State.ASYNC
    fill_byte = HEADER_ASYNC_FILL
    end_byte = HEADER_ASYNC_END
    fill_count = ASYNC_FILL_COUNT
    counters = (
        "coresight.decoder.resyncs",
        "coresight.decoder.truncated",
        "coresight.decoder.hunt_bytes",
    )
    branch_type = DecodedBranch
    truncation_type = TruncatedPacket
    grammar_state = {"last_address": 0}

    def _scan(self, data) -> Tuple[bytes, tuple]:
        """Bulk path: the common-packet length at every byte of
        ``data`` (:func:`_common_length`).  The padded copy is
        writable: ``_settle`` parks the address before a run in it."""
        padded = np.frombuffer(bytearray(data) + _PADDING, dtype=np.uint8)
        span = len(data) + self._PAD
        heads = padded[:span]
        more = np.minimum(
            continuation_runs(padded)[:span], BRANCH_ADDR_MAX_BYTES - 1
        )
        lengths = _LENGTHS[more, padded[4:4 + span] >> 6, heads]
        branch = (heads & 1).view(bool)
        return lengths.tobytes(), (padded, lengths, branch)

    def _settle(self, scan, starts: List[int], stop: int):
        """Bulk path: the branch targets of a claimed run.

        Byte g of each target's packet comes from the latest packet in
        the run long enough to carry it, or else from the address
        before the run: a forward fill of carrier positions per byte.
        The address before the run is written as a full packet into
        the padding, where carrier -1 reads it.
        """
        padded, lengths, branch = scan
        where = np.fromiter(starts, np.int64, len(starts))
        where = where[branch[where]]
        count = len(where)
        target = _NO_TARGETS
        if count:
            carrier = np.where(lengths[where] > _GROUP_ROWS, where, -1)
            np.maximum.accumulate(carrier, axis=1, out=carrier)
            # The eight bytes from each position, little-endian.
            packets = np.ndarray(len(padded) - 7, np.uint64, padded, 0, (1,))
            packets[-1] = _full_packet(self._last_address)
            target = (
                (packets[carrier] & _GROUP_BYTES) >> _GROUP_SHIFTS
            ).sum(axis=0).view(np.int64) << 1
            self._last_address = int(target[-1])
        run = ClaimedRun(
            target,
            np.zeros(count, dtype=bool),
            partial(_run_items, padded, starts, target),
        )
        return stop, run

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
