"""Golden software decoder for the PFT-inspired packet stream.

This is the reference the hardware trace analyzer (IGM) is verified
against — the role the paper's step-4 "verify" plays for ML-MIAOW, here
applied to the trace path.  The streaming scaffold (``feed``,
``finish``, modes, resync hunting, state) is the shared
:class:`repro.tracepath.TraceDecoder`; this module supplies the PFT
byte machine (``_step``) and its bulk path (``_claim``), which claims
whole branch-address, atom and ignore packets while the decoder is
locked and idle.
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
from repro.tracepath import TraceDecoder

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

    def _claim(self, data, index: int, out: List[object]) -> int:
        """Bulk path: decode whole common packets from ``data[index:]``.

        Runs only while idle, where the byte machine holds no scratch
        bytes.  Claims branch-address packets that end inside ``data``
        and carry no exception byte, valid atom bytes and the ignore
        byte, leaving the state exactly as the byte machine would.
        Returns the index of the first byte it does not claim.
        """
        end = len(data)
        last = self._last_address
        none = ExceptionType.NONE
        while index < end:
            byte = data[index]
            if byte & 0x01:
                word = (byte >> 1) & 0x3F
                bits = 6
                stop = index + 1
                while byte & 0x80 and stop < end:
                    byte = data[stop]
                    stop += 1
                    if bits == 27:
                        word |= (byte & 0x07) << 27
                        bits = 30
                        break
                    word |= (byte & 0x7F) << bits
                    bits += 7
                if (byte & 0x40) if bits == 30 else (byte & 0x80):
                    break  # an exception byte follows, or the chunk ends
                last = merge_compressed_address(word, bits, last)
                out.append(DecodedBranch(last, none))
                index = stop
                continue
            atoms = _ATOM_ITEMS[byte]
            if atoms is not None:
                out += atoms
            elif byte != HEADER_IGNORE:
                break
            index += 1
        self._last_address = last
        return index

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
