"""Length-prefixed wire protocol of the ingestion front door.

One connection carries one client session::

    HELLO {tenant, mode, frontend}     ->  ACK
    RAW <grammar bytes> | EVENTS <batch> -> ACK | SHED | ERR   (repeated)
    BYE                                ->  SUMMARY

Every frame is ``u32 length | u32 crc32(body) | body`` with
``body = u8 type | payload`` (little-endian).  The CRC makes payload
corruption detectable *without* losing frame synchronisation: a frame
whose body fails the checksum is refused and counted, and the stream
keeps going — exactly the behaviour the connection-chaos sweep pins
down.  A malformed *header* (oversized length, unknown type) is not
recoverable inside one TCP stream, so the server answers ERR and
closes the connection.

Pre-decoded event batches ride the durability layer's columnar
TRACE_CHUNK codec (:func:`repro.durability.journal.encode_trace_chunk`)
— one codec for the wire and the write-ahead journal.

Everything here is pure bytes-in/bytes-out (no asyncio), so the same
functions drive the async server, the simulated soak clients, and the
unit tests.
"""

from __future__ import annotations

import json
import struct
import zlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.durability.journal import decode_trace_chunk, encode_trace_chunk
from repro.errors import FrameProtocolError
from repro.eventbatch import EventBatch
from repro.workloads.cfg import BranchEvent

_HEADER = struct.Struct("<II")

#: Frame header size in bytes (length + crc32).
HEADER_BYTES = _HEADER.size

#: Default ceiling on one frame's body; oversized lengths are treated
#: as protocol corruption, not as a request for a huge allocation.
MAX_FRAME_BYTES = 1 << 20


class FrameType:
    """Wire frame type codes (``u8``).  Values are on the wire — never
    renumber."""

    HELLO = 1
    RAW = 2
    EVENTS = 3
    BYE = 4
    ACK = 16
    SHED = 17
    ERR = 18
    SUMMARY = 19

    CLIENT_TYPES = (HELLO, RAW, EVENTS, BYE)
    SERVER_TYPES = (ACK, SHED, ERR, SUMMARY)


#: Session ingest modes (HELLO ``mode`` field).
MODE_RAW = "raw"
MODE_EVENTS = "events"
MODES = (MODE_RAW, MODE_EVENTS)


@dataclass(frozen=True)
class Frame:
    """One decoded frame."""

    type: int
    payload: bytes


def encode_frame(frame_type: int, payload: bytes = b"") -> bytes:
    """Encode one frame into its wire representation."""
    body = bytes([frame_type]) + payload
    if len(body) > MAX_FRAME_BYTES:
        raise FrameProtocolError(
            f"frame body {len(body)} bytes exceeds {MAX_FRAME_BYTES}"
        )
    return _HEADER.pack(len(body), zlib.crc32(body)) + body


def decode_body(body: bytes, crc: int) -> Frame:
    """Validate and split one frame body (the bytes after the header)."""
    if zlib.crc32(body) != crc:
        raise FrameProtocolError("frame body failed its checksum")
    if not body:
        raise FrameProtocolError("empty frame body")
    return Frame(type=body[0], payload=body[1:])


def split_header(header: bytes) -> Tuple[int, int]:
    """Unpack a frame header; returns ``(length, crc)``."""
    if len(header) != HEADER_BYTES:
        raise FrameProtocolError(
            f"frame header is {len(header)} bytes, expected {HEADER_BYTES}"
        )
    length, crc = _HEADER.unpack(header)
    if not 0 < length <= MAX_FRAME_BYTES:
        raise FrameProtocolError(
            f"frame length {length} outside (0, {MAX_FRAME_BYTES}]"
        )
    return length, crc


class FrameDecoder:
    """Incremental frame reassembly for byte-at-a-time transports."""

    def __init__(self) -> None:
        self._buffer = bytearray()

    def feed(self, data: bytes) -> List[Frame]:
        """Absorb bytes; returns every frame completed by them.

        Raises :class:`FrameProtocolError` on a bad header or checksum
        — framing is unrecoverable at that point.
        """
        self._buffer += data
        frames: List[Frame] = []
        while True:
            if len(self._buffer) < HEADER_BYTES:
                return frames
            length, crc = split_header(bytes(self._buffer[:HEADER_BYTES]))
            if len(self._buffer) < HEADER_BYTES + length:
                return frames
            body = bytes(self._buffer[HEADER_BYTES:HEADER_BYTES + length])
            del self._buffer[:HEADER_BYTES + length]
            frames.append(decode_body(body, crc))

    @property
    def pending_bytes(self) -> int:
        return len(self._buffer)


# ----------------------------------------------------------------------
# Payload codecs
# ----------------------------------------------------------------------


def encode_json(document: Dict[str, object]) -> bytes:
    return json.dumps(document, sort_keys=True).encode("utf-8")


def decode_json(payload: bytes) -> Dict[str, object]:
    try:
        document = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise FrameProtocolError(f"bad JSON payload: {error}") from error
    if not isinstance(document, dict):
        raise FrameProtocolError("JSON payload must be an object")
    return document


def hello_frame(
    tenant: str, mode: str = MODE_EVENTS, frontend: Optional[str] = None
) -> bytes:
    document: Dict[str, object] = {"tenant": tenant, "mode": mode}
    if frontend is not None:
        document["frontend"] = frontend
    return encode_frame(FrameType.HELLO, encode_json(document))


def events_frame(
    events: Union[EventBatch, Sequence[BranchEvent]], sequence: int = 0
) -> bytes:
    """Pack a pre-decoded event batch (columnar TRACE_CHUNK codec)."""
    return encode_frame(
        FrameType.EVENTS, encode_trace_chunk("", 0, sequence, events)
    )


def decode_events_payload(payload: bytes) -> EventBatch:
    """Inverse of :func:`events_frame`'s payload packing: column views
    over ``payload``."""
    try:
        return decode_trace_chunk(payload).batch
    except Exception as error:  # codec raises Journal/struct errors
        raise FrameProtocolError(
            f"undecodable event batch: {error}"
        ) from error


def raw_frame(stream: bytes) -> bytes:
    return encode_frame(FrameType.RAW, stream)


def bye_frame() -> bytes:
    return encode_frame(FrameType.BYE)


def ack_frame(accepted_events: int) -> bytes:
    return encode_frame(
        FrameType.ACK, encode_json({"accepted_events": accepted_events})
    )


def shed_frame(reason: str, retry_after_ms: float) -> bytes:
    """Overload refusal: *why* plus a client-visible backoff hint."""
    return encode_frame(
        FrameType.SHED,
        encode_json(
            {"reason": reason, "retry_after_ms": round(retry_after_ms, 3)}
        ),
    )


def err_frame(error: str) -> bytes:
    return encode_frame(FrameType.ERR, encode_json({"error": error}))


def summary_frame(stats: Dict[str, object]) -> bytes:
    return encode_frame(FrameType.SUMMARY, encode_json(stats))
