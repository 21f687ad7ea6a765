"""E-Trace transport link ("ETP"): packet bytes -> checksummed frames.

The structural twin of :mod:`repro.coresight.tpiu`, with the layout a
RISC-V trace funnel would use instead of the TPIU's fixed 16-byte
frames:

    byte 0       ``0xE0 | payload_length`` (length 1..15)
    bytes 1..n   payload (raw encoder packet bytes)
    byte n+1     checksum: XOR of the payload bytes, tweaked with 0x5C
                 so an all-zero frame cannot checksum to itself

Frames are *variable length* — a flush emits a short frame instead of
a zero-padded one — so the deframer walks header-to-header rather than
slicing fixed strides.  Every ``sync_period`` frames an 8-byte sync
pattern (``7 x 0x55`` then ``0xD5``) is inserted so a late-attaching or
resynchronising receiver can find a frame boundary; ``0x55`` and
``0xD5`` are not legal frame headers, so the pattern cannot occur in
header position.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import FrameSyncError
from repro.obs import MetricsRegistry, NULL_REGISTRY

#: Header byte high nibble; low nibble carries the payload length.
FRAME_HEADER_BASE = 0xE0
PAYLOAD_PER_FRAME = 15
#: Full frame: header + 15 payload bytes + checksum.
FRAME_OVERHEAD = 2
FRAME_SIZE = PAYLOAD_PER_FRAME + FRAME_OVERHEAD
#: XOR tweak folded into every checksum byte.
CHECKSUM_TWEAK = 0x5C
SYNC_PATTERN = bytes([0x55] * 7 + [0xD5])
SYNC_SIZE = len(SYNC_PATTERN)


def frame_checksum(payload: bytes) -> int:
    check = CHECKSUM_TWEAK
    for byte in payload:
        check ^= byte
    return check


class EtraceFramer:
    """Link transmitter: accepts packet bytes, emits complete frames."""

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
        self._m_frames = self.metrics.counter("etrace.link.frames")
        self._m_sync_frames = self.metrics.counter("etrace.link.sync_frames")
        self._m_payload = self.metrics.counter("etrace.link.payload_bytes")

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
        out = bytearray()
        while len(self._buffer) >= PAYLOAD_PER_FRAME:
            payload = bytes(self._buffer[:PAYLOAD_PER_FRAME])
            del self._buffer[:PAYLOAD_PER_FRAME]
            out += self._frame(payload)
        return bytes(out)

    def flush(self) -> bytes:
        """Emit a final short frame with whatever remains buffered."""
        if not self._buffer:
            return b""
        payload = bytes(self._buffer)
        self._buffer.clear()
        return self._frame(payload)

    def _frame(self, payload: bytes) -> bytes:
        assert 1 <= len(payload) <= PAYLOAD_PER_FRAME
        out = bytearray()
        if self._frames_since_sync >= self.sync_period:
            out += SYNC_PATTERN
            self._frames_since_sync = 0
            self._m_sync_frames.inc()
        out.append(FRAME_HEADER_BASE | len(payload))
        out += payload
        out.append(frame_checksum(payload))
        self.frames_emitted += 1
        self._frames_since_sync += 1
        self._m_frames.inc()
        self._m_payload.inc(len(payload))
        return bytes(out)


class EtraceDeframer:
    """Receiver side: frames back to the raw packet byte stream.

    Starts unsynchronised: discards bytes until the sync pattern is
    seen, then walks header-to-header through variable-length frames.
    With ``resync_hunt=True`` a malformed header or checksum mismatch
    (the symptoms of byte loss shifting the frame boundary) does not
    raise: the deframer drops sync, counts a resync, and hunts for the
    next sync pattern.
    """

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
        self._m_resyncs = self.metrics.counter("etrace.deframer.resyncs")
        self._m_bytes_discarded = self.metrics.counter(
            "etrace.deframer.bytes_discarded"
        )

    def _discard(self, amount: int) -> None:
        self.bytes_discarded += amount
        self._m_bytes_discarded.inc(amount)

    def _desync(self, amount: int, message: str) -> int:
        """A malformed frame: drop sync, discard ``amount`` bytes and
        hunt for the next pattern (returns ``amount``)."""
        if not self.resync_hunt:
            raise FrameSyncError(message)
        self._synced = False
        self.frame_resyncs += 1
        self._m_resyncs.inc()
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

    def push(self, data: bytes) -> bytes:
        """Consume frame bytes; return recovered packet payload bytes.

        Walks the buffer with a cursor and drops the consumed bytes
        once, also when a strict deframer raises.
        """
        buffer = self._buffer
        buffer += data
        size = len(buffer)
        out = bytearray()
        pos = 0
        try:
            while True:
                if not self._synced:
                    index = buffer.find(SYNC_PATTERN, pos)
                    if index < 0:
                        # keep a tail that could be a sync prefix
                        keep = min(size - pos, SYNC_SIZE - 1)
                        self._discard(size - pos - keep)
                        pos = size - keep
                        break
                    self._discard(index - pos)
                    pos = index + SYNC_SIZE
                    self._synced = True
                    continue
                if pos == size:
                    break
                lead = buffer[pos]
                if lead == SYNC_PATTERN[0]:
                    if size - pos < SYNC_SIZE:
                        break
                    if buffer.startswith(SYNC_PATTERN, pos):
                        pos += SYNC_SIZE
                        continue
                    pos += self._desync(1, "corrupt sync pattern")
                    continue
                length = lead & 0x0F
                if (lead & 0xF0) != FRAME_HEADER_BASE or length < 1:
                    pos += self._desync(1, f"invalid frame header {lead:#04x}")
                    continue
                total = length + FRAME_OVERHEAD
                if size - pos < total:
                    break
                payload = buffer[pos + 1:pos + 1 + length]
                if buffer[pos + 1 + length] != frame_checksum(payload):
                    pos += self._desync(total, "frame checksum mismatch")
                    continue
                pos += total
                out += payload
                self.frames_consumed += 1
        finally:
            del buffer[:pos]
        return bytes(out)
