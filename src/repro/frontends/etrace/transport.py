"""E-Trace transport link ("ETP"): packet bytes -> checksummed frames.

Like :mod:`repro.coresight.tpiu`, a framer/deframer pair over the
shared :mod:`repro.tracepath` link skeleton, with the layout a RISC-V
trace funnel would use instead of the TPIU's fixed 16-byte frames:

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

from repro.tracepath import LinkDeframer, LinkFramer

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


class EtraceFramer(LinkFramer):
    """Link transmitter: accepts packet bytes, emits complete frames."""

    payload_per_frame = PAYLOAD_PER_FRAME
    frame_size = FRAME_SIZE
    sync_pattern = SYNC_PATTERN
    padded_tail = False
    counter_prefix = "etrace.link"

    def _frame(self, payload: bytes) -> bytes:
        return (
            bytes([FRAME_HEADER_BASE | len(payload)])
            + payload
            + bytes([frame_checksum(payload)])
        )


class EtraceDeframer(LinkDeframer):
    """Receiver side: frames back to the raw packet byte stream.

    Starts unsynchronised: discards bytes until the sync pattern is
    seen, then walks header-to-header through variable-length frames.
    With ``resync_hunt=True`` a malformed header or checksum mismatch
    (the symptoms of byte loss shifting the frame boundary) does not
    raise: the deframer drops sync, counts a resync, and hunts for the
    next sync pattern.
    """

    counters = ("etrace.deframer.resyncs", "etrace.deframer.bytes_discarded")

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
