"""TPIU model: trace byte stream -> framed 32-bit trace-port words.

The Trace Port Interface Unit packs trace source bytes into 16-byte
frames.  Our frame layout keeps the real TPIU's essentials — a source
ID, periodic full-synchronisation, and fixed-size frames delivered as
32-bit words — while replacing the data/ID bit-interleaving with an
explicit header byte (source ID + payload length), which removes the
ambiguity of value-based padding:

    byte 0      bits[7:4] = source ID, bits[3:0] = payload length (<=15)
    bytes 1..n  payload
    bytes n+1.. zero padding to 16 bytes

Every ``sync_period`` frames a full-sync frame (15 x 0xFF then 0x7F) is
inserted so a late-attaching receiver can align.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

from repro.obs import MetricsRegistry
from repro.tracepath import LinkDeframer, LinkFramer
from repro.utils.bitstream import bytes_to_words, words_to_bytes

FRAME_SIZE = 16
PAYLOAD_PER_FRAME = FRAME_SIZE - 1
SYNC_FRAME = bytes([0xFF] * (FRAME_SIZE - 1) + [0x7F])
DEFAULT_SOURCE_ID = 0x1


class Tpiu(LinkFramer):
    """Framer: accepts trace bytes, emits complete frames / words."""

    payload_per_frame = PAYLOAD_PER_FRAME
    frame_size = FRAME_SIZE
    sync_pattern = SYNC_FRAME
    padded_tail = True
    counter_prefix = "tpiu"

    def __init__(
        self,
        source_id: int = DEFAULT_SOURCE_ID,
        sync_period: int = 64,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if not 0 <= source_id <= 0xF:
            raise ValueError("source id must fit in 4 bits")
        super().__init__(sync_period=sync_period, metrics=metrics)
        self.source_id = source_id
        self._m_padding = self.metrics.counter("tpiu.padding_bytes")

    def push_words(self, data: bytes) -> List[int]:
        """Frame and return 32-bit words (the IGM ingest format)."""
        return bytes_to_words(self.push(data))

    def _frame(self, payload: bytes) -> bytes:
        header = (self.source_id << 4) | len(payload)
        frame = bytes([header]) + payload
        self._m_padding.inc(FRAME_SIZE - len(frame))
        return frame + bytes(FRAME_SIZE - len(frame))


class TpiuDeframer(LinkDeframer):
    """Receiver side: frames (or words) back to the trace byte stream.

    Starts unsynchronised: discards bytes until a full-sync frame is
    seen, then consumes 16-byte frames.  This mirrors how IGM attaches
    to an already-running trace port.

    With ``resync_hunt=True`` a malformed frame (impossible payload
    length or unexpected source ID — the symptoms of byte loss shifting
    the frame boundary) does not raise: the deframer drops sync, counts
    a ``frame_resyncs``, and hunts for the next full-sync frame, the
    recovery a real trace receiver performs.
    """

    counters = ("tpiu.frame_resyncs", "tpiu.bytes_discarded")

    def __init__(
        self,
        expected_source_id: Optional[int] = None,
        resync_hunt: bool = False,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        super().__init__(resync_hunt=resync_hunt, metrics=metrics)
        self.expected_source_id = expected_source_id

    def push(self, data: bytes) -> bytes:
        """Consume frame bytes; return recovered trace payload bytes."""
        self._buffer += data
        out = bytearray()
        while True:
            if not self._synced:
                index = bytes(self._buffer).find(SYNC_FRAME)
                if index < 0:
                    # keep a tail that could be a sync prefix
                    keep = min(len(self._buffer), FRAME_SIZE - 1)
                    self._discard(len(self._buffer) - keep)
                    del self._buffer[:len(self._buffer) - keep]
                    break
                self._discard(index)
                del self._buffer[:index + FRAME_SIZE]
                self._synced = True
                continue
            if len(self._buffer) < FRAME_SIZE:
                break
            frame = bytes(self._buffer[:FRAME_SIZE])
            del self._buffer[:FRAME_SIZE]
            if frame == SYNC_FRAME:
                continue
            header = frame[0]
            source_id = header >> 4
            length = header & 0x0F
            if length > PAYLOAD_PER_FRAME:
                self._desync(
                    FRAME_SIZE, f"impossible payload length {length}"
                )
                continue
            if (
                self.expected_source_id is not None
                and source_id != self.expected_source_id
            ):
                self._desync(
                    FRAME_SIZE,
                    f"unexpected trace source {source_id:#x} "
                    f"(wanted {self.expected_source_id:#x})",
                )
                continue
            out += frame[1:1 + length]
            self.frames_consumed += 1
        return bytes(out)

    def push_words(self, words: Iterable[int]) -> bytes:
        return self.push(words_to_bytes(list(words)))
