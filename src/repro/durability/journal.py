"""Segmented write-ahead journal for ingested trace chunks.

Every trace round a :class:`~repro.soc.manager.SocManager` processes is
journalled *before* it is fed to the dataplane, so a crash at any point
leaves one of two on-disk states:

- the round's records end with a ``ROUND_COMMIT`` — the round was fully
  processed and will be *replayed* on recovery, or
- the round's records are missing the commit (possibly torn mid-record)
  — the round never affected session state and is *discarded*; the
  caller re-feeds it from :attr:`SocManager.next_round`.

Record wire format (all integers little-endian)::

    [u32 length][u32 crc32][u64 sequence][u8 kind][payload ...]
    '-- header ----------'  '-- body: length bytes, crc32 over body --'

Sequence numbers are global and strictly monotonic across segments, so
a gap (a valid-CRC record with the wrong sequence) is detected as
corruption rather than silently replayed.  A *torn tail* — a partial
record at the end of the **last** segment, the normal result of a crash
mid-write — is tolerated: the scan stops there and the
:class:`FileJournal` physically truncates it on reopen.  Any invalid
bytes elsewhere raise :class:`~repro.errors.JournalCorruptionError`.

Segments are rolled at checkpoints (:meth:`Journal.roll`), so segments
older than the newest ``CHECKPOINT`` record can be pruned offline.
"""

from __future__ import annotations

import json
import os
import re
import struct
import zlib
from dataclasses import dataclass
from enum import IntEnum
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import JournalCorruptionError
from repro.eventbatch import KIND_CODE, KIND_ORDER, EventBatch
from repro.obs import NULL_REGISTRY
from repro.workloads.cfg import BranchEvent, BranchKind

#: ``[u32 length][u32 crc32]`` record header.
_HEADER = struct.Struct("<II")

#: ``[u64 sequence][u8 kind]`` body prefix (followed by the payload).
_BODY_PREFIX = struct.Struct("<QB")

#: Smallest possible record: header plus an empty-payload body.
MIN_RECORD_BYTES = _HEADER.size + _BODY_PREFIX.size


class RecordKind(IntEnum):
    """Journal record taxonomy.  Values are on-disk — never renumber."""

    ROUND_BEGIN = 1
    TRACE_CHUNK = 2
    ROUND_COMMIT = 3
    CHECKPOINT = 4


@dataclass(frozen=True)
class JournalRecord:
    """One validated record read back from the journal."""

    sequence: int
    kind: RecordKind
    payload: bytes
    segment: int


def encode_record(sequence: int, kind: int, payload: bytes) -> bytes:
    """Encode one record into its on-disk byte representation."""
    body = _BODY_PREFIX.pack(sequence, int(kind)) + payload
    return _HEADER.pack(len(body), zlib.crc32(body)) + body


def record_size(payload_length: int) -> int:
    """Total encoded bytes of a record with this payload length."""
    return _HEADER.size + _BODY_PREFIX.size + payload_length


def write_record_into(
    buffer,
    offset: int,
    sequence: int,
    kind: int,
    payload,
    payload_crc: Optional[int] = None,
) -> int:
    """Write one journal-format record into a writable buffer.

    The shared-memory ring transport's slot writer: same header, CRC,
    and sequence layout as the on-disk journal, but written in place
    (the payload bytes are copied exactly once — no intermediate
    record object).  ``payload`` may also be a list/tuple of buffers,
    written back-to-back as one record body (scatter-gather: a whole
    round's chunks become one slot without an intermediate
    concatenation).  Returns the record's total size.

    When ``payload_crc`` is supplied, the record CRC is composed
    *payload-first* — ``crc32(prefix, payload_crc)``, i.e. the CRC of
    ``payload || prefix`` — so a caller that tagged the payload once
    (``zlib.crc32`` chained over the parts, e.g. at TRACE_CHUNK
    assembly) never re-reads it per write; only the 9-byte prefix is
    hashed here.  Coverage is identical, the composition order is the
    only difference; readers must pass the matching
    ``payload_first_crc`` flag to :func:`read_record_from`.
    """
    parts = (
        payload if isinstance(payload, (list, tuple)) else (payload,)
    )
    length = sum(len(part) for part in parts)
    prefix = _BODY_PREFIX.pack(sequence, int(kind))
    if payload_crc is None:
        crc = zlib.crc32(prefix)
        for part in parts:
            crc = zlib.crc32(part, crc)
    else:
        crc = zlib.crc32(prefix, payload_crc)
    total = record_size(length)
    _HEADER.pack_into(buffer, offset, _BODY_PREFIX.size + length, crc)
    start = offset + _HEADER.size
    buffer[start:start + _BODY_PREFIX.size] = prefix
    start += _BODY_PREFIX.size
    for part in parts:
        buffer[start:start + len(part)] = part
        start += len(part)
    return total


def read_record_from(
    buffer,
    offset: int,
    expected_sequence: Optional[int] = None,
    payload_first_crc: bool = False,
    payload_crc: Optional[int] = None,
    expected_payload_length: Optional[int] = None,
) -> Tuple[int, int, "memoryview", int]:
    """Validate and read one record out of a buffer without copying.

    The shared-memory ring transport's slot reader.  Returns
    ``(sequence, kind, payload_view, total_bytes)`` where
    ``payload_view`` is a zero-copy view into ``buffer``.  Raises
    :class:`~repro.errors.JournalCorruptionError` on truncation, CRC
    mismatch, or an unexpected sequence number — the exact torn-record
    taxonomy the WAL segment scan uses, applied to a torn ring slot.
    ``payload_first_crc`` selects the payload-first CRC composition
    :func:`write_record_into` uses for pre-tagged payloads.

    When the reader already holds the writer's payload tag through a
    trusted side channel (``payload_crc`` — the ring transport carries
    it in the slot descriptor on the reliable pipe), the stored CRC is
    checked against ``crc32(prefix, payload_crc)`` instead of
    re-hashing the payload: every header tear — truncated, stale,
    misdirected, or bit-flipped header — is still detected, at the
    cost of hashing 9 bytes rather than the whole body.  The ``length``
    field sits outside the stored CRC's coverage, so tagged readers
    must also pass ``expected_payload_length`` (carried in the same
    slot descriptor): a torn length with an intact body would otherwise
    slip past the tiered check and yield a wrong-sized payload view.
    """
    view = memoryview(buffer)
    size = len(view)
    if offset < 0 or size - offset < _HEADER.size:
        raise JournalCorruptionError(
            f"record at byte {offset}: incomplete record header"
        )
    length, crc = _HEADER.unpack_from(view, offset)
    body_start = offset + _HEADER.size
    if length < _BODY_PREFIX.size:
        raise JournalCorruptionError(
            f"record at byte {offset}: body length {length} below minimum"
        )
    if size - body_start < length:
        raise JournalCorruptionError(
            f"record at byte {offset}: incomplete record body"
        )
    if expected_payload_length is not None:
        expected_body = _BODY_PREFIX.size + expected_payload_length
        if length != expected_body:
            raise JournalCorruptionError(
                f"record at byte {offset}: body length mismatch "
                f"(expected {expected_body}, found {length})"
            )
    body = view[body_start:body_start + length]
    if payload_first_crc and payload_crc is not None:
        computed = zlib.crc32(body[:_BODY_PREFIX.size], payload_crc)
    elif payload_first_crc:
        computed = zlib.crc32(
            body[:_BODY_PREFIX.size],
            zlib.crc32(body[_BODY_PREFIX.size:]),
        )
    else:
        computed = zlib.crc32(body)
    if computed != crc:
        raise JournalCorruptionError(
            f"record at byte {offset}: CRC mismatch"
        )
    sequence, kind = _BODY_PREFIX.unpack_from(body)
    if expected_sequence is not None and sequence != expected_sequence:
        raise JournalCorruptionError(
            f"record at byte {offset}: sequence gap "
            f"(expected {expected_sequence}, found {sequence})"
        )
    return sequence, kind, body[_BODY_PREFIX.size:], _HEADER.size + length


def _scan_segment(
    data: bytes,
    segment_index: int,
    expected_sequence: int,
    *,
    is_last: bool,
) -> Tuple[List[JournalRecord], int]:
    """Validate one segment, returning ``(records, valid_byte_count)``.

    Stops at the first invalid record.  In the last segment that is a
    tolerated torn tail; anywhere else it is corruption.
    """
    records: List[JournalRecord] = []
    offset = 0
    size = len(data)

    def _invalid(reason: str) -> Tuple[List[JournalRecord], int]:
        if is_last:
            return records, offset
        raise JournalCorruptionError(
            f"journal segment {segment_index} invalid at byte {offset}: "
            f"{reason}"
        )

    while offset < size:
        if size - offset < _HEADER.size:
            return _invalid("incomplete record header")
        length, crc = _HEADER.unpack_from(data, offset)
        body_start = offset + _HEADER.size
        if length < _BODY_PREFIX.size:
            return _invalid(f"body length {length} below minimum")
        if size - body_start < length:
            return _invalid("incomplete record body")
        body = bytes(data[body_start:body_start + length])
        if zlib.crc32(body) != crc:
            return _invalid("CRC mismatch")
        sequence, kind = _BODY_PREFIX.unpack_from(body)
        if sequence != expected_sequence:
            # A valid-CRC record with the wrong sequence cannot be a
            # torn write: records are missing.  Always corruption.
            raise JournalCorruptionError(
                f"journal segment {segment_index}: sequence gap "
                f"(expected {expected_sequence}, found {sequence})"
            )
        try:
            record_kind = RecordKind(kind)
        except ValueError:
            return _invalid(f"unknown record kind {kind}")
        records.append(
            JournalRecord(
                sequence=sequence,
                kind=record_kind,
                payload=body[_BODY_PREFIX.size:],
                segment=segment_index,
            )
        )
        expected_sequence += 1
        offset = body_start + length
    return records, offset


class Journal:
    """Backend-agnostic journal core (append, roll, validated scan)."""

    def __init__(self, metrics=NULL_REGISTRY) -> None:
        self.metrics = metrics
        self._m_appends = metrics.counter("durability.journal.appends")
        self._m_bytes = metrics.counter("durability.journal.bytes")
        self._m_rolls = metrics.counter("durability.journal.rolls")
        self._m_torn = metrics.counter("durability.journal.torn_drops")
        self._next_sequence = 0
        self._recover_tail()

    # -- backend interface --------------------------------------------------

    def _segment_count(self) -> int:
        raise NotImplementedError

    def _segment_bytes(self, index: int) -> bytes:
        raise NotImplementedError

    def _append_bytes(self, data: bytes) -> None:
        """Append raw bytes to the last segment."""
        raise NotImplementedError

    def _start_segment(self) -> None:
        raise NotImplementedError

    def _truncate_last_segment(self, valid_bytes: int) -> None:
        """Discard the torn tail of the last segment (crash cleanup)."""
        raise NotImplementedError

    # -- public API ---------------------------------------------------------

    @property
    def next_sequence(self) -> int:
        return self._next_sequence

    def append(self, kind: int, payload: bytes) -> int:
        """Write one record; returns its sequence number."""
        sequence = self._next_sequence
        data = encode_record(sequence, kind, payload)
        self._append_bytes(data)
        self._next_sequence += 1
        self._m_appends.inc()
        self._m_bytes.inc(len(data))
        return sequence

    def append_torn(self, kind: int, payload: bytes, keep_bytes: int) -> None:
        """Write a genuinely torn record: only the first ``keep_bytes``.

        Models a crash mid-``write(2)``.  The record never commits, so
        the journal's sequence counter does not advance; a subsequent
        reopen drops the partial bytes.
        """
        data = encode_record(self._next_sequence, kind, payload)
        if not 0 <= keep_bytes < len(data):
            raise ValueError(
                f"keep_bytes must be in [0, {len(data)}), got {keep_bytes}"
            )
        self._append_bytes(data[:keep_bytes])

    def roll(self) -> None:
        """Start a new segment (called after writing a checkpoint)."""
        self._start_segment()
        self._m_rolls.inc()

    def records(self) -> List[JournalRecord]:
        """Re-scan and validate every segment, oldest first."""
        records: List[JournalRecord] = []
        count = self._segment_count()
        expected = 0
        for index in range(count):
            segment_records, _ = _scan_segment(
                self._segment_bytes(index),
                index,
                expected,
                is_last=(index == count - 1),
            )
            records.extend(segment_records)
            expected += len(segment_records)
        return records

    # -- shared recovery ----------------------------------------------------

    def _recover_tail(self) -> None:
        """Establish ``next_sequence`` and drop a torn tail on reopen."""
        count = self._segment_count()
        expected = 0
        for index in range(count):
            data = self._segment_bytes(index)
            is_last = index == count - 1
            segment_records, valid = _scan_segment(
                data, index, expected, is_last=is_last
            )
            expected += len(segment_records)
            if is_last and valid < len(data):
                self._m_torn.inc(len(data) - valid)
                self._truncate_last_segment(valid)
        self._next_sequence = expected


class MemoryJournal(Journal):
    """In-memory backend — fast tests and crash-free ephemeral runs."""

    def __init__(self, metrics=NULL_REGISTRY) -> None:
        self._segments: List[bytearray] = [bytearray()]
        super().__init__(metrics=metrics)

    def _segment_count(self) -> int:
        return len(self._segments)

    def _segment_bytes(self, index: int) -> bytes:
        return bytes(self._segments[index])

    def _append_bytes(self, data: bytes) -> None:
        self._segments[-1].extend(data)

    def _start_segment(self) -> None:
        self._segments.append(bytearray())

    def _truncate_last_segment(self, valid_bytes: int) -> None:
        del self._segments[-1][valid_bytes:]


#: File name pattern for on-disk segments.
_SEGMENT_RE = re.compile(r"^segment-(\d{8})\.wal$")


def _segment_name(index: int) -> str:
    return f"segment-{index:08d}.wal"


class FileJournal(Journal):
    """Directory-of-segments backend (``segment-00000000.wal``, ...).

    Reopening an existing directory validates every segment, truncates
    a torn tail on the newest one, and continues appending with the
    next sequence number — the crash-recovery entry point.
    """

    def __init__(self, directory: str, metrics=NULL_REGISTRY) -> None:
        self.directory = str(directory)
        os.makedirs(self.directory, exist_ok=True)
        self._paths = self._discover_segments()
        if not self._paths:
            first = os.path.join(self.directory, _segment_name(0))
            with open(first, "wb"):
                pass
            self._paths = [first]
        super().__init__(metrics=metrics)

    def _discover_segments(self) -> List[str]:
        found: List[Tuple[int, str]] = []
        for name in os.listdir(self.directory):
            match = _SEGMENT_RE.match(name)
            if match:
                found.append(
                    (int(match.group(1)), os.path.join(self.directory, name))
                )
        found.sort()
        return [path for _, path in found]

    def _segment_count(self) -> int:
        return len(self._paths)

    def _segment_bytes(self, index: int) -> bytes:
        with open(self._paths[index], "rb") as handle:
            return handle.read()

    def _append_bytes(self, data: bytes) -> None:
        with open(self._paths[-1], "ab") as handle:
            handle.write(data)

    def _start_segment(self) -> None:
        last = os.path.basename(self._paths[-1])
        index = int(_SEGMENT_RE.match(last).group(1)) + 1
        path = os.path.join(self.directory, _segment_name(index))
        with open(path, "wb"):
            pass
        self._paths.append(path)

    def _truncate_last_segment(self, valid_bytes: int) -> None:
        with open(self._paths[-1], "r+b") as handle:
            handle.truncate(valid_bytes)


# ---------------------------------------------------------------------------
# Payload codecs
# ---------------------------------------------------------------------------

def encode_json_payload(doc: dict) -> bytes:
    """Canonical JSON payload for BEGIN / COMMIT / CHECKPOINT records."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()


def decode_json_payload(payload: bytes) -> dict:
    return json.loads(payload.decode())


@dataclass(frozen=True)
class TraceChunk:
    """Decoded ``TRACE_CHUNK`` payload."""

    tenant: str
    round_index: int
    chunk_index: int
    batch: EventBatch

    @property
    def events(self) -> Sequence[BranchEvent]:
        """The chunk's events as objects (built on first use)."""
        return self.batch.events


#: Packed bytes per event: cycle/source/target int64, kind/taken uint8.
_EVENT_BYTES = 3 * 8 + 2


def _palette(kind: np.ndarray) -> Tuple[np.ndarray, List[str]]:
    """A kind column renumbered by first appearance, and the kind
    names in that order (the chunk's palette)."""
    present = np.flatnonzero(np.bincount(kind))
    firsts = [int(np.argmax(kind == code)) for code in present]
    present = present[np.argsort(firsts)]
    table = np.zeros(len(KIND_ORDER), np.uint8)
    table[present] = np.arange(len(present))
    return table[kind], [KIND_ORDER[code].name for code in present]


def encode_trace_chunk(
    tenant: str,
    round_index: int,
    chunk_index: int,
    events: Union[EventBatch, Sequence[BranchEvent]],
) -> bytes:
    """Pack a slice of one tenant's trace into a ``TRACE_CHUNK`` payload.

    Layout: one JSON header line (tenant, round, chunk, count, and a
    self-describing :class:`BranchKind` *name palette* in order of
    first appearance — the enum's declaration order is never relied
    upon on disk), then the packed columns: ``cycle``/``source``/
    ``target`` as little-endian int64 and ``kind``/``taken`` as uint8.
    """
    batch = EventBatch.of(events)
    codes, palette = _palette(batch.kind)
    header = encode_json_payload(
        {
            "tenant": tenant,
            "round": round_index,
            "chunk": chunk_index,
            "count": len(batch),
            "kinds": palette,
        }
    )
    return b"".join(
        (
            header,
            b"\n",
            batch.cycle.astype("<i8", copy=False).tobytes(),
            batch.source.astype("<i8", copy=False).tobytes(),
            batch.target.astype("<i8", copy=False).tobytes(),
            codes.tobytes(),
            batch.taken.tobytes(),
        )
    )


def _find_newline(payload) -> int:
    """``payload.find(b"\\n")`` for bytes *or* buffer-protocol views.

    The shared-memory transport hands chunk payloads over as
    memoryviews (no ``find``); the header line is short, so scan it in
    small steps instead of materialising the whole payload.
    """
    if isinstance(payload, (bytes, bytearray)):
        return payload.find(b"\n")
    view = memoryview(payload)
    step = 512
    for start in range(0, len(view), step):
        position = bytes(view[start:start + step]).find(b"\n")
        if position >= 0:
            return start + position
    return -1


def decode_trace_chunk(payload) -> TraceChunk:
    """Inverse of :func:`encode_trace_chunk`.

    Accepts ``bytes`` or any buffer-protocol object (e.g. a
    memoryview into a shared-memory ring slot).  The cycle, source,
    target and taken columns are zero-copy read-only views over the
    payload, so they live no longer than the caller keeps the
    payload's buffer mapped; only the kind codes are translated
    (through the palette) into a new column.  Any malformed header,
    palette, kind code or ``taken`` byte raises
    :class:`~repro.errors.JournalCorruptionError`.
    """
    newline = _find_newline(payload)
    if newline < 0:
        raise JournalCorruptionError("trace chunk missing header line")
    try:
        header = decode_json_payload(bytes(payload[:newline]))
        tenant = str(header["tenant"])
        round_index = int(header["round"])
        chunk_index = int(header["chunk"])
        count = int(header["count"])
        table = np.array(
            [KIND_CODE[BranchKind[name]] for name in header["kinds"]],
            dtype=np.uint8,
        )
    except (KeyError, TypeError, ValueError) as error:
        # ValueError covers bad JSON, bad UTF-8 and non-numeric fields.
        raise JournalCorruptionError(
            f"trace chunk header is malformed: "
            f"{type(error).__name__}: {error}"
        ) from error
    body = payload[newline + 1:]
    expected = count * _EVENT_BYTES
    if count < 0 or len(body) != expected:
        raise JournalCorruptionError(
            f"trace chunk body is {len(body)} bytes, expected {expected}"
        )
    cycles = np.frombuffer(body, dtype="<i8", count=count, offset=0)
    sources = np.frombuffer(body, dtype="<i8", count=count, offset=8 * count)
    targets = np.frombuffer(body, dtype="<i8", count=count, offset=16 * count)
    kind_codes = np.frombuffer(
        body, dtype=np.uint8, count=count, offset=24 * count
    )
    taken = np.frombuffer(
        body, dtype=np.uint8, count=count, offset=25 * count
    )
    if count and int(kind_codes.max()) >= len(table):
        raise JournalCorruptionError(
            f"trace chunk kind code {int(kind_codes.max())} outside its "
            f"{len(table)}-name palette"
        )
    if count and int(taken.max()) > 1:
        raise JournalCorruptionError(
            f"trace chunk taken byte {int(taken.max())} is not 0 or 1"
        )
    return TraceChunk(
        tenant=tenant,
        round_index=round_index,
        chunk_index=chunk_index,
        batch=EventBatch(
            cycles, sources, targets, table[kind_codes], taken.view(bool)
        ),
    )


def encode_round(
    round_index: int,
    traces: Mapping[str, Union[EventBatch, Sequence[BranchEvent]]],
    chunk_events: int,
) -> List[bytes]:
    """One round's traces as ``TRACE_CHUNK`` payloads.

    Tenants follow ``traces`` order, each sliced every ``chunk_events``
    events; a tenant without events writes nothing.  These payloads
    are both the fleet's RUN wire format and the journal's chunk
    records, so a shard journals what it was sent, byte for byte.
    """
    payloads: List[bytes] = []
    for name, events in traces.items():
        batch = EventBatch.of(events)
        for chunk_index, start in enumerate(
            range(0, len(batch), chunk_events)
        ):
            payloads.append(
                encode_trace_chunk(
                    name,
                    round_index,
                    chunk_index,
                    batch[start : start + chunk_events],
                )
            )
    return payloads


def decode_round(
    round_index: int, payloads: Sequence
) -> Dict[str, EventBatch]:
    """Inverse of :func:`encode_round`: per-tenant traces, in payload order.

    ``payloads`` may be ``bytes`` or buffer-protocol views (e.g. over
    a shared-memory ring slot); a tenant's one-chunk trace is a
    zero-copy view over its payload (see :func:`decode_trace_chunk`).
    A chunk of another round raises
    :class:`~repro.errors.JournalCorruptionError`.
    """
    pending: Dict[str, List[EventBatch]] = {}
    for payload in payloads:
        chunk = decode_trace_chunk(payload)
        if chunk.round_index != round_index:
            raise JournalCorruptionError(
                f"trace chunk for round {chunk.round_index} "
                f"inside round {round_index}"
            )
        pending.setdefault(chunk.tenant, []).append(chunk.batch)
    return {
        name: EventBatch.concat(batches) for name, batches in pending.items()
    }
