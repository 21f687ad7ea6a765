"""Unit tests for the write-ahead trace journal (repro.durability).

Covers the record wire format, both backends (memory and
directory-of-segments), crash-reopen semantics (torn tails truncated,
sequence continued), corruption classification (torn tail tolerated
only in the newest segment; a sequence gap is always corruption), and
the TRACE_CHUNK payload codec.
"""

import json
import os

import pytest

from repro.durability import (
    MIN_RECORD_BYTES,
    FileJournal,
    MemoryJournal,
    RecordKind,
    decode_trace_chunk,
    encode_record,
    encode_trace_chunk,
)
from repro.errors import JournalCorruptionError
from repro.obs import MetricsRegistry
from repro.workloads.cfg import BranchEvent, BranchKind


def _events(count, base_cycle=100):
    kinds = (
        BranchKind.CONDITIONAL,
        BranchKind.CALL,
        BranchKind.RETURN,
        BranchKind.SYSCALL,
    )
    return [
        BranchEvent(
            cycle=base_cycle + 7 * i,
            source=0x1000 + 4 * i,
            target=0x2000 + 8 * i,
            kind=kinds[i % len(kinds)],
            taken=(i % 3) != 0,
        )
        for i in range(count)
    ]


def _segment_path(journal):
    return journal._paths[-1]


# ---------------------------------------------------------------------------
# Core append / scan behaviour (backend-agnostic via MemoryJournal)
# ---------------------------------------------------------------------------

def test_append_roundtrip_preserves_kind_payload_sequence():
    journal = MemoryJournal()
    payloads = [b"", b"x", b"hello world", bytes(range(256))]
    for index, payload in enumerate(payloads):
        kind = list(RecordKind)[index % len(RecordKind)]
        assert journal.append(kind, payload) == index
    records = journal.records()
    assert [r.sequence for r in records] == list(range(len(payloads)))
    assert [r.payload for r in records] == payloads
    assert all(isinstance(r.kind, RecordKind) for r in records)
    assert journal.next_sequence == len(payloads)


def test_sequence_continues_across_roll():
    journal = MemoryJournal()
    journal.append(RecordKind.ROUND_BEGIN, b"a")
    journal.roll()
    journal.append(RecordKind.ROUND_COMMIT, b"b")
    journal.roll()
    journal.append(RecordKind.CHECKPOINT, b"c")
    records = journal.records()
    assert [r.sequence for r in records] == [0, 1, 2]
    assert [r.segment for r in records] == [0, 1, 2]


def test_append_torn_does_not_advance_sequence():
    journal = MemoryJournal()
    journal.append(RecordKind.ROUND_BEGIN, b"head")
    before = journal.next_sequence
    journal.append_torn(RecordKind.TRACE_CHUNK, b"payload", keep_bytes=5)
    assert journal.next_sequence == before
    # The torn bytes sit in the last segment but never become a record.
    records = journal.records()
    assert len(records) == 1
    assert records[0].payload == b"head"


def test_append_torn_rejects_full_length_keep():
    journal = MemoryJournal()
    data = encode_record(0, RecordKind.ROUND_BEGIN, b"p")
    with pytest.raises(ValueError):
        journal.append_torn(RecordKind.ROUND_BEGIN, b"p", len(data))
    with pytest.raises(ValueError):
        journal.append_torn(RecordKind.ROUND_BEGIN, b"p", -1)


def test_counters_track_appends_bytes_and_rolls():
    registry = MetricsRegistry()
    journal = MemoryJournal(metrics=registry)
    journal.append(RecordKind.ROUND_BEGIN, b"abc")
    journal.append(RecordKind.ROUND_COMMIT, b"")
    journal.roll()
    assert registry.counter("durability.journal.appends").value == 2
    expected_bytes = len(encode_record(0, RecordKind.ROUND_BEGIN, b"abc"))
    expected_bytes += len(encode_record(1, RecordKind.ROUND_COMMIT, b""))
    assert registry.counter("durability.journal.bytes").value == (
        expected_bytes
    )
    assert registry.counter("durability.journal.rolls").value == 1


# ---------------------------------------------------------------------------
# FileJournal reopen semantics
# ---------------------------------------------------------------------------

def test_file_journal_reopen_resumes_sequence(tmp_path):
    directory = str(tmp_path / "wal")
    journal = FileJournal(directory)
    journal.append(RecordKind.ROUND_BEGIN, b"r0")
    journal.roll()
    journal.append(RecordKind.ROUND_COMMIT, b"r0-done")

    reopened = FileJournal(directory)
    assert reopened.next_sequence == 2
    records = reopened.records()
    assert [(r.sequence, r.payload) for r in records] == [
        (0, b"r0"),
        (1, b"r0-done"),
    ]
    # Appending after reopen continues where the crashed writer stopped.
    assert reopened.append(RecordKind.ROUND_BEGIN, b"r1") == 2


def test_file_journal_reopen_truncates_torn_tail(tmp_path):
    directory = str(tmp_path / "wal")
    registry = MetricsRegistry()
    journal = FileJournal(directory)
    journal.append(RecordKind.ROUND_BEGIN, b"kept")
    journal.append_torn(RecordKind.TRACE_CHUNK, b"never-finished", 9)
    torn_path = _segment_path(journal)
    dirty_size = os.path.getsize(torn_path)

    reopened = FileJournal(directory, metrics=registry)
    assert reopened.next_sequence == 1
    assert [r.payload for r in reopened.records()] == [b"kept"]
    # The torn bytes are physically gone, not just skipped.
    assert os.path.getsize(torn_path) == dirty_size - 9
    assert registry.counter("durability.journal.torn_drops").value == 9


def test_torn_tail_in_old_segment_is_corruption(tmp_path):
    directory = str(tmp_path / "wal")
    journal = FileJournal(directory)
    journal.append(RecordKind.ROUND_BEGIN, b"a")
    first_segment = _segment_path(journal)
    journal.roll()
    journal.append(RecordKind.ROUND_COMMIT, b"b")
    # Garbage after a valid record in a *non-last* segment can never be
    # a torn write (later segments exist, so writes continued).
    with open(first_segment, "ab") as handle:
        handle.write(b"\xff" * 8)
    with pytest.raises(JournalCorruptionError):
        FileJournal(directory)


def test_valid_crc_wrong_sequence_is_corruption(tmp_path):
    directory = str(tmp_path / "wal")
    journal = FileJournal(directory)
    journal.append(RecordKind.ROUND_BEGIN, b"a")
    # A well-formed record with sequence 5 after sequence 0: records
    # 1-4 are missing, which truncation can never explain.
    with open(_segment_path(journal), "ab") as handle:
        handle.write(encode_record(5, RecordKind.ROUND_COMMIT, b"skip"))
    with pytest.raises(JournalCorruptionError):
        FileJournal(directory)


def test_file_and_memory_backends_agree(tmp_path):
    directory = str(tmp_path / "wal")
    memory = MemoryJournal()
    disk = FileJournal(directory)
    for index in range(7):
        kind = list(RecordKind)[index % len(RecordKind)]
        payload = bytes([index]) * index
        memory.append(kind, payload)
        disk.append(kind, payload)
        if index % 3 == 2:
            memory.roll()
            disk.roll()
    key = lambda r: (r.sequence, r.kind, r.payload, r.segment)
    assert list(map(key, memory.records())) == list(
        map(key, disk.records())
    )


def test_empty_journal(tmp_path):
    journal = FileJournal(str(tmp_path / "wal"))
    assert journal.records() == []
    assert journal.next_sequence == 0


# ---------------------------------------------------------------------------
# TRACE_CHUNK codec
# ---------------------------------------------------------------------------

def test_trace_chunk_roundtrip():
    events = _events(23)
    payload = encode_trace_chunk("tenant3", 4, 7, events)
    chunk = decode_trace_chunk(payload)
    assert chunk.tenant == "tenant3"
    assert chunk.round_index == 4
    assert chunk.chunk_index == 7
    assert list(chunk.events) == events


def test_trace_chunk_empty_events():
    chunk = decode_trace_chunk(encode_trace_chunk("t", 0, 0, []))
    assert chunk.events == ()


def test_trace_chunk_palette_is_by_name():
    # The kind palette stores enum *names*; decoding does not depend
    # on BranchKind declaration order.
    events = [
        BranchEvent(1, 0, 4, BranchKind.SYSCALL, True),
        BranchEvent(2, 4, 8, BranchKind.CONDITIONAL, False),
        BranchEvent(3, 8, 12, BranchKind.SYSCALL, True),
    ]
    payload = encode_trace_chunk("t", 0, 0, events)
    header = payload[: payload.find(b"\n")]
    assert b"SYSCALL" in header and b"CONDITIONAL" in header
    assert list(decode_trace_chunk(payload).events) == events


def test_trace_chunk_truncated_body_is_corruption():
    payload = encode_trace_chunk("t", 0, 0, _events(5))
    with pytest.raises(JournalCorruptionError):
        decode_trace_chunk(payload[:-1])
    with pytest.raises(JournalCorruptionError):
        decode_trace_chunk(payload + b"\x00")


def test_trace_chunk_missing_header_is_corruption():
    with pytest.raises(JournalCorruptionError):
        decode_trace_chunk(b"no newline anywhere")


def _split_chunk(payload):
    newline = payload.find(b"\n")
    return json.loads(payload[:newline]), bytearray(payload[newline + 1:])


def _join_chunk(header, body):
    return json.dumps(header).encode() + b"\n" + bytes(body)


def test_trace_chunk_unknown_palette_name_is_corruption():
    header, body = _split_chunk(encode_trace_chunk("t", 0, 0, _events(8)))
    header["kinds"][0] = "TELEPORT"
    with pytest.raises(JournalCorruptionError, match="malformed"):
        decode_trace_chunk(_join_chunk(header, body))


def test_trace_chunk_kind_code_outside_palette_is_corruption():
    events = _events(8)
    header, body = _split_chunk(encode_trace_chunk("t", 0, 0, events))
    body[24 * len(events) + 5] = len(header["kinds"])
    with pytest.raises(JournalCorruptionError, match="kind code"):
        decode_trace_chunk(_join_chunk(header, body))


def test_trace_chunk_missing_header_key_is_corruption():
    header, body = _split_chunk(encode_trace_chunk("t", 0, 0, _events(8)))
    del header["count"]
    with pytest.raises(JournalCorruptionError, match="malformed"):
        decode_trace_chunk(_join_chunk(header, body))


def test_trace_chunk_bad_header_json_is_corruption():
    payload = encode_trace_chunk("t", 0, 0, _events(8))
    with pytest.raises(JournalCorruptionError, match="malformed"):
        decode_trace_chunk(b"{not json" + payload[payload.find(b"\n"):])


def test_trace_chunk_taken_byte_above_one_is_corruption():
    events = _events(8)
    header, body = _split_chunk(encode_trace_chunk("t", 0, 0, events))
    body[25 * len(events) + 3] = 5
    with pytest.raises(JournalCorruptionError, match="taken byte 5"):
        decode_trace_chunk(_join_chunk(header, body))


def test_min_record_bytes_matches_empty_record():
    assert len(encode_record(0, RecordKind.ROUND_BEGIN, b"")) == (
        MIN_RECORD_BYTES
    )
