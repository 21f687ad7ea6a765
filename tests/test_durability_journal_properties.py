"""Seeded randomized properties of the write-ahead journal.

The journal properties use a plain seeded ``random.Random`` so every
run, on every machine, sees the identical cases; the round-codec
properties draw their rounds with Hypothesis.  Four durability
properties are exercised:

1. **Round trip** — arbitrary payloads, kinds, segment rolls, and
   event chunkings survive append -> scan (and a file reopen) exactly.
2. **Torn-tail truncation** — a crash may leave any byte-length prefix
   of the final record on disk; reopening at *every* such offset
   recovers precisely the valid record prefix and physically drops the
   tail.
3. **Flip detection** — flipping any single bit of any byte of a
   journal is detected on reopen: either the scan raises
   :class:`JournalCorruptionError` (interior damage) or it truncates
   to strictly fewer records (tail damage).  No flip is ever silently
   absorbed into a full-length replay.
4. **Columns equal objects** — a round encoded from
   :class:`~repro.eventbatch.EventBatch` columns is byte-identical to
   the one-event-at-a-time object encoding every existing journal
   holds (palette in first-appearance order), and decoded columns —
   derived ones and the integrity tag included — equal the columns
   of the original objects.
"""

import json
import os
import random
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.durability import (
    FileJournal,
    MemoryJournal,
    RecordKind,
    decode_round,
    decode_trace_chunk,
    encode_record,
    encode_round,
    encode_trace_chunk,
)
from repro.errors import JournalCorruptionError
from repro.eventbatch import EventBatch
from repro.workloads.cfg import BranchEvent, BranchKind

SEEDS = (2024, 7, 90125)

_KINDS = tuple(BranchKind)


def _random_event(rng: random.Random, cycle: int) -> BranchEvent:
    kind = rng.choice(_KINDS)
    return BranchEvent(
        cycle=cycle,
        source=rng.randrange(1 << 30) << 2,
        target=rng.randrange(1 << 30) << 2,
        kind=kind,
        taken=kind is not BranchKind.CONDITIONAL or rng.random() < 0.6,
    )


def _random_records(rng: random.Random):
    """A random mix of record kinds and payload sizes."""
    records = []
    for _ in range(rng.randrange(1, 12)):
        kind = rng.choice(list(RecordKind))
        payload = bytes(
            rng.randrange(256) for _ in range(rng.randrange(0, 40))
        )
        records.append((kind, payload))
    return records


@pytest.mark.parametrize("seed", SEEDS)
def test_roundtrip_arbitrary_records_and_rolls(tmp_path, seed):
    rng = random.Random(seed)
    for case in range(25):
        expected = _random_records(rng)
        directory = str(tmp_path / f"case-{seed}-{case}")
        disk = FileJournal(directory)
        memory = MemoryJournal()
        for kind, payload in expected:
            disk.append(kind, payload)
            memory.append(kind, payload)
            if rng.random() < 0.25:
                disk.roll()
                memory.roll()
        for journal in (disk, memory, FileJournal(directory)):
            got = journal.records()
            assert [r.sequence for r in got] == list(range(len(expected)))
            assert [(r.kind, r.payload) for r in got] == expected


@pytest.mark.parametrize("seed", SEEDS)
def test_trace_chunk_roundtrip_arbitrary_chunkings(seed):
    rng = random.Random(seed)
    for _ in range(30):
        count = rng.randrange(0, 200)
        cycle = rng.randrange(1 << 20)
        events = []
        for _ in range(count):
            cycle += rng.randrange(1, 500)
            events.append(_random_event(rng, cycle))
        # Slice the trace at random boundaries; every chunk must
        # round-trip independently of how the stream was cut.
        start = 0
        chunk_index = 0
        while start < count or (count == 0 and chunk_index == 0):
            step = rng.randrange(1, 64)
            chunk = events[start:start + step]
            payload = encode_trace_chunk(
                f"tenant{seed % 4}", seed, chunk_index, chunk
            )
            decoded = decode_trace_chunk(payload)
            assert list(decoded.events) == chunk
            assert decoded.chunk_index == chunk_index
            start += step
            chunk_index += 1


@pytest.mark.parametrize("seed", SEEDS)
def test_torn_tail_truncation_at_every_byte_offset(tmp_path, seed):
    rng = random.Random(seed)
    prefix = [
        (
            rng.choice(list(RecordKind)),
            bytes(rng.randrange(256) for _ in range(rng.randrange(0, 24))),
        )
        for _ in range(3)
    ]
    last_kind = rng.choice(list(RecordKind))
    last_payload = bytes(
        rng.randrange(256) for _ in range(rng.randrange(8, 32))
    )
    prefix_bytes = b"".join(
        encode_record(i, kind, payload)
        for i, (kind, payload) in enumerate(prefix)
    )
    last_bytes = encode_record(len(prefix), last_kind, last_payload)

    directory = str(tmp_path / "wal")
    segment = os.path.join(directory, "segment-00000000.wal")
    os.makedirs(directory)
    for keep in range(len(last_bytes)):
        with open(segment, "wb") as handle:
            handle.write(prefix_bytes + last_bytes[:keep])
        journal = FileJournal(directory)
        got = journal.records()
        # Exactly the complete prefix survives; the torn record never
        # becomes visible regardless of where the write was cut.
        assert [(r.kind, r.payload) for r in got] == prefix
        assert journal.next_sequence == len(prefix)
        assert os.path.getsize(segment) == len(prefix_bytes)


@pytest.mark.parametrize("seed", SEEDS)
def test_any_single_bit_flip_is_detected(tmp_path, seed):
    rng = random.Random(seed)
    records = [
        (
            rng.choice(list(RecordKind)),
            bytes(rng.randrange(256) for _ in range(rng.randrange(4, 16))),
        )
        for _ in range(4)
    ]
    pristine_bytes = b"".join(
        encode_record(i, kind, payload)
        for i, (kind, payload) in enumerate(records)
    )
    directory = str(tmp_path / "wal")
    segment = os.path.join(directory, "segment-00000000.wal")
    os.makedirs(directory)

    for position in range(len(pristine_bytes)):
        flipped = bytearray(pristine_bytes)
        flipped[position] ^= 1 << rng.randrange(8)
        with open(segment, "wb") as handle:
            handle.write(flipped)
        try:
            survived = len(FileJournal(directory).records())
        except JournalCorruptionError:
            continue  # detected loudly
        # Tolerated as a torn tail: must have lost at least one record.
        assert survived < len(records), (
            f"flip at byte {position} went undetected"
        )


# ---------------------------------------------------------------------------
# Round codec: columns equal objects
# ---------------------------------------------------------------------------

def _reference_chunk(tenant, round_index, chunk_index, events):
    """The object encoder: one event at a time, palette by first
    appearance (the layout every existing journal holds)."""
    palette, codes = [], []
    for event in events:
        if event.kind.name not in palette:
            palette.append(event.kind.name)
        codes.append(palette.index(event.kind.name))
    header = json.dumps(
        {
            "tenant": tenant,
            "round": round_index,
            "chunk": chunk_index,
            "count": len(events),
            "kinds": palette,
        },
        sort_keys=True,
        separators=(",", ":"),
    ).encode()
    count = len(events)
    return b"".join(
        (
            header,
            b"\n",
            struct.pack(f"<{count}q", *(e.cycle for e in events)),
            struct.pack(f"<{count}q", *(e.source for e in events)),
            struct.pack(f"<{count}q", *(e.target for e in events)),
            bytes(codes),
            bytes(int(e.taken) for e in events),
        )
    )


def _reference_round(round_index, traces, chunk_events):
    return [
        _reference_chunk(
            name, round_index, index, events[start:start + chunk_events]
        )
        for name, events in traces.items()
        for index, start in enumerate(range(0, len(events), chunk_events))
    ]


@st.composite
def _streams(draw):
    """One tenant's stream: a few hand-drawn events, or a long seeded
    walk over every kind and both outcomes."""
    if draw(st.booleans()):
        return draw(
            st.lists(
                st.builds(
                    BranchEvent,
                    cycle=st.integers(0, 1 << 40),
                    source=st.integers(0, (1 << 32) - 1),
                    target=st.integers(0, (1 << 32) - 1),
                    kind=st.sampled_from(_KINDS),
                    taken=st.booleans(),
                ),
                max_size=40,
            )
        )
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    count = draw(st.integers(0, 12_000))
    cycle = rng.randrange(1 << 20)
    events = []
    for _ in range(count):
        cycle += rng.randrange(1, 500)
        kind = rng.choice(_KINDS)
        events.append(
            BranchEvent(
                cycle,
                rng.randrange(1 << 32),
                rng.randrange(1 << 32),
                kind,
                rng.random() < 0.5,
            )
        )
    return events


_ROUNDS = st.tuples(
    st.integers(0, 1 << 20),
    st.dictionaries(
        st.sampled_from([f"tenant{index}" for index in range(4)]),
        _streams(),
        max_size=4,
    ),
    st.integers(1, 5_000),
)


@settings(max_examples=40, deadline=None)
@given(_ROUNDS)
def test_round_encoding_from_columns_equals_the_object_encoding(case):
    round_index, traces, chunk_events = case
    expected = _reference_round(round_index, traces, chunk_events)
    columns = {
        name: EventBatch.from_events(events)
        for name, events in traces.items()
    }
    assert encode_round(round_index, traces, chunk_events) == expected
    # Decoded columns carry no object view: they re-encode the same.
    decoded = decode_round(round_index, expected)
    assert encode_round(round_index, decoded, chunk_events) == expected
    assert encode_round(round_index, columns, chunk_events) == expected


@settings(max_examples=40, deadline=None)
@given(_streams())
def test_palette_keeps_first_appearance_order(events):
    payload = encode_trace_chunk("t", 0, 0, EventBatch.from_events(events))
    header = json.loads(payload[:payload.find(b"\n")])
    first_seen = []
    for event in events:
        if event.kind.name not in first_seen:
            first_seen.append(event.kind.name)
    assert header["kinds"] == first_seen


@settings(max_examples=40, deadline=None)
@given(_ROUNDS)
def test_decoded_columns_equal_the_object_columns(case):
    round_index, traces, chunk_events = case
    decoded = decode_round(
        round_index, encode_round(round_index, traces, chunk_events)
    )
    # A tenant without events writes no chunk, so it decodes to none.
    assert list(decoded) == [name for name, ev in traces.items() if ev]
    for name, batch in decoded.items():
        reference = EventBatch.from_events(traces[name])
        for column in (
            "cycle", "source", "target", "kind", "taken",
            "atom", "syscall", "time_ns",
        ):
            got, want = getattr(batch, column), getattr(reference, column)
            assert got.dtype == want.dtype, column
            assert np.array_equal(got, want), column
        assert batch.integrity_crc() == reference.integrity_crc()
        assert list(batch.events) == list(traces[name])
