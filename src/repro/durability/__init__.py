"""Durability: write-ahead journal, checkpoints, crash recovery.

Three cooperating mechanisms (docs/DURABILITY.md):

- :mod:`repro.durability.journal` — a segmented write-ahead log of
  every ingested trace chunk, length-prefixed, CRC32-tagged and
  sequence-numbered, tolerant of a torn tail on reopen.
- :mod:`repro.durability.checkpoint` — periodic snapshots of the
  manager's lifetime state, stored as ordinary journal records so one
  file set carries both.
- :meth:`repro.soc.manager.SocManager.recover` — rebuilds a manager
  from deployments + journal: restore the newest checkpoint, replay
  every *committed* round after it (deterministically — replayed
  inference records are byte-identical to the uninterrupted run), and
  discard an uncommitted tail for the caller to re-feed.
"""

from repro.durability.checkpoint import (
    CHECKPOINT_VERSION,
    capture_checkpoint,
    restore_checkpoint,
)
from repro.durability.journal import (
    FileJournal,
    Journal,
    JournalRecord,
    MemoryJournal,
    MIN_RECORD_BYTES,
    RecordKind,
    TraceChunk,
    decode_json_payload,
    decode_round,
    decode_trace_chunk,
    encode_json_payload,
    encode_record,
    encode_round,
    encode_trace_chunk,
)

__all__ = [
    "CHECKPOINT_VERSION",
    "FileJournal",
    "Journal",
    "JournalRecord",
    "MemoryJournal",
    "MIN_RECORD_BYTES",
    "RecordKind",
    "TraceChunk",
    "capture_checkpoint",
    "decode_json_payload",
    "decode_round",
    "decode_trace_chunk",
    "encode_json_payload",
    "encode_record",
    "encode_round",
    "encode_trace_chunk",
    "restore_checkpoint",
]
