"""Batch carriers flowing between dataplane stages.

A :class:`TraceBatch` is the unit of work a stage processes: a chunk
of branch events (an :class:`~repro.eventbatch.EventBatch`, the
columnar carrier a round travels in) plus the per-event artifacts
each stage annotates as the batch moves down the pipeline (PTM byte
counts, TPIU frame bytes, FIFO flush edges, encoded vectors).  A
*tail* batch carries no events; it tells every stage to drain its
carried state exactly the way the per-event loop's end-of-session
flush does.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.eventbatch import EventBatch
from repro.igm.vector_encoder import InputVector


@dataclass(frozen=True)
class FifoFlush:
    """One PTM-FIFO drain: everything buffered leaves the CPU at once.

    ``event_pos`` is the index (within the batch) of the event whose
    push crossed the threshold; tail flushes use ``len(batch)``.
    ``delivers`` mirrors the reference loop: a threshold flush whose
    drain-completion handle was discarded (the end-of-session push in
    ``run_events``) still counts as a flush but delivers no vectors.
    """

    event_pos: int
    done_ns: float
    amount: int
    delivers: bool = True


@dataclass
class TraceBatch:
    """The carrier annotated by successive stages."""

    events: Optional[EventBatch] = None
    tail: bool = False
    # --- integrity tags (stamped by Pipeline.run, checked per stage) ---
    chunk_sequence: Optional[int] = None
    chunk_crc: Optional[int] = None
    # --- PTM encode stage ---
    ptm_bytes: Optional[np.ndarray] = None   # int64 bytes emitted per event
    tail_ptm_bytes: int = 0                  # end-of-session atom flush
    # --- TPIU framing stage ---
    frame_bytes: Optional[np.ndarray] = None  # int64 frame bytes per event
    tail_frame_bytes: int = 0                 # final (partial) frame bytes
    # --- PTM FIFO stage ---
    flushes: List[FifoFlush] = field(default_factory=list)
    # --- IGM stage ---
    vectors: List[InputVector] = field(default_factory=list)
    vector_event_pos: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return 0 if self.events is None else len(self.events)

    @classmethod
    def tail_marker(cls) -> "TraceBatch":
        return cls(events=None, tail=True)
