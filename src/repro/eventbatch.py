"""The columnar branch-event carrier a monitoring round travels in.

An :class:`EventBatch` holds a run of branch events as numpy columns —
the unit a round carries from the serve front door's decoder, through
the tenant windows, the fleet's TRACE_CHUNK codec and the worker, down
to the last dataplane stage.  Like the paper's IGM, which takes branch
targets off the trace port and never holds a per-branch record, the
path holds columns, not :class:`~repro.workloads.cfg.BranchEvent`
objects:

- the five stored columns (``cycle``, ``source``, ``target``,
  ``kind``, ``taken``) are exactly what the TRACE_CHUNK codec stores,
  so a batch round-trips losslessly and decodes as zero-copy views;
- ``atom``, ``syscall`` and ``time_ns`` are derived from them on first
  use;
- ``events`` is the object view, built on first use for the consumers
  that still walk events one by one (the loop dataplane oracle, the
  per-event encode stage, the event fault injector).

:meth:`EventBatch.from_events` is the edge where callers that hold
objects (``RtadSoc``, direct ``SocManager.run_events`` callers, tests)
enter the columns.

This module imports nothing from the SoC packages, so the codec, the
server and the dataplane can all import it.
"""

from __future__ import annotations

import zlib
from functools import cached_property
from typing import Iterator, Sequence, Tuple, Union

import numpy as np

from repro.workloads.cfg import BranchEvent, BranchKind

#: Branch kinds by column code: ``kind`` holds indices into this tuple.
KIND_ORDER: Tuple[BranchKind, ...] = tuple(BranchKind)
KIND_CODE = {kind: code for code, kind in enumerate(KIND_ORDER)}
_CONDITIONAL = KIND_CODE[BranchKind.CONDITIONAL]
_SYSCALL = KIND_CODE[BranchKind.SYSCALL]
#: The stored columns, in codec order.
_COLUMNS = ("cycle", "source", "target", "kind", "taken")


class EventBatch:
    """Struct-of-arrays view of a run of branch events.

    ``cycle``/``source``/``target`` are int64, ``kind`` is uint8 (codes
    into :data:`KIND_ORDER`) and ``taken`` is bool.  Columns may be
    read-only views (e.g. over a codec payload or a shared-memory
    ring slot): stages that change events build new columns.
    """

    def __init__(
        self,
        cycle: np.ndarray,
        source: np.ndarray,
        target: np.ndarray,
        kind: np.ndarray,
        taken: np.ndarray,
    ) -> None:
        self.cycle = cycle
        self.source = source
        self.target = target
        self.kind = kind
        self.taken = taken

    @classmethod
    def from_events(cls, events: Sequence[BranchEvent]) -> "EventBatch":
        """Columns of caller-held objects; ``events`` stays the object
        view, so per-event consumers walk the caller's own objects."""
        batch = cls(
            np.array([e.cycle for e in events], np.int64),
            np.array([e.source for e in events], np.int64),
            np.array([e.target for e in events], np.int64),
            np.array([KIND_CODE[e.kind] for e in events], np.uint8),
            np.array([e.taken for e in events], bool),
        )
        batch.events = events
        return batch

    @classmethod
    def of(
        cls, events: Union["EventBatch", Sequence[BranchEvent]]
    ) -> "EventBatch":
        """``events`` as a batch (converted only when it holds objects)."""
        if isinstance(events, EventBatch):
            return events
        return cls.from_events(events)

    @classmethod
    def concat(cls, batches: Sequence["EventBatch"]) -> "EventBatch":
        """One batch holding ``batches`` back to back."""
        if len(batches) == 1:
            return batches[0]
        return cls(
            *(
                np.concatenate([getattr(batch, name) for batch in batches])
                for name in _COLUMNS
            )
        )

    # -- derived columns ------------------------------------------------------

    @cached_property
    def atom(self) -> np.ndarray:
        """Not-taken conditionals: one outcome bit, no target address
        (vectorised :func:`~repro.workloads.cfg.is_map_only`)."""
        return (self.kind == _CONDITIONAL) & ~self.taken

    @cached_property
    def syscall(self) -> np.ndarray:
        return self.kind == _SYSCALL

    @cached_property
    def time_ns(self) -> np.ndarray:
        """Retirement times: the float op sequence of
        ``CPU_CLOCK.to_ns`` per event."""
        # Deferred: repro.soc imports the codec, which imports this.
        from repro.soc.clocks import CPU_CLOCK

        return self.cycle.astype(np.float64) * CPU_CLOCK.period_ns

    @cached_property
    def events(self) -> Sequence[BranchEvent]:
        """The object view, for consumers that walk events one by one."""
        return tuple(
            map(
                BranchEvent,
                self.cycle.tolist(),
                self.source.tolist(),
                self.target.tolist(),
                [KIND_ORDER[code] for code in self.kind.tolist()],
                self.taken.tolist(),
            )
        )

    # -- sequence protocol ----------------------------------------------------

    def __len__(self) -> int:
        return int(self.cycle.shape[0])

    def __iter__(self) -> Iterator[BranchEvent]:
        return iter(self.events)

    def __getitem__(self, index: slice) -> "EventBatch":
        """A slice of the batch: column views, no copy."""
        if not isinstance(index, slice):
            raise TypeError("EventBatch indices must be slices")
        part = EventBatch(*(getattr(self, name)[index] for name in _COLUMNS))
        if "events" in self.__dict__:
            part.events = self.events[index]
        return part

    # -- integrity ------------------------------------------------------------

    def integrity_crc(self) -> int:
        """CRC32 over the event columns (end-to-end integrity tag).

        Covers exactly the data stages consume (cycle, source, target,
        atom, syscall), so any in-flight mutation of a batch — silent
        corruption the resync path cannot see — changes the tag.
        """
        crc = zlib.crc32(self.cycle.tobytes())
        crc = zlib.crc32(self.source.tobytes(), crc)
        crc = zlib.crc32(self.target.tobytes(), crc)
        crc = zlib.crc32(self.atom.tobytes(), crc)
        return zlib.crc32(self.syscall.tobytes(), crc)
