"""Staged dataplane: the batched trace-path pipeline.

The per-event loop in :meth:`repro.soc.loop.LoopDataplane.run` is
re-expressed here as composable *stages* run as a plain in-order
chain, like the IGM's fixed hardware blocks:

- :class:`~repro.pipeline.stage.Stage` — the protocol every stage
  implements (``process(batch) -> batch`` plus ``flush()``),
- :class:`~repro.pipeline.pipeline.Pipeline` — the assembler that
  runs each chunk through the stages in order, checks its integrity
  tag at every stage boundary, and threads ``repro.obs`` instruments
  through every stage,
- :mod:`~repro.pipeline.stages` — the concrete trace-path stages
  (PTM and E-Trace encode, link framing, PTM-FIFO batching, IGM
  map+encode, delivery), rewritten to operate on numpy *batches* of events.

The batched stages are **behaviour-preserving**: every simulated
timestamp, byte count, and counter matches the per-event reference
loop bit-for-bit (``tests/test_golden_trace.py`` and
``tests/test_pipeline_equivalence.py`` pin this down), while the
vectorized internals run an order of magnitude faster on long traces.
"""

from repro.pipeline.batch import EventBatch, FifoFlush, TraceBatch
from repro.pipeline.pipeline import Pipeline, build_trace_pipeline
from repro.pipeline.stage import Stage, StageBase
from repro.pipeline.stages import (
    DeliverStage,
    EtraceEncodeStage,
    IgmStage,
    LinkFrameStage,
    PtmEncodeStage,
    PtmFifoStage,
)

__all__ = [
    "DeliverStage",
    "EtraceEncodeStage",
    "EventBatch",
    "FifoFlush",
    "IgmStage",
    "LinkFrameStage",
    "Pipeline",
    "PtmEncodeStage",
    "PtmFifoStage",
    "Stage",
    "StageBase",
    "TraceBatch",
    "build_trace_pipeline",
]
