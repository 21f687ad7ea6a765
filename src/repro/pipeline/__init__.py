"""Staged dataplane: the batched trace-path pipeline.

The per-event loop in :meth:`repro.soc.loop.LoopDataplane.run` is
re-expressed here as composable *stages* connected by bounded *ports*:

- :class:`~repro.pipeline.stage.Stage` — the protocol every stage
  implements (``process(batch) -> batch`` plus ``flush()``),
- :class:`~repro.pipeline.port.Port` — a bounded ring buffer with
  backpressure/overflow accounting (MCM FIFO semantics),
- :class:`~repro.pipeline.pipeline.Pipeline` — the assembler that
  wires stages with ports and threads ``repro.obs`` instruments
  through every connection,
- :mod:`~repro.pipeline.stages` — the concrete trace-path stages
  (PTM encode, TPIU framing, PTM-FIFO batching, IGM map+encode,
  delivery), rewritten to operate on numpy *batches* of events.

The batched stages are **behaviour-preserving**: every simulated
timestamp, byte count, and counter matches the per-event reference
loop bit-for-bit (``tests/test_golden_trace.py`` and
``tests/test_pipeline_equivalence.py`` pin this down), while the
vectorized internals run an order of magnitude faster on long traces.
"""

from repro.pipeline.batch import EventBatch, FifoFlush, TraceBatch
from repro.pipeline.pipeline import Pipeline, build_trace_pipeline
from repro.pipeline.port import Port, PortPolicy
from repro.pipeline.stage import Stage, StageBase
from repro.pipeline.stages import (
    DeliverStage,
    IgmStage,
    PtmEncodeStage,
    PtmFifoStage,
    TpiuFrameStage,
)

__all__ = [
    "DeliverStage",
    "EventBatch",
    "FifoFlush",
    "IgmStage",
    "Pipeline",
    "Port",
    "PortPolicy",
    "PtmEncodeStage",
    "PtmFifoStage",
    "Stage",
    "StageBase",
    "TpiuFrameStage",
    "TraceBatch",
    "build_trace_pipeline",
]
