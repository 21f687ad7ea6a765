"""Differential proof at scale: the E-Trace batched dataplane equals
the per-event loop.

The E-Trace counterpart of ``test_pipeline_equivalence.py``: the same
demo SoC, under the E-Trace frontend, runs 12,000 LSTM demo events
through the per-event :class:`~repro.soc.loop.LoopDataplane` oracle
and through the batched pipeline (whose encode stage is the vectorised
:class:`~repro.pipeline.stages.EtraceEncodeStage`), across chunk sizes
and sync intervals.  Inference records, interrupts and every shared
counter must be equal.
"""

from __future__ import annotations

from functools import lru_cache

import pytest

from repro.eval.metrics import build_demo_soc, demo_events
from repro.obs import MetricsRegistry
from tests.test_pipeline_equivalence import record_key

EVENTS = 12_000


@lru_cache(maxsize=None)
def _events():
    return tuple(demo_events("lstm", 0, EVENTS))


@lru_cache(maxsize=None)
def run_etrace(dataplane: str, sync_interval: int, chunk_events: int = 32768):
    registry = MetricsRegistry()
    soc = build_demo_soc(
        "lstm",
        metrics=registry,
        frontend="etrace",
        dataplane=dataplane,
        chunk_events=chunk_events,
    )
    # The driver and the encode stage share the frontend's config.
    soc.frontend.etrace_config.sync_interval_bytes = sync_interval
    records = soc.run_events(list(_events()))
    interrupts = [
        (i.time_ns, i.sequence_number) for i in soc.mcm.interrupts.fired
    ]
    counters = {
        name: value
        for name, value in registry.snapshot()["counters"].items()
        # Bookkeeping that exists only on the batched path.
        if not name.startswith("pipeline.port.")
        and not name.startswith("pipeline.stage.")
        and not name.startswith("pipeline.deliver.")
        and not name.startswith("pipeline.integrity.")
        and name != "pipeline.chunks"
    }
    return [record_key(r) for r in records], interrupts, counters


@pytest.mark.parametrize("sync_interval", [16, 128, 1024])
@pytest.mark.parametrize("chunk_events", [7, 64, 256, 32768])
def test_etrace_batched_matches_loop(chunk_events, sync_interval):
    loop_records, loop_irqs, loop_counters = run_etrace("loop", sync_interval)
    records, irqs, counters = run_etrace(
        "batched", sync_interval, chunk_events
    )
    assert len(loop_records) > 10, "demo trace produced too few inferences"
    assert loop_counters["etrace.packets.sync"] > 1
    assert records == loop_records
    assert irqs == loop_irqs
    assert counters == loop_counters
