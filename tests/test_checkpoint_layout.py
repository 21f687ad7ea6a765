"""Checkpoint layout pinned to checked-in JSON, per grammar and dataplane.

A tenant checkpoint (:func:`repro.durability.checkpoint.capture_tenant_state`)
carries the trace path's carry state under ``session`` — the driver's
encoder/framer documents on the loop dataplane (``ptm``/``tpiu`` for
CoreSight, ``encoder``/``framer`` for E-Trace) and the stage states
on the batched one — and the tenant registry's counters.  Both must
stay byte-identical, so checkpoints already written keep restoring.
The model-dependent parts of the document (MCM records and scores)
are left out: they are pinned by the golden traces with a tolerance.

Regenerating after an *intentional* layout change::

    REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_checkpoint_layout.py

then inspect ``git diff tests/golden/`` and bump
``CHECKPOINT_VERSION`` if old checkpoints no longer restore.
"""

import json
import os
from pathlib import Path

import pytest

from repro.durability.checkpoint import capture_tenant_state
from repro.eval.metrics import build_demo_manager, demo_events
from repro.obs import MetricsRegistry

GOLDEN_DIR = Path(__file__).parent / "golden"
EVENTS = 700


def _run_tenant(frontend: str, dataplane: str):
    manager = build_demo_manager(
        num_tenants=1,
        metrics=MetricsRegistry(),
        frontends={"tenant0": frontend},
        dataplane=dataplane,
    )
    manager.run_events({"tenant0": demo_events("lstm", 0, EVENTS)})
    return manager.tenants[0]


def _layout(runtime) -> str:
    doc = capture_tenant_state(runtime)
    return json.dumps(
        {"session": doc["session"], "counters": doc["metrics"]["counters"]},
        sort_keys=True,
    )


@pytest.mark.parametrize("dataplane", ["batched", "loop"])
@pytest.mark.parametrize("frontend", ["coresight", "etrace"])
def test_tenant_checkpoint_layout_is_pinned(frontend, dataplane):
    path = GOLDEN_DIR / f"checkpoint_{frontend}_{dataplane}.json"
    got = _layout(_run_tenant(frontend, dataplane))
    if os.environ.get("REGEN_GOLDEN"):
        path.write_text(got + "\n")
    assert got == path.read_text().rstrip("\n")


@pytest.mark.parametrize("dataplane", ["batched", "loop"])
@pytest.mark.parametrize("frontend", ["coresight", "etrace"])
def test_pinned_session_restores_into_a_fresh_tenant(frontend, dataplane):
    path = GOLDEN_DIR / f"checkpoint_{frontend}_{dataplane}.json"
    session = json.loads(path.read_text())["session"]
    runtime = build_demo_manager(
        num_tenants=1, frontends={"tenant0": frontend}, dataplane=dataplane
    ).tenants[0]
    runtime.pipeline.restore_state(session["pipeline"])
    runtime.encoder.restore_state(session["encoder"])
    assert runtime.pipeline.export_state() == session["pipeline"]
    assert runtime.encoder.export_state() == session["encoder"]
