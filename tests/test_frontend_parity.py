"""End-to-end detection parity between trace frontends.

The refactor's gate: the CoreSight and E-Trace grammars serialize the
same branch stream differently, but everything downstream of the
deframer — IGM address mapping, vector encoding, MCM inference,
thresholding — is shared.  So on a shared ELM+LSTM demo workload the
two frontends must produce the *same* verdicts (sequence numbers,
scores, anomalous flags) and the *same* IGM vectors, and the E-Trace
path must hold the batched-vs-loop dataplane equivalence the
CoreSight path already pins elsewhere.
"""

import numpy as np
import pytest

from repro.eval.metrics import build_demo_soc, demo_events
from repro.eval.parity import parity_failures, run_parity

EVENTS = 4_000


def _verdicts(records):
    return [
        (r.sequence_number, r.score, bool(r.anomalous)) for r in records
    ]


@pytest.mark.parametrize("kind", ("elm", "lstm"))
def test_detection_parity_between_frontends(kind):
    stream = demo_events(kind, 0, EVENTS, run_label=f"parity-{kind}")
    per_frontend = {}
    for frontend in ("coresight", "etrace"):
        soc = build_demo_soc(kind, seed=0, frontend=frontend)
        per_frontend[frontend] = _verdicts(soc.run_events(stream))
    assert per_frontend["coresight"], "vacuous parity (no inferences)"
    assert per_frontend["coresight"] == per_frontend["etrace"]


@pytest.mark.parametrize("kind", ("elm", "lstm"))
def test_etrace_batched_matches_loop_dataplane(kind):
    stream = demo_events(kind, 0, EVENTS, run_label=f"parity-{kind}")
    # Fresh SoC per run: run_events returns the MCM's lifetime record
    # log, so reusing one SoC would hand the second run both sessions.
    soc = build_demo_soc(kind, seed=0, frontend="etrace")
    batched = _verdicts(soc.run_events(stream))
    soc = build_demo_soc(kind, seed=0, frontend="etrace", dataplane="loop")
    loop = _verdicts(soc.run_events(stream))
    assert batched, "vacuous equivalence (no inferences)"
    assert batched == loop


def test_igm_vectors_are_identical_across_frontends():
    """Bare-pipeline vector capture: same values, same sequence."""
    from repro.eval.parity import _capture_vectors

    soc = build_demo_soc("lstm", seed=0)
    stream = demo_events("lstm", 0, EVENTS, run_label="parity-vectors")
    coresight = _capture_vectors("coresight", soc, stream)
    etrace = _capture_vectors("etrace", soc, stream)
    assert len(coresight) == len(etrace) > 0
    for left, right in zip(coresight, etrace):
        assert left.sequence_number == right.sequence_number
        assert left.trigger_address == right.trigger_address
        assert left.trigger_cycle == right.trigger_cycle
        assert np.array_equal(left.values, right.values)


def test_run_parity_reports_no_failures():
    """The eval-level gate (what CI's parity smoke runs) is clean."""
    result = run_parity(kinds=("lstm",), events=EVENTS, seed=0)
    assert result.parity
    assert parity_failures(result) == []
    digests = {
        (run.verdict_digest, run.vector_digest)
        for kind in result.kinds
        for run in kind.runs
    }
    assert len(digests) == 1  # both frontends hashed identically
