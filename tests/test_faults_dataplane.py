"""Cross-dataplane fault determinism.

The same :class:`FaultPlan` seed must produce the *identical*
corruption pattern — and therefore identical inference records and
fault counters — whether the SoC runs its staged batched dataplane or
the legacy event loop.  This is the property that makes chaos results
comparable across execution modes.
"""

import pytest

from repro.eval.metrics import build_demo_soc, demo_events
from repro.faults import FaultKind, FaultPlan, FaultSpec
from repro.obs import MetricsRegistry

EVENTS = 3000
SEED = 11

FAULT_COUNTERS = (
    "faults.events.dropped",
    "faults.events.duplicated",
    "faults.events.corrupted",
    "faults.vectors.dropped",
)


def event_plan(seed=SEED):
    return FaultPlan(
        seed=seed,
        specs=(
            FaultSpec(FaultKind.EVENT_DROP, rate=0.01),
            FaultSpec(FaultKind.EVENT_DUP, rate=0.01),
            FaultSpec(FaultKind.EVENT_CORRUPT, rate=0.01),
            FaultSpec(FaultKind.FIFO_OVERFLOW, rate=0.003, burst=4),
        ),
    )


def zero_plan(seed=SEED):
    return FaultPlan(
        seed=seed,
        specs=(
            FaultSpec(FaultKind.EVENT_DROP, rate=0.0),
            FaultSpec(FaultKind.EVENT_CORRUPT, rate=0.0),
            FaultSpec(FaultKind.FIFO_OVERFLOW, rate=0.0),
        ),
    )


def record_key(record):
    return (
        record.sequence_number,
        record.arrival_ns,
        record.start_ns,
        record.done_ns,
        float(record.score),
        record.anomalous,
    )


def run_soc(dataplane, fault_plan, seed=SEED):
    registry = MetricsRegistry()
    soc = build_demo_soc(
        "lstm",
        seed=0,
        metrics=registry,
        fault_plan=fault_plan,
        dataplane=dataplane,
    )
    events = demo_events("lstm", 0, EVENTS, run_label="dataplane-faults")
    records = soc.run_events(events)
    counters = registry.snapshot()["counters"]
    faults = {
        name: counters.get(name, 0) for name in FAULT_COUNTERS
    }
    return [record_key(r) for r in records], faults


class TestCrossDataplaneDeterminism:
    def test_same_seed_same_records_and_counters(self):
        batched_records, batched_faults = run_soc("batched", event_plan())
        loop_records, loop_faults = run_soc("loop", event_plan())
        assert batched_faults == loop_faults
        assert sum(batched_faults.values()) > 0  # faults actually fired
        assert batched_records == loop_records

    def test_different_seeds_differ(self):
        a_records, a_faults = run_soc("batched", event_plan(seed=1))
        b_records, b_faults = run_soc("batched", event_plan(seed=2))
        assert a_records != b_records or a_faults != b_faults

    def test_faults_change_output(self):
        clean_records, _ = run_soc("batched", None)
        faulty_records, faults = run_soc("batched", event_plan())
        assert faults["faults.events.dropped"] > 0
        assert clean_records != faulty_records


class TestZeroRatePassthrough:
    @pytest.mark.parametrize("dataplane", ["batched", "loop"])
    def test_zero_rate_plan_is_identity(self, dataplane):
        baseline, _ = run_soc(dataplane, None)
        gated, faults = run_soc(dataplane, zero_plan())
        assert all(value == 0 for value in faults.values())
        assert gated == baseline
