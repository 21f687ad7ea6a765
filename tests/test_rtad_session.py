"""Per-session SoC semantics: repeated runs, empty traces, trial edges.

Regression tests for the session-state fixes that rode along with the
staged-dataplane refactor:

- ``run_events`` used to leak PTM FIFO bytes, CoreSight compression
  state, the encoder window, and the MCM busy window across calls, so
  back-to-back runs diverged from fresh-SoC runs;
- an empty trace used to emit a spurious zero-time FIFO flush;
- ``run_attack_trial`` edge cases (onset at the last index, FIFO
  overflow, timeout expiry) were untested;
- ``run_attack_trial`` on a reused SoC used to judge the lifetime
  records, interrupts and drops, and ran without a session reset.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import SocConfigError
from repro.eval.metrics import build_demo_soc, demo_events
from repro.obs import MetricsRegistry


def record_key(record):
    return (
        record.sequence_number,
        record.trigger_cycle,
        record.arrival_ns,
        record.start_ns,
        record.done_ns,
        record.score,
        record.anomalous,
    )


class TestRepeatedRuns:
    @pytest.mark.parametrize("dataplane", ["batched", "loop"])
    def test_second_run_matches_fresh_soc(self, dataplane):
        events = demo_events("lstm", 0, 6_000)
        soc = build_demo_soc("lstm", dataplane=dataplane)
        first = soc.run_events(events)
        second = soc.run_events(events)
        assert first is not second  # a session's list stays intact
        fresh = build_demo_soc("lstm", dataplane=dataplane).run_events(
            events
        )
        assert len(second) == len(fresh) > 10
        assert [record_key(r) for r in second] == [
            record_key(r) for r in fresh
        ]

    def test_interleaved_traces_stay_independent(self):
        a = demo_events("lstm", 0, 4_000, run_label="session-a")
        b = demo_events("lstm", 0, 4_000, run_label="session-b")
        soc = build_demo_soc("lstm")
        soc.run_events(a)
        run_b = soc.run_events(b)
        fresh_b = build_demo_soc("lstm").run_events(b)
        assert [record_key(r) for r in run_b] == [
            record_key(r) for r in fresh_b
        ]


class TestEmptyTrace:
    @pytest.mark.parametrize("dataplane", ["batched", "loop"])
    def test_empty_trace_is_a_clean_noop(self, dataplane):
        registry = MetricsRegistry()
        soc = build_demo_soc("lstm", metrics=registry, dataplane=dataplane)
        records = soc.run_events([])
        assert records == []
        counters = registry.snapshot()["counters"]
        # no spurious zero-time FIFO flush, no trace bytes, no vectors
        assert counters.get("ptm_fifo.flushes", 0) == 0
        assert counters.get("ptm.bytes", 0) == 0
        assert counters.get("mcm.vectors_in", 0) == 0

    def test_empty_then_real_run_unaffected(self):
        events = demo_events("lstm", 0, 4_000)
        soc = build_demo_soc("lstm")
        assert soc.run_events([]) == []
        records = soc.run_events(events)
        fresh = build_demo_soc("lstm").run_events(events)
        assert [record_key(r) for r in records] == [
            record_key(r) for r in fresh
        ]


class TestAttackTrialEdges:
    def test_onset_at_last_index(self):
        soc = build_demo_soc("lstm")
        ids = ((np.arange(300) % 20) + 1).tolist()
        result = soc.run_attack_trial(
            normal_ids=ids,
            mean_interval_us=150.0,
            gadget_ids=[5, 9, 3, 7],
            onset_index=len(ids),     # gadget appended after the stream
            seed=1,
        )
        assert result.onset_ns > 0
        assert result.inferences == len(ids) + 4
        # the gadget still completes inferences, so a judgment exists
        assert result.detection_latency_us is not None
        assert result.detection_latency_us > 0

    def test_onset_past_end_rejected(self):
        soc = build_demo_soc("lstm")
        with pytest.raises(SocConfigError):
            soc.run_attack_trial(
                normal_ids=[1, 2, 3],
                mean_interval_us=10.0,
                gadget_ids=[1],
                onset_index=4,
            )

    def test_saturating_gadget_overflows_fifo(self):
        soc = build_demo_soc("lstm", num_cus=1, fifo_depth=4)
        ids = ((np.arange(500) % 20) + 1).tolist()
        result = soc.run_attack_trial(
            normal_ids=ids,
            mean_interval_us=5.0,     # far faster than the engine
            gadget_ids=[3, 4, 5, 6],
            onset_index=250,
            seed=3,
        )
        assert result.overflowed
        assert result.dropped_vectors > 0
        assert result.inferences < len(ids) + 4

    def test_timeout_expiry_reports_none(self):
        soc = build_demo_soc("lstm")
        ids = ((np.arange(200) % 20) + 1).tolist()
        # Service alone takes ~20 us, so a 1 us budget always expires:
        # the judgment lands after the window and must not be counted.
        result = soc.run_attack_trial(
            normal_ids=ids,
            mean_interval_us=150.0,
            gadget_ids=[5, 9, 3, 7],
            onset_index=100,
            seed=1,
            timeout_us=1.0,
        )
        assert result.detection_latency_us is None
        assert not result.detected
        # the same trial with a sane budget does produce a judgment
        relaxed = build_demo_soc("lstm").run_attack_trial(
            normal_ids=ids,
            mean_interval_us=150.0,
            gadget_ids=[5, 9, 3, 7],
            onset_index=100,
            seed=1,
        )
        assert relaxed.detection_latency_us is not None


class TestReusedSocTrials:
    @pytest.mark.parametrize(
        "num_cus,fifo_depth,interval_us", [(5, 64, 150.0), (1, 4, 5.0)]
    )
    def test_second_trial_matches_fresh_soc(
        self, num_cus, fifo_depth, interval_us
    ):
        ids = ((np.arange(400) % 20) + 1).tolist()
        trial = dict(
            normal_ids=ids,
            mean_interval_us=interval_us,
            gadget_ids=[5, 9, 3, 7],
            onset_index=200,
            seed=1,
        )

        def build():
            return build_demo_soc(
                "lstm", num_cus=num_cus, fifo_depth=fifo_depth
            )

        soc = build()
        first = soc.run_attack_trial(**trial)
        second = soc.run_attack_trial(**trial)
        fresh = build().run_attack_trial(**trial)
        assert first == fresh
        assert second == fresh
        assert fresh.inferences > 10
