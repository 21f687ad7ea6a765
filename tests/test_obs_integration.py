"""Observability threaded through the full pipeline.

Two invariants matter:

1. the counters are *consistent* — cross-stage conservation laws hold
   (every event was seen by the PTM and the mapper; every encoded
   vector reached the MCM; every accepted vector produced exactly one
   inference), and
2. metrics are *inert* — a run with a live registry produces records
   identical to a run with the no-op default.
"""

import pytest

from repro.mcm.driver import MlMiaowDriver
from repro.miaow.gpu import Gpu
from repro.ml.detector import ThresholdDetector
from repro.ml.kernels import DeployedLstm
from repro.obs import MetricsRegistry, NullRegistry
from repro.soc.manager import Deployment
from repro.soc.rtad import RtadConfig, RtadSoc


EVENTS = 8_000


def _build_soc(small_program, tiny_lstm, call_dataset, metrics):
    monitored = small_program.monitored_call_targets(count=30)
    deployment = DeployedLstm(tiny_lstm)
    reference = deployment.make_reference()
    stream = call_dataset.test_normal[::8].ravel()[:600]
    detector = ThresholdDetector(0.99).fit(
        [reference.infer(int(b)) for b in stream]
    )
    driver = MlMiaowDriver(deployment, Gpu(num_cus=5), execute_on_gpu=False)
    return RtadSoc(
        small_program,
        Deployment(
            name="rtad",
            driver=driver,
            monitored_addresses=monitored,
            detector=detector,
            config=RtadConfig(fifo_depth=64),
        ),
        metrics=metrics,
    )


def _record_key(record):
    return (
        record.sequence_number,
        record.trigger_cycle,
        record.arrival_ns,
        record.start_ns,
        record.done_ns,
        record.score,
        record.anomalous,
        record.gpu_cycles,
    )


@pytest.fixture(scope="module")
def instrumented_run(small_program, tiny_lstm, call_dataset):
    registry = MetricsRegistry()
    soc = _build_soc(small_program, tiny_lstm, call_dataset, registry)
    events = small_program.run(EVENTS, run_label="obs-integration").events
    records = soc.run_events(events)
    return soc, registry, events, records


class TestCounterConsistency:
    def test_every_event_accounted(self, instrumented_run):
        _, registry, events, _ = instrumented_run
        counters = registry.snapshot()["counters"]
        assert counters["soc.events"] == len(events)
        assert counters["ptm.events"] == len(events)
        assert (
            counters["igm.mapper.hits"] + counters["igm.mapper.misses"]
            == len(events)
        )

    def test_vector_conservation(self, instrumented_run):
        _, registry, _, records = instrumented_run
        counters = registry.snapshot()["counters"]
        assert counters["igm.vectors_encoded"] == counters["mcm.vectors_in"]
        assert (
            counters["mcm.inferences"]
            == counters["mcm.vectors_in"] - counters["mcm.dropped_vectors"]
        )
        assert counters["mcm.inferences"] == len(records)
        assert len(records) > 0

    def test_driver_counts_match_mcm(self, instrumented_run):
        soc, registry, _, records = instrumented_run
        counters = registry.snapshot()["counters"]
        assert counters["driver.inferences"] == counters["mcm.inferences"]
        dispatches = soc.mcm.driver.phases.num_dispatches
        assert (
            counters["driver.kernel_launches"]
            == len(records) * dispatches
        )
        assert counters["driver.gpu_cycles"] == sum(
            record.gpu_cycles for record in records
        )

    def test_trace_port_byte_conservation(self, instrumented_run):
        _, registry, _, _ = instrumented_run
        counters = registry.snapshot()["counters"]
        # Every PTM byte is carried as TPIU frame payload...
        assert counters["tpiu.payload_bytes"] == counters["ptm.bytes"]
        # ...and frames are fixed-size: payload + padding + 1 ID byte.
        assert (
            counters["tpiu.payload_bytes"]
            + counters["tpiu.padding_bytes"]
            + counters["tpiu.frames"]
            == counters["tpiu.frames"] * 16
        )

    def test_latency_histograms_cover_every_inference(
        self, instrumented_run
    ):
        _, registry, _, records = instrumented_run
        histograms = registry.snapshot()["histograms"]
        for name in (
            "pipeline.read_ns",
            "pipeline.vectorize_ns",
            "pipeline.e2e_ns",
            "mcm.queue_ns",
            "mcm.service_ns",
            "mcm.gpu_ns",
        ):
            assert histograms[name]["count"] == len(records), name

    def test_run_span_recorded(self, instrumented_run):
        _, registry, _, _ = instrumented_run
        histograms = registry.snapshot()["histograms"]
        assert histograms["span.soc.run_events"]["count"] == 1
        assert (
            histograms["span.soc.run_events/mcm.finalize"]["count"] == 1
        )
        paths = [record.path for record in registry.spans]
        assert "soc.run_events" in paths

    def test_fifo_gauge_high_water(self, instrumented_run):
        soc, registry, _, _ = instrumented_run
        gauges = registry.snapshot()["gauges"]
        assert (
            gauges["mcm.fifo.depth"]["high_water"]
            == soc.mcm.fifo.max_occupancy
        )


class TestMetricsAreInert:
    def test_identical_records_with_and_without_registry(
        self, instrumented_run, small_program, tiny_lstm, call_dataset
    ):
        _, _, events, instrumented_records = instrumented_run
        null_soc = _build_soc(
            small_program, tiny_lstm, call_dataset, NullRegistry()
        )
        null_records = null_soc.run_events(events)
        assert (
            [_record_key(record) for record in null_records]
            == [_record_key(record) for record in instrumented_records]
        )

    def test_default_is_null_registry(
        self, small_program, tiny_lstm, call_dataset
    ):
        soc = _build_soc(small_program, tiny_lstm, call_dataset, None)
        assert soc.metrics.enabled is False
        records = soc.run_events(
            small_program.run(2_000, run_label="obs-default").events
        )
        assert soc.metrics.snapshot()["counters"] == {}
        assert soc.metrics.spans == []
