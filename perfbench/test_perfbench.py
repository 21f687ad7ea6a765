"""Tests of the benchmark itself: seeded inputs, tracing, metric table.

Run from the root of a checkout::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import pathlib
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
for path in (str(ROOT / "src"), str(ROOT)):
    if path not in sys.path:
        sys.path.insert(0, path)

import pytest  # noqa: E402

from perfbench import harness, inputs, layers  # noqa: E402
from perfbench.speed import SpeedProbe  # noqa: E402
from perfbench.tracer import Tracer  # noqa: E402
from repro.serve import protocol  # noqa: E402


def _engine_digest(pool):
    return [
        {name: tuple(events) for name, events in traces.items()}
        for traces in pool
    ]


def test_same_seed_gives_the_same_inputs():
    assert inputs.raw_inputs(3) == inputs.raw_inputs(3)
    assert inputs.paced_inputs(3, 50.0, 1.0) == inputs.paced_inputs(3, 50.0, 1.0)
    assert _engine_digest(inputs.engine_inputs(3)) == _engine_digest(
        inputs.engine_inputs(3)
    )


def test_another_seed_gives_other_inputs():
    assert [s.frames for s in inputs.raw_inputs(3)] != [
        s.frames for s in inputs.raw_inputs(4)
    ]
    assert [s.frames for s in inputs.paced_inputs(3, 50.0, 1.0)] != [
        s.frames for s in inputs.paced_inputs(4, 50.0, 1.0)
    ]
    assert _engine_digest(inputs.engine_inputs(3)) != _engine_digest(
        inputs.engine_inputs(4)
    )


def test_raw_frames_decode_to_their_precomputed_counts():
    for stream in inputs.raw_inputs(5):
        decoder = inputs.RawDecoder(stream.frontend)
        pool = len(stream.frames)
        for index in range(2 * pool + 3):
            decoded = decoder.feed(stream.payloads[index % pool])
            assert len(decoded) == stream.decoded(index)
        assert decoder.resyncs == 0
        assert all(count > 0 for count in stream.decoded_first)


def test_paced_cycles_keep_rising_across_walks_and_pool_wraps():
    frames = inputs.PACED_POOL_FRAMES + 8
    for stream in inputs.paced_inputs(5, frames, 1.0):
        cycles = [
            event.cycle
            for payload in stream.payloads
            for event in protocol.decode_events_payload(payload)
        ]
        assert len(cycles) == (frames + 1) * inputs.PACED_FRAME_EVENTS
        assert all(a <= b for a, b in zip(cycles, cycles[1:]))


def test_engine_rounds_carry_one_trigger_per_tenant():
    pool = inputs.engine_inputs(5)
    monitored = inputs._monitored()
    assert len(pool) == inputs.ENGINE_POOL_ROUNDS
    for traces in pool:
        assert sorted(traces) == inputs.engine_tenant_names()
        for events in traces.values():
            assert len(events) == inputs.ENGINE_SLICE_EVENTS
            assert sum(e.target in monitored for e in events) == 1
            assert events[-1].target in monitored


@pytest.fixture
def work_dir(tmp_path):
    return str(tmp_path)


@pytest.mark.parametrize("workload", harness.WORKLOADS)
def test_a_second_seed_passes_the_verdict_check(workload, work_dir):
    system = harness.System(workload, work_dir)
    phases = harness.plan(0.6, traced=True)
    tracer = Tracer(keep_durations=("fleet",))
    probe = SpeedProbe()
    try:
        if workload == harness.ENGINE:
            pool, rounds = harness.run_engine(system, 7, phases, tracer, probe)
            bad, model = harness.verify_engine(system, pool, rounds)
            laws = []
        else:
            streams, rounds, log, _ = harness.run_serve(
                system, 7, phases, tracer, work_dir, probe
            )
            bad, laws, model = harness.verify_serve(system, streams, log, rounds)
            rows = harness.frame_rows(streams, log, rounds, bad)
            laws += harness.serve_laws(system, log, rows)
    finally:
        system.close()
    assert rounds
    assert not bad
    assert all(ok for _, ok, _ in laws), laws
    assert model["model.detect_p99_us"] >= model["model.detect_p50_us"] > 0
    assert probe.slowdown(phases[0].start_ns, phases[0].end_ns) > 0


def test_tracer_self_times_and_other_add_up_to_the_wall():
    class Layer:
        def __init__(self, inner=None, work_s=0.0):
            self.inner = inner
            self.work_s = work_s

        def call(self):
            deadline = time.perf_counter() + self.work_s
            while time.perf_counter() < deadline:
                pass
            if self.inner is not None:
                self.inner.call()

    leaf = Layer(work_s=0.004)
    outer = Layer(inner=leaf, work_s=0.002)
    tracer = Tracer(keep_durations=("outer",))
    tracer.wrap(outer, "call", "outer")
    tracer.wrap(leaf, "call", "leaf")
    outer.call()  # inactive: not counted
    tracer.start()
    for _ in range(5):
        outer.call()
        time.sleep(0.002)
    tracer.stop()
    total = tracer.busy_ns["outer"] + tracer.busy_ns["leaf"] + tracer.other_ns
    assert total == pytest.approx(tracer.wall_ns, rel=1e-6)
    assert tracer.busy_ns["leaf"] > tracer.busy_ns["outer"] > 0
    assert len(tracer.durations["outer"]) == 5
    assert tracer.other_ns >= 5 * 0.002e9


def test_window_figures_pool_the_fastest_slices(monkeypatch):
    monkeypatch.setattr(harness, "KEEP", 0.5)
    second = 1_000_000_000
    window = harness.Phase(False, 4.0, start_ns=0, end_ns=4 * second)
    units = []
    for index in range(4):
        latency = second // 100 if index < 2 else second // 10
        start = index * second
        units += [(start, start + latency, 10), (start + 1, start + 1 + latency, 10)]
    figures, samples = harness.window_figures(window, units)
    assert samples == 4
    assert figures["latency_p50_ms"] == pytest.approx(10.0)
    assert figures["latency_p99_ms"] == pytest.approx(10.0)
    # Two kept slices, 20 events each, busy until their last delivery.
    assert figures["events_per_s"] == pytest.approx(40 / (2 * (1 + second // 100) / 1e9))


def test_benchmark_json_matches_the_metric_table():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["perfbench"]
    assert [w["name"] for w in spec["workloads"]] == list(harness.GATED)
    assert spec["end_to_end"] == [
        {"name": name, "unit": unit, "better": better, "bound": bound}
        for name, unit, better, bound in layers.END_TO_END
    ]
    assert spec["per_layer"] == [
        {"name": name, "unit": unit, "better": better}
        for name, unit, better, _ in layers.PER_LAYER
    ]
