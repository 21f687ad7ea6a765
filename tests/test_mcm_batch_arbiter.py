"""Batched arbitration: coalescing is invisible except in throughput.

Property tests over :class:`ArbitratedMcm` with ``batch_limit > 1``:
records (and therefore the whole simulated timeline) must be identical
to unbatched arbitration, per-tenant FIFO order must hold, coalescing
must never cross kernel shapes / ineligible lanes / dual-run voters,
and the watchdog cancellation path must behave exactly as it does with
batching off.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.errors import McmError
from repro.faults import FaultKind, FaultPlan, FaultSpec, ServiceFaultInjector
from repro.igm.vector_encoder import InputVector
from repro.mcm.arbiter import ArbitratedMcm
from repro.mcm.driver import MlMiaowDriver
from repro.mcm.mcm import Mcm, McmConfig
from repro.miaow.gpu import Gpu
from repro.ml.detector import ThresholdDetector
from repro.ml.kernels import DeployedElm, DeployedLstm
from repro.obs import MetricsRegistry


def vector(values, seq=0, cycle=0):
    return InputVector(
        values=np.asarray(values, dtype=np.int64),
        sequence_number=seq,
        trigger_address=0x1000,
        trigger_cycle=cycle,
    )


def lstm_lane(
    model, gpu, metrics=None, dual_run=False, detector=None, mcm=Mcm,
    **config,
):
    config.setdefault("fifo_depth", 32)
    return mcm(
        driver=MlMiaowDriver(DeployedLstm(model), gpu),
        detector=detector,
        config=McmConfig(dual_run=dual_run, **config),
        metrics=metrics or MetricsRegistry(),
    )


def elm_lane(
    model, dictionary, window, gpu, metrics=None, detector=None, mcm=Mcm,
    **config,
):
    config.setdefault("fifo_depth", 32)
    return mcm(
        driver=MlMiaowDriver(DeployedElm(model, dictionary, window), gpu),
        detector=detector,
        config=McmConfig(**config),
        metrics=metrics or MetricsRegistry(),
    )


def random_lstm_traffic(arb, vocabulary, num_lanes, steps, seed=11):
    """Poisson-ish pushes over all lanes; returns per-lane sequences."""
    rng = np.random.default_rng(seed)
    pushed = [[] for _ in range(num_lanes)]
    now = 0.0
    sequence = [0] * num_lanes
    for _ in range(steps):
        lane = int(rng.integers(0, num_lanes))
        branch = int(rng.integers(0, vocabulary))
        arb.push(lane, vector([branch], seq=sequence[lane]), now)
        pushed[lane].append(sequence[lane])
        sequence[lane] += 1
        now += float(rng.integers(0, 40_000))
    return pushed


class TestTimelineParity:
    def _run(self, tiny_lstm, batch_limit, steps=48):
        registry = MetricsRegistry()
        gpu = Gpu(num_cus=4, fast_path=True, name="shared")
        lanes = [lstm_lane(tiny_lstm, gpu, registry) for _ in range(5)]
        arb = ArbitratedMcm(
            lanes, metrics=registry, batch_limit=batch_limit
        )
        pushed = random_lstm_traffic(
            arb, tiny_lstm.vocabulary_size, len(lanes), steps
        )
        arb.finalize()
        return arb, registry, pushed, [lane.records for lane in lanes]

    def test_records_identical_to_unbatched(self, tiny_lstm):
        _, _, _, unbatched = self._run(tiny_lstm, batch_limit=1)
        arb, registry, _, batched = self._run(tiny_lstm, batch_limit=4)
        assert unbatched == batched
        counters = registry.snapshot()["counters"]
        assert counters["mcm.arbiter.batch.grants"] > 0
        assert (
            counters["mcm.arbiter.batch.members"]
            >= 2 * counters["mcm.arbiter.batch.grants"]
        )

    def test_per_tenant_fifo_order_preserved(self, tiny_lstm):
        _, _, pushed, records = self._run(tiny_lstm, batch_limit=8)
        for lane_pushed, lane_records in zip(pushed, records):
            assert [r.sequence_number for r in lane_records] == lane_pushed
            starts = [r.start_ns for r in lane_records]
            assert starts == sorted(starts)

    def test_drain_histogram_sums_to_total_serves(self, tiny_lstm):
        _, registry, _, records = self._run(tiny_lstm, batch_limit=4)
        histogram = registry.snapshot()["histograms"][
            "mcm.drain.batch_vectors"
        ]
        assert histogram["sum"] == sum(len(r) for r in records)


class TestCoalescingBoundaries:
    def test_never_batches_across_kernel_shapes(
        self, tiny_lstm, tiny_elm, tiny_dictionary, syscall_dataset
    ):
        registry = MetricsRegistry()
        gpu = Gpu(num_cus=4, fast_path=True, name="shared")
        window = syscall_dataset.train_windows.shape[1]
        lanes = [
            lstm_lane(tiny_lstm, gpu, registry),
            elm_lane(tiny_elm, tiny_dictionary, window, gpu, registry),
        ]
        arb = ArbitratedMcm(lanes, metrics=registry, batch_limit=4)
        window_values = syscall_dataset.train_windows[0]
        for seq in range(4):
            arb.push(0, vector([seq % 8], seq=seq), 0.0)
            arb.push(1, vector(window_values, seq=seq), 0.0)
        arb.finalize()
        counters = registry.snapshot()["counters"]
        # one LSTM lane + one ELM lane: no compatible partner exists
        assert counters["mcm.arbiter.batch.grants"] == 0
        assert len(lanes[0].records) == 4
        assert len(lanes[1].records) == 4

    def test_ineligible_lane_never_joins_a_batch(self, tiny_lstm):
        def run(ineligible):
            registry = MetricsRegistry()
            gpu = Gpu(num_cus=4, fast_path=True, name="shared")
            lanes = [lstm_lane(tiny_lstm, gpu, registry) for _ in range(3)]
            arb = ArbitratedMcm(lanes, metrics=registry, batch_limit=4)
            for index in ineligible:
                arb.set_batch_eligible(index, False)
            for seq in range(4):
                for lane in range(3):
                    arb.push(lane, vector([lane + seq], seq=seq), 0.0)
            arb.finalize()
            counters = registry.snapshot()["counters"]
            return [lane.records for lane in lanes], counters

        all_records, counters = run(ineligible=())
        assert counters["mcm.arbiter.batch.grants"] > 0
        # quarantined-from-batching lanes serve singly but identically
        solo_records, solo_counters = run(ineligible=(0, 1, 2))
        assert solo_counters["mcm.arbiter.batch.grants"] == 0
        assert solo_records == all_records
        # with one eligible lane left there is still no one to pair with
        _, pair_counters = run(ineligible=(0, 1))
        assert pair_counters["mcm.arbiter.batch.grants"] == 0

    def test_dual_run_lane_is_excluded(self, tiny_lstm):
        registry = MetricsRegistry()
        gpu = Gpu(num_cus=4, fast_path=True, name="shared")
        lanes = [
            lstm_lane(tiny_lstm, gpu, registry, dual_run=True),
            lstm_lane(tiny_lstm, gpu, registry, dual_run=True),
        ]
        arb = ArbitratedMcm(lanes, metrics=registry, batch_limit=4)
        for seq in range(3):
            arb.push(0, vector([seq], seq=seq), 0.0)
            arb.push(1, vector([seq], seq=seq), 0.0)
        arb.finalize()
        counters = registry.snapshot()["counters"]
        assert counters["mcm.arbiter.batch.grants"] == 0
        # dual-run voting still happened on every serve
        assert counters["mcm.dual_run.runs"] == 6
        for lane in lanes:
            assert all(r.divergent is False for r in lane.records)

    def test_calibrated_lanes_never_batch(self, tiny_lstm):
        registry = MetricsRegistry()
        gpu = Gpu(name="shared")
        lanes = [
            Mcm(
                driver=MlMiaowDriver(
                    DeployedLstm(tiny_lstm), gpu, execute_on_gpu=False
                ),
                metrics=registry,
            )
            for _ in range(2)
        ]
        arb = ArbitratedMcm(lanes, metrics=registry, batch_limit=4)
        assert lanes[0].driver.batch_key(0) is None
        for seq in range(3):
            arb.push(0, vector([seq], seq=seq), 0.0)
            arb.push(1, vector([seq], seq=seq), 0.0)
        arb.finalize()
        counters = registry.snapshot()["counters"]
        assert counters["mcm.arbiter.batch.grants"] == 0
        assert len(lanes[0].records) == 3

    def test_batch_limit_validation_and_membership(self, tiny_lstm):
        gpu = Gpu(num_cus=2, fast_path=True, name="shared")
        lanes = [lstm_lane(tiny_lstm, gpu) for _ in range(2)]
        with pytest.raises(McmError):
            ArbitratedMcm(lanes, batch_limit=0)
        arb = ArbitratedMcm(lanes, batch_limit=4)
        with pytest.raises(McmError):
            arb.set_batch_eligible(9, True)
        third = lstm_lane(tiny_lstm, gpu)
        arb.add_lane(third)
        assert arb.batch_eligible == [True, True, True]
        arb.set_batch_eligible(2, False)
        arb.remove_lane(0)
        assert arb.batch_eligible == [True, False]


class TestWatchdogWithBatching:
    def _hang_plan(self, rate=1.0, seed=3):
        return FaultPlan(
            seed=seed, specs=(FaultSpec(FaultKind.MCM_HANG, rate=rate),)
        )

    def _run(self, tiny_lstm, batch_limit):
        registry = MetricsRegistry()
        gpu = Gpu(num_cus=4, fast_path=True, name="shared")
        lanes = [lstm_lane(tiny_lstm, gpu, registry) for _ in range(4)]
        faults = [ServiceFaultInjector(self._hang_plan()), None, None, None]
        arb = ArbitratedMcm(
            lanes,
            metrics=registry,
            deadline_us=100.0,
            service_faults=faults,
            batch_limit=batch_limit,
        )
        rng = np.random.default_rng(9)
        now = 0.0
        sequence = [0] * 4
        for _ in range(24):
            lane = int(rng.integers(0, 4))
            arb.push(
                lane,
                vector([int(rng.integers(0, 16))], seq=sequence[lane]),
                now,
            )
            sequence[lane] += 1
            now += float(rng.integers(0, 30_000))
        arb.finalize()
        return arb, [lane.records for lane in lanes], lanes

    def test_cancellation_matches_unbatched_and_resets_cleanly(
        self, tiny_lstm
    ):
        arb1, records1, lanes1 = self._run(tiny_lstm, batch_limit=1)
        arb4, records4, lanes4 = self._run(tiny_lstm, batch_limit=4)
        assert records1 == records4
        assert arb1.watchdog_trips == arb4.watchdog_trips
        assert arb4.watchdog_trips[0] > 0
        # every cancelled head on the hanging lane produced no record,
        # and the healthy lanes' sessions were untouched by the aborts
        assert lanes4[0].cancelled == arb4.watchdog_trips[0]
        assert records4[0] == []
        assert not arb4.hung
        # the batch machinery still fused the healthy lanes
        counters = arb4.metrics.snapshot()["counters"]
        assert counters["mcm.arbiter.batch.grants"] > 0

    def test_session_reset_discards_pending_batch_results(self, tiny_lstm):
        """Work granted before a reset is completed exactly as eager
        serving completes it, and the next round equals a fresh
        arbiter's."""

        def build(batch_limit=4, mcm=Mcm):
            registry = MetricsRegistry()
            gpu = Gpu(num_cus=4, fast_path=True, name="shared")
            lanes = [
                lstm_lane(tiny_lstm, gpu, registry, mcm=mcm)
                for _ in range(4)
            ]
            arb = ArbitratedMcm(
                lanes, metrics=registry, batch_limit=batch_limit
            )
            return lanes, arb

        def round_(arb, seq):
            for lane in range(3):
                arb.push(lane, vector([lane + seq], seq=seq), 0.0)

        lanes, arb = build()
        round_(arb, 0)
        # A late arrival on lane 3 makes the drain grant the three
        # queued heads; the reset then lands before any finalize.
        arb.push(3, vector([0], seq=0), 1e9)
        session = [lane.records for lane in lanes[:3]]
        arb.reset_session()
        eager_lanes, eager = build(batch_limit=1, mcm=EagerMcm)
        round_(eager, 0)
        assert session == eager.finalize()[:3]
        assert all(len(records) == 1 for records in session)
        # a fresh round after the reset serves (and fuses) like a
        # fresh arbiter; lane 3's leftover arrives after all of it
        for lane in lanes:
            lane.driver.reset()
        round_(arb, 1)
        arb.finalize()
        fresh_lanes, fresh = build()
        round_(fresh, 1)
        fresh.finalize()
        assert [lane.records for lane in lanes[:3]] == [
            lane.records for lane in fresh_lanes[:3]
        ]
        counters = arb.metrics.snapshot()["counters"]
        assert counters["mcm.arbiter.batch.grants"] == 2


class TestFusedWidth:
    """An engine-shaped round fuses every lane's k-th inference."""

    def _round(self, tiny_lstm, vectors_per_lane):
        registry = MetricsRegistry()
        gpu = Gpu(num_cus=4, fast_path=True, name="shared", metrics=registry)
        lanes = [lstm_lane(tiny_lstm, gpu, registry) for _ in range(8)]
        arb = ArbitratedMcm(lanes, metrics=registry, batch_limit=8)
        for seq in range(vectors_per_lane):
            for lane in range(8):
                arrival = float(1_000 * (8 * seq + lane))
                arb.push(lane, vector([lane + seq], seq=seq), arrival)
        arb.finalize()
        return registry.snapshot()["counters"], lanes

    def test_one_trigger_per_lane_is_one_fused_dispatch_per_kernel(
        self, tiny_lstm
    ):
        counters, lanes = self._round(tiny_lstm, vectors_per_lane=1)
        assert counters["mcm.arbiter.batch.grants"] == 1
        assert counters["mcm.arbiter.batch.members"] == 8
        # score, gates and update: one fused dispatch each, 8 wide
        assert counters["miaow.batch.dispatches"] == 3
        assert counters["miaow.batch.requests"] == 24
        assert all(len(lane.records) == 1 for lane in lanes)

    def test_two_vectors_per_lane_make_two_waves_of_eight(self, tiny_lstm):
        counters, lanes = self._round(tiny_lstm, vectors_per_lane=2)
        assert counters["mcm.arbiter.batch.grants"] == 2
        assert counters["mcm.arbiter.batch.members"] == 16
        assert counters["miaow.batch.dispatches"] == 6
        assert all(len(lane.records) == 2 for lane in lanes)


# Differential harness lanes: two plain exact LSTM lanes, one LSTM lane
# with a service-fault injector under an armed watchdog, one dual-run
# lane, one batch-ineligible lane, and two exact ELM lanes.
PLAIN, FAULTY, DUAL, INELIGIBLE, ELM = (0, 1), 2, 3, 4, (5, 6)
NUM_LANES = 7


def _pushes():
    # the faulty lane is drawn three times as often: cancels need it
    lanes = list(range(NUM_LANES)) + [FAULTY] * 2
    push = st.tuples(
        st.sampled_from(lanes),
        st.integers(0, 15),          # LSTM branch id / ELM window index
        st.integers(0, 4),           # ELM: positions overwritten
        st.integers(0, 30_000),      # gap to the previous arrival (ns)
    )
    return st.lists(push, min_size=1, max_size=30)


class EagerMcm(Mcm):
    """Oracle lane: computes and records every grant on the spot, so
    nothing waits for a compute pass."""

    def grant_head(self, start_ns, extra_service_ns=0.0):
        pending = super().grant_head(start_ns, extra_service_ns)
        if pending.result is None:
            self.compute(pending)
        super().assemble(pending)
        return pending

    def assemble(self, pending):
        pass  # already recorded at the grant


class TestDifferentialAgainstUnbatched:
    """Timing first, compute second is invisible: any ``batch_limit``
    serves exactly what ``batch_limit=1`` serves, and both serve what
    eager per-grant service does."""

    def _run(self, models, batch_limit, scenario, mcm=Mcm):
        pushes, reset_at, fault_seed = scenario
        tiny_lstm, tiny_elm, tiny_dictionary, windows = models
        lstm_detector = ThresholdDetector(0.5).fit(np.linspace(0, 6, 20))
        # Fires on every inference, so each judged (smoothed) score of
        # the faulty lane lands in its interrupt log.
        always = ThresholdDetector(0.5).fit(np.linspace(-20, -10, 20))
        elm_detector = ThresholdDetector(0.5).fit(
            tiny_elm.score_mahalanobis_f32(tiny_dictionary.features(windows))
        )
        gpu = Gpu(num_cus=2, fast_path=True, name="shared")
        lanes = []
        for index in range(NUM_LANES):
            if index in ELM:
                lanes.append(elm_lane(
                    tiny_elm, tiny_dictionary, windows.shape[1], gpu,
                    detector=elm_detector, fifo_depth=2, mcm=mcm,
                ))
            else:
                lanes.append(lstm_lane(
                    tiny_lstm, gpu, dual_run=index == DUAL,
                    detector=always if index == FAULTY else lstm_detector,
                    fifo_depth=2,
                    score_smoothing=3, mcm=mcm,
                ))
        plan = FaultPlan(seed=fault_seed, specs=(
            FaultSpec(FaultKind.MCM_HANG, rate=0.25),
            FaultSpec(FaultKind.MCM_STALL, rate=0.3, stall_us=10.0),
        ))
        faults = [None] * NUM_LANES
        faults[FAULTY] = ServiceFaultInjector(plan)
        arb = ArbitratedMcm(
            lanes, deadline_us=100.0, service_faults=faults,
            batch_limit=batch_limit,
        )
        arb.set_batch_eligible(INELIGIBLE, False)
        now = 0.0
        sequence = [0] * NUM_LANES
        earlier = [([], []) for _ in lanes]
        for position, (lane, value, edits, gap) in enumerate(pushes):
            if position == reset_at:
                # a new session mid-stream, as the SoC manager starts one
                earlier = [(each.records, each.interrupts.fired)
                           for each in lanes]
                arb.reset_session()
                for each in lanes:
                    each.driver.reset()
            now += gap
            if lane in ELM:
                values = windows[value % len(windows)].copy()
                values[:edits] = 60 + value  # unseen n-grams: more indices
            else:
                values = [value % tiny_lstm.vocabulary_size]
            arb.push(lane, vector(values, seq=sequence[lane]), now)
            sequence[lane] += 1
        arb.finalize()
        return {
            "records": [
                records + lane.records
                for (records, _), lane in zip(earlier, lanes)
            ],
            "interrupts": [
                fired + lane.interrupts.fired
                for (_, fired), lane in zip(earlier, lanes)
            ],
            "drops": [lane.dropped_vectors for lane in lanes],
            "cancels": [lane.cancelled for lane in lanes],
            "watchdog_trips": arb.watchdog_trips,
        }

    @given(
        pushes=_pushes(),
        reset_at=st.integers(0, 30),
        fault_seed=st.integers(0, 63),
        batch_limit=st.sampled_from([2, 4, 8]),
    )
    # Fault seed 9 serves the faulty lane's first grant and cancels its
    # second: the served one must be recorded before the cancel resets
    # the lane's smoothing window.
    @example(
        pushes=[
            (FAULTY, 1, 0, 50_000), (0, 2, 0, 0), (FAULTY, 2, 0, 50_000),
            (1, 3, 0, 0), (FAULTY, 3, 0, 50_000), (FAULTY, 4, 0, 50_000),
        ],
        reset_at=30, fault_seed=9, batch_limit=4,
    )
    @settings(max_examples=25, deadline=None)
    def test_batched_serving_equals_unbatched(
        self, tiny_lstm, tiny_elm, tiny_dictionary, syscall_dataset,
        pushes, reset_at, fault_seed, batch_limit,
    ):
        models = (
            tiny_lstm, tiny_elm, tiny_dictionary,
            syscall_dataset.test_normal[:16],
        )
        scenario = (pushes, reset_at, fault_seed)
        eager = self._run(models, 1, scenario, mcm=EagerMcm)
        unbatched = self._run(models, 1, scenario)
        batched = self._run(models, batch_limit, scenario)
        assert unbatched == eager
        assert batched == unbatched
