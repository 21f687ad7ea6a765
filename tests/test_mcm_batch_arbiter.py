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

from repro.errors import McmError
from repro.faults import FaultKind, FaultPlan, FaultSpec, ServiceFaultInjector
from repro.igm.vector_encoder import InputVector
from repro.mcm.arbiter import ArbitratedMcm
from repro.mcm.driver import MlMiaowDriver
from repro.mcm.mcm import Mcm, McmConfig
from repro.miaow.gpu import Gpu
from repro.ml.kernels import DeployedElm, DeployedLstm
from repro.obs import MetricsRegistry


def vector(values, seq=0, cycle=0):
    return InputVector(
        values=np.asarray(values, dtype=np.int64),
        sequence_number=seq,
        trigger_address=0x1000,
        trigger_cycle=cycle,
    )


def lstm_lane(model, gpu, metrics=None, dual_run=False):
    return Mcm(
        driver=MlMiaowDriver(DeployedLstm(model), gpu),
        config=McmConfig(fifo_depth=32, dual_run=dual_run),
        metrics=metrics or MetricsRegistry(),
    )


def elm_lane(model, dictionary, window, gpu, metrics=None):
    return Mcm(
        driver=MlMiaowDriver(DeployedElm(model, dictionary, window), gpu),
        config=McmConfig(fifo_depth=32),
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
        registry = MetricsRegistry()
        gpu = Gpu(num_cus=4, fast_path=True, name="shared")
        lanes = [lstm_lane(tiny_lstm, gpu, registry) for _ in range(3)]
        arb = ArbitratedMcm(lanes, metrics=registry, batch_limit=4)
        for lane in range(3):
            arb.push(lane, vector([lane], seq=0), 0.0)
        arb.finalize()
        baseline = [len(lane.records) for lane in lanes]
        arb.reset_session()
        assert arb._prepared == [None, None, None]
        # a fresh round after the reset serves (and can fuse) normally
        for lane in range(3):
            arb.push(lane, vector([lane + 1], seq=1), 0.0)
        arb.finalize()
        assert [len(lane.records) for lane in lanes] == [
            n + 1 for n in baseline
        ]
