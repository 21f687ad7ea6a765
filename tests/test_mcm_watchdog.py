"""Arbiter watchdog: stalls, hangs, cancellations, lane membership."""

import numpy as np
import pytest

from repro.errors import McmError
from repro.faults import FaultKind, FaultPlan, FaultSpec, ServiceFaultInjector
from repro.igm.vector_encoder import InputVector
from repro.mcm.arbiter import ArbitratedMcm
from repro.mcm.driver import MlMiaowDriver
from repro.mcm.mcm import Mcm, McmConfig
from repro.miaow.gpu import Gpu
from repro.ml.kernels import DeployedLstm


def vector(values, seq=0, cycle=0):
    return InputVector(
        values=np.asarray(values, dtype=np.int64),
        sequence_number=seq,
        trigger_address=0x1000,
        trigger_cycle=cycle,
    )


def service_plan(kind, rate, stall_us=100.0, seed=3):
    return FaultPlan(
        seed=seed, specs=(FaultSpec(kind, rate=rate, stall_us=stall_us),)
    )


@pytest.fixture()
def lanes(tiny_lstm):
    gpu = Gpu(name="shared")

    def make():
        driver = MlMiaowDriver(
            DeployedLstm(tiny_lstm), gpu, execute_on_gpu=False
        )
        return Mcm(
            driver=driver,
            config=McmConfig(fifo_depth=8),
        )

    return [make(), make()]


class TestCancelHead:
    def test_cancel_drops_without_record(self, lanes):
        lane = lanes[0]
        lane.enqueue(vector([1], seq=0), arrival_ns=0.0)
        item = lane.cancel_head()
        assert item.sequence_number == 0
        assert lane.cancelled == 1
        assert lane.records == []
        assert lane.fifo.empty

    def test_cancel_empty_raises(self, lanes):
        with pytest.raises(McmError):
            lanes[0].cancel_head()

    def test_extra_service_ns_extends_one_service(self, lanes):
        lane = lanes[0]
        lane.enqueue(vector([1], seq=0), arrival_ns=0.0)
        lane.enqueue(vector([1], seq=1), arrival_ns=0.0)
        first = lane.grant_head(0.0)
        second = lane.grant_head(first.done_ns, extra_service_ns=5_000.0)
        for pending in (first, second):
            lane.compute(pending)
            lane.assemble(pending)
        assert lane.records[1].service_ns == pytest.approx(
            lane.records[0].service_ns + 5_000.0
        )
        assert second.done_ns == lane.records[1].done_ns


class TestWatchdog:
    def test_short_stall_serves_with_delay(self, lanes):
        faults = [
            ServiceFaultInjector(
                service_plan(FaultKind.MCM_STALL, 1.0, stall_us=10.0)
            ),
            None,
        ]
        arb = ArbitratedMcm(lanes, deadline_us=1000.0, service_faults=faults)
        arb.push(0, vector([1], seq=0), arrival_ns=0.0)
        arb.push(1, vector([1], seq=0), arrival_ns=0.0)
        records = arb.finalize()
        assert len(records[0]) == 1 and len(records[1]) == 1
        # lane 0's only service carries the injected 10 us stall
        assert records[0][0].service_ns == pytest.approx(
            records[1][0].service_ns + 10_000.0
        )
        assert arb.watchdog_trips == [0, 0]

    def test_stall_past_deadline_is_cancelled(self, lanes):
        faults = [
            ServiceFaultInjector(
                service_plan(FaultKind.MCM_STALL, 1.0, stall_us=1_000.0)
            ),
            None,
        ]
        arb = ArbitratedMcm(lanes, deadline_us=100.0, service_faults=faults)
        for seq in range(3):
            arb.push(0, vector([1], seq=seq), arrival_ns=0.0)
        arb.push(1, vector([1], seq=0), arrival_ns=0.0)
        records = arb.finalize()
        assert records[0] == []
        assert lanes[0].cancelled == 3
        assert arb.watchdog_trips == [3, 0]
        assert len(records[1]) == 1

    def test_abort_occupies_one_deadline_window(self, lanes):
        faults = [
            ServiceFaultInjector(service_plan(FaultKind.MCM_HANG, 1.0)),
            None,
        ]
        arb = ArbitratedMcm(lanes, deadline_us=100.0, service_faults=faults)
        arb.push(0, vector([1], seq=0), arrival_ns=0.0)
        arb.push(1, vector([1], seq=0), arrival_ns=0.0)
        records = arb.finalize()
        # the healthy lane's service starts exactly after the abort
        assert records[1][0].start_ns == pytest.approx(100.0 * 1e3)
        assert arb.watchdog_trips == [1, 0]
        assert not arb.hung

    def test_hang_without_watchdog_wedges_engine(self, lanes):
        faults = [
            ServiceFaultInjector(service_plan(FaultKind.MCM_HANG, 1.0)),
            None,
        ]
        arb = ArbitratedMcm(lanes, service_faults=faults)
        arb.push(0, vector([1], seq=0), arrival_ns=0.0)
        arb.push(1, vector([1], seq=0), arrival_ns=0.0)
        records = arb.finalize()
        assert arb.hung
        assert records[0] == [] and records[1] == []
        # reset clears the wedge and lets queued work drain
        arb.reset_session()
        assert not arb.hung

    def test_reset_session_reproduces_fault_pattern(self, lanes):
        faults = [
            ServiceFaultInjector(
                service_plan(FaultKind.MCM_STALL, 0.4, stall_us=1_000.0)
            ),
            None,
        ]
        arb = ArbitratedMcm(lanes, deadline_us=100.0, service_faults=faults)

        def run_round():
            for seq in range(6):
                arb.push(0, vector([1], seq=seq), arrival_ns=float(seq))
            arb.finalize()
            return [r.sequence_number for r in lanes[0].records]

        first = run_round()
        trips = arb.watchdog_trips[0]
        arb.reset_session()
        second = run_round()
        assert first == second
        assert arb.watchdog_trips[0] == 2 * trips

    def test_invalid_configuration_rejected(self, lanes):
        with pytest.raises(McmError):
            ArbitratedMcm(lanes, deadline_us=0.0)
        with pytest.raises(McmError):
            ArbitratedMcm(lanes, service_faults=[None])


class TestLaneMembership:
    def test_remove_and_readd_lane(self, lanes, tiny_lstm):
        arb = ArbitratedMcm(lanes)
        removed = arb.remove_lane(0)
        assert removed is lanes[0]
        assert arb.lanes == [lanes[1]]
        index = arb.add_lane(removed)
        assert index == 1
        assert arb.lanes == [lanes[1], lanes[0]]
        assert arb.watchdog_trips == [0, 0]

    def test_remove_last_lane_refused(self, lanes):
        arb = ArbitratedMcm(lanes[:1])
        with pytest.raises(McmError):
            arb.remove_lane(0)
        with pytest.raises(McmError):
            arb.remove_lane(5)

    def test_add_lane_engine_check(self, lanes, tiny_lstm):
        arb = ArbitratedMcm(lanes)
        foreign = Mcm(
            driver=MlMiaowDriver(
                DeployedLstm(tiny_lstm), Gpu(name="other"),
                execute_on_gpu=False,
            ),
        )
        with pytest.raises(McmError):
            arb.add_lane(foreign)

    def test_round_robin_index_adjusts_after_removal(self, lanes, tiny_lstm):
        gpu = lanes[0].driver.gpu
        third = Mcm(
            driver=MlMiaowDriver(
                DeployedLstm(tiny_lstm), gpu, execute_on_gpu=False
            ),
        )
        arb = ArbitratedMcm(lanes + [third])
        arb.push(0, vector([1], seq=0), arrival_ns=0.0)
        arb.finalize()  # grant to lane 0, next_lane -> 1
        arb.remove_lane(0)
        arb.push(0, vector([1], seq=0), arrival_ns=0.0)
        arb.push(1, vector([1], seq=0), arrival_ns=0.0)
        records = arb.finalize()
        assert len(records[0]) == 1 and len(records[1]) == 1
