"""MCM: FIFO, FSM protocol, engines, driver, queueing top level."""

import numpy as np
import pytest

from repro.errors import FifoOverflowError, FsmProtocolError, McmError
from repro.igm.vector_encoder import InputVector
from repro.mcm.arbiter import ArbitratedMcm
from repro.mcm.driver import MlMiaowDriver
from repro.mcm.engines import ProtocolConverter, RxEngine, TxEngine
from repro.mcm.fifo import InternalFifo
from repro.mcm.fsm import HISTORY_TRANSITIONS, ControlFsm, McmState
from repro.mcm.interrupt import Interrupt, InterruptManager
from repro.mcm.mcm import Mcm, McmConfig
from repro.miaow.gpu import Gpu
from repro.ml.detector import ThresholdDetector
from repro.ml.kernels import DeployedElm, DeployedLstm


def vector(values, seq=0, cycle=0):
    return InputVector(
        values=np.asarray(values, dtype=np.int64),
        sequence_number=seq,
        trigger_address=0x1000,
        trigger_cycle=cycle,
    )


class TestFifo:
    def test_order_preserved(self):
        fifo = InternalFifo(depth=4)
        for i in range(3):
            fifo.push(i, arrival_ns=i * 10.0)
        assert [fifo.pop().item for _ in range(3)] == [0, 1, 2]

    def test_overflow_drops_newest(self):
        fifo = InternalFifo(depth=2)
        assert fifo.push("a", 0.0)
        assert fifo.push("b", 1.0)
        assert not fifo.push("c", 2.0)
        assert fifo.drops == 1
        assert fifo.pop().item == "a"

    def test_overflow_can_raise(self):
        fifo = InternalFifo(depth=1, raise_on_overflow=True)
        fifo.push("a", 0.0)
        with pytest.raises(FifoOverflowError):
            fifo.push("b", 1.0)

    def test_occupancy_stats(self):
        fifo = InternalFifo(depth=8)
        for i in range(5):
            fifo.push(i, 0.0)
        fifo.pop()
        assert fifo.max_occupancy == 5
        assert len(fifo) == 4

    def test_pop_empty(self):
        assert InternalFifo().pop() is None

    def test_arrival_time_recorded(self):
        fifo = InternalFifo()
        fifo.push("x", arrival_ns=123.0)
        assert fifo.peek().arrival_ns == 123.0


class TestFsm:
    def test_full_round(self):
        fsm = ControlFsm()
        transitions = fsm.run_inference_sequence(time_ns=5.0)
        assert transitions == 5
        assert fsm.state is McmState.WAIT_INPUT
        assert len(fsm.history) == 5

    def test_history_keeps_only_the_latest_transitions(self):
        fsm = ControlFsm()
        for index in range(100):
            fsm.run_inference_sequence(time_ns=float(index))
        assert len(fsm.history) == HISTORY_TRANSITIONS
        assert fsm.history[-1] == (99.0, McmState.WAIT_INPUT)

    def test_illegal_event_raises(self):
        fsm = ControlFsm()
        with pytest.raises(FsmProtocolError):
            fsm.fire("computation_done")

    def test_state_order(self):
        fsm = ControlFsm()
        fsm.fire("input_available")
        assert fsm.state is McmState.READ_INPUT
        fsm.fire("vector_read")
        assert fsm.state is McmState.WRITE_INPUT
        fsm.fire("engine_started")
        assert fsm.state is McmState.WAIT_DONE
        fsm.fire("computation_done")
        assert fsm.state is McmState.READ_RESULT

    def test_control_cycles(self):
        fsm = ControlFsm(cycles_per_transition=3)
        assert fsm.control_cycles_per_inference == 15


class TestEngines:
    def test_tx_cycles_linear(self):
        tx = TxEngine(setup_cycles=10, cycles_per_word=2)
        assert tx.cycles(0) == 10
        assert tx.cycles(16) == 42

    def test_rx_cycles(self):
        rx = RxEngine(setup_cycles=5, cycles_per_word=1)
        assert rx.cycles(4) == 9

    def test_negative_size_rejected(self):
        with pytest.raises(McmError):
            TxEngine().cycles(-1)

    def test_lstm_converter_passthrough(self):
        converter = ProtocolConverter("lstm")
        assert converter.convert(np.array([7])) == 7
        assert converter.words_for(7) == 1

    def test_lstm_converter_rejects_windows(self):
        converter = ProtocolConverter("lstm")
        with pytest.raises(McmError):
            converter.convert(np.array([1, 2]))

    def test_elm_converter_needs_dictionary(self):
        with pytest.raises(McmError):
            ProtocolConverter("elm")

    def test_elm_converter_emits_pattern_indices(self, tiny_dictionary):
        converter = ProtocolConverter("elm", tiny_dictionary)
        window = np.array([1, 2, 3, 4, 5, 6])
        out = converter.convert(window)
        assert (out == tiny_dictionary.indices(window)).all()
        assert converter.words_for(out) == len(out)

    def test_unknown_kind(self):
        with pytest.raises(McmError):
            ProtocolConverter("cnn")


class TestInterruptManager:
    def test_fire_records_and_calls_handler(self):
        seen = []
        manager = InterruptManager(handler=seen.append)
        manager.fire(10.0, 3.2, 7)
        assert manager.count == 1
        assert manager.first == Interrupt(10.0, 3.2, 7)
        assert seen[0].sequence_number == 7


class TestDriver:
    def test_elm_phases_measured(self, tiny_elm, tiny_dictionary):
        deployment = DeployedElm(tiny_elm, tiny_dictionary, window=12)
        driver = MlMiaowDriver(deployment, Gpu(), execute_on_gpu=True)
        assert driver.phases.num_dispatches == 1
        assert driver.phases.total_cycles > 100
        assert driver.result_words == deployment.num_workgroups

    def test_lstm_phases_measured(self, tiny_lstm):
        driver = MlMiaowDriver(DeployedLstm(tiny_lstm), Gpu(),
                               execute_on_gpu=True)
        assert driver.phases.num_dispatches == 3
        assert driver.result_words == 1

    def test_calibrated_mode_matches_exact_scores(self, tiny_lstm):
        exact = MlMiaowDriver(
            DeployedLstm(tiny_lstm), Gpu(), execute_on_gpu=True
        )
        fast = MlMiaowDriver(
            DeployedLstm(tiny_lstm), Gpu(), execute_on_gpu=False
        )
        for branch in (1, 2, 3, 1, 2):
            a = exact.run_inference(branch)
            b = fast.run_inference(branch)
            assert a.score == pytest.approx(b.score, rel=1e-3, abs=1e-4)
            assert b.phases.total_cycles == fast.phases.total_cycles

    def test_elm_calibrated_scores_match(self, tiny_elm, tiny_dictionary,
                                         syscall_dataset):
        exact = MlMiaowDriver(
            DeployedElm(tiny_elm, tiny_dictionary, window=12),
            Gpu(), execute_on_gpu=True,
        )
        fast = MlMiaowDriver(
            DeployedElm(tiny_elm, tiny_dictionary, window=12),
            Gpu(), execute_on_gpu=False,
        )
        converter = ProtocolConverter("elm", tiny_dictionary)
        for window in syscall_dataset.test_normal[:4]:
            indices = converter.convert(window)
            assert exact.run_inference(indices).score == pytest.approx(
                fast.run_inference(indices).score, rel=1e-3
            )

    def test_reset_restores_lstm_state(self, tiny_lstm):
        driver = MlMiaowDriver(DeployedLstm(tiny_lstm), Gpu(),
                               execute_on_gpu=False)
        first = driver.run_inference(1).score
        driver.run_inference(2)
        driver.reset()
        assert driver.run_inference(1).score == pytest.approx(first)


class TestMcmQueueing:
    """One MCM lane served through a one-lane arbiter (the solo SoC's
    service path)."""

    def make_mcm(self, tiny_lstm, fifo_depth=4, detector=None, smoothing=1):
        driver = MlMiaowDriver(DeployedLstm(tiny_lstm), Gpu(),
                               execute_on_gpu=False)
        return ArbitratedMcm([
            Mcm(
                driver=driver,
                detector=detector,
                config=McmConfig(fifo_depth=fifo_depth,
                                 score_smoothing=smoothing),
            )
        ])

    def test_serial_service(self, tiny_lstm):
        arb = self.make_mcm(tiny_lstm)
        arb.push(0, vector([1], seq=0), arrival_ns=0.0)
        arb.push(0, vector([2], seq=1), arrival_ns=1.0)
        [records] = arb.finalize()
        assert len(records) == 2
        assert records[1].start_ns >= records[0].done_ns

    def test_idle_arrivals_no_queueing(self, tiny_lstm):
        arb = self.make_mcm(tiny_lstm)
        gap = 1e9  # 1 second apart
        for i in range(3):
            arb.push(0, vector([1], seq=i), arrival_ns=i * gap)
        [records] = arb.finalize()
        assert all(r.queue_ns == 0.0 for r in records)

    def test_burst_queues(self, tiny_lstm):
        arb = self.make_mcm(tiny_lstm, fifo_depth=8)
        for i in range(4):
            arb.push(0, vector([1], seq=i), arrival_ns=float(i))
        [records] = arb.finalize()
        assert records[-1].queue_ns > 0

    def test_overflow_drops_and_counts(self, tiny_lstm):
        arb = self.make_mcm(tiny_lstm, fifo_depth=2)
        for i in range(10):
            arb.push(0, vector([1], seq=i), arrival_ns=float(i))
        [records] = arb.finalize()
        mcm = arb.lanes[0]
        assert mcm.overflowed
        assert mcm.dropped_vectors == 10 - len(records)
        assert len(records) < 10

    def test_service_breakdown_positive(self, tiny_lstm):
        arb = self.make_mcm(tiny_lstm)
        arb.push(0, vector([1]), arrival_ns=0.0)
        record = arb.finalize()[0][0]
        assert record.service_ns > record.gpu_cycles / 50e6 * 1e9 * 0.9
        assert record.done_ns > record.start_ns

    def test_detector_fires_interrupt(self, tiny_lstm):
        detector = ThresholdDetector(0.5)
        detector._threshold = -1.0  # everything is anomalous
        arb = self.make_mcm(tiny_lstm, detector=detector)
        arb.push(0, vector([1], seq=3), arrival_ns=0.0)
        arb.finalize()
        mcm = arb.lanes[0]
        assert mcm.interrupts.count == 1
        assert mcm.interrupts.first.sequence_number == 3

    def test_smoothing_averages_scores(self, tiny_lstm):
        detector = ThresholdDetector(0.5)
        detector._threshold = 1e9  # never fires; we check records only
        plain = self.make_mcm(tiny_lstm, detector=detector, smoothing=1)
        smooth = self.make_mcm(tiny_lstm, detector=detector, smoothing=3)
        for i, branch in enumerate((1, 2, 3, 1, 2)):
            plain.push(0, vector([branch], seq=i), arrival_ns=i * 1e6)
            smooth.push(0, vector([branch], seq=i), arrival_ns=i * 1e6)
        raw = [r.score for r in plain.finalize()[0]]
        smooth.finalize()
        expected_last = np.mean(raw[-3:])
        recent = smooth.lanes[0]._recent_scores
        assert recent[-1] == pytest.approx(raw[-1])
        assert np.mean(recent) == pytest.approx(expected_last, rel=1e-6)


class TestDrainBatchHistogram:
    """``mcm.drain.batch_vectors`` must account for every served vector,
    including the final partial drain when the queue empties mid-round
    and the arbitrated path where the arbiter owns the drain loop."""

    def test_direct_mode_partial_drains_sum_to_total(self, tiny_lstm):
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        driver = MlMiaowDriver(
            DeployedLstm(tiny_lstm), Gpu(), execute_on_gpu=False
        )
        mcm = Mcm(
            driver=driver,
            config=McmConfig(fifo_depth=16),
            metrics=registry,
        )
        arb = ArbitratedMcm([mcm], metrics=registry)
        # A burst (drained in one batch when the next push arrives) and
        # trailing idle arrivals (each drained alone): several partial
        # drains, the last triggered by finalize on a non-empty queue.
        for i in range(4):
            arb.push(0, vector([1], seq=i), arrival_ns=float(i))
        for i in range(4, 7):
            arb.push(0, vector([1], seq=i), arrival_ns=1e9 * (i + 1))
        [records] = arb.finalize()
        histogram = registry.snapshot()["histograms"][
            "mcm.drain.batch_vectors"
        ]
        assert histogram["sum"] == len(records) == 7
        assert histogram["count"] >= 2  # really multiple partial drains

    def test_arbitrated_mode_sums_to_total_inferences(self, tiny_lstm):
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        gpu = Gpu(name="shared")
        lanes = []
        for _ in range(2):
            driver = MlMiaowDriver(
                DeployedLstm(tiny_lstm), gpu, execute_on_gpu=False
            )
            lanes.append(
                Mcm(
                    driver=driver,
                    config=McmConfig(fifo_depth=16),
                    metrics=registry,
                )
            )
        arb = ArbitratedMcm(lanes, metrics=registry)
        for i in range(5):
            arb.push(i % 2, vector([1], seq=i // 2), arrival_ns=float(i))
        arb.finalize()
        total = sum(len(lane.records) for lane in lanes)
        histogram = registry.snapshot()["histograms"][
            "mcm.drain.batch_vectors"
        ]
        assert total == 5
        assert histogram["sum"] == total
