"""End-to-end integration: raw branches -> trace -> IGM -> MCM -> GPU
-> interrupt, plus the queueing-path attack trials."""

import numpy as np
import pytest

from repro.mcm.driver import MlMiaowDriver
from repro.miaow.gpu import Gpu
from repro.ml.detector import ThresholdDetector
from repro.ml.kernels import DeployedElm, DeployedLstm
from repro.soc.manager import Deployment
from repro.soc.rtad import RtadConfig, RtadSoc
from repro.workloads.attacks import AttackInjector


@pytest.fixture
def lstm_soc(small_program, tiny_lstm, call_dataset):
    monitored = small_program.monitored_call_targets(count=30)
    detector = ThresholdDetector(0.99)
    deployment = DeployedLstm(tiny_lstm)
    reference = deployment.make_reference()
    stream = call_dataset.test_normal[::8].ravel()[:600]
    detector.fit([reference.infer(int(b)) for b in stream])
    driver = MlMiaowDriver(deployment, Gpu(num_cus=5), execute_on_gpu=False)
    return RtadSoc(
        small_program,
        Deployment(
            name="rtad",
            driver=driver,
            monitored_addresses=monitored,
            detector=detector,
        ),
    )


class TestFullPath:
    def test_run_events_produces_inferences(self, lstm_soc, small_program):
        events = small_program.run(40_000, run_label="full-path").events
        records = lstm_soc.run_events(events)
        assert len(records) > 10
        done = [r.done_ns for r in records]
        assert done == sorted(done)

    def test_arrival_after_trigger(self, lstm_soc, small_program):
        events = small_program.run(20_000, run_label="full-path-2").events
        records = lstm_soc.run_events(events)
        for record in records:
            trigger_ns = record.trigger_cycle / 250e6 * 1e9
            assert record.arrival_ns >= trigger_ns

    def test_attacked_run_fires_interrupt(self, small_program, tiny_lstm,
                                          call_dataset):
        # Fresh SoC with a cranked engine clock: the raw CFG walk emits
        # monitored branches in bursts far denser than the profile's
        # steady-state rate, so detection quality is tested with the
        # queueing bottleneck removed (timing has its own tests).
        monitored = small_program.monitored_call_targets(count=30)
        deployment = DeployedLstm(tiny_lstm)
        reference = deployment.make_reference()
        stream = call_dataset.test_normal[::8].ravel()[:800]
        surprisals = np.array(
            [reference.infer(int(b)) for b in stream]
        )
        smoothed = np.convolve(surprisals, np.ones(3) / 3, mode="valid")
        detector = ThresholdDetector(0.97).fit(smoothed)
        driver = MlMiaowDriver(deployment, Gpu(num_cus=5),
                               execute_on_gpu=False)
        soc = RtadSoc(
            small_program,
            Deployment(
                name="rtad",
                driver=driver,
                monitored_addresses=monitored,
                detector=detector,
                config=RtadConfig(
                    score_smoothing=3, fifo_depth=64, gpu_clock_hz=2e9
                ),
            ),
        )
        events = small_program.run(40_000, run_label="victim").events
        # choose rarely-used monitored functions as the gadget targets
        from collections import Counter

        usage = Counter(
            e.target for e in events if e.target in set(monitored)
        )
        rare = [a for a in monitored if usage[a] <= 1]
        pool = rare if len(rare) >= 4 else monitored
        injector = AttackInjector(seed=5, gadget_length=24,
                                  inter_branch_cycles=2500)
        attacked, attack = injector.inject(
            events, position=len(events) // 2, target_pool=pool
        )
        soc.mcm.interrupts.fired.clear()
        records = soc.run_events(attacked)
        assert records, "no inferences at all"
        assert soc.mcm.dropped_vectors == 0
        onset_ns = attack.onset_cycle / 250e6 * 1e9
        post = [i for i in soc.mcm.interrupts.fired if i.time_ns >= onset_ns]
        pre = [i for i in soc.mcm.interrupts.fired if i.time_ns < onset_ns]
        assert post, "attack not detected by the full pipeline"
        assert len(post) > len(pre)


class TestAttackTrials:
    def test_trial_reports_judgment_latency(self, lstm_soc):
        ids = (np.arange(400) % 20) + 1
        result = lstm_soc.run_attack_trial(
            normal_ids=ids,
            mean_interval_us=150.0,
            gadget_ids=[5, 9, 3, 7, 5, 9, 3, 7],
            onset_index=200,
            seed=1,
        )
        assert result.detection_latency_us is not None
        assert 0 < result.detection_latency_us < 10_000
        assert result.inferences > 300

    def test_faster_engine_lower_judgment_latency(
        self, small_program, tiny_lstm, call_dataset
    ):
        latencies = {}
        for name, cus in (("miaow", 1), ("ml-miaow", 5)):
            deployment = DeployedLstm(tiny_lstm)
            driver = MlMiaowDriver(deployment, Gpu(num_cus=cus),
                                   execute_on_gpu=False)
            soc = RtadSoc(
                small_program,
                Deployment(
                    name="rtad",
                    driver=driver,
                    monitored_addresses=small_program.monitored_call_targets(
                        count=30
                    ),
                    detector=None,
                ),
            )
            ids = (np.arange(300) % 20) + 1
            result = soc.run_attack_trial(
                normal_ids=ids,
                mean_interval_us=200.0,
                gadget_ids=[3, 4, 5, 6, 7, 8],
                onset_index=150,
                seed=2,
            )
            latencies[name] = result.detection_latency_us
        assert latencies["ml-miaow"] < latencies["miaow"]

    def test_saturating_arrivals_overflow_fifo(
        self, small_program, tiny_lstm
    ):
        deployment = DeployedLstm(tiny_lstm)
        driver = MlMiaowDriver(deployment, Gpu(num_cus=1),
                               execute_on_gpu=False)
        soc = RtadSoc(
            small_program,
            Deployment(
                name="rtad",
                driver=driver,
                monitored_addresses=small_program.monitored_call_targets(
                    count=30
                ),
                detector=None,
                config=RtadConfig(fifo_depth=4),
            ),
        )
        ids = (np.arange(600) % 20) + 1
        result = soc.run_attack_trial(
            normal_ids=ids,
            mean_interval_us=5.0,   # far faster than the engine
            gadget_ids=[3, 4, 5, 6],
            onset_index=300,
            seed=3,
        )
        assert result.overflowed
        assert result.dropped_vectors > 0

    def test_onset_bounds_checked(self, lstm_soc):
        with pytest.raises(Exception):
            lstm_soc.run_attack_trial(
                normal_ids=[1, 2, 3],
                mean_interval_us=10.0,
                gadget_ids=[1],
                onset_index=99,
            )


class TestExactGpuLstmTrial:
    def test_short_trial_fully_on_gpu(self, small_program, tiny_lstm):
        """A complete (short) attack trial where every inference truly
        executes on the instruction-level GPU simulator."""
        deployment = DeployedLstm(tiny_lstm)
        driver = MlMiaowDriver(deployment, Gpu(num_cus=5),
                               execute_on_gpu=True)
        soc = RtadSoc(
            small_program,
            Deployment(
                name="rtad",
                driver=driver,
                monitored_addresses=small_program.monitored_call_targets(
                    count=30
                ),
                detector=None,
            ),
        )
        ids = (np.arange(60) % 15) + 1
        result = soc.run_attack_trial(
            normal_ids=ids,
            mean_interval_us=300.0,
            gadget_ids=[2, 9, 4, 11],
            onset_index=30,
            seed=6,
        )
        assert result.inferences == 64
        assert result.detection_latency_us is not None
        total_gpu_instructions = sum(
            cu.total_instructions
            for cu in driver.gpu.compute_units
        )
        # 64 inferences x 3 kernels actually ran on the simulator
        assert total_gpu_instructions > 64 * 500


class TestElmPath:
    def test_elm_soc_detects(self, small_program, tiny_elm, tiny_dictionary,
                             syscall_dataset):
        features = tiny_dictionary.features(syscall_dataset.train_windows)
        detector = ThresholdDetector(0.995).fit(
            tiny_elm.score_mahalanobis_f32(features)
        )
        deployment = DeployedElm(tiny_elm, tiny_dictionary, window=12)
        driver = MlMiaowDriver(deployment, Gpu(num_cus=5),
                               execute_on_gpu=False)
        soc = RtadSoc(
            small_program,
            Deployment(
                name="rtad",
                driver=driver,
                monitored_addresses=small_program.syscall_targets(),
                detector=detector,
            ),
        )
        normal = syscall_dataset.test_normal[::12].ravel()[:400]
        rng = np.random.default_rng(0)
        values, counts = np.unique(normal, return_counts=True)
        rare = values[np.argsort(counts)][: max(2, len(values) // 2)]
        gadget = rng.choice(rare, size=10)
        result = soc.run_attack_trial(
            normal_ids=normal,
            mean_interval_us=small_program.profile.syscall_interval_us,
            gadget_ids=[int(g) for g in gadget],
            onset_index=200,
            seed=4,
        )
        assert result.detection_latency_us is not None
        assert result.detected
