"""Shared experiment preparation: programs, trained models, deployments.

Training a model per benchmark is the expensive part of the Fig. 8
reproduction, so bundles are memoized per (benchmark, kind, seed);
every bundle carries enough to instantiate fresh SoCs against any
engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.miaow.gpu import Gpu
from repro.ml.detector import ThresholdDetector
from repro.ml.elm import ExtremeLearningMachine
from repro.ml.features import PatternDictionary
from repro.ml.kernels import DeployedLstm
from repro.ml.lstm import LstmModel
from repro.soc.deploy import TrainedModel
from repro.soc.rtad import RtadSoc
from repro.workloads.dataset import build_dataset
from repro.workloads.profiles import get_profile
from repro.workloads.program import SyntheticProgram
from repro.workloads.syscalls import SyscallSequenceModel

#: Deployment shapes (chosen to exercise multi-CU parallelism the way
#: the paper's models do: 4 parallel ELM workgroups, 4 parallel LSTM
#: gate workgroups plus a serial score/update tail).
ELM_HIDDEN = 256
ELM_WINDOW = 16
PATTERN_N = 3
#: Large enough to hold every trigram the syscall phases legitimately
#: produce (~900); anything outside lands in the unseen bin, which then
#: genuinely indicates out-of-context behaviour.  Dictionary size only
#: affects the ELM weight matrix (a sparse column gather on the GPU),
#: not the kernel's cycle count.
PATTERN_CAPACITY = 1023
#: Weight of the out-of-dictionary pattern bin (see PatternDictionary).
ELM_UNSEEN_GAIN = 3
LSTM_HIDDEN = 32
LSTM_TRAIN_WINDOW = 16
LSTM_MAPPER_SIZE = 48

#: Detector quantiles (per-window for ELM, per-smoothed-run for LSTM).
ELM_QUANTILE = 0.995
LSTM_QUANTILE = 0.995
#: Interrupt-manager accumulator: the LSTM judges the rolling mean of
#: this many per-branch surprisals (sequence scoring, as in [8]).
LSTM_SMOOTHING = 4


def _rare_half(
    ids: np.ndarray, legitimate: Optional[np.ndarray] = None
) -> np.ndarray:
    """Legitimate IDs that are rare in the observed stream.

    Code-reuse attacks chain through *rarely exercised* but legitimate
    code (a hot-path gadget would break the program).  ``legitimate``
    is the repertoire observed during normal execution (the training
    corpus — "branch addresses that can be observed during normal
    execution"); the pool is its less-frequent half with respect to
    the trial stream, so loop-dominated benchmarks whose trial stream
    collapses onto a couple of hot IDs still yield a usable pool.
    """
    ids = np.asarray(ids)
    if legitimate is None:
        legitimate = np.unique(ids)
    legitimate = np.unique(np.asarray(legitimate))
    if len(legitimate) < 4:
        return legitimate
    counts = {
        int(value): int(count)
        for value, count in zip(*np.unique(ids, return_counts=True))
    }
    order = sorted(legitimate, key=lambda v: counts.get(int(v), 0))
    return np.array(order[: max(2, len(legitimate) // 2)], dtype=np.int64)


@dataclass
class ModelBundle:
    """A trained model plus everything needed to deploy it."""

    kind: str
    program: SyntheticProgram
    monitored_addresses: List[int]
    detector: ThresholdDetector
    normal_ids: np.ndarray          # monitored-ID stream for trials
    gadget_pool: np.ndarray         # legitimate IDs attacks reuse
    mean_interval_us: float
    window: int
    score_smoothing: int = 1
    # model objects (deployments are built fresh per engine)
    elm: Optional[ExtremeLearningMachine] = None
    dictionary: Optional[PatternDictionary] = None
    lstm: Optional[LstmModel] = None

    @property
    def trained(self) -> TrainedModel:
        return TrainedModel(
            model=self.elm if self.kind == "elm" else self.lstm,
            monitored_addresses=self.monitored_addresses,
            detector=self.detector,
            dictionary=self.dictionary,
            window=self.window,
            score_smoothing=self.score_smoothing,
        )

    def make_deployment(self):
        return self.trained.deployed()

    def make_soc(
        self,
        gpu: Gpu,
        execute_on_gpu: bool = False,
        fifo_depth: int = 16,
    ) -> RtadSoc:
        [deployment] = self.trained.deploy(
            ["rtad"], gpu, execute_on_gpu=execute_on_gpu, fifo_depth=fifo_depth
        )
        return RtadSoc(self.program, deployment)


_BUNDLE_CACHE: Dict[Tuple[str, str, int], ModelBundle] = {}
_PROGRAM_CACHE: Dict[Tuple[str, int], SyntheticProgram] = {}


def get_program(benchmark: str, seed: int = 0) -> SyntheticProgram:
    profile = get_profile(benchmark)
    key = (profile.name, seed)
    if key not in _PROGRAM_CACHE:
        _PROGRAM_CACHE[key] = SyntheticProgram(profile, seed=seed)
    return _PROGRAM_CACHE[key]


def get_bundle(benchmark: str, kind: str, seed: int = 0) -> ModelBundle:
    profile = get_profile(benchmark)
    key = (profile.name, kind, seed)
    if key not in _BUNDLE_CACHE:
        if kind == "elm":
            _BUNDLE_CACHE[key] = _prepare_elm(benchmark, seed)
        elif kind == "lstm":
            _BUNDLE_CACHE[key] = _prepare_lstm(benchmark, seed)
        else:
            raise ValueError(f"unknown model kind {kind!r}")
    return _BUNDLE_CACHE[key]


def make_miaow() -> Gpu:
    """The original MIAOW engine: one CU fits the fabric."""
    return Gpu(num_cus=1, name="MIAOW")


def make_ml_miaow(num_cus: int = 5) -> Gpu:
    """The trimmed engine: five CUs fit where one did."""
    return Gpu(num_cus=num_cus, name="ML-MIAOW")


# ---------------------------------------------------------------------------
# ELM bundle (syscall features)
# ---------------------------------------------------------------------------

def _prepare_elm(benchmark: str, seed: int) -> ModelBundle:
    program = get_program(benchmark, seed)
    dataset = build_dataset(
        program,
        feature="syscall",
        window=ELM_WINDOW,
        train_events=16_000,
        test_events=6_000,
        num_attacks=10,
        seed=seed,
    )
    dictionary = PatternDictionary(
        n=PATTERN_N, capacity=PATTERN_CAPACITY, unseen_gain=ELM_UNSEEN_GAIN
    )
    dictionary.fit(dataset.train_windows)
    features = dictionary.features(dataset.train_windows)
    model = ExtremeLearningMachine(
        input_dim=dictionary.size, hidden_dim=ELM_HIDDEN, seed=seed
    ).fit(features)
    syscall_model = SyscallSequenceModel(program.profile, seed=seed)
    # Calibrate the threshold on a held-out stream scored exactly the
    # deployed way (f32, sliding windows over a continuous sequence) —
    # the distribution the interrupt manager will actually see.
    calibration_ids = syscall_model.generate(3_000, run_label="calibrate")
    calibration_windows = np.lib.stride_tricks.sliding_window_view(
        calibration_ids + 1, ELM_WINDOW
    )
    calibration_scores = model.score_mahalanobis_f32(
        dictionary.features(calibration_windows)
    )
    detector = ThresholdDetector(ELM_QUANTILE).fit(calibration_scores)
    normal_ids = syscall_model.generate(4_000, run_label="trial") + 1
    return ModelBundle(
        kind="elm",
        program=program,
        monitored_addresses=program.syscall_targets(),
        detector=detector,
        normal_ids=normal_ids,
        gadget_pool=_rare_half(
            normal_ids, legitimate=np.unique(dataset.train_windows)
        ),
        mean_interval_us=program.profile.syscall_interval_us,
        window=ELM_WINDOW,
        elm=model,
        dictionary=dictionary,
    )


# ---------------------------------------------------------------------------
# LSTM bundle (general-branch features)
# ---------------------------------------------------------------------------

def _dynamic_call_targets(program: SyntheticProgram, count: int) -> List[int]:
    """The mapper table a user would actually configure: the function
    entries the program *dynamically* exercises the most.

    Static uniform sampling can land entirely on functions a
    loop-dominated walk never visits, collapsing the monitored stream
    to one hot ID; picking by observed usage keeps the vocabulary live
    while staying "critical API functions" in spirit.
    """
    from collections import Counter

    pilot = program.run(60_000, run_label="mapper-pilot")
    entries = set(program.cfg.call_targets)
    usage = Counter(
        event.target for event in pilot.events if event.target in entries
    )
    chosen = [address for address, _ in usage.most_common(count)]
    if len(chosen) < count:
        # pad with unvisited entries so the table size is stable
        for address in program.cfg.call_targets:
            if address not in usage:
                chosen.append(address)
            if len(chosen) == count:
                break
    return sorted(chosen)


def _prepare_lstm(benchmark: str, seed: int) -> ModelBundle:
    program = get_program(benchmark, seed)
    monitored = _dynamic_call_targets(program, LSTM_MAPPER_SIZE)
    dataset = build_dataset(
        program,
        feature="call",
        window=LSTM_TRAIN_WINDOW,
        train_events=180_000,
        test_events=60_000,
        num_attacks=10,
        seed=seed,
        monitored_addresses=monitored,
    )
    model = LstmModel(
        vocabulary_size=dataset.vocabulary.size,
        hidden_size=LSTM_HIDDEN,
        seed=seed,
    )
    train = dataset.train_windows
    if len(train) > 8_000:
        train = train[:8_000]
    model.fit(train, epochs=6, seed=seed)

    # Per-branch surprisal calibration over a held-out normal stream,
    # using the f32 deployment reference (what the GPU computes).
    normal_stream = dataset.test_normal[::LSTM_TRAIN_WINDOW].ravel()
    if len(normal_stream) > 3_000:
        normal_stream = normal_stream[:3_000]
    deployment = DeployedLstm(model)
    reference = deployment.make_reference()
    surprisals = np.array(
        [reference.infer(int(b)) for b in normal_stream]
    )
    # Calibrate on the same rolling mean the interrupt manager judges.
    kernel = np.ones(LSTM_SMOOTHING) / LSTM_SMOOTHING
    smoothed = np.convolve(surprisals, kernel, mode="valid")
    detector = ThresholdDetector(LSTM_QUANTILE).fit(smoothed)

    trial_stream = dataset.test_normal[1::LSTM_TRAIN_WINDOW].ravel()
    return ModelBundle(
        kind="lstm",
        program=program,
        monitored_addresses=monitored,
        detector=detector,
        normal_ids=trial_stream[:4_000],
        gadget_pool=_rare_half(
            trial_stream, legitimate=np.unique(dataset.train_windows)
        ),
        mean_interval_us=program.profile.monitored_call_interval_us,
        window=LSTM_TRAIN_WINDOW,
        score_smoothing=LSTM_SMOOTHING,
        lstm=model,
    )
