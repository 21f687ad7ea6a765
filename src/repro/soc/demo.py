"""The small demo model and its tenants.

The demo deployments are deliberately small (they train in seconds).
They back the metrics run, the golden traces, the serving stack, the
fleet workers and the benchmarks.

:func:`demo_model` trains once per process per ``(kind, seed)``; a
forked fleet worker inherits the warm cache.  Tenants built from the
same ``(kind, seed)`` are bit-for-bit equivalent regardless of which
process builds them, which is what makes migration handoff and journal
replay deterministic.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.faults.plan import FaultPlan
from repro.miaow.gpu import Gpu
from repro.ml.detector import ThresholdDetector
from repro.ml.elm import ExtremeLearningMachine
from repro.ml.features import PatternDictionary
from repro.ml.kernels import DeployedLstm
from repro.ml.lstm import LstmModel
from repro.soc.deploy import TrainedModel
from repro.soc.manager import Deployment
from repro.workloads.dataset import Vocabulary, build_dataset, sliding_windows
from repro.workloads.profiles import get_profile
from repro.workloads.program import SyntheticProgram

#: Fixed demo configuration — also pinned by the golden-trace test.
DEMO_BENCHMARK = "403.gcc"
DEMO_ELM_WINDOW = 16
DEMO_MAPPER_SIZE = 30
DEMO_KINDS = ("elm", "lstm")

DemoModel = Tuple[SyntheticProgram, TrainedModel]

_DEMO_MODELS: Dict[Tuple[str, int], DemoModel] = {}


def demo_model(kind: str, seed: int) -> DemoModel:
    """Train (once per process) the demo program's model for ``kind``."""
    key = (kind, seed)
    if key in _DEMO_MODELS:
        return _DEMO_MODELS[key]
    program = SyntheticProgram(get_profile(DEMO_BENCHMARK), seed=seed)
    if kind == "elm":
        # Syscalls are far too sparse for a short full-path trace, so
        # the demo ELM scores n-gram patterns over monitored *call*
        # targets — same kernel, same dictionary machinery, but the
        # mapper hits often enough that a few-thousand-event trace
        # completes many windows.  Separate CFG walks land in
        # different phase behaviour, so training pools windows from
        # many walks and the detector is calibrated on *held-out*
        # walks (cross-walk variance, not same-walk residuals).
        monitored = program.monitored_call_targets(count=DEMO_MAPPER_SIZE)
        vocabulary = Vocabulary.from_addresses(monitored)

        def walk_windows(label: str) -> np.ndarray:
            trace = program.run(30_000, run_label=label)
            ids = vocabulary.encode_events(trace.events)
            return sliding_windows(ids, DEMO_ELM_WINDOW)

        train_windows = np.concatenate(
            [
                windows
                for index in range(20)
                if len(windows := walk_windows(f"elm-train-{index}"))
            ]
        )
        dictionary = PatternDictionary(n=2, capacity=255, unseen_gain=2)
        dictionary.fit(train_windows)
        model = ExtremeLearningMachine(
            input_dim=dictionary.size, hidden_dim=64, seed=seed + 7
        ).fit(dictionary.features(train_windows))
        calibration = np.concatenate(
            [
                windows
                for index in range(6)
                if len(windows := walk_windows(f"elm-cal-{index}"))
            ]
        )
        detector = ThresholdDetector(0.995).fit(
            model.score_mahalanobis_f32(dictionary.features(calibration))
        )
        trained = TrainedModel(
            model=model,
            monitored_addresses=monitored,
            detector=detector,
            dictionary=dictionary,
            window=DEMO_ELM_WINDOW,
        )
    elif kind == "lstm":
        dataset = build_dataset(
            program,
            feature="call",
            window=8,
            train_events=60_000,
            test_events=25_000,
            num_attacks=4,
            seed=seed,
            mapper_size=DEMO_MAPPER_SIZE,
        )
        model = LstmModel(
            vocabulary_size=dataset.vocabulary.size,
            hidden_size=16,
            seed=seed + 7,
        )
        model.fit(dataset.train_windows[:2500], epochs=4, seed=seed + 7)
        reference = DeployedLstm(model).make_reference()
        stream = dataset.test_normal[::8].ravel()[:600]
        detector = ThresholdDetector(0.99).fit(
            [reference.infer(int(b)) for b in stream]
        )
        trained = TrainedModel(
            model=model,
            monitored_addresses=program.monitored_call_targets(
                count=DEMO_MAPPER_SIZE
            ),
            detector=detector,
        )
    else:
        raise ValueError(f"unknown demo model kind {kind!r}")
    _DEMO_MODELS[key] = (program, trained)
    return _DEMO_MODELS[key]


def demo_events(
    kind: str, seed: int, count: int, run_label: Optional[str] = None
):
    """The fixed branch-event stream the metrics run replays.

    ``run_label`` selects a different (deterministic) CFG walk of the
    *same* demo program — distinct traces that still hit the demo
    monitored addresses, which is what multi-tenant tests need.
    """
    program, _ = demo_model(kind, seed)
    return program.run(
        count, run_label=run_label or f"metrics-{kind}"
    ).events


def demo_factory(
    tenant_names: Sequence[str],
    gpu: Optional[Gpu] = None,
    kind: str = "lstm",
    seed: int = 0,
    num_cus: int = 5,
    fifo_depth: int = 64,
    dataplane: str = "batched",
    fault_plans: Optional[Mapping[str, FaultPlan]] = None,
    frontends: Optional[Mapping[str, str]] = None,
    dual_run: bool = False,
    execute_on_gpu: bool = False,
) -> List[Deployment]:
    """Demo deployments for explicit tenant names around one engine.

    ``gpu`` defaults to a new engine, so a second call with the same
    arguments returns an equivalent tenant set around a *new* Gpu —
    what :meth:`SocManager.recover` needs after a simulated crash.
    Passing the live engine lets adopted tenants join a fleet shard.
    ``execute_on_gpu=True`` builds exact-mode drivers (every inference
    really dispatches), the mode cross-tenant batched dispatch needs.

    A module-level function, so a fleet can pickle it; parameterise it
    with :func:`functools.partial`, which pickles too.
    """
    _, trained = demo_model(kind, seed)
    return trained.deploy(
        tenant_names,
        gpu or Gpu(num_cus=num_cus, name="ML-MIAOW"),
        execute_on_gpu=execute_on_gpu,
        fault_plans=fault_plans,
        frontends=frontends,
        fifo_depth=fifo_depth,
        dataplane=dataplane,
        dual_run=dual_run,
    )
