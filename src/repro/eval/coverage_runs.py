"""Representative model runs for the trimming flow.

The paper merges the coverage of every deployed model (Section III:
"simultaneous trimming for multiple applications by merging the
minimum required logics of several different ML models").  These run
functions exercise each deployment end-to-end on a given GPU and
return its numeric outputs, so the same callables drive both coverage
collection (step 1) and trimmed-vs-original verification (step 4).
"""

from __future__ import annotations

from typing import Callable, List, Tuple

import numpy as np

from repro.eval.prep import get_bundle
from repro.miaow.gpu import Gpu

#: Benchmark whose trained models stand in for "the deployed models"
#: during trimming (any benchmark covers the same opcodes — kernel
#: structure, not data, determines coverage).
COVERAGE_BENCHMARK = "403.gcc"

#: Inferences per run — enough to take every kernel branch direction.
INFERENCES_PER_RUN = 4


def elm_run(seed: int = 0) -> Tuple[str, Callable[[Gpu], np.ndarray]]:
    bundle = get_bundle(COVERAGE_BENCHMARK, "elm", seed)

    def run(gpu: Gpu) -> np.ndarray:
        deployment = bundle.make_deployment()
        deployment.load(gpu)
        scores = []
        for index in range(INFERENCES_PER_RUN):
            window = bundle.normal_ids[
                index * bundle.window:(index + 1) * bundle.window
            ]
            scores.append(deployment.infer(window).score)
        return np.array(scores, dtype=np.float64)

    return ("elm", run)


def lstm_run(seed: int = 0) -> Tuple[str, Callable[[Gpu], np.ndarray]]:
    bundle = get_bundle(COVERAGE_BENCHMARK, "lstm", seed)

    def run(gpu: Gpu) -> np.ndarray:
        deployment = bundle.make_deployment()
        deployment.load(gpu)
        surprisals = []
        for branch_id in bundle.normal_ids[:INFERENCES_PER_RUN]:
            surprisals.append(deployment.infer(int(branch_id)).score)
        return np.array(surprisals, dtype=np.float64)

    return ("lstm", run)


def deployed_model_runs(seed: int = 0) -> List[Tuple[str, Callable]]:
    """Both deployed models — the merged-coverage input (ours)."""
    return [elm_run(seed), lstm_run(seed)]


def single_model_runs(seed: int = 0) -> List[Tuple[str, Callable]]:
    """The LSTM alone — the MIAOW2.0 comparison deploys one model."""
    return [lstm_run(seed)]
