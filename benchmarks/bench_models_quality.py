"""Model-quality comparison: the claims behind the model choices.

The paper picks ELM because it is "more lightweight than a traditional
MLP while providing similar accuracy", and the LSTM for its sequence
modeling.  This bench quantifies both claims on our substrate, with
the STIDE n-gram baseline for context.
"""

import numpy as np
import pytest

from conftest import save_result
from repro.eval.report import format_table
from repro.ml.detector import roc_auc
from repro.ml.elm import ExtremeLearningMachine
from repro.ml.features import PatternDictionary
from repro.ml.lstm import LstmModel
from repro.ml.mlp import MlpAutoencoder
from repro.ml.ngram import NgramModel
from repro.workloads.dataset import build_dataset
from repro.workloads.profiles import get_profile
from repro.workloads.program import SyntheticProgram

BENCHMARK = "403.gcc"


@pytest.fixture(scope="module")
def quality_data():
    program = SyntheticProgram(get_profile(BENCHMARK), seed=21)
    syscall = build_dataset(
        program, feature="syscall", window=16,
        train_events=16_000, test_events=6_000, num_attacks=25, seed=2,
    )
    dictionary = PatternDictionary(n=3, capacity=1023, unseen_gain=3)
    dictionary.fit(syscall.train_windows)
    features = {
        "train": dictionary.features(syscall.train_windows),
        "normal": dictionary.features(syscall.test_normal),
        "anomalous": dictionary.features(syscall.test_anomalous),
    }
    call = build_dataset(
        program, feature="call", window=16,
        train_events=150_000, test_events=50_000, num_attacks=25,
        seed=2, mapper_size=48,
    )
    return program, syscall, dictionary, features, call


@pytest.fixture(scope="module")
def model_scores(quality_data):
    program, syscall, dictionary, features, call = quality_data

    scores = {}

    elm = ExtremeLearningMachine(
        input_dim=dictionary.size, hidden_dim=256, seed=1
    ).fit(features["train"])
    scores["ELM"] = (
        elm.score_mahalanobis(features["normal"]),
        elm.score_mahalanobis(features["anomalous"]),
        2 * elm.hidden_dim,  # only the hidden mean/variance are fitted
    )

    mlp = MlpAutoencoder(input_dim=dictionary.size, hidden_dim=64, seed=1)
    mlp.fit(features["train"], epochs=25)
    scores["MLP"] = (
        mlp.score(features["normal"]),
        mlp.score(features["anomalous"]),
        mlp.parameter_count,
    )

    ngram = NgramModel(3).fit(syscall.train_windows)
    scores["n-gram"] = (
        ngram.score(syscall.test_normal),
        ngram.score(syscall.test_anomalous),
        ngram.table_size,
    )

    lstm = LstmModel(call.vocabulary.size, hidden_size=32, seed=1)
    lstm.fit(call.train_windows[:6000], epochs=5, seed=1)
    scores["LSTM"] = (
        lstm.window_nll(call.test_normal[:1500]),
        lstm.window_nll(call.test_anomalous[:1500]),
        sum(p.size for p in lstm.params.values()),
    )
    return scores


def test_model_quality_comparison(benchmark, model_scores, quality_data):
    _, _, dictionary, features, _ = quality_data

    def elm_train():
        return ExtremeLearningMachine(
            input_dim=dictionary.size, hidden_dim=256, seed=1
        ).fit(features["train"])

    benchmark.pedantic(elm_train, rounds=3, iterations=1)

    rows = []
    aucs = {}
    for name, (normal, anomalous, size) in model_scores.items():
        auc = roc_auc(normal, anomalous)
        aucs[name] = auc
        rows.append((name, round(auc, 3), size))
    save_result(
        "models_quality",
        format_table(
            ["model", "AUC", "trained params / table size"],
            rows,
            title=f"Model quality on {BENCHMARK} (higher AUC better)",
        ),
    )

    # Every model separates attacks from normal behaviour.
    assert all(auc > 0.6 for auc in aucs.values()), aucs
    # ELM ~ MLP accuracy (the paper's lightweight claim) ...
    assert abs(aucs["ELM"] - aucs["MLP"]) < 0.2
    # ... while training far fewer parameters than the MLP autoencoder.
    assert model_scores["ELM"][2] * 10 < model_scores["MLP"][2]


def test_deployed_engine_scaling_per_model(benchmark, quality_data):
    """How each deployed model uses the 5-CU trimmed engine.

    The ELM's four independent workgroups scale; the LSTM's serial
    phase chain scales partially; the MLP autoencoder (two sequential
    single-workgroup phases) does not scale at all — completing the
    paper's case for the ELM/LSTM pairing.
    """
    import numpy as np

    from repro.miaow.gpu import Gpu
    from repro.ml.elm import ExtremeLearningMachine
    from repro.ml.kernels import DeployedElm, DeployedLstm, DeployedMlp
    from repro.ml.lstm import LstmModel
    from repro.ml.mlp import MlpAutoencoder
    from repro.ml.features import histogram_features, normalize_histogram

    program, syscall, dictionary, features, call = quality_data

    elm = ExtremeLearningMachine(
        input_dim=dictionary.size, hidden_dim=256, seed=1
    ).fit(features["train"])
    hist_train = normalize_histogram(
        histogram_features(syscall.train_windows, 33)
    )
    mlp = MlpAutoencoder(input_dim=33, hidden_dim=48, seed=1)
    mlp.fit(hist_train[:600], epochs=10)
    lstm = LstmModel(call.vocabulary.size, hidden_size=32, seed=1)
    lstm.fit(call.train_windows[:800], epochs=1, seed=1)

    def cycles_for(deployment_factory, run):
        out = {}
        for cus in (1, 5):
            deployment = deployment_factory()
            deployment.load(Gpu(num_cus=cus))
            out[cus] = run(deployment)
        return out

    window = syscall.test_normal[0]
    elm_cycles = cycles_for(
        lambda: DeployedElm(elm, dictionary, window=16),
        lambda d: d.infer(window).dispatches[0].cycles,
    )
    mlp_cycles = cycles_for(
        lambda: DeployedMlp(mlp),
        lambda d: d.infer(hist_train[0]).total_cycles,
    )
    lstm_cycles = cycles_for(
        lambda: DeployedLstm(lstm),
        lambda d: d.infer(1).total_cycles,
    )
    benchmark.pedantic(
        lambda: DeployedMlp(mlp).load(Gpu(num_cus=5)),
        rounds=3, iterations=1,
    )

    rows = []
    for name, cycles in (
        ("ELM", elm_cycles), ("LSTM", lstm_cycles), ("MLP", mlp_cycles)
    ):
        rows.append(
            (name, cycles[1], cycles[5],
             f"{cycles[1] / cycles[5]:.2f}x")
        )
    save_result(
        "models_engine_scaling",
        format_table(
            ["model", "1-CU cycles", "5-CU cycles", "scaling"],
            rows,
            title="Deployed models on MIAOW vs ML-MIAOW (engine scaling)",
        ),
    )

    assert elm_cycles[1] / elm_cycles[5] > 3.0   # 4 parallel WGs
    assert 1.5 < lstm_cycles[1] / lstm_cycles[5] < 3.0
    assert mlp_cycles[1] == mlp_cycles[5]        # fully serial


def test_elm_trains_orders_faster_than_mlp(benchmark, quality_data):
    """The lightweight-training half of the paper's ELM argument."""
    import time

    _, _, dictionary, features, _ = quality_data

    def mlp_fit():
        MlpAutoencoder(
            input_dim=dictionary.size, hidden_dim=64, seed=1
        ).fit(features["train"], epochs=25)

    mlp_stats = benchmark.pedantic(mlp_fit, rounds=2, iterations=1)

    start = time.perf_counter()
    ExtremeLearningMachine(
        input_dim=dictionary.size, hidden_dim=256, seed=1
    ).fit(features["train"])
    elm_time = time.perf_counter() - start
    assert elm_time < benchmark.stats.stats.mean
