"""Train both paper models, deploy them to the GPU, and compare engines.

The full ML lifecycle the paper describes: collect normal traces,
train the ELM (syscall patterns, [2]) and the LSTM (general branches,
[8]), compile each into Southern-Islands kernels, check the GPU
matches the float32 reference bit-for-bit-ish, and measure inference
latency on MIAOW vs ML-MIAOW, plus detection quality.

Run:  python examples/train_and_deploy.py   (takes ~1 minute)
"""

import numpy as np

from repro.miaow import Gpu
from repro.ml.detector import ThresholdDetector, roc_auc
from repro.ml.elm import ExtremeLearningMachine
from repro.ml.features import PatternDictionary
from repro.ml.kernels import DeployedElm, DeployedLstm
from repro.ml.lstm import LstmModel
from repro.workloads.dataset import build_dataset
from repro.workloads.profiles import get_profile
from repro.workloads.program import SyntheticProgram

BENCHMARK = "471.omnetpp"
GPU_CLOCK_MHZ = 50


def deploy_elm(program):
    print("ELM over syscall pattern features")
    dataset = build_dataset(
        program, feature="syscall", window=16,
        train_events=16_000, test_events=6_000, num_attacks=25, seed=0,
    )
    dictionary = PatternDictionary(n=3, capacity=1023, unseen_gain=3)
    dictionary.fit(dataset.train_windows)
    features = dictionary.features(dataset.train_windows)
    model = ExtremeLearningMachine(
        input_dim=dictionary.size, hidden_dim=256, seed=0
    ).fit(features)

    normal = model.score_mahalanobis(
        dictionary.features(dataset.test_normal)
    )
    anomalous = model.score_mahalanobis(
        dictionary.features(dataset.test_anomalous)
    )
    print(f"  dictionary: {dictionary.size} patterns; "
          f"AUC = {roc_auc(normal, anomalous):.3f}")

    window = dataset.test_normal[0]
    for name, cus in (("MIAOW", 1), ("ML-MIAOW", 5)):
        deployment = DeployedElm(model, dictionary, window=16)
        deployment.load(Gpu(num_cus=cus, name=name))
        result = deployment.infer(window)
        reference = deployment.reference_score(window)
        print(
            f"  {name:>8}: {result.dispatches[0].cycles:5d} cycles "
            f"({result.dispatches[0].cycles / GPU_CLOCK_MHZ:6.1f} us)  "
            f"score {result.score:.4f} vs f32 ref {reference:.4f}"
        )


def deploy_lstm(program):
    print("\nLSTM over general monitored branches")
    dataset = build_dataset(
        program, feature="call", window=16,
        train_events=180_000, test_events=60_000, num_attacks=25,
        seed=0, mapper_size=48,
    )
    model = LstmModel(dataset.vocabulary.size, hidden_size=32, seed=0)
    losses = model.fit(dataset.train_windows[:6000], epochs=5, seed=0)
    print(f"  vocab {dataset.vocabulary.size}, "
          f"training loss {losses[0]:.3f} -> {losses[-1]:.3f}")
    normal = model.window_nll(dataset.test_normal[:1200])
    anomalous = model.window_nll(dataset.test_anomalous[:1200])
    print(f"  window-NLL AUC = {roc_auc(normal, anomalous):.3f}")

    stream = dataset.test_normal[0]
    for name, cus in (("MIAOW", 1), ("ML-MIAOW", 5)):
        deployment = DeployedLstm(model)
        deployment.load(Gpu(num_cus=cus, name=name))
        reference = deployment.make_reference()
        cycles = []
        max_err = 0.0
        for branch in stream[:8]:
            result = deployment.infer(int(branch))
            expected = reference.infer(int(branch))
            max_err = max(max_err, abs(result.score - expected))
            cycles.append(result.total_cycles)
        mean_cycles = np.mean(cycles)
        print(
            f"  {name:>8}: {mean_cycles:7.0f} cycles/inference "
            f"({mean_cycles / GPU_CLOCK_MHZ:6.1f} us)  "
            f"max |gpu - f32 ref| = {max_err:.2e}"
        )


def main() -> None:
    print(f"benchmark: {BENCHMARK}\n")
    program = SyntheticProgram(get_profile(BENCHMARK), seed=0)
    deploy_elm(program)
    deploy_lstm(program)
    print(
        "\nsame weights, same results, ~2-4x fewer cycles on the trimmed"
        "\n5-CU engine — the performance half of the Table II trade."
    )


if __name__ == "__main__":
    main()
