"""The deployment protocol, driven through ``MlMiaowDriver`` for every
model kind: a single inference is a batch of one, and the deployed
model (not the driver) fixes its kind, batch key and phases."""

import numpy as np
import pytest

from repro.mcm.driver import MlMiaowDriver
from repro.miaow.gpu import Gpu
from repro.ml.kernels import DeployedElm, DeployedLstm, DeployedMlp
from repro.ml.mlp import MlpAutoencoder
from repro.obs import MetricsRegistry

KINDS = ("elm", "lstm", "mlp")
WIDTH = 3
ROUNDS = 2


@pytest.fixture(scope="module")
def tiny_mlp():
    rng = np.random.default_rng(5)
    rows = rng.random((200, 16))
    rows /= rows.sum(axis=1, keepdims=True)
    model = MlpAutoencoder(input_dim=16, hidden_dim=12, seed=2)
    model.fit(rows, epochs=5)
    return model


@pytest.fixture
def protocol(request, tiny_elm, tiny_dictionary, tiny_lstm, tiny_mlp):
    """(deployment factory, ``inputs(round)`` -> WIDTH converted inputs
    of one shape) for the parametrised kind."""
    kind = request.param
    rng = np.random.default_rng(11)
    if kind == "elm":
        positions = 12 - tiny_dictionary.n + 1
        rounds = [
            [rng.integers(0, tiny_dictionary.size, positions)
             for _ in range(WIDTH)]
            for _ in range(ROUNDS)
        ]
        return (lambda: DeployedElm(tiny_elm, tiny_dictionary, 12)), rounds
    if kind == "lstm":
        vocabulary = tiny_lstm.vocabulary_size
        rounds = [
            [int(b) for b in rng.integers(0, vocabulary, WIDTH)]
            for _ in range(ROUNDS)
        ]
        return (lambda: DeployedLstm(tiny_lstm)), rounds
    rounds = []
    for _ in range(ROUNDS):
        counts = rng.integers(1, 9, (WIDTH, tiny_mlp.input_dim))
        rounds.append(
            [(row / row.sum()).astype(np.float32) for row in counts]
        )
    return (lambda: DeployedMlp(tiny_mlp)), rounds


def _drivers(factory, execute_on_gpu=True):
    """WIDTH drivers of one model on one fresh engine with a registry."""
    registry = MetricsRegistry()
    gpu = Gpu(num_cus=2, metrics=registry)
    return [
        MlMiaowDriver(factory(), gpu, execute_on_gpu=execute_on_gpu)
        for _ in range(WIDTH)
    ], registry


def _batch_counters(registry):
    return {
        name: value
        for name, value in registry.snapshot()["counters"].items()
        if name.startswith("miaow.batch.")
    }


@pytest.mark.parametrize("protocol", KINDS, indirect=True)
class TestModelProtocol:
    def test_single_equals_member_of_fused_batch(self, protocol):
        factory, rounds = protocol
        singles, single_registry = _drivers(factory)
        batched, batch_registry = _drivers(factory)
        for inputs in rounds:
            alone = [
                driver.run_inference(x) for driver, x in zip(singles, inputs)
            ]
            fused = MlMiaowDriver.run_inference_batch(batched, inputs)
            for one, two in zip(alone, fused):
                assert repr(one.score) == repr(two.score)
                assert one.phases == two.phases
        # every single inference was a width-1 batch: no batch counter
        assert not any(_batch_counters(single_registry).values())
        # ...while the twin fused every kernel of every round
        fused_dispatches = ROUNDS * singles[0].phases.num_dispatches
        assert _batch_counters(batch_registry) == {
            "miaow.batch.dispatches": fused_dispatches,
            "miaow.batch.requests": fused_dispatches * WIDTH,
            "miaow.batch.fallback.engine": 0,
            "miaow.batch.fallback.unsupported": 0,
            "miaow.batch.fallback.replayed": 0,
        }

    def test_phases_known_before_the_run(self, protocol):
        factory, rounds = protocol
        (driver, *_), _ = _drivers(factory)
        first = rounds[0][0]
        if driver.kind == "elm":
            # the index count is a loop bound: known once observed
            assert driver.phases_for(first) is None
            driver.run_inference(first)
            assert driver.phases_for(first[:-1]) is None
        for x in rounds[0]:
            known = driver.phases_for(x)
            assert known == driver.run_inference(x).phases

    def test_calibrated_reports_exact_phases(self, protocol):
        factory, rounds = protocol
        (exact, *_), _ = _drivers(factory, execute_on_gpu=True)
        (calibrated, *_), _ = _drivers(factory, execute_on_gpu=False)
        for inputs in rounds:
            for x in inputs:
                assert (
                    calibrated.run_inference(x).phases
                    == exact.run_inference(x).phases
                )
        assert calibrated.batch_key(rounds[0][0]) is None

    def test_batch_keys(self, protocol):
        factory, rounds = protocol
        drivers, _ = _drivers(factory)
        keys = {
            driver.batch_key(x) for driver, x in zip(drivers, rounds[0])
        }
        assert len(keys) == 1
        assert keys.pop()[0] == drivers[0].kind == drivers[0].deployment.kind


def test_kinds_never_share_a_batch_key(
    tiny_elm, tiny_dictionary, tiny_lstm, tiny_mlp
):
    gpu = Gpu()
    elm = MlMiaowDriver(DeployedElm(tiny_elm, tiny_dictionary, 12), gpu)
    lstm = MlMiaowDriver(DeployedLstm(tiny_lstm), gpu)
    mlp = MlMiaowDriver(DeployedMlp(tiny_mlp), gpu)
    keys = {
        elm.batch_key(elm.deployment.warmup_input()),
        lstm.batch_key(lstm.deployment.warmup_input()),
        mlp.batch_key(mlp.deployment.warmup_input()),
    }
    assert len(keys) == 3
