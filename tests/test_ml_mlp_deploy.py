"""Deployed MLP autoencoder: the third model on the same engine."""

import numpy as np
import pytest

from repro.errors import ModelError
from repro.igm.vector_encoder import InputVector
from repro.mcm.arbiter import ArbitratedMcm
from repro.mcm.driver import MlMiaowDriver
from repro.mcm.engines import ProtocolConverter
from repro.mcm.mcm import Mcm, McmConfig
from repro.miaow.gpu import Gpu
from repro.ml.detector import ThresholdDetector, roc_auc
from repro.ml.kernels import DeployedMlp
from repro.ml.mlp import MlpAutoencoder


@pytest.fixture(scope="module")
def trained_mlp():
    rng = np.random.default_rng(0)
    centers = rng.random((3, 33))
    rows = centers[rng.integers(0, 3, 500)] + rng.normal(
        0, 0.04, (500, 33)
    )
    model = MlpAutoencoder(input_dim=33, hidden_dim=48, seed=1)
    model.fit(rows, epochs=20)
    return model, rows, rng


class TestDeployedMlp:
    def test_requires_trained_model(self):
        with pytest.raises(ModelError):
            DeployedMlp(MlpAutoencoder(input_dim=8, hidden_dim=4))

    def test_dims_bounded_by_wavefront(self):
        model = MlpAutoencoder(input_dim=100, hidden_dim=8)
        model.trained = True
        with pytest.raises(ModelError):
            DeployedMlp(model)

    def test_gpu_matches_reference(self, trained_mlp):
        model, rows, _ = trained_mlp
        deployment = DeployedMlp(model)
        deployment.load(Gpu())
        for row in rows[:5]:
            x = row.astype(np.float32)
            result = deployment.infer(x)
            assert result.score == pytest.approx(
                deployment.reference_score(x), rel=1e-3, abs=1e-5
            )

    def test_two_sequential_dispatches(self, trained_mlp):
        model, rows, _ = trained_mlp
        deployment = DeployedMlp(model)
        deployment.load(Gpu())
        result = deployment.infer(rows[0].astype(np.float32))
        assert [d.kernel for d in result.dispatches] == [
            "mlp_hidden", "mlp_recon",
        ]

    def test_no_multi_cu_speedup(self, trained_mlp):
        """Both phases are one workgroup: CUs beyond 1 are idle —
        the structural contrast with the ELM."""
        model, rows, _ = trained_mlp
        x = rows[0].astype(np.float32)
        cycles = {}
        for cus in (1, 5):
            deployment = DeployedMlp(model)
            deployment.load(Gpu(num_cus=cus))
            cycles[cus] = deployment.infer(x).total_cycles
        assert cycles[1] == cycles[5]

    def test_separates_anomalies_on_gpu(self, trained_mlp):
        model, rows, rng = trained_mlp
        deployment = DeployedMlp(model)
        deployment.load(Gpu())
        normal = [
            deployment.infer(r.astype(np.float32)).score
            for r in rows[:30]
        ]
        anomalies = [
            deployment.infer(rng.random(33).astype(np.float32)).score
            for _ in range(30)
        ]
        assert roc_auc(normal, anomalies) > 0.9

    def test_feature_shape_checked(self, trained_mlp):
        model, _, _ = trained_mlp
        deployment = DeployedMlp(model)
        deployment.load(Gpu())
        with pytest.raises(ModelError):
            deployment.infer(np.zeros(5, dtype=np.float32))


class TestMlpInMcm:
    def test_full_mcm_path(self, trained_mlp):
        model, rows, _ = trained_mlp
        driver = MlMiaowDriver(DeployedMlp(model), Gpu(),
                               execute_on_gpu=True)
        assert driver.kind == "mlp"
        assert driver.phases.num_dispatches == 2
        detector = ThresholdDetector(0.9).fit(
            model.score(rows[:200])
        )
        arb = ArbitratedMcm([
            Mcm(
                driver=driver,
                detector=detector,
                config=McmConfig(fifo_depth=8),
            )
        ])
        # Histogram counts summing to the window size, like the VE's
        # HISTOGRAM mode emits.
        counts = np.zeros(33, dtype=np.int64)
        counts[[1, 4, 4, 9]] = [4, 8, 0, 4]
        vector = InputVector(
            values=counts, sequence_number=0,
            trigger_address=0, trigger_cycle=0,
        )
        arb.push(0, vector, arrival_ns=0.0)
        [records] = arb.finalize()
        assert len(records) == 1
        assert records[0].score > 0

    def test_rtad_tenant_refuses_mlp(self, trained_mlp, small_program):
        # The RTAD dataplane's vector encoder emits ID sequences, which
        # only ELM and LSTM deployments consume.
        from repro.errors import SocConfigError
        from repro.soc.manager import Deployment
        from repro.soc.rtad import RtadSoc

        model, _, _ = trained_mlp
        driver = MlMiaowDriver(DeployedMlp(model), Gpu(),
                               execute_on_gpu=False)
        with pytest.raises(SocConfigError):
            RtadSoc(
                small_program,
                Deployment(
                    name="mlp", driver=driver, monitored_addresses=[0x1000]
                ),
            )

    def test_converter_normalizes(self):
        converter = ProtocolConverter("mlp")
        out = converter.convert(np.array([2, 0, 2]))
        assert out.dtype == np.float32
        assert out.sum() == pytest.approx(1.0)
        assert converter.words_for(out) == 3

    def test_converter_rejects_empty_histogram(self):
        from repro.errors import McmError

        converter = ProtocolConverter("mlp")
        with pytest.raises(McmError):
            converter.convert(np.zeros(4))

    def test_calibrated_mode_matches(self, trained_mlp):
        model, rows, _ = trained_mlp
        exact = MlMiaowDriver(DeployedMlp(model), Gpu(),
                              execute_on_gpu=True)
        fast = MlMiaowDriver(DeployedMlp(model), Gpu(),
                             execute_on_gpu=False)
        x = (rows[0] / rows[0].sum()).astype(np.float32)
        a = exact.run_inference(x)
        b = fast.run_inference(x)
        assert a.score == pytest.approx(b.score, rel=1e-3, abs=1e-6)
        assert a.phases.total_cycles == b.phases.total_cycles