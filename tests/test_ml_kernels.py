"""Deployment path: trained models compiled onto the GPU simulator."""

import numpy as np
import pytest

from repro.errors import GpuMemoryError, ModelError
from repro.miaow.gpu import Gpu
from repro.ml.elm import ExtremeLearningMachine
from repro.ml.kernels import (
    DeployedElm,
    DeployedLstm,
    LSTM_DEPLOY_VOCAB,
    build_elm_kernel,
    build_lstm_gates_kernel,
    build_lstm_score_kernel,
    build_lstm_update_kernel,
)
from repro.ml.lstm import LstmModel


@pytest.fixture(scope="module")
def deployed_elm_setup(request):
    return None


class TestKernelsAssemble:
    def test_all_kernels_assemble(self):
        assert len(build_elm_kernel()) > 10
        assert len(build_lstm_gates_kernel()) > 10
        assert len(build_lstm_update_kernel()) > 10
        assert len(build_lstm_score_kernel()) > 10

    def test_kernel_names(self):
        assert build_elm_kernel().name == "elm_score"
        assert build_lstm_gates_kernel().name == "lstm_gates"


class TestDeployedElm:
    def make(self, tiny_elm, tiny_dictionary, num_cus=1):
        deployment = DeployedElm(tiny_elm, tiny_dictionary, window=12)
        gpu = Gpu(num_cus=num_cus)
        deployment.load(gpu)
        return deployment

    def test_hidden_must_be_wave_aligned(self, tiny_dictionary):
        model = ExtremeLearningMachine(
            input_dim=tiny_dictionary.size, hidden_dim=50
        )
        with pytest.raises(ModelError):
            DeployedElm(model, tiny_dictionary, window=12)

    def test_input_dim_must_match_dictionary(self, tiny_dictionary):
        model = ExtremeLearningMachine(input_dim=10, hidden_dim=64)
        model.fit(np.random.default_rng(0).random((20, 10)))
        with pytest.raises(ModelError):
            DeployedElm(model, tiny_dictionary, window=12)

    def test_gpu_matches_f32_reference(self, tiny_elm, tiny_dictionary,
                                       syscall_dataset):
        deployment = self.make(tiny_elm, tiny_dictionary)
        for window in syscall_dataset.test_normal[:6]:
            result = deployment.infer(window)
            assert result.score == pytest.approx(
                deployment.reference_score(window), rel=1e-3
            )

    def test_anomalous_windows_score_higher_on_gpu(
        self, tiny_elm, tiny_dictionary, syscall_dataset
    ):
        deployment = self.make(tiny_elm, tiny_dictionary)
        normal = np.mean([
            deployment.infer(w).score
            for w in syscall_dataset.test_normal[:10]
        ])
        anomalous = np.mean([
            deployment.infer(w).score
            for w in syscall_dataset.test_anomalous[:10]
        ])
        assert anomalous > normal

    def test_same_result_on_multi_cu(self, tiny_elm, tiny_dictionary,
                                     syscall_dataset):
        window = syscall_dataset.test_normal[0]
        single = self.make(tiny_elm, tiny_dictionary, num_cus=1)
        multi = self.make(tiny_elm, tiny_dictionary, num_cus=5)
        assert single.infer(window).score == pytest.approx(
            multi.infer(window).score, rel=1e-6
        )

    def test_use_before_load(self, tiny_elm, tiny_dictionary):
        deployment = DeployedElm(tiny_elm, tiny_dictionary, window=12)
        with pytest.raises(Exception):
            deployment.infer(np.zeros(12, np.int64))

    def test_cycles_grow_with_unseen_patterns(self, tiny_elm,
                                              tiny_dictionary):
        deployment = self.make(tiny_elm, tiny_dictionary)
        normal_like = deployment.infer_indices(
            np.zeros(11, dtype=np.int64) + 1
        )
        unseen_heavy = deployment.infer_indices(
            np.full(22, tiny_dictionary.unseen_index, dtype=np.int64)
        )
        assert (
            unseen_heavy.dispatches[0].cycles
            > normal_like.dispatches[0].cycles
        )


class TestDeployedLstm:
    def make(self, tiny_lstm, num_cus=1):
        deployment = DeployedLstm(tiny_lstm)
        gpu = Gpu(num_cus=num_cus)
        deployment.load(gpu)
        return deployment

    def test_vocab_limit_enforced(self):
        model = LstmModel(vocabulary_size=100, hidden_size=8)
        with pytest.raises(ModelError):
            DeployedLstm(model)

    def test_hidden_limit_enforced(self):
        with pytest.raises(ModelError):
            DeployedLstm(LstmModel(vocabulary_size=10, hidden_size=100))

    def test_padding_shapes(self, tiny_lstm):
        deployment = DeployedLstm(tiny_lstm)
        padded = deployment._pad_weights()
        assert padded["w_x"].shape[1] == LSTM_DEPLOY_VOCAB
        assert padded["w_out"].shape[0] == LSTM_DEPLOY_VOCAB
        # padded rows carry strongly negative bias
        v = tiny_lstm.vocabulary_size
        assert (padded["b_out"][v:] < -10).all()

    def test_stream_matches_reference(self, tiny_lstm, call_dataset):
        deployment = self.make(tiny_lstm)
        reference = deployment.make_reference()
        for branch in call_dataset.test_normal[0]:
            gpu_result = deployment.infer(int(branch))
            ref_surprisal = reference.infer(int(branch))
            assert gpu_result.score == pytest.approx(
                ref_surprisal, rel=1e-3, abs=1e-4
            )

    def test_three_dispatches_per_inference(self, tiny_lstm):
        deployment = self.make(tiny_lstm)
        result = deployment.infer(1)
        assert [d.kernel for d in result.dispatches] == [
            "lstm_score", "lstm_gates", "lstm_update",
        ]

    def test_gates_phase_uses_four_workgroups(self, tiny_lstm):
        deployment = self.make(tiny_lstm, num_cus=5)
        result = deployment.infer(1)
        gates = result.dispatches[1]
        active = [c for c in gates.per_cu_cycles.values() if c > 0]
        assert len(active) == 4

    def test_multi_cu_same_math_fewer_cycles(self, tiny_lstm):
        single = self.make(tiny_lstm, num_cus=1)
        multi = self.make(tiny_lstm, num_cus=5)
        ids = [1, 2, 3, 1]
        s_total = m_total = 0
        for branch in ids:
            s = single.infer(branch)
            m = multi.infer(branch)
            assert s.score == pytest.approx(m.score, rel=1e-5)
            s_total += s.total_cycles
            m_total += m.total_cycles
        assert m_total < s_total

    def test_reset_state_restores_initial(self, tiny_lstm):
        deployment = self.make(tiny_lstm)
        first = deployment.infer(2).score
        deployment.infer(3)
        deployment.reset_state()
        again = deployment.infer(2).score
        assert first == pytest.approx(again, rel=1e-6)

    def test_state_evolution_changes_scores(self, tiny_lstm):
        deployment = self.make(tiny_lstm)
        a = deployment.infer(2).score
        b = deployment.infer(2).score
        assert a != pytest.approx(b, rel=1e-6)

    def test_out_of_vocab_rejected(self, tiny_lstm):
        deployment = self.make(tiny_lstm)
        with pytest.raises(ModelError):
            deployment.infer(tiny_lstm.vocabulary_size)

    def test_long_stream_stays_finite(self, tiny_lstm, call_dataset):
        """Clamped tanh keeps the recurrent state numerically sane."""
        deployment = self.make(tiny_lstm)
        reference = deployment.make_reference()
        stream = call_dataset.test_normal[:40].ravel()[:200]
        for branch in stream:
            s = reference.infer(int(branch))
            assert np.isfinite(s)
        assert np.isfinite(reference.h).all()
        assert np.isfinite(reference.c).all()


class TestSharedEngineLds:
    """Models deployed onto one engine keep their own LDS weights."""

    STREAM = [3, 1, 4, 1, 5, 9, 2, 6]

    def scores(self, deployment):
        return [deployment.infer(branch).score for branch in self.STREAM]

    def alone(self, model):
        deployment = DeployedLstm(model)
        deployment.load(Gpu())
        return self.scores(deployment)

    def test_two_models_score_as_each_does_alone(self):
        first = LstmModel(vocabulary_size=16, hidden_size=16, seed=0)
        second = LstmModel(vocabulary_size=16, hidden_size=16, seed=1)
        gpu = Gpu()
        shared = [DeployedLstm(first), DeployedLstm(second)]
        for deployment in shared:
            deployment.load(gpu)
        assert self.scores(shared[0]) == self.alone(first)
        assert self.scores(shared[1]) == self.alone(second)

    def test_elm_beside_lstm_scores_as_alone(
        self, tiny_lstm, tiny_elm, tiny_dictionary, syscall_dataset
    ):
        window = syscall_dataset.test_normal[0]
        solo = DeployedElm(tiny_elm, tiny_dictionary, window=12)
        solo.load(Gpu())
        gpu = Gpu()
        elm = DeployedElm(tiny_elm, tiny_dictionary, window=12)
        elm.load(gpu)
        DeployedLstm(tiny_lstm).load(gpu)
        assert elm.infer(window).score == solo.infer(window).score

    def test_identical_images_share_one_base(self, tiny_lstm):
        gpu = Gpu()
        deployments = [DeployedLstm(tiny_lstm) for _ in range(3)]
        for deployment in deployments:
            deployment.load(gpu)
        offsets = {tuple(d._lds_offsets.values()) for d in deployments}
        assert len(offsets) == 1

    def test_lds_overflow_refused(self):
        # one padded LSTM image is ~24.5 KB: two distinct ones overflow
        gpu = Gpu(lds_bytes=32 * 1024)
        models = [
            LstmModel(vocabulary_size=16, hidden_size=16, seed=seed)
            for seed in (0, 1)
        ]
        DeployedLstm(models[0]).load(gpu)
        with pytest.raises(GpuMemoryError):
            DeployedLstm(models[1]).load(gpu)
