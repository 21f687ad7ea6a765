"""Batched dispatch: bit-exact equivalence at every batch size.

The differential harness runs the same request stream three ways —
(a) the per-instruction interpreter, (b) the PR 6 compiled single
path, (c) the fused batched path — at K in {2, 3, 8, 17}, and asserts
that the observable outcomes are *identical*: per-member scores and
result memory, DispatchResult cycles / instructions / per-CU cycles,
per-CU lifetime counters, the full global-memory image, and (for
faulting streams) the exception type, message, and partial effects.
Input memory is salted with the nasty float encodings (sNaN, denormal,
inf) exactly like ``test_miaow_compiler.py``.
"""

import numpy as np
import pytest

from repro.errors import GpuError
from repro.miaow.assembler import assemble
from repro.miaow.compiler import (
    CompiledKernel,
    CompileUnsupported,
    compile_kernel,
)
from repro.miaow.gpu import Gpu
from repro.miaow.isa import WAVE_SIZE
from repro.ml.elm import ExtremeLearningMachine
from repro.ml.features import PatternDictionary
from repro.ml.kernels import DeployedElm, DeployedLstm, DeployedMlp
from repro.ml.lstm import LstmModel
from repro.ml.mlp import MlpAutoencoder

K_VALUES = (2, 3, 8, 17)

#: The salted encodings every randomized input leads with.
_SPECIALS = np.array(
    [
        0x7FC00000,  # qNaN
        0x7F800001,  # sNaN
        0xFFC00001,  # negative NaN with payload
        0x7F800000,  # +inf
        0xFF800000,  # -inf
        0x80000000,  # -0.0
        0x00000001,  # denormal
        0x007FFFFF,  # largest denormal
    ],
    dtype=np.uint32,
)


def _salted_words(rng, count):
    words = rng.integers(0, 1 << 32, size=count, dtype=np.uint64).astype(
        np.uint32
    )
    words[: min(len(_SPECIALS), count)] = _SPECIALS[:count]
    return words


#: Per-member float pipeline over salted memory: gathers a lane word,
#: mixes in two member-varying scalar bit patterns (s5/s6), and stores
#: the result — exercises the batched scalar-array domain and the NaN
#: payload rules in one kernel.
_FLOAT_KERNEL = """
.kernel batcheq
.vgprs 8
    v_lshlrev_b32 v5, 2, v0
    v_add_i32 v6, v5, s2
    flat_load_dword v1, v6
    v_add_f32 v2, v1, s5
    v_mul_f32 v2, v2, s6
    v_mac_f32 v2, v1, s5
    v_fma_f32 v2, v2, v1, s6
    v_max_f32 v2, v2, v1
    v_add_i32 v6, v5, s3
    flat_store_dword v6, v2
    s_endpgm
"""

#: Scalar-looped kernel (uniform bound fuses, varying bound replays):
#: accumulates s5 rounds of lane arithmetic before the store.
_LOOP_KERNEL = """
.kernel batchloop
.vgprs 8
    v_mov_b32 v1, 0.0
    s_mov_b32 s8, 0
loop:
    v_add_f32 v1, v1, 1.5
    s_add_i32 s8, s8, 1
    s_cmp_lt_i32 s8, s5
    s_cbranch_scc1 loop
    v_lshlrev_b32 v2, 2, v0
    v_add_i32 v2, v2, s2
    flat_store_dword v2, v1
    s_endpgm
"""


def _assert_engines_identical(reference, candidate):
    gpu_a, results_a = reference
    gpu_b, results_b = candidate
    assert len(results_a) == len(results_b)
    for member_a, member_b in zip(results_a, results_b):
        assert member_a.cycles == member_b.cycles
        assert member_a.instructions == member_b.instructions
        assert member_a.per_cu_cycles == member_b.per_cu_cycles
    assert np.array_equal(
        gpu_a.global_memory._words, gpu_b.global_memory._words
    )
    for cu_a, cu_b in zip(gpu_a.compute_units, gpu_b.compute_units):
        assert cu_a.total_cycles == cu_b.total_cycles
        assert cu_a.total_instructions == cu_b.total_instructions


def _run_stream(kernel, args_lists, preload, mode, num_cus=2):
    gpu = Gpu(num_cus=num_cus, fast_path=(mode != "interpreter"))
    gpu.global_memory.write_block(0, preload)
    gpu.global_memory.alloc(len(preload) * 4)
    if mode == "batched":
        results = gpu.dispatch_batch(kernel, 1, [list(a) for a in args_lists])
    else:
        results = [gpu.dispatch(kernel, 1, list(a)) for a in args_lists]
    return gpu, results


class TestSyntheticStreams:
    @pytest.mark.parametrize("k", K_VALUES)
    def test_salted_float_stream_three_ways(self, k):
        rng = np.random.default_rng(100 + k)
        kernel = assemble(_FLOAT_KERNEL)
        preload = _salted_words(rng, k * WAVE_SIZE)
        out_base = len(preload) * 4
        args_lists = [
            (
                member * WAVE_SIZE * 4,
                out_base + member * WAVE_SIZE * 4,
                0,
                int(rng.integers(0, 1 << 32)),
                int(rng.integers(0, 1 << 32)),
            )
            for member in range(k)
        ]
        full = np.concatenate([preload, np.zeros(k * WAVE_SIZE, np.uint32)])
        interpreted = _run_stream(kernel, args_lists, full, "interpreter")
        compiled = _run_stream(kernel, args_lists, full, "compiled")
        batched = _run_stream(kernel, args_lists, full, "batched")
        _assert_engines_identical(interpreted, compiled)
        _assert_engines_identical(compiled, batched)
        # the fused path really fused (one cache entry, no fallback)
        assert batched[0].fastpath_stats()["compiled_cached"] == 1

    @pytest.mark.parametrize("k", K_VALUES)
    def test_uniform_loop_fuses_varying_loop_replays(self, k):
        kernel = assemble(_LOOP_KERNEL)
        preload = np.zeros(k * WAVE_SIZE, np.uint32)
        uniform = [(m * WAVE_SIZE * 4, 0, 0, 6) for m in range(k)]
        varying = [(m * WAVE_SIZE * 4, 0, 0, 3 + m) for m in range(k)]
        for args_lists in (uniform, varying):
            compiled = _run_stream(kernel, args_lists, preload, "compiled")
            batched = _run_stream(kernel, args_lists, preload, "batched")
            _assert_engines_identical(compiled, batched)


class TestFaultParity:
    def test_faulting_member_same_error_and_partial_effects(self):
        kernel = assemble(_FLOAT_KERNEL)
        rng = np.random.default_rng(7)
        preload = _salted_words(rng, 3 * WAVE_SIZE)
        bad = 1 << 30  # store far out of device memory
        args_lists = [
            (0, len(preload) * 4, 0, 1, 2),
            (WAVE_SIZE * 4, bad, 0, 3, 4),
            (2 * WAVE_SIZE * 4, len(preload) * 4 + WAVE_SIZE * 8, 0, 5, 6),
        ]
        full = np.concatenate([preload, np.zeros(3 * WAVE_SIZE, np.uint32)])
        outcomes = []
        for mode in ("compiled", "batched"):
            gpu = Gpu(num_cus=2, fast_path=True)
            gpu.global_memory.write_block(0, full)
            error = None
            try:
                if mode == "batched":
                    gpu.dispatch_batch(
                        kernel, 1, [list(a) for a in args_lists]
                    )
                else:
                    for args in args_lists:
                        gpu.dispatch(kernel, 1, list(args))
            except GpuError as exc:
                error = (type(exc).__name__, str(exc))
            outcomes.append((gpu, error))
        (gpu_serial, err_serial), (gpu_batched, err_batched) = outcomes
        assert err_serial is not None
        assert err_serial == err_batched
        assert np.array_equal(
            gpu_serial.global_memory._words, gpu_batched.global_memory._words
        )
        for cu_a, cu_b in zip(
            gpu_serial.compute_units, gpu_batched.compute_units
        ):
            assert cu_a.total_cycles == cu_b.total_cycles
            assert cu_a.total_instructions == cu_b.total_instructions


class TestShippedModelBatches:
    @pytest.fixture(scope="class")
    def demo_models(self):
        rng = np.random.default_rng(5)
        windows = rng.integers(0, 10, size=(160, 12))
        dictionary = PatternDictionary(n=2, capacity=255, unseen_gain=2)
        dictionary.fit(windows)
        elm = ExtremeLearningMachine(
            input_dim=dictionary.size, hidden_dim=64, seed=5
        ).fit(dictionary.features(windows))
        lstm = LstmModel(vocabulary_size=48, hidden_size=16, seed=5)
        features = rng.random((140, 24)).astype(np.float32)
        features /= features.sum(axis=1, keepdims=True)
        mlp = MlpAutoencoder(input_dim=24, hidden_dim=8, seed=5)
        mlp.fit(features, epochs=2)
        return dictionary, elm, lstm, mlp, windows, features

    @pytest.mark.parametrize("k", K_VALUES)
    def test_elm_batch_bit_identical(self, demo_models, k):
        dictionary, elm, _, _, windows, _ = demo_models
        indices = [dictionary.indices(windows[i]) for i in range(k)]

        def deploy(gpu):
            members = []
            for _ in range(k):
                member = DeployedElm(elm, dictionary, windows.shape[1])
                member.load(gpu)
                members.append(member)
            return members

        gpu_serial = Gpu(num_cus=3, fast_path=True)
        serial = [
            member.infer_indices(index_list)
            for member, index_list in zip(deploy(gpu_serial), indices)
        ]
        gpu_batched = Gpu(num_cus=3, fast_path=True)
        batched = DeployedElm.infer_batch(deploy(gpu_batched), indices)
        for one, two in zip(serial, batched):
            assert one.score == two.score
            assert one.dispatches[0].cycles == two.dispatches[0].cycles
            assert (
                one.dispatches[0].instructions
                == two.dispatches[0].instructions
            )
            assert (
                one.dispatches[0].per_cu_cycles
                == two.dispatches[0].per_cu_cycles
            )
        assert np.array_equal(
            gpu_serial.global_memory._words, gpu_batched.global_memory._words
        )

    @pytest.mark.parametrize("k", K_VALUES)
    def test_lstm_batch_bit_identical_with_state(self, demo_models, k):
        _, _, lstm, _, _, _ = demo_models
        rng = np.random.default_rng(31 + k)
        rounds = [
            [int(b) for b in rng.integers(0, 48, size=k)] for _ in range(3)
        ]

        def deploy(gpu):
            members = []
            for _ in range(k):
                member = DeployedLstm(lstm)
                member.load(gpu)
                members.append(member)
            return members

        gpu_serial = Gpu(num_cus=3, fast_path=True)
        serial_members = deploy(gpu_serial)
        serial = [
            [
                member.infer(branch_ids[j])
                for j, member in enumerate(serial_members)
            ]
            for branch_ids in rounds
        ]
        gpu_batched = Gpu(num_cus=3, fast_path=True)
        batched_members = deploy(gpu_batched)
        batched = [
            DeployedLstm.infer_batch(batched_members, branch_ids)
            for branch_ids in rounds
        ]
        for serial_round, batched_round in zip(serial, batched):
            for one, two in zip(serial_round, batched_round):
                assert one.score == two.score
                assert [d.cycles for d in one.dispatches] == [
                    d.cycles for d in two.dispatches
                ]
        assert np.array_equal(
            gpu_serial.global_memory._words, gpu_batched.global_memory._words
        )

    @pytest.mark.parametrize("k", K_VALUES)
    def test_mlp_batch_bit_identical(self, demo_models, k):
        _, _, _, mlp, _, features = demo_models
        inputs = [features[i] for i in range(k)]

        def deploy(gpu):
            members = []
            for _ in range(k):
                member = DeployedMlp(mlp)
                member.load(gpu)
                members.append(member)
            return members

        gpu_serial = Gpu(num_cus=3, fast_path=True)
        serial = [
            member.infer(sample)
            for member, sample in zip(deploy(gpu_serial), inputs)
        ]
        gpu_batched = Gpu(num_cus=3, fast_path=True)
        batched = DeployedMlp.infer_batch(deploy(gpu_batched), inputs)
        for one, two in zip(serial, batched):
            assert one.score == two.score
            assert [d.cycles for d in one.dispatches] == [
                d.cycles for d in two.dispatches
            ]
        assert np.array_equal(
            gpu_serial.global_memory._words, gpu_batched.global_memory._words
        )


class TestBatchedLowering:
    def test_batch_below_one_rejected(self):
        kernel = assemble(_FLOAT_KERNEL)
        with pytest.raises(ValueError):
            compile_kernel(kernel, batch=0)

    def test_lds_store_declined_in_batch_mode(self):
        source = """
.kernel ldsw
.vgprs 4
    v_lshlrev_b32 v1, 2, v0
    v_mov_b32 v2, 7
    ds_write_b32 v1, v2
    s_endpgm
"""
        kernel = assemble(source)
        with pytest.raises(CompileUnsupported):
            compile_kernel(kernel, batch=2)

    def test_batched_executor_is_inspectable(self):
        kernel = assemble(_FLOAT_KERNEL)
        compiled = compile_kernel(kernel, batch=3)
        assert isinstance(compiled, CompiledKernel)
        assert compiled.batch == 3
        assert "def _run" in compiled.source
        assert "batchpath-k3" in compiled.filename
