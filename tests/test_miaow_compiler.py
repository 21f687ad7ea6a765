"""Trace-compiled fast path: bit-exact equivalence with the interpreter.

Every test here runs the same kernel on two freshly built GPUs — one
with the compiled fast path, one forced onto the per-instruction
interpreter — with replicated memory contents, and asserts that the
observable outcome is *identical*: result memory, DispatchResult
cycles, per-CU cycles, instruction counts, and (for faulting kernels)
the exception type, message, and partial instruction accounting.
"""

import numpy as np
import pytest

from repro.errors import GpuError, GpuMemoryError, IllegalInstructionError
from repro.miaow.assembler import assemble, float_bits
from repro.miaow.compiler import CompileUnsupported, compile_kernel
from repro.miaow.compute_unit import GpuTimings
from repro.miaow.coverage import CoverageCollector
from repro.miaow.gpu import EXECUTOR_CACHE_CAPACITY, Gpu
from repro.miaow.isa import WAVE_SIZE
from repro.obs import MetricsRegistry
import repro.miaow.gpu as gpu_module
import repro.ml.kernels as kernels_module
from repro.ml.elm import ExtremeLearningMachine
from repro.ml.features import PatternDictionary
from repro.ml.kernels import DeployedElm, DeployedLstm, DeployedMlp
from repro.ml.lstm import LstmModel
from repro.ml.mlp import MlpAutoencoder


def _random_words(rng, count):
    """Raw 32-bit patterns, salted with the nasty float encodings."""
    words = rng.integers(0, 1 << 32, size=count, dtype=np.uint64).astype(
        np.uint32
    )
    specials = np.array(
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
    words[: min(len(specials), count)] = specials[:count]
    return words


def run_pair(
    source,
    num_workgroups=1,
    args=(),
    preload_global=None,
    preload_lds=None,
    num_cus=2,
    timings=None,
):
    """Dispatch on compiled and interpreted engines; assert identical."""
    kernel = assemble(source)
    outcomes = []
    for fast in (True, False):
        gpu = Gpu(num_cus=num_cus, fast_path=fast, timings=timings)
        if preload_global is not None:
            gpu.global_memory.write_block(0, preload_global)
        if preload_lds is not None:
            gpu.write_lds_all(0, preload_lds)
        result = gpu.dispatch(kernel, num_workgroups, args)
        outcomes.append((gpu, result))
    (gpu_fast, fast_result), (gpu_slow, slow_result) = outcomes
    assert fast_result.cycles == slow_result.cycles
    assert fast_result.instructions == slow_result.instructions
    assert fast_result.per_cu_cycles == slow_result.per_cu_cycles
    assert np.array_equal(
        gpu_fast.global_memory._words, gpu_slow.global_memory._words
    )
    for cu_fast, cu_slow in zip(
        gpu_fast.compute_units, gpu_slow.compute_units
    ):
        assert np.array_equal(
            cu_fast.local_memory._words, cu_slow.local_memory._words
        )
        assert cu_fast.total_cycles == cu_slow.total_cycles
        assert cu_fast.total_instructions == cu_slow.total_instructions
    return fast_result


# ---------------------------------------------------------------------------
# Per-opcode randomized equivalence
# ---------------------------------------------------------------------------

#: Kernel scaffold: v1/v2 hold random words, the body leaves its result
#: in v3, which is stored to the out buffer (s4).
_OP_SCAFFOLD = """
.kernel optest
.vgprs 8
    v_lshlrev_b32 v5, 2, v0
    v_add_i32 v6, v5, s2
    flat_load_dword v1, v6
    v_add_i32 v6, v5, s3
    flat_load_dword v2, v6
    v_mov_b32 v3, v2
{body}
    v_add_i32 v6, v5, s4
    flat_store_dword v6, v3
    s_endpgm
"""

#: One body per VALU emitter, with vector-vector, vector-scalar, and
#: literal operand shapes (s5/s6 carry random scalar bit patterns).
_VALU_BODIES = [
    "    v_mov_b32 v3, v1",
    "    v_mov_b32 v3, s5",
    "    v_add_f32 v3, v1, v2",
    "    v_add_f32 v3, v1, s5",
    "    v_sub_f32 v3, v1, 1.5",
    "    v_mul_f32 v3, v1, v2",
    "    v_mul_f32 v3, s5, s6",
    "    v_max_f32 v3, v1, v2",
    "    v_min_f32 v3, v1, s5",
    "    v_mac_f32 v3, v1, v2",
    "    v_mac_f32 v3, v1, s5",
    "    v_mac_f32 v3, s5, s6",
    "    v_fma_f32 v3, v1, v2, v1",
    "    v_fma_f32 v3, s5, s6, v2",
    "    v_fma_f32 v3, s5, s6, s5",
    "    v_add_i32 v3, v1, v2",
    "    v_sub_i32 v3, v1, s5",
    "    v_mul_lo_i32 v3, v1, v2",
    "    v_mul_hi_u32 v3, v1, v2",
    "    v_and_b32 v3, v1, v2",
    "    v_or_b32 v3, v1, s5",
    "    v_xor_b32 v3, v1, v2",
    "    v_lshlrev_b32 v3, v1, v2",
    "    v_lshlrev_b32 v3, 3, v1",
    "    v_lshrrev_b32 v3, v1, v2",
    "    v_ashrrev_i32 v3, v1, v2",
    "    v_ashrrev_i32 v3, 7, v1",
    "    v_min_i32 v3, v1, v2",
    "    v_max_i32 v3, v1, s5",
    "    v_bfe_u32 v3, v1, v2, v2",
    "    v_bfe_u32 v3, v1, 5, 11",
    "    v_bfi_b32 v3, v1, v2, v3",
    "    v_cvt_f32_u32 v3, v1",
    "    v_cvt_f32_i32 v3, v1",
    "    v_cvt_u32_f32 v3, v1",
    "    v_cvt_i32_f32 v3, v1",
    "    v_trunc_f32 v3, v1",
    "    v_floor_f32 v3, v1",
    "    v_exp_f32 v3, v1",
    "    v_log_f32 v3, v1",
    "    v_rcp_f32 v3, v1",
    "    v_rsq_f32 v3, v1",
    "    v_sqrt_f32 v3, v1",
    "    v_cmp_eq_f32 v1, v2\n    v_cndmask_b32 v3, v1, v2",
    "    v_cmp_lt_f32 v1, s5\n    v_cndmask_b32 v3, v1, v2",
    "    v_cmp_gt_f32 v1, v2\n    v_cndmask_b32 v3, v1, v2",
    "    v_cmp_le_f32 v1, v2\n    v_cndmask_b32 v3, v1, v2",
    "    v_cmp_ge_f32 v1, v2\n    v_cndmask_b32 v3, v1, v2",
    "    v_cmp_eq_i32 v1, v2\n    v_cndmask_b32 v3, v1, v2",
    "    v_cmp_lt_i32 v1, 12\n    v_cndmask_b32 v3, v1, v2",
    "    v_cmp_gt_i32 v1, s5\n    v_cndmask_b32 v3, v1, v2",
    "    v_readfirstlane_b32 s10, v1\n    v_mov_b32 v3, s10",
]

#: Pure-scalar bodies: the SALU result lands in s10 -> v3.
_SALU_BODIES = [
    "    s_add_i32 s10, s5, s6",
    "    s_sub_i32 s10, s5, s6",
    "    s_mul_i32 s10, s5, s6",
    "    s_and_b32 s10, s5, s6",
    "    s_or_b32 s10, s5, s6",
    "    s_xor_b32 s10, s5, 0xdeadbeef",
    "    s_lshl_b32 s10, s5, 7",
    "    s_lshr_b32 s10, s5, s6",
    "    s_ashr_i32 s10, s5, 3",
    "    s_min_i32 s10, s5, s6",
    "    s_max_i32 s10, s5, s6",
    "    s_not_b32 s10, s5",
    "    s_bcnt1_i32_b32 s10, s5",
    "    s_ff1_i32_b32 s10, s5",
    "    s_ff1_i32_b32 s10, 0",
    "    s_cmp_eq_i32 s5, s6\n    s_cbranch_scc1 hit\n"
    "    s_mov_b32 s10, 1\n    s_branch done\nhit:\n"
    "    s_mov_b32 s10, 2\ndone:",
    "    s_cmp_lt_i32 s5, s6\n    s_cbranch_scc0 miss\n"
    "    s_mov_b32 s10, 3\n    s_branch done\nmiss:\n"
    "    s_mov_b32 s10, 4\ndone:",
    "    s_cmp_le_i32 s5, s6\n    s_mov_b32 s10, scc",
    "    s_cmp_gt_i32 s5, s6\n    s_mov_b32 s10, scc",
    "    s_cmp_ge_i32 s5, s6\n    s_mov_b32 s10, scc",
    "    s_cmp_lg_i32 s5, s6\n    s_mov_b32 s10, scc",
    "    s_load_dword s10, s2, 8",
]


class TestOpcodeEquivalence:
    @pytest.mark.parametrize("body", _VALU_BODIES)
    def test_valu(self, body):
        rng = np.random.default_rng(hash(body) % (1 << 32))
        words = _random_words(rng, 3 * WAVE_SIZE)
        scalars = [int(w) for w in _random_words(rng, 2)]
        run_pair(
            _OP_SCAFFOLD.format(body=body),
            args=[0, 4 * WAVE_SIZE, 8 * WAVE_SIZE] + scalars,
            preload_global=words,
        )

    @pytest.mark.parametrize("body", _SALU_BODIES)
    def test_salu(self, body):
        rng = np.random.default_rng(hash(body) % (1 << 32))
        words = _random_words(rng, 3 * WAVE_SIZE)
        scalars = [int(w) for w in _random_words(rng, 2)]
        source = _OP_SCAFFOLD.format(
            body=body + "\n    v_mov_b32 v3, s10"
        )
        run_pair(
            source,
            args=[0, 4 * WAVE_SIZE, 8 * WAVE_SIZE] + scalars,
            preload_global=words,
        )

    @pytest.mark.parametrize(
        "body",
        [
            "    ds_read_b32 v3, v5",
            "    ds_write_b32 v5, v1\n    ds_read_b32 v3, v5",
            "    ds_add_u32 v5, v1\n    ds_read_b32 v3, v5",
            "    ds_swizzle_b32 v3, v1, 17",
            # runtime (SGPR) swizzle mask: compiles through the dynamic
            # offset branch; the interpreter's read_scalar accepts it
            "    s_mov_b32 s5, 21\n    ds_swizzle_b32 v3, v1, s5",
        ],
    )
    def test_lds(self, body):
        rng = np.random.default_rng(hash(body) % (1 << 32))
        words = _random_words(rng, 3 * WAVE_SIZE)
        lds = _random_words(rng, WAVE_SIZE)
        # v2 must stay a legal swizzle/offset operand: mask to 0..31.
        source = _OP_SCAFFOLD.format(
            body="    v_and_b32 v2, v2, 31\n" + body
        )
        run_pair(
            source,
            args=[0, 4 * WAVE_SIZE, 8 * WAVE_SIZE],
            preload_global=words,
            preload_lds=lds,
        )

    def test_nondefault_timings_match(self):
        timings = GpuTimings(issue=2, valu=7, vtrans=13, lds=3, vmem=11)
        rng = np.random.default_rng(99)
        words = _random_words(rng, 3 * WAVE_SIZE)
        run_pair(
            _OP_SCAFFOLD.format(body="    v_exp_f32 v3, v1"),
            args=[0, 4 * WAVE_SIZE, 8 * WAVE_SIZE],
            preload_global=words,
            timings=timings,
        )


# ---------------------------------------------------------------------------
# Divergence (EXEC manipulation) — the shipped kernels never diverge,
# so these synthetic kernels are the only coverage of masked writes.
# ---------------------------------------------------------------------------

class TestDivergenceEquivalence:
    def test_cmpx_masked_writes(self):
        source = """
.kernel cmpx
.vgprs 8
    v_mov_b32 v1, 100
    v_cmpx_lt_i32 v0, 40
    v_add_i32 v1, v0, 1
    v_cmpx_lt_i32 v0, 10
    v_mul_lo_i32 v1, v1, 3
    v_lshlrev_b32 v5, 2, v0
    v_add_i32 v5, v5, s2
    flat_store_dword v5, v1
    s_endpgm
"""
        run_pair(source, args=[0])

    def test_saveexec_restore(self):
        source = """
.kernel saveexec
.vgprs 8
    s_saveexec_b64 s10
    v_cmpx_ge_i32 v0, 32
    v_mov_b32 v1, 7
    s_mov_exec_b64 s10
    v_add_i32 v1, v1, v0
    v_lshlrev_b32 v5, 2, v0
    v_add_i32 v5, v5, s2
    flat_store_dword v5, v1
    s_endpgm
"""
        run_pair(source, args=[0])

    def test_execz_branch_taken_and_not(self):
        source = """
.kernel execz
.vgprs 8
    s_saveexec_b64 s10
    v_cmpx_lt_i32 v0, s3
    s_cbranch_execz empty
    v_mov_b32 v1, 1
    s_branch join
empty:
    v_mov_b32 v1, 2
join:
    s_mov_exec_b64 s10
    v_lshlrev_b32 v5, 2, v0
    v_add_i32 v5, v5, s2
    flat_store_dword v5, v1
    s_endpgm
"""
        run_pair(source, args=[0, 0])   # empty mask -> branch taken
        run_pair(source, args=[0, 10])  # live lanes -> fall through

    def test_vccz_vccnz_branches(self):
        source = """
.kernel vccbr
.vgprs 8
    v_cmp_lt_i32 v0, s3
    s_cbranch_vccz none
    s_cbranch_vccnz some
    s_branch join
none:
    v_mov_b32 v1, 11
    s_branch join
some:
    v_mov_b32 v1, 22
join:
    v_lshlrev_b32 v5, 2, v0
    v_add_i32 v5, v5, s2
    flat_store_dword v5, v1
    s_endpgm
"""
        run_pair(source, args=[0, 0])
        run_pair(source, args=[0, 5])

    def test_loop_with_divergent_body(self):
        source = """
.kernel divloop
.vgprs 8
    v_mov_b32 v1, 0.0
    s_mov_b32 s10, 0
loop:
    s_saveexec_b64 s12
    v_cmpx_lt_i32 v0, s10
    v_add_f32 v1, v1, 1.0
    s_mov_exec_b64 s12
    s_add_i32 s10, s10, 8
    s_cmp_lt_i32 s10, 64
    s_cbranch_scc1 loop
    v_lshlrev_b32 v5, 2, v0
    v_add_i32 v5, v5, s2
    flat_store_dword v5, v1
    s_endpgm
"""
        run_pair(source, args=[0])


# ---------------------------------------------------------------------------
# Shipped model kernels end to end
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def demo_models():
    rng = np.random.default_rng(7)
    windows = rng.integers(0, 12, size=(120, 16))
    dictionary = PatternDictionary(n=2, capacity=63, unseen_gain=2)
    dictionary.fit(windows)
    elm = ExtremeLearningMachine(
        input_dim=dictionary.size, hidden_dim=64, seed=7
    ).fit(dictionary.features(windows))
    lstm = LstmModel(vocabulary_size=24, hidden_size=8, seed=7)
    mlp = MlpAutoencoder(input_dim=dictionary.size, hidden_dim=8)
    mlp.fit(
        rng.random((50, dictionary.size)).astype(np.float32), epochs=2
    )
    return {
        "rng": rng,
        "windows": windows,
        "dictionary": dictionary,
        "elm": elm,
        "lstm": lstm,
        "mlp": mlp,
    }


def _paired(deploy_factory):
    fast, slow = Gpu(num_cus=5), Gpu(num_cus=5, fast_path=False)
    df, ds = deploy_factory(), deploy_factory()
    df.load(fast)
    ds.load(slow)
    return df, ds


class TestShippedKernels:
    def test_elm_bit_identical(self, demo_models):
        m = demo_models
        df, ds = _paired(
            lambda: DeployedElm(m["elm"], m["dictionary"], 16)
        )
        for window in m["windows"][:12]:
            rf, rs = df.infer(window), ds.infer(window)
            assert repr(rf.score) == repr(rs.score)
            assert rf.dispatches[0].cycles == rs.dispatches[0].cycles
            assert (
                rf.dispatches[0].instructions
                == rs.dispatches[0].instructions
            )
            assert (
                rf.dispatches[0].per_cu_cycles
                == rs.dispatches[0].per_cu_cycles
            )

    def test_lstm_bit_identical_with_state(self, demo_models):
        m = demo_models
        df, ds = _paired(lambda: DeployedLstm(m["lstm"]))
        for branch in m["rng"].integers(0, 24, size=24):
            rf, rs = df.infer(int(branch)), ds.infer(int(branch))
            assert repr(rf.score) == repr(rs.score)
            for dispatch_f, dispatch_s in zip(rf.dispatches, rs.dispatches):
                assert dispatch_f.cycles == dispatch_s.cycles
                assert dispatch_f.instructions == dispatch_s.instructions
        for state_f, state_s in zip(df.export_state(), ds.export_state()):
            assert state_f.tobytes() == state_s.tobytes()

    def test_mlp_bit_identical(self, demo_models):
        m = demo_models
        df, ds = _paired(lambda: DeployedMlp(m["mlp"]))
        features = m["rng"].random(
            (8, m["dictionary"].size)
        ).astype(np.float32)
        for row in features:
            rf, rs = df.infer(row), ds.infer(row)
            assert repr(rf.score) == repr(rs.score)
            assert rf.total_cycles == rs.total_cycles


# ---------------------------------------------------------------------------
# Fault parity
# ---------------------------------------------------------------------------

def _fault_pair(source, args=()):
    """Dispatch a faulting kernel on both engines; return the errors
    and the per-CU instruction counters at the point of the fault."""
    kernel = assemble(source)
    seen = []
    for fast in (True, False):
        gpu = Gpu(num_cus=1, fast_path=fast)
        with pytest.raises(Exception) as info:
            gpu.dispatch(kernel, 1, args)
        seen.append(
            (info.value, gpu.compute_units[0].total_instructions)
        )
    return seen


class TestFaultParity:
    def test_out_of_range_lane_load(self):
        source = """
.kernel oob
.vgprs 8
    v_mov_b32 v1, 1
    v_mov_b32 v2, 0x7ffffff0
    flat_load_dword v3, v2
    s_endpgm
"""
        (err_fast, n_fast), (err_slow, n_slow) = _fault_pair(source)
        assert isinstance(err_fast, GpuMemoryError)
        assert str(err_fast) == str(err_slow)
        assert n_fast == n_slow

    def test_unaligned_lane_store(self):
        source = """
.kernel misalign
.vgprs 8
    v_mov_b32 v2, 2
    flat_store_dword v2, v0
    s_endpgm
"""
        (err_fast, n_fast), (err_slow, n_slow) = _fault_pair(source)
        assert isinstance(err_fast, GpuMemoryError)
        assert str(err_fast) == str(err_slow)
        assert n_fast == n_slow

    def test_lds_out_of_range(self):
        source = """
.kernel ldsoob
.vgprs 8
    v_mov_b32 v2, 0x00ffff00
    ds_read_b32 v3, v2
    s_endpgm
"""
        (err_fast, n_fast), (err_slow, n_slow) = _fault_pair(source)
        assert isinstance(err_fast, GpuMemoryError)
        assert str(err_fast) == str(err_slow)
        assert n_fast == n_slow

    def test_trimmed_opcode_same_error(self):
        source = """
.kernel trimmed
.vgprs 8
    v_add_f32 v1, v0, v0
    v_exp_f32 v1, v1
    s_endpgm
"""
        kernel = assemble(source)
        allowed = {"v_add_f32", "s_endpgm"}
        seen = []
        for fast in (True, False):
            gpu = Gpu(num_cus=1, fast_path=fast, allowed_ops=allowed)
            with pytest.raises(IllegalInstructionError) as info:
                gpu.dispatch(kernel, 1)
            seen.append(
                (str(info.value), gpu.compute_units[0].total_instructions)
            )
        assert seen[0] == seen[1]

    def test_runaway_loop_same_error(self):
        source = """
.kernel forever
.vgprs 4
loop:
    s_add_i32 s10, s10, 1
    s_branch loop
    s_endpgm
"""
        kernel = assemble(source)
        messages = []
        counts = []
        for fast in (True, False):
            gpu = Gpu(num_cus=1, fast_path=fast)
            with pytest.raises(GpuError) as info:
                gpu.dispatch(kernel, 1)
            messages.append(str(info.value))
            counts.append(
                [cu.total_instructions for cu in gpu.compute_units]
            )
        assert messages[0] == messages[1]
        assert "runaway loop" in messages[0]
        assert counts[0] == counts[1]

    @pytest.mark.parametrize("members", [1, 3])
    def test_store_then_fault_leaves_the_interpreters_state(self, members):
        """A compiled run that stores and then faults is rolled back and
        replayed: memory, counters and the exception are the
        interpreter's, alone and as the faulting member of a fused
        batch."""
        # each workgroup adds s4 to the member's words in place, so a
        # replay over memory that was not rolled back would add twice
        source = """
.kernel storefault
.vgprs 8
    v_lshlrev_b32 v5, 2, v0
    v_add_i32 v6, v5, s2
    flat_load_dword v1, v6
    v_add_i32 v1, v1, s4
    flat_store_dword v6, v1
    s_mul_i32 s10, s0, s3
    v_add_i32 v6, v5, s10
    flat_load_dword v2, v6
    v_add_i32 v1, v1, v2
    v_add_i32 v6, v5, s2
    flat_store_dword v6, v1
    s_endpgm
"""
        kernel = assemble(source)
        words = _random_words(np.random.default_rng(11), 3 * WAVE_SIZE)
        # workgroup 1 (on the second CU) loads far out of device
        # memory, after workgroup 0 has completed on the first
        bad = 1 << 30
        args_lists = [
            [member * 4 * WAVE_SIZE, 0, 0, 7 + member]
            for member in range(members)
        ]
        args_lists[-1][1] = bad
        outcomes = []
        for fast in (True, False):
            gpu = Gpu(num_cus=2, fast_path=fast)
            gpu.global_memory.write_block(0, words)
            with pytest.raises(GpuMemoryError) as info:
                if fast:
                    gpu.dispatch_batch(kernel, 2, args_lists)
                else:
                    for args in args_lists:
                        gpu.dispatch(kernel, 2, args)
            outcomes.append((gpu, type(info.value), str(info.value)))
        (gpu_fast, *error_fast), (gpu_slow, *error_slow) = outcomes
        assert error_fast == error_slow
        assert np.array_equal(
            gpu_fast.global_memory._words, gpu_slow.global_memory._words
        )
        # the faulting member's first store landed before the fault
        assert not np.array_equal(gpu_slow.global_memory._words[
            (members - 1) * WAVE_SIZE:members * WAVE_SIZE
        ], words[(members - 1) * WAVE_SIZE:members * WAVE_SIZE])
        for cu_fast, cu_slow in zip(
            gpu_fast.compute_units, gpu_slow.compute_units
        ):
            assert cu_fast.total_cycles == cu_slow.total_cycles
            assert cu_fast.total_instructions == cu_slow.total_instructions


# ---------------------------------------------------------------------------
# Fallback routing and caching
# ---------------------------------------------------------------------------

_TRIVIAL = """
.kernel trivial
.vgprs 4
    v_add_i32 v1, v0, 1
    s_endpgm
"""


class TestFallbacks:
    def _counters(self, registry):
        return registry.snapshot()["counters"]

    def test_disabled_routes_to_interpreter(self):
        registry = MetricsRegistry()
        gpu = Gpu(fast_path=False, metrics=registry)
        gpu.dispatch(assemble(_TRIVIAL), 1)
        counters = self._counters(registry)
        assert counters["miaow.fastpath.interpreted"] == 1
        assert counters["miaow.fastpath.fallback.disabled"] == 1
        assert counters.get("miaow.fastpath.dispatches", 0) == 0
        assert gpu.fastpath_stats()["compiled_cached"] == 0

    def test_coverage_routes_to_interpreter(self):
        registry = MetricsRegistry()
        gpu = Gpu(coverage=CoverageCollector(), metrics=registry)
        gpu.dispatch(assemble(_TRIVIAL), 1)
        counters = self._counters(registry)
        assert counters["miaow.fastpath.fallback.coverage"] == 1

    def test_occupancy_routes_to_interpreter(self):
        registry = MetricsRegistry()
        gpu = Gpu(max_resident=2, metrics=registry)
        gpu.dispatch(assemble(_TRIVIAL), 1)
        counters = self._counters(registry)
        assert counters["miaow.fastpath.fallback.occupancy"] == 1

    def test_unsupported_negative_cached(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise CompileUnsupported("synthetic decline")

        monkeypatch.setattr(gpu_module, "compile_kernel", refuse)
        registry = MetricsRegistry()
        gpu = Gpu(metrics=registry)
        kernel = assemble(_TRIVIAL)
        gpu.dispatch(kernel, 1)
        gpu.dispatch(kernel, 1)
        counters = self._counters(registry)
        assert counters["miaow.fastpath.fallback.unsupported"] == 2
        # one miss (the failed compile), then a negative-cache hit
        assert counters["miaow.compile.misses"] == 1
        assert counters["miaow.compile.hits"] == 1
        assert gpu.fastpath_stats()["unsupported_cached"] == 1

    def test_compiled_path_counts_and_caches(self):
        registry = MetricsRegistry()
        gpu = Gpu(metrics=registry)
        kernel = assemble(_TRIVIAL)
        for _ in range(3):
            gpu.dispatch(kernel, 4)
        counters = self._counters(registry)
        assert counters["miaow.fastpath.dispatches"] == 3
        assert counters["miaow.compile.misses"] == 1
        assert counters["miaow.compile.hits"] == 2
        assert gpu.fastpath_stats()["compiled_cached"] == 1
        assert gpu.fastpath_stats()["plans_cached"] == 1

    def test_lru_eviction(self):
        registry = MetricsRegistry()
        gpu = Gpu(metrics=registry)
        for index in range(EXECUTOR_CACHE_CAPACITY + 3):
            source = _TRIVIAL.replace("trivial", f"trivial{index}")
            gpu.dispatch(assemble(source), 1)
        counters = self._counters(registry)
        assert counters["miaow.compile.evictions"] == 3
        stats = gpu.fastpath_stats()
        assert stats["compiled_cached"] == EXECUTOR_CACHE_CAPACITY


# ---------------------------------------------------------------------------
# Kernel-assembly memoization (repro.ml.kernels)
# ---------------------------------------------------------------------------

class TestKernelMemoization:
    def test_second_deploy_never_assembles(self, monkeypatch, demo_models):
        calls = []
        original = kernels_module.assemble

        def counting_assemble(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(kernels_module, "assemble", counting_assemble)
        kernels_module.clear_kernel_cache()
        first = DeployedLstm(demo_models["lstm"])
        assert len(calls) == 3  # score/gates/update, once each
        second = DeployedLstm(demo_models["lstm"])
        assert len(calls) == 3  # zero new assembles on the second deploy
        for name in ("score", "gates", "update"):
            assert first.kernels[name] is second.kernels[name]

    def test_cache_stats_and_clear(self):
        kernels_module.clear_kernel_cache()
        kernels_module.build_elm_kernel()
        kernels_module.build_elm_kernel()
        stats = kernels_module.kernel_cache_stats()
        assert stats["cached"] == 1
        assert stats["hits"] >= 1

    def test_digest_stable_across_builds(self):
        kernels_module.clear_kernel_cache()
        first = kernels_module.build_elm_kernel().content_digest()
        kernels_module.clear_kernel_cache()
        second = kernels_module.build_elm_kernel().content_digest()
        assert first == second


# ---------------------------------------------------------------------------
# compile_kernel surface
# ---------------------------------------------------------------------------

class TestCompileKernel:
    def test_declines_vgpr_overflow(self):
        source = """
.kernel tight
.vgprs 2
    v_mov_b32 v5, 0
    s_endpgm
"""
        with pytest.raises(CompileUnsupported):
            compile_kernel(assemble(source))

    def test_compiled_source_is_inspectable(self):
        compiled = compile_kernel(assemble(_TRIVIAL))
        assert "def _run" in compiled.source
        assert compiled.filename.startswith("<miaow-fastpath:trivial:")

    @pytest.mark.parametrize("op", ["ds_write_b32", "ds_add_u32"])
    def test_declines_lds_writes_at_every_width(self, op):
        # a fault rollback restores global memory only, so no compiled
        # run may write LDS
        source = f"""
.kernel ldsw
.vgprs 4
    v_lshlrev_b32 v1, 2, v0
    {op} v1, v0
    s_endpgm
"""
        for batch in (1, 2):
            with pytest.raises(CompileUnsupported):
                compile_kernel(assemble(source), batch=batch)

    def test_batch_of_one_emits_no_fused_forms(self):
        source = _OP_SCAFFOLD.format(
            body="    v_fma_f32 v3, s5, s6, v2\n"
            "    s_load_dword s10, s2, 8\n"
            "    v_cmp_lt_i32 v1, s5\n"
            "    s_cbranch_vccz done\n"
            "    v_mov_b32 v3, s10\n"
            "done:"
        )
        single = compile_kernel(assemble(source)).source
        fused = compile_kernel(assemble(source), batch=2).source
        for helper in ("_vxu(", "_vxf(", "_vxi(", "_uany(", "_sld("):
            assert helper not in single
        assert "_vxf(" in fused and "_uany(" in fused and "_sld(" in fused
