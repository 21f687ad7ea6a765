"""Compile trained models into MIAOW kernels (the deployment path).

The inference engine the paper runs on MCM is "existing ML models
designed to run on a GPGPU"; here each trained numpy model is lowered
to Southern-Islands-subset assembly:

- **ELM** — one kernel, ``H/64`` workgroups.  Each lane evaluates one
  hidden neuron: sparse gather of the pattern-dictionary weight
  columns from device memory, sigmoid via ``v_exp_f32`` (base-2), the
  diagonal-Mahalanobis term from LDS statistics, then a butterfly
  (``ds_swizzle_b32``) tree reduction; each workgroup stores one
  partial score.
- **LSTM** — three kernels per inference, matching the streaming
  semantics (score the observed branch with the *previous* prediction,
  then advance the state):

  1. ``lstm_score`` (1 WG): per-lane output logits + softmax reduce +
     surprisal of the observed ID;
  2. ``lstm_gates`` (4 WGs, one per gate): gate pre-activations from
     LDS weights, sigmoid/tanh;
  3. ``lstm_update`` (1 WG): cell/hidden update in device memory.

  The 4-way gate parallelism is what a 5-CU ML-MIAOW exploits and a
  1-CU MIAOW serializes — the mechanism behind Fig. 8's LSTM speedup.

Each deployment implements :class:`DeployedModel`, whose
``infer_batch`` is the only code that launches the model's kernels; a
single inference is a batch of one.

Model weights live in per-CU local memory ("ML-MIAOW has in its local
memory the model of the target program"); recurrent state lives in
shared device memory so it survives workgroup-to-CU reassignment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.errors import KernelLaunchError, ModelError
from repro.miaow.assembler import Kernel, assemble, float_bits
from repro.miaow.gpu import DispatchResult, Gpu
from repro.miaow.runtime import Buffer, GpuRuntime
from repro.ml.elm import ExtremeLearningMachine
from repro.ml.features import PatternDictionary
from repro.ml.lstm import LstmModel

LOG2E = 1.4426950408889634
LN2 = 0.6931471805599453

#: LSTM vocabulary is padded to exactly one wavefront so every lane
#: owns one output row; padded rows get a large negative output bias.
LSTM_DEPLOY_VOCAB = 64
PAD_LOGIT_BIAS = -30.0

_REDUCE_STRIDES = (32, 16, 8, 4, 2, 1)


def _butterfly(op: str, value_reg: str, scratch_reg: str) -> str:
    """Full-wave butterfly reduction; leaves the result in every lane."""
    lines = []
    for stride in _REDUCE_STRIDES:
        lines.append(f"    ds_swizzle_b32 {scratch_reg}, {value_reg}, {stride}")
        lines.append(f"    {op} {value_reg}, {value_reg}, {scratch_reg}")
    return "\n".join(lines)


_SIGMOID = """\
    v_mul_f32 {r}, {r}, 1.4426950408889634
    v_sub_f32 {r}, 0.0, {r}
    v_exp_f32 {r}, {r}
    v_add_f32 {r}, {r}, 1.0
    v_rcp_f32 {r}, {r}"""

#: tanh(x) = (e^{2x} - 1) / (e^{2x} + 1); the input is clamped to
#: +/-15 first or e^{2x} overflows to inf and (inf-1)*rcp(inf+1) is
#: NaN on the hardware datapath exactly as it is in float32 numpy.
TANH_CLAMP = 15.0

_TANH = """\
    v_max_f32 {r}, {r}, -15.0
    v_min_f32 {r}, {r}, 15.0
    v_mul_f32 {r}, {r}, 2.8853900817779268
    v_exp_f32 {r}, {r}
    v_sub_f32 {t}, {r}, 1.0
    v_add_f32 {r}, {r}, 1.0
    v_rcp_f32 {r}, {r}
    v_mul_f32 {r}, {t}, {r}"""


# ---------------------------------------------------------------------------
# Assembly memoization
# ---------------------------------------------------------------------------
#
# Every kernel below is shape-independent (sizes arrive as scalar
# arguments), so the assembled Kernel object is a pure function of its
# source text.  Deployments share one cached instance per kernel: the
# second DeployedElm/DeployedLstm/DeployedMlp never re-runs the
# assembler, and — because Kernel.content_digest() is memoized on the
# instance — every Gpu's compiled-kernel cache keys off a digest that
# is computed exactly once per process.  Kernels are immutable once
# assembled (nothing in the engine mutates them), so sharing is safe.

_KERNEL_CACHE: Dict[str, Kernel] = {}
_KERNEL_CACHE_STATS = {"hits": 0, "assembles": 0}


def _place_lds(gpu: Gpu, blocks) -> Dict[str, int]:
    """Place named f32 blocks back to back as one LDS image; returns
    each block's byte offset (see :meth:`Gpu.place_lds_image`)."""
    arrays = [np.asarray(data, dtype=np.float32).ravel() for _, data in blocks]
    base = gpu.place_lds_image(np.concatenate(arrays))
    offsets: Dict[str, int] = {}
    for (name, _), data in zip(blocks, arrays):
        offsets[name] = base
        base += data.size * 4
    return offsets


def _cached_kernel(name: str, source: str) -> Kernel:
    kernel = _KERNEL_CACHE.get(name)
    if kernel is None:
        _KERNEL_CACHE_STATS["assembles"] += 1
        kernel = assemble(source)
        _KERNEL_CACHE[name] = kernel
    else:
        _KERNEL_CACHE_STATS["hits"] += 1
    return kernel


def clear_kernel_cache() -> None:
    """Drop memoized kernels (tests; new builds re-assemble lazily)."""
    _KERNEL_CACHE.clear()


def kernel_cache_stats() -> Dict[str, int]:
    """Counters for the memoized assembler (hits / assembles)."""
    return dict(_KERNEL_CACHE_STATS, cached=len(_KERNEL_CACHE))


# ---------------------------------------------------------------------------
# Deployment protocol
# ---------------------------------------------------------------------------
#
# K tenants that deployed the *same* model family and shape onto one
# shared engine are served by one fused dispatch per kernel: member
# buffers are disjoint by construction (each deployment allocated its
# own device buffers) and LDS holds shared read-only model data, so the
# fused run is bit-identical to serving the members one at a time —
# the dispatcher enforces that contract (see Gpu.dispatch_batch).
# Per-member quantities (buffer addresses, branch ids, 1/M bits) ride
# along as varying scalar arguments.


@dataclass
class KernelResult:
    """One inference as the engine ran it: the score read back and
    every dispatch of the model's kernel chain, in launch order."""

    score: float
    dispatches: List[DispatchResult]

    @property
    def total_cycles(self) -> int:
        return sum(d.cycles for d in self.dispatches)


class _StatelessReference:
    """Float32 twin of a stateless model: a scoring callable, no state."""

    def __init__(self, score: Callable[[Any], float]) -> None:
        self.infer = score

    def export_state(self) -> None:
        return None

    def restore_state(self, state) -> None:
        pass


class DeployedModel:
    """A trained model bound to a GPU engine.

    The protocol the MCM driver runs every model through:

    - ``kind`` names the MCM protocol conversion (``ProtocolConverter``);
    - ``infer_batch(members, inputs)`` is the only code that launches
      the model's kernels, for K converted inputs; ``infer`` is a batch
      of one, which ``Gpu.dispatch_batch`` runs on its executor for
      K = 1 (a fused launch of one member);
    - ``batch_key(converted)`` says which inferences may share a fused
      dispatch (equal keys fix the same kernel shapes and loop bounds);
    - ``warmup_input()`` is the typical input the driver measures the
      per-phase cycles with;
    - ``result_words`` is what the RX engine reads back;
    - ``make_reference()`` is the float32 twin calibrated mode scores
      with (``infer``, ``export_state``, ``restore_state``).

    Stateless models keep the no-op recurrent-state hooks below.
    """

    kind: str
    #: IDs the vector encoder collects per inference.
    window = 1
    #: Pattern dictionary the MCM converts ID windows with (ELM only).
    dictionary: Optional[PatternDictionary] = None
    #: Words the RX engine reads back per inference.
    result_words = 1
    #: True when the converted input's length is a kernel loop bound,
    #: so cycle counts are known only per :meth:`batch_key`.
    input_sets_phases = False

    _runtime: Optional[GpuRuntime] = None

    def infer(self, converted_input) -> KernelResult:
        """Run one inference: a batch of one."""
        return self.infer_batch([self], [converted_input])[0]

    def reset_state(self) -> None:
        pass

    def export_state(self):
        return None

    def restore_state(self, state) -> None:
        pass


def _shared_runtime(members, inputs, what: str) -> GpuRuntime:
    """Validate a batch: one input each, loaded, distinct members, one
    shared GPU."""
    if len(members) != len(inputs) or not members:
        raise KernelLaunchError(f"one {what} per batched member")
    runtime = members[0]._runtime
    if runtime is None:
        raise KernelLaunchError("batched inference before load()")
    seen = set()
    for member in members:
        if member._runtime is None:
            raise KernelLaunchError("batched inference before load()")
        if member._runtime.gpu is not runtime.gpu:
            raise KernelLaunchError("batched members must share one GPU")
        if id(member) in seen:
            # the same deployment twice would alias input buffers
            raise KernelLaunchError("batched members must be distinct")
        seen.add(id(member))
    return runtime


# ---------------------------------------------------------------------------
# ELM deployment
# ---------------------------------------------------------------------------

_ELM_SCORE_SRC = f"""
.kernel elm_score
.vgprs 10
    s_mov_b32 s12, 64
    s_mul_i32 s12, s0, s12
    v_mov_b32 v1, s12
    v_add_i32 v1, v1, v0            ; neuron index h
    v_lshlrev_b32 v8, 2, v1         ; h*4 (per-lane byte offset)
    v_mov_b32 v2, 0.0               ; accumulator
    s_mov_b32 s13, 0                ; j
    s_mov_b32 s14, 0                ; input byte offset
elm_loop:
    s_load_dword s15, s3, s14       ; pattern index idx_j
    s_mul_i32 s15, s15, s6          ; idx*H
    s_lshl_b32 s15, s15, 2
    s_add_i32 s15, s15, s2          ; column base address
    v_add_i32 v3, v8, s15
    flat_load_dword v4, v3          ; W[h, idx_j]
    v_add_f32 v2, v2, v4
    s_add_i32 s14, s14, 4
    s_add_i32 s13, s13, 1
    s_cmp_lt_i32 s13, s5
    s_cbranch_scc1 elm_loop
    v_mul_f32 v2, v2, s7            ; x 1/M
    v_lshlrev_b32 v3, 2, v1
    v_add_i32 v4, v3, s8
    ds_read_b32 v5, v4
    v_add_f32 v2, v2, v5            ; + bias
{_SIGMOID.format(r='v2')}
    v_add_i32 v4, v3, s9
    ds_read_b32 v5, v4
    v_sub_f32 v2, v2, v5            ; h - mean
    v_mul_f32 v2, v2, v2
    v_add_i32 v4, v3, s10
    ds_read_b32 v5, v4
    v_mul_f32 v2, v2, v5            ; * inv_var
{_butterfly('v_add_f32', 'v2', 'v6')}
    v_mov_b32 v7, s4
    s_lshl_b32 s16, s0, 2
    v_add_i32 v7, v7, s16
    flat_store_dword v7, v2         ; partial score for this WG
    s_endpgm
"""


def build_elm_kernel() -> Kernel:
    """The ELM scoring kernel (shape-independent; sizes are arguments).

    Args: s2=W base, s3=input base, s4=out base, s5=M (pattern count),
    s6=H, s7=1/M bits, s8/s9/s10 = LDS byte offsets of bias/mean/invvar.
    """
    return _cached_kernel("elm_score", _ELM_SCORE_SRC)


class DeployedElm(DeployedModel):
    """A trained ELM bound to a GPU engine."""

    kind = "elm"
    input_sets_phases = True

    def __init__(
        self,
        model: ExtremeLearningMachine,
        dictionary: PatternDictionary,
        window: int,
    ) -> None:
        if model.hidden_dim % 64:
            raise ModelError("deployed ELM hidden size must be 64-aligned")
        if model.input_dim != dictionary.size:
            raise ModelError(
                "ELM input dim must equal the pattern-dictionary size"
            )
        self.model = model
        self.dictionary = dictionary
        self.window = window
        self.num_workgroups = model.hidden_dim // 64
        self.result_words = self.num_workgroups
        self.positions = window - dictionary.n + 1
        self.kernel = build_elm_kernel()
        self._weights = model.export_weights()
        self._buffers: Dict[str, Buffer] = {}
        self._lds_offsets: Dict[str, int] = {}

    # -- load -------------------------------------------------------------

    def load(self, gpu: Gpu) -> None:
        """Write weights into device + local memory (model load time)."""
        runtime = GpuRuntime(gpu)
        w = self._weights
        h, d = self.model.hidden_dim, self.model.input_dim
        # W column-major by pattern index: element (idx*H + h).
        w_cols = np.ascontiguousarray(w.w_hidden.T, dtype=np.float32)
        w_buf = runtime.alloc_f32(h * d)
        runtime.write(w_buf, w_cols.ravel())
        input_buf = runtime.alloc(
            self.dictionary.max_indices(self.window) * 4
        )
        out_buf = runtime.alloc_f32(self.num_workgroups)
        # LDS: bias / mean / inv_var back to back.
        self._lds_offsets = _place_lds(
            gpu,
            [("bias", w.b_hidden), ("mean", w.mean), ("inv_var", w.inv_var)],
        )
        self._runtime = runtime
        self._buffers = {"w": w_buf, "input": input_buf, "out": out_buf}

    # -- inference ----------------------------------------------------------

    def infer(self, window_ids: np.ndarray) -> KernelResult:
        """Score one ID window on the GPU."""
        return self.infer_indices(self.dictionary.indices(window_ids))

    def infer_indices(self, indices: np.ndarray) -> KernelResult:
        """Score from already-converted pattern indices (the MCM path)."""
        return self.infer_batch([self], [indices])[0]

    @staticmethod
    def infer_batch(
        members: List["DeployedElm"],
        indices_lists: List[np.ndarray],
    ) -> List[KernelResult]:
        """Score K tenants' pattern-index windows in one fused dispatch.

        Members must share the model shape; the index count must also
        match because it feeds the scalar loop bound (a per-member count
        would diverge the fused control flow).
        """
        runtime = _shared_runtime(members, indices_lists, "index window")
        first = members[0]
        num_workgroups = first.num_workgroups
        count = len(indices_lists[0])
        args_lists = []
        for member, indices in zip(members, indices_lists):
            if (
                member.num_workgroups != num_workgroups
                or member.model.hidden_dim != first.model.hidden_dim
            ):
                raise KernelLaunchError(
                    "batched ELM members must share a shape"
                )
            if len(indices) != count:
                raise KernelLaunchError(
                    "batched ELM members must share the index count"
                )
            buffers, lds = member._buffers, member._lds_offsets
            runtime.write(
                buffers["input"], np.asarray(indices, dtype=np.uint32)
            )
            args_lists.append([
                buffers["w"], buffers["input"], buffers["out"], count,
                member.model.hidden_dim, float_bits(1.0 / member.positions),
                lds["bias"], lds["mean"], lds["inv_var"],
            ])
        dispatches = runtime.launch_batch(
            first.kernel, num_workgroups, args_lists
        )
        return [
            KernelResult(
                float(runtime.read_f32(member._buffers["out"]).sum()),
                [dispatch],
            )
            for member, dispatch in zip(members, dispatches)
        ]

    def batch_key(self, indices: np.ndarray) -> Tuple:
        # The index count feeds the kernel's scalar loop bound.
        return (
            "elm",
            self.model.hidden_dim,
            self.num_workgroups,
            len(np.asarray(indices)),
        )

    def warmup_input(self) -> np.ndarray:
        """A typical all-in-dictionary window (M = positions): normal
        traffic gathers one weight column per n-gram position, while
        anomalous windows add a few unseen-bin repeats."""
        return np.ones(self.positions, dtype=np.int64)

    # -- float32 software reference ------------------------------------------

    def reference_score(self, window_ids: np.ndarray) -> float:
        """Float32 software reference the GPU result must match."""
        features = self.dictionary.features(
            np.asarray(window_ids)[None, :]
        )
        return float(self.model.score_mahalanobis_f32(features)[0])

    def _reference_indices_score(self, indices: np.ndarray) -> float:
        """:meth:`reference_score` from converted pattern indices."""
        features = np.zeros((1, self.dictionary.size), dtype=np.float32)
        for index in np.asarray(indices):
            features[0, int(index)] += 1
        features /= self.positions
        return float(self.model.score_mahalanobis_f32(features)[0])

    def make_reference(self) -> _StatelessReference:
        return _StatelessReference(self._reference_indices_score)


# ---------------------------------------------------------------------------
# LSTM deployment
# ---------------------------------------------------------------------------

_LSTM_GATES_SRC = f"""
.kernel lstm_gates
.vgprs 10
    v_mov_b32 v1, s5
    v_sub_i32 v1, v1, 1
    v_min_i32 v1, v0, v1            ; l = min(lane, H-1)
    s_mul_i32 s10, s0, s5
    v_mov_b32 v2, s10
    v_add_i32 v2, v2, v1            ; row r = gate*H + l
    s_lshl_b32 s11, s5, 2           ; 4H
    s_mul_i32 s11, s2, s11          ; id*4H
    v_mov_b32 v3, s11
    v_add_i32 v3, v3, v2
    v_lshlrev_b32 v3, 2, v3
    v_add_i32 v3, v3, s6
    ds_read_b32 v4, v3              ; z = W_x[id*4H + r]
    v_mul_lo_i32 v5, v2, s5         ; r*H
    v_lshlrev_b32 v5, 2, v5
    v_add_i32 v5, v5, s7            ; &U[r, 0] (per-lane, incremented)
    s_mov_b32 s12, 0                ; k
    s_mov_b32 s13, 0                ; h byte offset
lstm_gates_loop:
    s_load_dword s14, s3, s13       ; h_prev[k]
    ds_read_b32 v7, v5              ; U[r, k]
    v_mac_f32 v4, v7, s14
    v_add_i32 v5, v5, 4
    s_add_i32 s13, s13, 4
    s_add_i32 s12, s12, 1
    s_cmp_lt_i32 s12, s5
    s_cbranch_scc1 lstm_gates_loop
    v_lshlrev_b32 v6, 2, v2
    v_add_i32 v6, v6, s8
    ds_read_b32 v7, v6
    v_add_f32 v4, v4, v7            ; + b[r]
    s_cmp_eq_i32 s0, 2
    s_cbranch_scc1 lstm_gates_tanh
{_SIGMOID.format(r='v4')}
    s_branch lstm_gates_store
lstm_gates_tanh:
{_TANH.format(r='v4', t='v8')}
lstm_gates_store:
    v_lshlrev_b32 v6, 2, v2
    v_add_i32 v6, v6, s4
    flat_store_dword v6, v4         ; gates[r]
    s_endpgm
"""


def build_lstm_gates_kernel() -> Kernel:
    """Gate pre-activation + activation; one workgroup per gate.

    Args: s2=id, s3=h_state base, s4=gates base, s5=H,
    s6/s7/s8 = LDS byte offsets of W_x / U / b.
    Gate order [i, f, g, o]; workgroup 2 (g) uses tanh.
    """
    return _cached_kernel("lstm_gates", _LSTM_GATES_SRC)


_LSTM_UPDATE_SRC = f"""
.kernel lstm_update
.vgprs 12
    v_mov_b32 v1, s5
    v_sub_i32 v1, v1, 1
    v_min_i32 v1, v0, v1
    v_lshlrev_b32 v2, 2, v1
    v_mov_b32 v3, v2
    v_add_i32 v3, v3, s2
    flat_load_dword v4, v3          ; i
    s_lshl_b32 s6, s5, 2
    v_add_i32 v3, v3, s6
    flat_load_dword v5, v3          ; f
    v_add_i32 v3, v3, s6
    flat_load_dword v6, v3          ; g
    v_add_i32 v3, v3, s6
    flat_load_dword v7, v3          ; o
    v_mov_b32 v8, v2
    v_add_i32 v8, v8, s3
    flat_load_dword v9, v8          ; c_prev
    v_mul_f32 v9, v5, v9
    v_mac_f32 v9, v4, v6            ; c = f*c_prev + i*g
    flat_store_dword v8, v9
    v_mov_b32 v10, v9
{_TANH.format(r='v10', t='v11')}
    v_mul_f32 v10, v7, v10          ; h = o * tanh(c)
    v_mov_b32 v8, v2
    v_add_i32 v8, v8, s4
    flat_store_dword v8, v10
    s_endpgm
"""


def build_lstm_update_kernel() -> Kernel:
    """Cell/hidden update.  Args: s2=gates, s3=c_state, s4=h_state, s5=H."""
    return _cached_kernel("lstm_update", _LSTM_UPDATE_SRC)


_LSTM_SCORE_SRC = f"""
.kernel lstm_score
.vgprs 12
    v_mul_lo_i32 v1, v0, s5         ; r*H
    v_lshlrev_b32 v1, 2, v1
    v_add_i32 v1, v1, s6            ; &W_out[r, 0] (incremented)
    v_lshlrev_b32 v2, 2, v0
    v_add_i32 v2, v2, s7
    ds_read_b32 v3, v2              ; logit = b_out[r]
    s_mov_b32 s8, 0
    s_mov_b32 s9, 0                 ; h byte offset
lstm_score_loop:
    s_load_dword s10, s3, s9        ; h[k]
    ds_read_b32 v5, v1              ; W_out[r, k]
    v_mac_f32 v3, v5, s10
    v_add_i32 v1, v1, 4
    s_add_i32 s9, s9, 4
    s_add_i32 s8, s8, 1
    s_cmp_lt_i32 s8, s5
    s_cbranch_scc1 lstm_score_loop
    v_mov_b32 v4, v3                ; running max
{_butterfly('v_max_f32', 'v4', 'v6')}
    v_sub_f32 v5, v3, v4            ; logit - max
    v_mul_f32 v5, v5, 1.4426950408889634
    v_exp_f32 v5, v5                ; exp(logit - max)
    v_mov_b32 v7, v5
{_butterfly('v_add_f32', 'v7', 'v6')}
    v_cmp_eq_i32 v0, s2             ; vcc: lane == observed id
    v_mov_b32 v9, 0.0
    v_cndmask_b32 v9, v9, v5        ; e_id on the id lane
{_butterfly('v_add_f32', 'v9', 'v6')}
    v_rcp_f32 v10, v7
    v_mul_f32 v9, v9, v10           ; p = e_id / sum
    v_log_f32 v9, v9
    v_mul_f32 v9, v9, 0.6931471805599453
    v_sub_f32 v9, 0.0, v9           ; -ln p
    v_mov_b32 v11, s4
    flat_store_dword v11, v9
    s_endpgm
"""


def build_lstm_score_kernel() -> Kernel:
    """Output logits + softmax + surprisal of the observed ID.

    Args: s2=id, s3=h_state, s4=score out, s5=H,
    s6/s7 = LDS byte offsets of W_out / b_out.
    One workgroup; lane r owns vocabulary row r (V == 64).
    """
    return _cached_kernel("lstm_score", _LSTM_SCORE_SRC)


class DeployedLstm(DeployedModel):
    """A trained LSTM bound to a GPU engine (streaming inference)."""

    kind = "lstm"
    NUM_GATE_WORKGROUPS = 4

    def __init__(self, model: LstmModel) -> None:
        if model.vocabulary_size > LSTM_DEPLOY_VOCAB:
            raise ModelError(
                f"deployed LSTM vocabulary must fit {LSTM_DEPLOY_VOCAB} "
                f"(got {model.vocabulary_size}); shrink the mapper table"
            )
        if model.hidden_size > 64:
            raise ModelError("deployed LSTM hidden size must be <= 64")
        self.model = model
        self.kernels = {
            "score": build_lstm_score_kernel(),
            "gates": build_lstm_gates_kernel(),
            "update": build_lstm_update_kernel(),
        }
        self._padded = self._pad_weights()
        self._buffers: Dict[str, Buffer] = {}
        self._lds_offsets: Dict[str, int] = {}

    def _pad_weights(self):
        """Pad the vocabulary dimension to one full wavefront."""
        w = self.model.export_weights()
        v_pad = LSTM_DEPLOY_VOCAB
        v, h = self.model.vocabulary_size, self.model.hidden_size
        w_x = np.zeros((4 * h, v_pad), dtype=np.float32)
        w_x[:, :v] = w.w_x
        w_out = np.zeros((v_pad, h), dtype=np.float32)
        w_out[:v] = w.w_out
        b_out = np.full(v_pad, PAD_LOGIT_BIAS, dtype=np.float32)
        b_out[:v] = w.b_out
        return {"w_x": w_x, "u": w.u, "b": w.b, "w_out": w_out, "b_out": b_out}

    # -- load ----------------------------------------------------------------

    def load(self, gpu: Gpu) -> None:
        runtime = GpuRuntime(gpu)
        h = self.model.hidden_size
        p = self._padded
        # LDS layout: W_x (column-major by id) | U | b | W_out | b_out.
        w_x_cols = np.ascontiguousarray(p["w_x"].T)  # (V, 4H) -> id-major
        blocks = [
            ("w_x", w_x_cols.ravel()),
            ("u", p["u"].ravel()),
            ("b", p["b"]),
            ("w_out", p["w_out"].ravel()),
            ("b_out", p["b_out"]),
        ]
        self._lds_offsets = _place_lds(gpu, blocks)

        self._buffers = {
            "h": runtime.alloc_f32(h),
            "c": runtime.alloc_f32(h),
            "gates": runtime.alloc_f32(4 * h),
            "score": runtime.alloc_f32(1),
        }
        self._runtime = runtime
        self.reset_state()

    def reset_state(self) -> None:
        if self._runtime is None:
            raise KernelLaunchError("DeployedLstm used before load()")
        h = self.model.hidden_size
        zeros = np.zeros(h, dtype=np.float32)
        self._runtime.write(self._buffers["h"], zeros)
        self._runtime.write(self._buffers["c"], zeros)

    # -- inference ----------------------------------------------------------

    @staticmethod
    def infer_batch(
        members: List["DeployedLstm"],
        branch_ids: List[int],
    ) -> List[KernelResult]:
        """Score each observed branch, then advance each member's state:
        K tenants' score/gates/update chains as three fused dispatches.

        Per-member branch ids are fine — they only enter the vector domain
        (the observed-ID lane select) and the LDS weight gather addresses.
        Running all scores, then all gates, then all updates is equivalent
        to interleaving per member because each member's chain touches only
        its own (h, c, gates, score) buffers.
        """
        runtime = _shared_runtime(members, branch_ids, "branch id")
        hidden = members[0].model.hidden_size
        score_args, gates_args, update_args = [], [], []
        for member, branch_id in zip(members, branch_ids):
            if member.model.hidden_size != hidden:
                raise KernelLaunchError(
                    "batched LSTM members must share the hidden size"
                )
            if not 0 <= branch_id < member.model.vocabulary_size:
                raise ModelError(f"branch id {branch_id} outside vocabulary")
            buffers, lds = member._buffers, member._lds_offsets
            score_args.append([
                branch_id, buffers["h"], buffers["score"], hidden,
                lds["w_out"], lds["b_out"],
            ])
            gates_args.append([
                branch_id, buffers["h"], buffers["gates"], hidden,
                lds["w_x"], lds["u"], lds["b"],
            ])
            update_args.append(
                [buffers["gates"], buffers["c"], buffers["h"], hidden]
            )
        kernels = members[0].kernels
        chains = zip(
            runtime.launch_batch(kernels["score"], 1, score_args),
            runtime.launch_batch(
                kernels["gates"], DeployedLstm.NUM_GATE_WORKGROUPS,
                gates_args,
            ),
            runtime.launch_batch(kernels["update"], 1, update_args),
        )
        return [
            KernelResult(
                float(runtime.read_f32(member._buffers["score"], 1)[0]),
                list(chain),
            )
            for member, chain in zip(members, chains)
        ]

    def batch_key(self, branch_id: int) -> Tuple:
        return ("lstm", self.model.hidden_size)

    def warmup_input(self) -> int:
        return 0

    # -- durability -----------------------------------------------------------

    def export_state(self):
        """Snapshot the recurrent (h, c) buffers off the engine."""
        if self._runtime is None:
            raise KernelLaunchError("DeployedLstm used before load()")
        h = self.model.hidden_size
        return (
            self._runtime.read_f32(self._buffers["h"], h).copy(),
            self._runtime.read_f32(self._buffers["c"], h).copy(),
        )

    def restore_state(self, state) -> None:
        if self._runtime is None:
            raise KernelLaunchError("DeployedLstm used before load()")
        h_state, c_state = state
        self._runtime.write(
            self._buffers["h"], np.asarray(h_state, dtype=np.float32)
        )
        self._runtime.write(
            self._buffers["c"], np.asarray(c_state, dtype=np.float32)
        )

    # -- float32 software reference ------------------------------------------

    def make_reference(self) -> "LstmReference":
        return LstmReference(self._padded, self.model.hidden_size)


_MLP_HIDDEN_SRC = f"""
.kernel mlp_hidden
.vgprs 8
    ; s2 = x base (D f32), s3 = h base, s4 = D, s5 = H,
    ; s6/s7 = LDS byte offsets of W1 / b1.  Lane l computes neuron
    ; min(l, H-1); duplicate writes collide with identical values.
    v_mov_b32 v1, s5
    v_sub_i32 v1, v1, 1
    v_min_i32 v1, v0, v1            ; l
    v_mul_lo_i32 v2, v1, s4         ; l*D
    v_lshlrev_b32 v2, 2, v2
    v_add_i32 v2, v2, s6            ; &W1[l, 0]
    v_mov_b32 v3, 0.0               ; acc
    s_mov_b32 s8, 0                 ; d
    s_mov_b32 s9, 0                 ; x byte offset
mlp_hidden_loop:
    s_load_dword s10, s2, s9        ; x[d]
    ds_read_b32 v4, v2              ; W1[l, d]
    v_mac_f32 v3, v4, s10
    v_add_i32 v2, v2, 4
    s_add_i32 s9, s9, 4
    s_add_i32 s8, s8, 1
    s_cmp_lt_i32 s8, s4
    s_cbranch_scc1 mlp_hidden_loop
    v_lshlrev_b32 v5, 2, v1
    v_add_i32 v6, v5, s7
    ds_read_b32 v7, v6
    v_add_f32 v3, v3, v7            ; + b1[l]
{_SIGMOID.format(r='v3')}
    v_add_i32 v6, v5, s3
    flat_store_dword v6, v3         ; h[l]
    s_endpgm
"""

_MLP_RECON_SRC = f"""
.kernel mlp_recon
.vgprs 10
    ; s2 = x base, s3 = h base, s4 = D, s5 = H, s6 = score out,
    ; s7/s8 = LDS byte offsets of W2 / b2.  Lane d reconstructs
    ; feature min(d, D-1); lanes beyond D contribute zero error.
    v_mov_b32 v1, s4
    v_sub_i32 v1, v1, 1
    v_min_i32 v1, v0, v1            ; d
    v_mul_lo_i32 v2, v1, s5         ; d*H
    v_lshlrev_b32 v2, 2, v2
    v_add_i32 v2, v2, s7            ; &W2[d, 0]
    v_mov_b32 v3, 0.0               ; recon acc
    s_mov_b32 s9, 0                 ; k
    s_mov_b32 s10, 0                ; h byte offset
mlp_recon_loop:
    s_load_dword s11, s3, s10       ; h[k]
    ds_read_b32 v4, v2              ; W2[d, k]
    v_mac_f32 v3, v4, s11
    v_add_i32 v2, v2, 4
    s_add_i32 s10, s10, 4
    s_add_i32 s9, s9, 1
    s_cmp_lt_i32 s9, s5
    s_cbranch_scc1 mlp_recon_loop
    v_lshlrev_b32 v5, 2, v1
    v_add_i32 v6, v5, s8
    ds_read_b32 v7, v6
    v_add_f32 v3, v3, v7            ; + b2[d]
    v_add_i32 v6, v5, s2
    flat_load_dword v7, v6          ; x[d]
    v_sub_f32 v3, v3, v7
    v_mul_f32 v3, v3, v3            ; (recon - x)^2
    v_cmp_lt_i32 v0, s4             ; vcc: lane owns a real feature
    v_mov_b32 v8, 0.0
    v_cndmask_b32 v3, v8, v3        ; zero the duplicate lanes
{_butterfly('v_add_f32', 'v3', 'v9')}
    v_mov_b32 v8, s6
    flat_store_dword v8, v3
    s_endpgm
"""


def build_mlp_hidden_kernel() -> Kernel:
    """MLP encoder: hidden = sigmoid(W1 x + b1), one workgroup."""
    return _cached_kernel("mlp_hidden", _MLP_HIDDEN_SRC)


def build_mlp_recon_kernel() -> Kernel:
    """MLP decoder + error: score = sum((W2 h + b2 - x)^2)."""
    return _cached_kernel("mlp_recon", _MLP_RECON_SRC)


class DeployedMlp(DeployedModel):
    """A trained MLP autoencoder bound to a GPU engine.

    The third model of the programmability story: same runtime, same
    protocol, different kernels.  Note the structural contrast with
    the ELM — both phases are single-workgroup and *sequential*
    (reconstruction needs the complete hidden vector), so extra CUs
    buy the MLP nothing.  That, plus its training cost, is the quiet
    half of the paper's "ELM over MLP" argument.
    """

    kind = "mlp"

    def __init__(self, model) -> None:
        from repro.ml.mlp import MlpAutoencoder

        if not isinstance(model, MlpAutoencoder):
            raise ModelError("DeployedMlp wraps an MlpAutoencoder")
        if model.input_dim > 64 or model.hidden_dim > 64:
            raise ModelError(
                "deployed MLP dims must each fit one wavefront"
            )
        if not model.trained:
            raise ModelError("deploy requires a trained MLP")
        self.model = model
        self.kernels = {
            "hidden": build_mlp_hidden_kernel(),
            "recon": build_mlp_recon_kernel(),
        }
        self._buffers: Dict[str, Buffer] = {}
        self._lds_offsets: Dict[str, int] = {}

    def load(self, gpu: Gpu) -> None:
        runtime = GpuRuntime(gpu)
        model = self.model
        blocks = [
            ("w1", model.w1.astype(np.float32).ravel()),
            ("b1", model.b1.astype(np.float32)),
            ("w2", model.w2.astype(np.float32).ravel()),
            ("b2", model.b2.astype(np.float32)),
        ]
        self._lds_offsets = _place_lds(gpu, blocks)
        self._buffers = {
            "x": runtime.alloc_f32(model.input_dim),
            "h": runtime.alloc_f32(model.hidden_dim),
            "score": runtime.alloc_f32(1),
        }
        self._runtime = runtime

    @staticmethod
    def infer_batch(
        members: List["DeployedMlp"],
        features_lists: List[np.ndarray],
    ) -> List[KernelResult]:
        """Score K tenants' (already normalized) feature vectors as two
        fused dispatches."""
        runtime = _shared_runtime(members, features_lists, "feature vector")
        input_dim = members[0].model.input_dim
        hidden_dim = members[0].model.hidden_dim
        hidden_args, recon_args = [], []
        for member, features in zip(members, features_lists):
            if (
                member.model.input_dim != input_dim
                or member.model.hidden_dim != hidden_dim
            ):
                raise KernelLaunchError(
                    "batched MLP members must share a shape"
                )
            features = np.asarray(features, dtype=np.float32)
            if features.shape != (input_dim,):
                raise ModelError(
                    f"expected {input_dim} features, got {features.shape}"
                )
            buffers, lds = member._buffers, member._lds_offsets
            runtime.write(buffers["x"], features)
            hidden_args.append([
                buffers["x"], buffers["h"], input_dim, hidden_dim,
                lds["w1"], lds["b1"],
            ])
            recon_args.append([
                buffers["x"], buffers["h"], input_dim, hidden_dim,
                buffers["score"], lds["w2"], lds["b2"],
            ])
        kernels = members[0].kernels
        chains = zip(
            runtime.launch_batch(kernels["hidden"], 1, hidden_args),
            runtime.launch_batch(kernels["recon"], 1, recon_args),
        )
        return [
            KernelResult(
                float(runtime.read_f32(member._buffers["score"], 1)[0]),
                list(chain),
            )
            for member, chain in zip(members, chains)
        ]

    def batch_key(self, features: np.ndarray) -> Tuple:
        return ("mlp", self.model.input_dim, self.model.hidden_dim)

    def warmup_input(self) -> np.ndarray:
        """A uniform histogram (every feature equally frequent)."""
        dim = self.model.input_dim
        return np.full(dim, 1.0 / dim, dtype=np.float32)

    # -- float32 software reference ------------------------------------------

    def reference_score(self, features: np.ndarray) -> float:
        """Float32 twin of the kernel pipeline."""
        x = np.asarray(features, dtype=np.float32)
        w1 = self.model.w1.astype(np.float32)
        b1 = self.model.b1.astype(np.float32)
        w2 = self.model.w2.astype(np.float32)
        b2 = self.model.b2.astype(np.float32)
        pre = (w1 @ x + b1).astype(np.float32)
        log2e = np.float32(LOG2E)
        hidden = (
            np.float32(1.0)
            / (np.float32(1.0) + np.exp2(-(pre * log2e), dtype=np.float32))
        ).astype(np.float32)
        recon = (w2 @ hidden + b2).astype(np.float32)
        error = (recon - x).astype(np.float32)
        return float((error * error).sum(dtype=np.float32))

    def make_reference(self) -> _StatelessReference:
        return _StatelessReference(self.reference_score)


class LstmReference:
    """Numpy float32 twin of the GPU pipeline (same formulas/order)."""

    def __init__(self, padded: Dict[str, np.ndarray], hidden: int) -> None:
        self.p = {k: v.astype(np.float32) for k, v in padded.items()}
        self.hidden = hidden
        self.h = np.zeros(hidden, dtype=np.float32)
        self.c = np.zeros(hidden, dtype=np.float32)

    def export_state(self):
        """Snapshot the recurrent (h, c) state."""
        return (self.h.copy(), self.c.copy())

    def restore_state(self, state) -> None:
        h_state, c_state = state
        self.h = np.asarray(h_state, dtype=np.float32).copy()
        self.c = np.asarray(c_state, dtype=np.float32).copy()

    @staticmethod
    def _sigmoid(x: np.ndarray) -> np.ndarray:
        log2e = np.float32(LOG2E)
        return (
            np.float32(1.0)
            / (np.float32(1.0) + np.exp2(-(x * log2e), dtype=np.float32))
        ).astype(np.float32)

    @staticmethod
    def _tanh(x: np.ndarray) -> np.ndarray:
        clamped = np.clip(x, -TANH_CLAMP, TANH_CLAMP).astype(np.float32)
        e = np.exp2(clamped * np.float32(2 * LOG2E), dtype=np.float32)
        return ((e - np.float32(1.0)) / (e + np.float32(1.0))).astype(
            np.float32
        )

    def infer(self, branch_id: int) -> float:
        p = self.p
        hs = self.hidden
        logits = (p["w_out"] @ self.h + p["b_out"]).astype(np.float32)
        m = logits.max()
        exps = np.exp2((logits - m) * np.float32(LOG2E), dtype=np.float32)
        prob = exps[branch_id] / exps.sum(dtype=np.float32)
        surprisal = float(
            -np.log2(prob) * np.float32(LN2)
        )
        z = (p["w_x"][:, branch_id] + p["u"] @ self.h + p["b"]).astype(
            np.float32
        )
        i = self._sigmoid(z[:hs])
        f = self._sigmoid(z[hs:2 * hs])
        g = self._tanh(z[2 * hs:3 * hs])
        o = self._sigmoid(z[3 * hs:])
        self.c = (f * self.c + i * g).astype(np.float32)
        self.h = (o * self._tanh(self.c)).astype(np.float32)
        return surprisal
