"""Trace compiler: whole-kernel fusion for the SI-subset interpreter.

The interpreter in :mod:`repro.miaow.compute_unit` issues one
instruction per call through :func:`repro.miaow.alu.execute` — operand
decode, handler lookup and timing bookkeeping all happen per op.  For
the MCM hot path (thousands of inferences over the same few kernels)
that per-instruction Python overhead dominates end-to-end throughput.

This module lowers a :class:`Kernel` once into a *single generated
Python function* over the whole-wavefront lane arrays.  Basic blocks
become arms of a label-dispatch loop, with every operand pre-resolved
at compile time (register indices baked into the code, literals folded
into constants).  Architectural registers live in Python locals:

- VGPRs are locals ``V<i>`` holding uint32 lane arrays; registers read
  in the float domain keep a paired ``V<i>F`` float32 view.  Writes
  *rebind* the local instead of copying into a register file — legal
  because on the fast path no register state is observable once the
  dispatch returns (only memory, counters, cycles and exceptions are).
- SGPRs are plain-int locals ``S<i>``; SCC is a bool local, EXEC and
  VCC are lane-mask locals.  Nothing is ever mutated in place, so
  aliased bindings (``v_mov``) are value-safe.

Data-dependent control flow — divergence via EXEC masks,
``ds_swizzle`` butterflies, conditional branches — still executes
block by block inside the dispatch loop, so any kernel the compiler
accepts behaves exactly like the interpreter.

Exactness contract (enforced by ``tests/test_miaow_compiler.py`` and
``tests/test_miaow_batch_equivalence.py``):

- every architectural effect observable after a dispatch (global
  memory contents, counters) is bit-identical to the interpreter,
  statement for statement mirroring :mod:`repro.miaow.alu`;
- per-block cycle costs are precomputed from :class:`GpuTimings` using
  the same ``max(issue, cost)`` recurrence the scheduler loop follows
  at occupancy 1, so ``DispatchResult.cycles`` / ``per_cu_cycles`` /
  instruction counts match exactly;
- a compiled run commits nothing and writes no LDS (LDS stores and
  atomics decline at every batch size).  The dispatcher journals its
  global-memory writes, and on any exception rolls them back and
  replays on the exact path, so a fault's type, message, partial
  effects and instruction counters come from the interpreter itself.

One lowering serves every batch size K >= 1.  K = 1 is a single
dispatch; K >= 2 fuses K members over stacked lane arrays (see
"Batched runtime helpers" below), and only then are scalar operands
widened to per-member arrays.

Anything the compiler cannot prove it can mirror raises
:class:`CompileUnsupported` and the :class:`~repro.miaow.gpu.Gpu`
falls back to the interpreter for that kernel.  Multi-wavefront
occupancy (``max_resident > 1``) interleaves instructions from
different wavefronts, which fusion cannot reproduce — the Gpu only
routes dispatches here at occupancy 1 (the FPGA/MCM regime).
"""

from __future__ import annotations

import struct
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import GpuError, IllegalInstructionError
from repro.miaow.alu import _mask_to_words, _words_to_mask
from repro.miaow.assembler import Kernel
from repro.miaow.compute_unit import MAX_INSTRUCTIONS_PER_WAVE, GpuTimings
from repro.miaow.isa import (
    Instruction,
    Lit,
    NUM_SGPRS,
    Special,
    SReg,
    VReg,
    WAVE_SIZE,
    opcode_info,
)

__all__ = [
    "BatchDivergence",
    "CompileUnsupported",
    "CompiledKernel",
    "compile_kernel",
]


class CompileUnsupported(Exception):
    """The kernel contains a shape this compiler cannot mirror exactly.

    Deliberately *not* a :class:`GpuError`: this is a private signal to
    the dispatcher to use the interpreter, never a user-visible fault.
    """


class BatchDivergence(Exception):
    """Runtime signal from a fused (K >= 2) executor: the members
    disagree on a control-flow decision (per-tenant VCC/EXEC branch).

    Never user-visible: the dispatcher catches it like any other
    compiled-run exception, rolls the memory journal back and replays
    the members serially, each as a batch of one.
    """


class _RuntimeRaise(Exception):
    """Codegen signal: the instruction always faults at runtime.

    ``expr`` is the raise expression that reproduces the interpreter's
    exception exactly (type and message).
    """

    def __init__(self, expr: str) -> None:
        super().__init__(expr)
        self.expr = expr


# Block terminator kinds.
_FALL, _JUMP, _COND, _END = 0, 1, 2, 3

_COND_EXPR = {
    "s_cbranch_scc0": "not SCC",
    "s_cbranch_scc1": "SCC",
    "s_cbranch_vccz": "not VC.any()",
    "s_cbranch_vccnz": "bool(VC.any())",
    "s_cbranch_execz": "not EX.any()",
}

#: Fused (K >= 2) variants: mask branches must agree across every member
#: (``_uany`` raises :class:`BatchDivergence` otherwise).  SCC branches
#: need no helper — a varying SCC is a (K,) bool array, and ``not`` /
#: ``if`` on it raises, which the dispatcher turns into a serial replay.
_BATCH_COND_EXPR = {
    "s_cbranch_scc0": "not SCC",
    "s_cbranch_scc1": "SCC",
    "s_cbranch_vccz": "not _uany(VC)",
    "s_cbranch_vccnz": "_uany(VC)",
    "s_cbranch_execz": "not _uany(EX)",
}

_NO_EFFECT_OPS = {"s_nop", "s_barrier", "s_waitcnt", "s_endpgm", "s_branch"}


# ---------------------------------------------------------------------------
# Runtime helpers referenced by generated code
# ---------------------------------------------------------------------------

def _full(value: int) -> np.ndarray:
    """Broadcast one 32-bit value to a lane array (read_vector twin)."""
    return np.full(WAVE_SIZE, np.uint32(value), dtype=np.uint32)


_PACK_I = struct.Struct("<I").pack
_UNPACK_F = struct.Struct("<f").unpack


def _f32a(bits: int) -> np.ndarray:
    """Raw bits broadcast to a float32 lane array (read_vector twin).

    NaN operands must enter numpy arithmetic exactly as the interpreter
    presents them — a full 64-lane array — because numpy's NaN payload
    propagation differs between scalar and array operands (e.g. with a
    qNaN *scalar* second operand the scalar's payload wins, while the
    array/array form keeps the first operand's payload).
    """
    return np.full(WAVE_SIZE, np.uint32(bits), dtype=np.uint32).view(
        np.float32
    )


def _f32b(bits: int):
    """Raw bits as a python float carrying an exact float32 value.

    Fast scalar form for *array-mixed* arithmetic only: NEP 50 casts a
    weak python-float operand to the array's float32 exactly (the value
    is exactly representable by construction), so ``arr + _f32b(s)``
    matches ``arr + _f32s(s)`` bit for bit while skipping the numpy
    scalar-wrapper cost.  NaN encodings are the exception — a python
    float cannot carry the 32-bit payload, and no scalar operand
    (python *or* numpy) reproduces the interpreter's array/array NaN
    payload rules — so NaNs fall back to the broadcast lane array.
    Never use this where a python-float/python-float operation could
    happen (double rounding); those sites take :func:`_f32s`.
    """
    value = _UNPACK_F(_PACK_I(bits))[0]
    if value != value:
        return _f32a(bits)
    return value


def _f32s(bits: int):
    """Raw bits as a numpy float32 scalar (strict ``_f32`` twin).

    Bit-exact: non-NaN bits become an exact ``np.float32``
    (``np.float32(pyfloat)`` would quieten a signaling NaN through the
    double round trip); NaN bits take the broadcast array form because
    scalar operands break the interpreter's NaN payload propagation
    (see :func:`_f32a`).
    """
    if bits & 0x7FFFFFFF > 0x7F800000:  # any-sign NaN encoding
        return _f32a(bits)
    return np.frombuffer(_PACK_I(bits), dtype=np.float32)[0]


def _fbits(value) -> int:
    """Float32 bit pattern of a scalar result (``_to_bits`` twin)."""
    return struct.unpack("<I", struct.pack("<f", float(value)))[0]


def _i32(value: int) -> int:
    """Signed interpretation of 32 raw bits (``int(np.int32(...))``)."""
    return value - 0x100000000 if value & 0x80000000 else value


def _pack32(mask: np.ndarray) -> int:
    """Low 32 mask lanes as one word (read_scalar vcc/exec quirk)."""
    return int(np.packbits(mask[:32][::-1]).view(">u4")[0])


def _readonly(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


#: Shared immutable entry-state arrays.  Generated code only ever
#: *rebinds* register locals (never writes in place), so every fresh
#: wavefront can alias these without copying.
_TRUE64 = _readonly(np.ones(WAVE_SIZE, dtype=bool))
_FALSE64 = _readonly(np.zeros(WAVE_SIZE, dtype=bool))
_Z64 = _readonly(np.zeros(WAVE_SIZE, dtype=np.uint32))
_Z64F = _Z64.view(np.float32)
_LANE_IDS = _readonly(np.arange(WAVE_SIZE, dtype=np.uint32))

#: Globals shared by every generated module.
_BASE_GLOBALS = {
    "_np": np,
    "_U32": np.uint32,
    "_U64": np.uint64,
    "_I32": np.int32,
    "_I64": np.int64,
    "_F32": np.float32,
    "_F64": np.float64,
    "_full": _full,
    "_f32a": _f32a,
    "_f32b": _f32b,
    "_f32s": _f32s,
    "_fbits": _fbits,
    "_i32": _i32,
    "_pack32": _pack32,
    "_mw": _mask_to_words,
    "_wm": _words_to_mask,
    "_LANES": np.arange(WAVE_SIZE),
    "_TRUE64": _TRUE64,
    "_FALSE64": _FALSE64,
    "_Z64": _Z64,
    "_Z64F": _Z64F,
    "_LANE_IDS": _LANE_IDS,
    "GpuError": GpuError,
    "IllegalInstructionError": IllegalInstructionError,
}


# ---------------------------------------------------------------------------
# Batched runtime helpers
# ---------------------------------------------------------------------------
#
# A fused executor (K >= 2) runs K members over one stacked lane array of
# K * WAVE_SIZE lanes (member m owns the contiguous block
# [m * WAVE_SIZE, (m + 1) * WAVE_SIZE)).  The vector domain is therefore
# the same code a batch of one emits, just over longer arrays; the
# scalar domain is *mixed*: kernel arguments every member agrees on stay
# plain python ints (and fold through the scalar templates unchanged),
# while per-member arguments are (K,) int64 arrays.  Any scalar
# expression a varying value flows into simply becomes a (K,) array —
# and the moment such a value reaches a vector operand it is expanded to
# the stacked lane array by the ``_vx*`` helpers below, mirroring the
# interpreter's scalar broadcast member by member.

_BATCH_GLOBALS_CACHE: Dict[int, dict] = {}


def _batched_globals(batch: int) -> dict:
    cached = _BATCH_GLOBALS_CACHE.get(batch)
    if cached is not None:
        return cached
    lanes = WAVE_SIZE * batch

    def full(value) -> np.ndarray:
        if isinstance(value, np.ndarray):
            return np.repeat(value.astype(np.uint32), WAVE_SIZE)
        return np.full(lanes, np.uint32(value), dtype=np.uint32)

    def vxf(value) -> np.ndarray:
        return full(value).view(np.float32)

    def vxi(value) -> np.ndarray:
        return full(value).view(np.int32)

    def f32a(bits) -> np.ndarray:
        return full(bits).view(np.float32)

    def f32b(bits):
        if isinstance(bits, np.ndarray):
            return vxf(bits)
        value = _UNPACK_F(_PACK_I(bits))[0]
        if value != value:
            return f32a(bits)
        return value

    def f32s(bits):
        if isinstance(bits, np.ndarray):
            return vxf(bits)
        if bits & 0x7FFFFFFF > 0x7F800000:
            return f32a(bits)
        return np.frombuffer(_PACK_I(bits), dtype=np.float32)[0]

    def i32(value):
        if isinstance(value, np.ndarray):
            signed = value.astype(np.int64)
            return signed - ((signed & 0x80000000) << 1)
        return value - 0x100000000 if value & 0x80000000 else value

    def pack32(mask: np.ndarray) -> np.ndarray:
        rows = mask.reshape(batch, WAVE_SIZE)[:, :32][:, ::-1]
        return (
            np.packbits(rows, axis=1).view(">u4").astype(np.int64).reshape(batch)
        )

    def uany(mask: np.ndarray) -> bool:
        per_member = mask.reshape(batch, WAVE_SIZE).any(axis=1)
        first = bool(per_member[0])
        agree = per_member.all() if first else not per_member.any()
        if not agree:
            raise BatchDivergence("fused members diverge on a mask branch")
        return first

    def sld(gm, address):
        if isinstance(address, np.ndarray):
            return gm.gather_all_u32(address).astype(np.int64)
        return gm.load_u32(address)

    namespace = dict(_BASE_GLOBALS)
    namespace.update({
        "_full": full,
        "_f32a": f32a,
        "_f32b": f32b,
        "_f32s": f32s,
        "_i32": i32,
        "_pack32": pack32,
        "_vxu": full,
        "_vxf": vxf,
        "_vxi": vxi,
        "_uany": uany,
        "_sld": sld,
        "_LANES": np.arange(lanes),
        "_TRUE64": _readonly(np.ones(lanes, dtype=bool)),
        "_FALSE64": _readonly(np.zeros(lanes, dtype=bool)),
        "_Z64": _readonly(np.zeros(lanes, dtype=np.uint32)),
        "_LANE_IDS": _readonly(
            np.tile(np.arange(WAVE_SIZE, dtype=np.uint32), batch)
        ),
    })
    namespace["_Z64F"] = namespace["_Z64"].view(np.float32)
    _BATCH_GLOBALS_CACHE[batch] = namespace
    return namespace


# ---------------------------------------------------------------------------
# Code generation
# ---------------------------------------------------------------------------

class _Gen:
    """Accumulates the generated module plus register-usage facts.

    Emission runs twice: a discovery pass collects which VGPRs are ever
    read in the float domain (``f32_seen``) and which register indices
    appear at all; the real pass reuses those sets (``f32_regs``) so
    float-paired locals are maintained consistently at every write.
    """

    def __init__(
        self, f32_regs: frozenset = frozenset(), batch: int = 1
    ) -> None:
        self.lines: List[str] = []
        self.consts: Dict[str, object] = {}
        self.indent = "    "
        self.f32_regs = f32_regs
        self.f32_seen: set = set()
        self.vregs: set = set()
        self.sregs: set = set()
        #: K >= 2: members are stacked and scalars may vary per member
        self.fused = batch > 1
        self.total_lanes = WAVE_SIZE * batch

    def const(self, value) -> str:
        name = f"_K{len(self.consts)}"
        self.consts[name] = value
        return name

    def f32_const(self, bits: int) -> str:
        """Constant for raw bits broadcast over every stacked lane."""
        return self.const(_readonly(
            np.full(self.total_lanes, np.uint32(bits), dtype=np.uint32)
            .view(np.float32)
        ))

    def w(self, stmt: str) -> None:
        self.lines.append(self.indent + stmt)

    def vreg(self, index: int) -> str:
        self.vregs.add(index)
        return f"V{index}"

    def sreg(self, index: int) -> str:
        self.sregs.add(index)
        return f"S{index}"

    def is_f32(self, index: int) -> bool:
        return index in self.f32_regs or index in self.f32_seen


# -- operand expression builders (all pure; safe to build before emit) ------

def _sexpr(g: _Gen, operand) -> str:
    """Expression for read_scalar(): raw bits as a python int."""
    if isinstance(operand, SReg):
        return g.sreg(operand.index)
    if isinstance(operand, Lit):
        return repr(operand.bits)
    if isinstance(operand, Special):
        if operand.name == "scc":
            return "int(SCC)"
        if operand.name == "vcc":
            return "_pack32(VC)"
        if operand.name == "exec":
            return "_pack32(EX)"
        raise CompileUnsupported(f"special register {operand.name}")
    if isinstance(operand, VReg):
        raise _RuntimeRaise(
            f"GpuError({f'scalar operand expected, got v{operand.index}'!r})"
        )
    raise CompileUnsupported(f"operand {operand!r}")


def _sdst(g: _Gen, operand) -> int:
    if isinstance(operand, SReg):
        g.sregs.add(operand.index)
        return operand.index
    raise CompileUnsupported(f"scalar destination {operand!r}")


def _vdst(g: _Gen, operand) -> int:
    if isinstance(operand, VReg):
        g.vregs.add(operand.index)
        return operand.index
    raise CompileUnsupported(f"vector destination {operand!r}")


def _batch_scalar(g: _Gen, operand) -> bool:
    """True when a scalar operand may vary per fused member at runtime.

    In a fused run any SGPR (or vcc/exec read-back) can carry a (K,)
    per-member array, so scalar operands in vector contexts must expand
    through the always-array ``_vx*`` helpers.  Literals stay scalar.
    """
    return g.fused and isinstance(operand, (SReg, Special))


def _v_u32(g: _Gen, operand) -> Tuple[str, bool]:
    """(expr, is_array) in the raw-uint32 domain (read_vector twin)."""
    if isinstance(operand, VReg):
        return g.vreg(operand.index), True
    if _batch_scalar(g, operand):
        return f"_vxu({_sexpr(g, operand)})", True
    return _sexpr(g, operand), False


def _v_f32(g: _Gen, operand, strict: bool = False) -> Tuple[str, bool]:
    """(expr, is_array) in the float32 domain.

    ``strict`` forces numpy-float32 scalars (see :func:`_f32b` for
    where the fast python-float form is exact).  NaN literals compile
    to broadcast lane-array constants; runtime NaN scalar values take
    the same array form inside ``_f32b``/``_f32s``.
    """
    if isinstance(operand, VReg):
        g.vreg(operand.index)
        g.f32_seen.add(operand.index)
        return f"V{operand.index}F", True
    if isinstance(operand, Lit):
        if operand.bits & 0x7FFFFFFF > 0x7F800000:
            return g.f32_const(operand.bits), True
        return g.const(_f32s(operand.bits)), False
    if _batch_scalar(g, operand):
        return f"_vxf({_sexpr(g, operand)})", True
    helper = "_f32s" if strict else "_f32b"
    return f"{helper}({_sexpr(g, operand)})", False


def _v_f32a(g: _Gen, operand) -> str:
    """Always-array expression in the float32 domain.

    Used to lift all-scalar float ops into the lane-array domain the
    interpreter computes in, so runtime NaN payload propagation (and
    array-typed results) match bit for bit.
    """
    if isinstance(operand, VReg):
        g.vreg(operand.index)
        g.f32_seen.add(operand.index)
        return f"V{operand.index}F"
    if isinstance(operand, Lit):
        return g.f32_const(operand.bits)
    if _batch_scalar(g, operand):
        return f"_vxf({_sexpr(g, operand)})"
    return f"_f32a({_sexpr(g, operand)})"


def _v_i32(g: _Gen, operand) -> Tuple[str, bool]:
    """(expr, is_array) in the signed-int32 domain (.view(_I32))."""
    if isinstance(operand, VReg):
        return f"{g.vreg(operand.index)}.view(_I32)", True
    if isinstance(operand, Lit):
        return repr(_i32(operand.bits)), False
    if _batch_scalar(g, operand):
        return f"_vxi({_sexpr(g, operand)})", True
    return f"_i32({_sexpr(g, operand)})", False


def _v_i64u(g: _Gen, operand) -> Tuple[str, bool]:
    """(expr, is_array): unsigned values widened to int64 (vint ops)."""
    if isinstance(operand, VReg):
        return f"{g.vreg(operand.index)}.astype(_I64)", True
    if _batch_scalar(g, operand):
        return f"_vxu({_sexpr(g, operand)}).astype(_I64)", True
    return _sexpr(g, operand), False


def _v_u32w(g: _Gen, operand) -> Tuple[str, bool]:
    """(expr, is_array) in the wrap-native uint32 domain.

    For +, -, *, &, |, ^ and bounded shifts, uint32 arithmetic wraps
    modulo 2**32 — bit-identical to the interpreter's widen-to-int64
    then ``& 0xFFFFFFFF`` dance, with a quarter of the array traffic.
    """
    if isinstance(operand, VReg):
        return g.vreg(operand.index), True
    if isinstance(operand, Lit):
        return g.const(np.uint32(operand.bits)), False
    if _batch_scalar(g, operand):
        return f"_vxu({_sexpr(g, operand)})", True
    return f"_U32({_sexpr(g, operand)})", False


def _v_i64s(g: _Gen, operand) -> Tuple[str, bool]:
    """(expr, is_array): signed int32 values widened to int64."""
    if isinstance(operand, VReg):
        return f"{g.vreg(operand.index)}.view(_I32).astype(_I64)", True
    if isinstance(operand, Lit):
        return repr(_i32(operand.bits)), False
    if _batch_scalar(g, operand):
        return f"_vxi({_sexpr(g, operand)}).astype(_I64)", True
    return f"_i32({_sexpr(g, operand)})", False


def _v_addr(g: _Gen, operand) -> str:
    """Lane-address array for memory ops (scalars broadcast, as the
    interpreter's read_vector does before gather/scatter)."""
    expr, is_array = _v_u32(g, operand)
    return expr if is_array else f"_full({expr})"


# -- write helpers ----------------------------------------------------------

def _pair(g: _Gen, dst: int) -> None:
    """Refresh the float32 twin after a uint32 rebind (if paired)."""
    if g.is_f32(dst):
        g.w(f"V{dst}F = V{dst}.view(_F32)")


def _write_u32(g: _Gen, dst: int, expr: str, is_array: bool) -> None:
    """EXEC-masked VGPR write of a uint32 result (rebind, no copy)."""
    g.w("if _ef:")
    if is_array:
        g.w(f"    V{dst} = {expr}")
    else:
        g.w(f"    V{dst} = _full({expr})")
    g.w("else:")
    g.w(f"    V{dst} = _np.where(EX, {expr}, V{dst})")
    _pair(g, dst)


def _write_f32(g: _Gen, dst: int, expr: str, is_array: bool) -> None:
    """EXEC-masked VGPR write of a float32 result (stored as bits)."""
    if is_array:
        g.f32_seen.add(dst)
        g.w("if _ef:")
        g.w(f"    V{dst}F = {expr}")
        g.w(f"    V{dst} = V{dst}F.view(_U32)")
        g.w("else:")
        g.w(f"    V{dst} = _np.where(EX, ({expr}).view(_U32), V{dst})")
        g.w(f"    V{dst}F = V{dst}.view(_F32)")
    else:
        _write_u32(g, dst, f"_fbits({expr})", False)


# -- per-opcode emitters ----------------------------------------------------

_Emitter = Callable[[_Gen, Instruction], None]
_EMIT: Dict[str, _Emitter] = {}


def _emit(name: str) -> Callable[[_Emitter], _Emitter]:
    def register(fn: _Emitter) -> _Emitter:
        _EMIT[name] = fn
        return fn
    return register


@_emit("s_mov_b32")
def _e_s_mov(g, inst):
    dst = _sdst(g, inst.operands[0])
    g.w(f"S{dst} = {_sexpr(g, inst.operands[1])}")


def _salu_binop(template: str) -> _Emitter:
    def run(g, inst):
        dst = _sdst(g, inst.operands[0])
        a = _sexpr(g, inst.operands[1])
        b = _sexpr(g, inst.operands[2])
        g.w(f"S{dst} = " + template.format(a=a, b=b))
    return run


# Results are already in [0, 2**32) so the set_sgpr re-mask is a no-op.
_EMIT["s_add_i32"] = _salu_binop("(({a}) + ({b})) & 0xFFFFFFFF")
_EMIT["s_sub_i32"] = _salu_binop("(({a}) - ({b})) & 0xFFFFFFFF")
_EMIT["s_mul_i32"] = _salu_binop("(({a}) * ({b})) & 0xFFFFFFFF")
_EMIT["s_and_b32"] = _salu_binop("({a}) & ({b})")
_EMIT["s_or_b32"] = _salu_binop("({a}) | ({b})")
_EMIT["s_xor_b32"] = _salu_binop("({a}) ^ ({b})")
_EMIT["s_lshl_b32"] = _salu_binop("(({a}) << (({b}) & 31)) & 0xFFFFFFFF")
_EMIT["s_lshr_b32"] = _salu_binop("(({a}) & 0xFFFFFFFF) >> (({b}) & 31)")
_EMIT["s_ashr_i32"] = _salu_binop(
    "(_i32({a}) >> (({b}) & 31)) & 0xFFFFFFFF"
)
_EMIT["s_min_i32"] = _salu_binop("min(_i32({a}), _i32({b})) & 0xFFFFFFFF")
_EMIT["s_max_i32"] = _salu_binop("max(_i32({a}), _i32({b})) & 0xFFFFFFFF")


@_emit("s_not_b32")
def _e_s_not(g, inst):
    dst = _sdst(g, inst.operands[0])
    g.w(f"S{dst} = (~({_sexpr(g, inst.operands[1])})) & 0xFFFFFFFF")


@_emit("s_bcnt1_i32_b32")
def _e_s_bcnt1(g, inst):
    dst = _sdst(g, inst.operands[0])
    a = _sexpr(g, inst.operands[1])
    g.w(f"S{dst} = bin(({a}) & 0xFFFFFFFF).count(\"1\")")


@_emit("s_ff1_i32_b32")
def _e_s_ff1(g, inst):
    dst = _sdst(g, inst.operands[0])
    g.w(f"_a = {_sexpr(g, inst.operands[1])}")
    g.w(
        f"S{dst} = ((_a & -_a).bit_length() - 1) if _a else 0xFFFFFFFF"
    )


def _scmp(py_op: str) -> _Emitter:
    def run(g, inst):
        a = _sexpr(g, inst.operands[0])
        b = _sexpr(g, inst.operands[1])
        g.w(f"SCC = _i32({a}) {py_op} _i32({b})")
    return run


for _name, _py in (
    ("eq", "=="), ("lg", "!="), ("lt", "<"),
    ("le", "<="), ("gt", ">"), ("ge", ">="),
):
    _EMIT[f"s_cmp_{_name}_i32"] = _scmp(_py)


@_emit("s_load_dword")
def _e_s_load(g, inst):
    dst = _sdst(g, inst.operands[0])
    base = _sexpr(g, inst.operands[1])
    offset = _sexpr(g, inst.operands[2])
    if g.fused:
        # the address may be a (K,) per-member array: _sld gathers one
        # word per member (and keeps the plain-int path for uniforms)
        g.w(f"S{dst} = _sld(GM, ({base}) + ({offset}))")
    else:
        g.w(f"S{dst} = GM.load_u32(({base}) + ({offset}))")


@_emit("v_mov_b32")
def _e_v_mov(g, inst):
    dst = _vdst(g, inst.operands[0])
    expr, is_array = _v_u32(g, inst.operands[1])
    _write_u32(g, dst, expr, is_array)


def _vfp_binop(template: str, strict: bool = False) -> _Emitter:
    def run(g, inst):
        dst = _vdst(g, inst.operands[0])
        a, a_arr = _v_f32(g, inst.operands[1], strict=strict)
        b, b_arr = _v_f32(g, inst.operands[2], strict=strict)
        if not (a_arr or b_arr):
            # all-scalar: lift into the lane-array domain the
            # interpreter computes in (broadcast, like read_vector), so
            # runtime NaN payloads and result typing match exactly
            a = _v_f32a(g, inst.operands[1])
            b, _ = _v_f32(g, inst.operands[2], strict=True)
        _write_f32(g, dst, template.format(a=a, b=b), True)
    return run


_EMIT["v_add_f32"] = _vfp_binop("({a}) + ({b})")
_EMIT["v_sub_f32"] = _vfp_binop("({a}) - ({b})")
_EMIT["v_mul_f32"] = _vfp_binop("({a}) * ({b})")
# maximum/minimum *copy* a NaN operand rather than produce one, so a
# python-float scalar (quietened at the C float->double conversion)
# could leak a different NaN payload: keep numpy scalars here.
_EMIT["v_max_f32"] = _vfp_binop("_np.maximum({a}, {b})", strict=True)
_EMIT["v_min_f32"] = _vfp_binop("_np.minimum({a}, {b})", strict=True)


@_emit("v_mac_f32")
def _e_v_mac(g, inst):
    dst = _vdst(g, inst.operands[0])
    a, a_arr = _v_f32(g, inst.operands[1])
    b, b_arr = _v_f32(g, inst.operands[2])
    if not (a_arr or b_arr):
        a, _ = _v_f32(g, inst.operands[1], strict=True)
        b, _ = _v_f32(g, inst.operands[2], strict=True)
    g.f32_seen.add(dst)
    # acc + a*b: the accumulator read makes the result always an array.
    _write_f32(g, dst, f"V{dst}F + ({a}) * ({b})", True)


@_emit("v_fma_f32")
def _e_v_fma(g, inst):
    dst = _vdst(g, inst.operands[0])
    a, a_arr = _v_f32(g, inst.operands[1])
    b, b_arr = _v_f32(g, inst.operands[2])
    c, c_arr = _v_f32(g, inst.operands[3])
    if not (a_arr or b_arr):
        # a*b would combine two python floats before numpy sees them
        a, _ = _v_f32(g, inst.operands[1], strict=True)
        b, _ = _v_f32(g, inst.operands[2], strict=True)
        if not c_arr:
            # all-scalar: lift into the array domain (see _vfp_binop)
            a = _v_f32a(g, inst.operands[1])
            c, _ = _v_f32(g, inst.operands[3], strict=True)
    _write_f32(g, dst, f"({a}) * ({b}) + ({c})", True)


def _vint_binop(template: str) -> _Emitter:
    """uint32 -> int64 binop, result masked back to uint32."""
    def run(g, inst):
        dst = _vdst(g, inst.operands[0])
        a, a_arr = _v_i64u(g, inst.operands[1])
        b, b_arr = _v_i64u(g, inst.operands[2])
        expr = template.format(a=a, b=b)
        if a_arr or b_arr:
            _write_u32(
                g, dst, f"(({expr}) & 0xFFFFFFFF).astype(_U32)", True
            )
        else:
            _write_u32(g, dst, f"({expr}) & 0xFFFFFFFF", False)
    return run


def _vint_wrap_binop(template: str) -> _Emitter:
    """Wrap-exact binop computed natively in uint32 (no widening)."""
    def run(g, inst):
        dst = _vdst(g, inst.operands[0])
        a, a_arr = _v_u32w(g, inst.operands[1])
        b, b_arr = _v_u32w(g, inst.operands[2])
        _write_u32(g, dst, template.format(a=a, b=b), a_arr or b_arr)
    return run


_EMIT["v_add_i32"] = _vint_wrap_binop("({a}) + ({b})")
_EMIT["v_sub_i32"] = _vint_wrap_binop("({a}) - ({b})")
_EMIT["v_mul_lo_i32"] = _vint_wrap_binop("({a}) * ({b})")
_EMIT["v_mul_hi_u32"] = _vint_binop("(({a}) * ({b})) >> 32")
_EMIT["v_and_b32"] = _vint_wrap_binop("({a}) & ({b})")
_EMIT["v_or_b32"] = _vint_wrap_binop("({a}) | ({b})")
_EMIT["v_xor_b32"] = _vint_wrap_binop("({a}) ^ ({b})")
# *rev shifts: src0 is the shift amount, src1 the value (SI convention);
# shift counts are masked to [0, 31] so uint32 shifts are well-defined
# and wrap exactly like the widened forms.
_EMIT["v_lshlrev_b32"] = _vint_wrap_binop("({b}) << (({a}) & 31)")
_EMIT["v_lshrrev_b32"] = _vint_wrap_binop("({b}) >> (({a}) & 31)")


def _vint_signed_minmax(np_fn: str, py_fn: str) -> _Emitter:
    def run(g, inst):
        dst = _vdst(g, inst.operands[0])
        a, a_arr = _v_i64s(g, inst.operands[1])
        b, b_arr = _v_i64s(g, inst.operands[2])
        if a_arr or b_arr:
            _write_u32(
                g, dst,
                f"((_np.{np_fn}({a}, {b})) & 0xFFFFFFFF).astype(_U32)",
                True,
            )
        else:
            _write_u32(g, dst, f"{py_fn}({a}, {b}) & 0xFFFFFFFF", False)
    return run


_EMIT["v_min_i32"] = _vint_signed_minmax("minimum", "min")
_EMIT["v_max_i32"] = _vint_signed_minmax("maximum", "max")


@_emit("v_ashrrev_i32")
def _e_v_ashr(g, inst):
    dst = _vdst(g, inst.operands[0])
    shift, s_arr = _v_i64u(g, inst.operands[1])
    value, v_arr = _v_i64s(g, inst.operands[2])
    expr = f"(({value}) >> (({shift}) & 31)) & 0xFFFFFFFF"
    if s_arr or v_arr:
        _write_u32(g, dst, f"({expr}).astype(_U32)", True)
    else:
        _write_u32(g, dst, expr, False)


@_emit("v_cndmask_b32")
def _e_v_cndmask(g, inst):
    dst = _vdst(g, inst.operands[0])
    a, _ = _v_u32(g, inst.operands[1])
    b, _ = _v_u32(g, inst.operands[2])
    # src1 where VCC is set, src0 elsewhere; result is always an array.
    _write_u32(
        g, dst, f"_np.where(VC, {b}, {a}).astype(_U32)", True
    )


@_emit("v_bfe_u32")
def _e_v_bfe(g, inst):
    dst = _vdst(g, inst.operands[0])
    value, v_arr = _v_i64u(g, inst.operands[1])
    offset, o_arr = _v_i64u(g, inst.operands[2])
    width, w_arr = _v_i64u(g, inst.operands[3])
    g.w(f"_w = ({width}) & 31")
    one = "_np.int64(1)" if w_arr else "1"
    g.w(f"_m = ({one} << _w) - 1")
    expr = f"((({value}) >> (({offset}) & 31)) & _m)"
    if v_arr or o_arr or w_arr:
        _write_u32(g, dst, f"({expr}).astype(_U32)", True)
    else:
        _write_u32(g, dst, expr, False)


@_emit("v_bfi_b32")
def _e_v_bfi(g, inst):
    dst = _vdst(g, inst.operands[0])
    select, s_arr = _v_i64u(g, inst.operands[1])
    insert, i_arr = _v_i64u(g, inst.operands[2])
    base, b_arr = _v_i64u(g, inst.operands[3])
    g.w(f"_s = {select}")
    expr = f"((_s & ({insert})) | (~_s & ({base}))) & 0xFFFFFFFF"
    if s_arr or i_arr or b_arr:
        _write_u32(g, dst, f"({expr}).astype(_U32)", True)
    else:
        _write_u32(g, dst, expr, False)


@_emit("v_cvt_f32_u32")
def _e_v_cvt_f32_u32(g, inst):
    dst = _vdst(g, inst.operands[0])
    expr, is_array = _v_u32(g, inst.operands[1])
    if is_array:
        _write_f32(g, dst, f"({expr}).astype(_F64).astype(_F32)", True)
    else:
        _write_f32(g, dst, f"_np.float64({expr}).astype(_F32)", False)


@_emit("v_cvt_f32_i32")
def _e_v_cvt_f32_i32(g, inst):
    dst = _vdst(g, inst.operands[0])
    expr, is_array = _v_i32(g, inst.operands[1])
    if is_array:
        _write_f32(g, dst, f"({expr}).astype(_F32)", True)
    else:
        _write_f32(g, dst, f"_np.float32({expr})", False)


def _cvt_from_f32(lo: str, hi: str, chain: str) -> _Emitter:
    def run(g, inst):
        dst = _vdst(g, inst.operands[0])
        # array domain always: nan_to_num/clip on a python float would
        # run in float64, and runtime NaN scalars arrive as arrays
        value = _v_f32a(g, inst.operands[1])
        g.w(f"_c = _np.nan_to_num({value}, nan=0.0)")
        g.w(f"_c = _np.clip(_c, {lo}, {hi})")
        _write_u32(g, dst, f"_c{chain}", True)
    return run


_EMIT["v_cvt_u32_f32"] = _cvt_from_f32(
    "0.0", "4294967295.0", ".astype(_U64).astype(_U32)"
)
_EMIT["v_cvt_i32_f32"] = _cvt_from_f32(
    "-2147483648.0", "2147483647.0", ".astype(_I64).astype(_U32)"
)


def _vfp_unop(template: str) -> _Emitter:
    def run(g, inst):
        dst = _vdst(g, inst.operands[0])
        # array domain always (needs .astype, and runtime NaN scalars
        # arrive as arrays — see _f32a)
        value = _v_f32a(g, inst.operands[1])
        _write_f32(
            g, dst, template.format(v=value) + ".astype(_F32)", True
        )
    return run


_EMIT["v_trunc_f32"] = _vfp_unop("_np.trunc({v})")
_EMIT["v_floor_f32"] = _vfp_unop("_np.floor({v})")
# transcendentals compute through float64, exactly like _vtrans
_EMIT["v_exp_f32"] = _vfp_unop("_np.exp2(({v}).astype(_F64))")
_EMIT["v_log_f32"] = _vfp_unop("_np.log2(({v}).astype(_F64))")
_EMIT["v_rcp_f32"] = _vfp_unop("(1.0 / ({v}).astype(_F64))")
_EMIT["v_rsq_f32"] = _vfp_unop("(1.0 / _np.sqrt(({v}).astype(_F64)))")
_EMIT["v_sqrt_f32"] = _vfp_unop("_np.sqrt(({v}).astype(_F64))")


def _vcmp(py_op: str, domain, cmpx: bool) -> _Emitter:
    def run(g, inst):
        a, _ = domain(g, inst.operands[0])
        b, _ = domain(g, inst.operands[1])
        if not cmpx:
            g.w(f"VC = _np.where(EX, ({a}) {py_op} ({b}), False)")
            return
        g.w(f"_m = _np.where(EX, ({a}) {py_op} ({b}), False)")
        g.w("VC = _m")
        g.w("EX = EX & _m")
        g.w("_ef = bool(EX.all())")
    return run


for _name, _py in (
    ("eq", "=="), ("lt", "<"), ("gt", ">"), ("le", "<="), ("ge", ">="),
):
    _EMIT[f"v_cmp_{_name}_f32"] = _vcmp(_py, _v_f32, cmpx=False)
for _name, _py in (("eq", "=="), ("lt", "<"), ("gt", ">")):
    _EMIT[f"v_cmp_{_name}_i32"] = _vcmp(_py, _v_i32, cmpx=False)
for _name, _py in (("lt", "<"), ("gt", ">")):
    _EMIT[f"v_cmpx_{_name}_f32"] = _vcmp(_py, _v_f32, cmpx=True)
for _name, _py in (("eq", "=="), ("lt", "<"), ("ge", ">=")):
    _EMIT[f"v_cmpx_{_name}_i32"] = _vcmp(_py, _v_i32, cmpx=True)


@_emit("s_saveexec_b64")
def _e_s_saveexec(g, inst):
    if g.fused:
        raise CompileUnsupported("batch: exec-mask save/restore")
    dst = _sdst(g, inst.operands[0])
    g.sregs.add(dst + 1)
    g.w("_lo, _hi = _mw(EX)")
    g.w(f"S{dst} = _lo")
    g.w(f"S{dst + 1} = _hi")


@_emit("s_mov_exec_b64")
def _e_s_mov_exec(g, inst):
    if g.fused:
        raise CompileUnsupported("batch: exec-mask save/restore")
    src = _sdst(g, inst.operands[0])
    g.sregs.add(src + 1)
    g.w(f"EX = _wm(S{src}, S{src + 1})")
    g.w("_ef = bool(EX.all())")


@_emit("v_readfirstlane_b32")
def _e_v_readfirstlane(g, inst):
    if g.fused:
        # the first active lane of the *stacked* mask belongs to one
        # member only — a cross-member scalar leak, so decline
        raise CompileUnsupported("batch: v_readfirstlane_b32")
    dst = _sdst(g, inst.operands[0])
    src, is_array = _v_u32(g, inst.operands[1])
    if is_array:
        g.w("_a = _np.nonzero(EX)[0]")
        g.w(
            f"S{dst} = int(({src})[int(_a[0]) if _a.size else 0])"
        )
    else:
        g.w(f"S{dst} = {src}")


@_emit("ds_read_b32")
def _e_ds_read(g, inst):
    dst = _vdst(g, inst.operands[0])
    addr = _v_addr(g, inst.operands[1])
    # gather_all_u32 skips the mask reduction when every lane is
    # active (the steady state of the shipped kernels).
    _write_u32(
        g, dst,
        f"LM.gather_all_u32({addr}) if _ef else LM.gather_u32({addr}, EX)",
        True,
    )


@_emit("ds_write_b32")
@_emit("ds_add_u32")
def _e_ds_write(g, inst):
    # Declined at every K: a fault rollback restores global memory
    # only, and LDS is model state every fused member shares.  No
    # shipped kernel writes LDS; kernels that do run on the interpreter.
    raise CompileUnsupported(f"LDS write: {inst.op}")


@_emit("ds_swizzle_b32")
def _e_ds_swizzle(g, inst):
    dst = _vdst(g, inst.operands[0])
    src, is_array = _v_u32(g, inst.operands[1])
    if not is_array:
        # a broadcast source swizzles to itself
        _write_u32(g, dst, f"_full({src})", True)
        return
    xor_op = inst.operands[2]
    if isinstance(xor_op, Lit):
        # stacked-safe: the XOR pattern only touches the low 6 bits of
        # the lane index, so each 64-lane member block permutes within
        # itself — one index table covers every fused member
        lanes = g.const(
            np.arange(g.total_lanes) ^ (xor_op.bits & (WAVE_SIZE - 1))
        )
        _write_u32(g, dst, f"({src})[{lanes}]", True)
    else:
        if g.fused:
            # a varying pattern would need per-member index tables
            raise CompileUnsupported("batch: data-dependent swizzle")
        xor = _sexpr(g, xor_op)
        _write_u32(
            g, dst, f"({src})[_LANES ^ (({xor}) & {WAVE_SIZE - 1})]", True
        )


@_emit("flat_load_dword")
def _e_flat_load(g, inst):
    dst = _vdst(g, inst.operands[0])
    addr = _v_addr(g, inst.operands[1])
    _write_u32(
        g, dst,
        f"GM.gather_all_u32({addr}) if _ef else GM.gather_u32({addr}, EX)",
        True,
    )


@_emit("flat_store_dword")
def _e_flat_store(g, inst):
    addr = _v_addr(g, inst.operands[0])
    value = _v_addr(g, inst.operands[1])
    g.w("if _ef:")
    g.w(f"    GM.scatter_all_u32({addr}, {value})")
    g.w("else:")
    g.w(f"    GM.scatter_u32({addr}, {value}, EX)")


# ---------------------------------------------------------------------------
# Compiled representation
# ---------------------------------------------------------------------------

class CompiledKernel:
    """A kernel lowered to one fused executor over K stacked members.

    The generated function is a label-dispatch loop over K * WAVE_SIZE
    element lane arrays (member m owns lanes [m * 64, (m + 1) * 64));
    K = 1 is a single dispatch.  Kernel arguments are plain ints
    (uniform across members) or, for K >= 2, (K,) int64 arrays
    (per-member).

    ``run_workgroups`` mirrors the interpreter scheduler for a single
    resident wavefront: per-wavefront issue times accumulate as
    ``sum(max(issue, cost))`` per executed instruction, precomputed per
    block and folded into the generated function, which returns
    ``(instructions, ready_offset, next_now_offset)`` per wavefront.
    It deliberately commits *nothing*: the dispatcher commits the
    returned (elapsed, count) pair, or on any exception rolls back its
    memory journal and replays on the exact path.  Every fused member
    executes the identical instruction stream in lockstep (divergence
    raises :class:`BatchDivergence`), so the one pair is bit-identical
    to what :meth:`ComputeUnit.run_workgroups` reports for each member.
    """

    __slots__ = ("kernel", "fn", "filename", "source", "batch")

    def __init__(
        self, kernel: Kernel, fn, filename: str, source: str, batch: int
    ) -> None:
        self.kernel = kernel
        self.fn = fn
        self.filename = filename
        self.source = source
        self.batch = batch

    def run_workgroups(
        self,
        global_memory,
        local_memory,
        workgroup_ids: Sequence[int],
        num_workgroups_total: int,
        args: Sequence[object],
    ) -> Tuple[int, int]:
        """Execute workgroups; returns per-member (cycles, instructions).

        Run it under ``np.errstate(all="ignore")``, as the interpreter's
        lane arithmetic is (the dispatcher enters it once per dispatch).
        """
        fn = self.fn
        nwg = num_workgroups_total & 0xFFFFFFFF
        num_args = len(args)
        now = 0
        cycles_end = 0
        total = 0
        for wg_id in workgroup_ids:
            count, ready_off, next_off = fn(
                global_memory, local_memory, wg_id, nwg, args, num_args,
            )
            total += count
            end_ready = now + ready_off
            if end_ready > cycles_end:
                cycles_end = end_ready
            now += next_off
        elapsed = now if now > cycles_end else cycles_end
        return elapsed, total


# ---------------------------------------------------------------------------
# Compilation driver
# ---------------------------------------------------------------------------

def _leaders(kernel: Kernel) -> List[int]:
    instructions = kernel.instructions
    leaders = {0}
    for pc, inst in enumerate(instructions):
        if inst.op == "s_branch" or inst.op in _COND_EXPR:
            leaders.add(pc + 1)
            leaders.add(kernel.resolve(inst.target))
        elif inst.op == "s_endpgm":
            leaders.add(pc + 1)
    return sorted(pc for pc in leaders if 0 <= pc < len(instructions))


def _emit_instruction(
    g: _Gen, inst: Instruction, kernel: Kernel, allowed_ops
) -> None:
    """Emit one instruction's statements (or its static fault)."""
    if allowed_ops is not None and inst.op not in allowed_ops:
        message = (
            f"opcode {inst.op!r} was trimmed out of this engine "
            f"(kernel {kernel.name}, line {inst.line})"
        )
        g.w(f"raise IllegalInstructionError({message!r})")
        return
    if inst.op in _NO_EFFECT_OPS or inst.op in _COND_EXPR:
        return
    emitter = _EMIT.get(inst.op)
    if emitter is None:
        raise CompileUnsupported(f"opcode {inst.op!r}")
    try:
        emitter(g, inst)
    except _RuntimeRaise as fault:
        g.w(f"raise {fault.expr}")


def compile_kernel(
    kernel: Kernel,
    timings: Optional[GpuTimings] = None,
    allowed_ops=None,
    batch: int = 1,
) -> CompiledKernel:
    """Lower ``kernel`` into one fused executor over ``batch`` members.

    ``batch=K`` stacks K members' lanes into K * WAVE_SIZE element
    arrays; K = 1 is a single dispatch.  Raises
    :class:`CompileUnsupported` for any shape this compiler cannot
    mirror exactly at that K (K >= 2 also declines exec-mask
    save/restore, ``v_readfirstlane`` and data-dependent swizzles) —
    the caller falls back to the interpreter, or to serial batches of
    one.
    """
    if batch < 1:
        raise ValueError("batch size must be >= 1")
    timings = timings or GpuTimings()
    instructions = kernel.instructions
    n = len(instructions)
    if n == 0:
        raise CompileUnsupported("empty kernel")
    issue = timings.issue

    # Discovery pass: run every emitter once against a throwaway
    # generator to learn which registers are used and which VGPRs need
    # a float32-paired local (and to surface CompileUnsupported before
    # any real emission).
    scan = _Gen(batch=batch)
    for inst in instructions:
        _emit_instruction(scan, inst, kernel, allowed_ops)
    if scan.vregs and max(scan.vregs) >= kernel.vgprs_used:
        # the interpreter faults on reads past the allocation; keep
        # that (odd) behavior by declining to compile
        raise CompileUnsupported("vgpr index beyond .vgprs allocation")
    if scan.sregs and max(scan.sregs) >= NUM_SGPRS:
        raise CompileUnsupported("sgpr index beyond the register file")

    starts = _leaders(kernel)
    block_of = {pc: index for index, pc in enumerate(starts)}
    spans = [
        (start, starts[index + 1] if index + 1 < len(starts) else n)
        for index, start in enumerate(starts)
    ]

    gen = _Gen(f32_regs=frozenset(scan.f32_seen), batch=batch)
    cond_exprs = _BATCH_COND_EXPR if gen.fused else _COND_EXPR
    raise_arms: Dict[int, int] = {}
    next_arm = len(spans)

    def edge(pc: int) -> int:
        """Arm index for a control-flow edge target."""
        index = block_of.get(pc)
        if index is not None:
            return index
        # Branch to one-past-the-end (or any unmapped pc): a pseudo
        # arm that reproduces the interpreter's bounds fault.
        nonlocal next_arm
        index = raise_arms.get(pc)
        if index is None:
            index = next_arm
            next_arm += 1
            raise_arms[pc] = index
        return index

    guard_prefix = f"kernel {kernel.name}: wavefront "
    guard_suffix = (
        f" exceeded {MAX_INSTRUCTIONS_PER_WAVE} instructions "
        "(runaway loop?)"
    )

    # -- prologue ----------------------------------------------------------
    gen.lines.append("def _run(GM, LM, wg_id, nwg, A, _na):")
    gen.indent = "    "
    for index in sorted(scan.sregs):
        if index == 0:
            gen.w("S0 = wg_id")
        elif index == 1:
            gen.w("S1 = nwg")
        else:
            arg = index - 2
            gen.w(f"S{index} = A[{arg}] if _na > {arg} else 0")
    for index in sorted(scan.vregs):
        gen.w(f"V{index} = _LANE_IDS" if index == 0 else f"V{index} = _Z64")
    for index in sorted(scan.f32_seen):
        gen.w(f"V{index}F = _LANE_IDS.view(_F32)" if index == 0
              else f"V{index}F = _Z64F")
    gen.w("EX = _TRUE64")
    gen.w("_ef = True")
    gen.w("VC = _FALSE64")
    gen.w("SCC = False")
    gen.w("n = 0")
    gen.w("t = 0")
    gen.w("_L = 0")
    gen.w("while True:")

    for block_index, (start, end) in enumerate(spans):
        span = instructions[start:end]
        costs = [
            timings.cost(opcode_info(inst.op).unit) for inst in span
        ]
        advances = [max(issue, cost) for cost in costs]
        count = len(span)
        adv = sum(advances)

        keyword = "if" if block_index == 0 else "elif"
        gen.indent = "        "
        gen.w(f"{keyword} _L == {block_index}:")
        gen.indent = "            "
        gen.w(f"if n > {MAX_INSTRUCTIONS_PER_WAVE}:")
        gen.w(f"    raise GpuError({guard_prefix!r} + str(wg_id)"
              f" + {guard_suffix!r})")
        for inst in span:
            _emit_instruction(gen, inst, kernel, allowed_ops)

        last = span[-1]
        gen.w(f"n += {count}")
        if last.op == "s_endpgm":
            last_issue_off = adv - advances[-1]
            ready_off = last_issue_off + costs[-1]
            next_now_off = last_issue_off + issue
            gen.w(f"return n, t + {ready_off}, t + {next_now_off}")
        elif last.op == "s_branch":
            gen.w(f"t += {adv}")
            gen.w(f"_L = {edge(kernel.resolve(last.target))}")
        elif last.op in _COND_EXPR:
            target = edge(kernel.resolve(last.target))
            fall = edge(end)
            gen.w(f"t += {adv}")
            gen.w(
                f"_L = {target} if ({cond_exprs[last.op]}) else {fall}"
            )
        else:
            gen.w(f"t += {adv}")
            gen.w(f"_L = {edge(end)}")

    for pc, arm_index in sorted(raise_arms.items(), key=lambda kv: kv[1]):
        message = f"kernel {kernel.name}: pc {pc} out of range"
        gen.indent = "        "
        gen.w(f"elif _L == {arm_index}:")
        gen.indent = "            "
        gen.w(f"raise GpuError({message!r})")

    source = "\n".join(gen.lines)
    if gen.fused:
        filename = (
            f"<miaow-batchpath-k{batch}:{kernel.name}:"
            f"{kernel.content_digest()[:8]}>"
        )
        namespace = dict(_batched_globals(batch))
    else:
        filename = (
            f"<miaow-fastpath:{kernel.name}:{kernel.content_digest()[:8]}>"
        )
        namespace = dict(_BASE_GLOBALS)
    namespace.update(gen.consts)
    try:
        code = compile(source, filename, "exec")
        exec(code, namespace)
    except SyntaxError as error:  # pragma: no cover - emitter bug guard
        raise CompileUnsupported(f"codegen error: {error}") from error
    return CompiledKernel(
        kernel=kernel,
        fn=namespace["_run"],
        filename=filename,
        source=source,
        batch=batch,
    )
