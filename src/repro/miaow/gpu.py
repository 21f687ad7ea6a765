"""Multi-CU GPU: dispatcher over compute units.

The original MIAOW fits one CU in the ZC706 fabric; ML-MIAOW fits five
trimmed ones.  A dispatch spreads workgroups round-robin over CUs and
completes when the slowest CU finishes — CUs share global memory but
have private LDS (each holding its own copy of the model weights, the
way the MCM loads them at application-load time).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set

import numpy as np

from repro.errors import GpuError, GpuMemoryError, KernelLaunchError
from repro.miaow.assembler import Kernel
from repro.miaow.compiler import (
    CompiledKernel,
    CompileUnsupported,
    compile_kernel,
)
from repro.miaow.isa import NUM_SGPRS
from repro.miaow.compute_unit import ComputeUnit, GpuTimings
from repro.miaow.coverage import CoverageCollector
from repro.miaow.memory import GlobalMemory
from repro.obs import MetricsRegistry, NULL_REGISTRY

#: Dispatch-plan LRU capacity (keyed by workgroup count).
PLAN_CACHE_CAPACITY = 64

#: Compiled-executor LRU capacity, keyed on (digest, K).  Each batch
#: size needs its own lowering (stacked-lane constants are sized
#: K * WAVE_SIZE); the shipped model zoo's six kernels at a handful of
#: widths fit with headroom for synthetic/test kernels, without letting
#: a kernel-churning workload hold executors forever.
EXECUTOR_CACHE_CAPACITY = 64

_FALLBACK_REASONS = ("disabled", "coverage", "occupancy", "unsupported")

#: Why a fused (K >= 2) dispatch_batch call fell back to serial batches
#: of one: ``engine`` — the engine itself is off the fast path
#: (interpreter mode, coverage, occupancy > 1); ``unsupported`` — the
#: kernel has no fused lowering at this K; ``replayed`` — the fused run
#: raised (member fault or control divergence) and was rolled back and
#: replayed serially.
_BATCH_FALLBACK_REASONS = ("engine", "unsupported", "replayed")


class _JournaledGlobalMemory:
    """Write-journaling view of :class:`GlobalMemory` for compiled runs.

    Records the pre-image of every scatter so a compiled run that
    raises can be rolled back to the exact pre-dispatch memory state
    before the exact path replays it — that replay then reproduces the
    interpreter's results, partial effects and fault bit for bit.
    Reads delegate untouched; LDS needs no journal because the compiler
    statically rejects LDS-writing kernels.
    """

    __slots__ = (
        "_memory", "_journal", "load_u32", "gather_all_u32", "gather_u32",
    )

    def __init__(self, memory, journal: list) -> None:
        self._memory = memory
        self._journal = journal
        # reads bind straight through: no extra call frame per load
        self.load_u32 = memory.load_u32
        self.gather_all_u32 = memory.gather_all_u32
        self.gather_u32 = memory.gather_u32

    def scatter_all_u32(self, addresses, values) -> None:
        memory = self._memory
        self._journal.append((addresses, memory.gather_all_u32(addresses)))
        memory.scatter_all_u32(addresses, values)

    def scatter_u32(self, addresses, values, mask) -> None:
        memory = self._memory
        if mask.any():
            active = addresses[mask]
            self._journal.append((active, memory.gather_all_u32(active)))
        memory.scatter_u32(addresses, values, mask)


@dataclass(frozen=True)
class DispatchResult:
    """Outcome of one kernel dispatch."""

    kernel: str
    cycles: int
    instructions: int
    per_cu_cycles: Dict[int, int]

    def microseconds(self, clock_hz: float) -> float:
        return self.cycles / clock_hz * 1e6


class Gpu:
    """A MIAOW-style GPU with ``num_cus`` compute units."""

    def __init__(
        self,
        num_cus: int = 1,
        timings: Optional[GpuTimings] = None,
        global_memory: Optional[GlobalMemory] = None,
        lds_bytes: int = 64 * 1024,
        max_resident: int = 1,
        coverage: Optional[CoverageCollector] = None,
        allowed_ops: Optional[Set[str]] = None,
        name: str = "MIAOW",
        metrics: Optional[MetricsRegistry] = None,
        fast_path: bool = True,
    ) -> None:
        if num_cus < 1:
            raise GpuError("need at least one CU")
        self.name = name
        self.timings = timings or GpuTimings()
        self.global_memory = global_memory or GlobalMemory()
        self.coverage = coverage
        self.allowed_ops = allowed_ops
        self.max_resident = max_resident
        self.fast_path = fast_path
        # (digest, K) -> CompiledKernel, or None when the compiler
        # declined (negative cache: don't retry a hopeless compile on
        # every dispatch).
        self._executors: "OrderedDict[tuple, Optional[CompiledKernel]]" = (
            OrderedDict()
        )
        # workgroup count -> per-CU workgroup-id lists (round-robin);
        # shared by the compiled and interpreted paths.
        self._plan_cache: "OrderedDict[int, List[List[int]]]" = OrderedDict()
        self.compute_units = [
            ComputeUnit(
                cu_id=index,
                global_memory=self.global_memory,
                timings=self.timings,
                lds_bytes=lds_bytes,
                max_resident=max_resident,
                coverage=coverage,
                allowed_ops=allowed_ops,
            )
            for index in range(num_cus)
        ]
        # Resident read-only LDS images: image bytes -> byte base.
        self._lds_images: Dict[bytes, int] = {}
        self._lds_free = 0
        self.dispatches = 0
        self.metrics = metrics or NULL_REGISTRY
        self._bind_instruments()

    def _bind_instruments(self) -> None:
        registry = self.metrics
        self._m_dispatches = registry.counter("gpu.dispatches")
        self._m_cycles = registry.counter("gpu.wavefront_cycles")
        self._m_instructions = registry.counter("gpu.instructions")
        self._m_compile_hits = registry.counter("miaow.compile.hits")
        self._m_compile_misses = registry.counter("miaow.compile.misses")
        self._m_compile_evictions = registry.counter("miaow.compile.evictions")
        self._m_fast_dispatches = registry.counter("miaow.fastpath.dispatches")
        self._m_interpreted = registry.counter("miaow.fastpath.interpreted")
        self._m_fallback = {
            reason: registry.counter(f"miaow.fastpath.fallback.{reason}")
            for reason in _FALLBACK_REASONS
        }
        self._m_batch_dispatches = registry.counter("miaow.batch.dispatches")
        self._m_batch_requests = registry.counter("miaow.batch.requests")
        self._m_batch_fallback = {
            reason: registry.counter(f"miaow.batch.fallback.{reason}")
            for reason in _BATCH_FALLBACK_REASONS
        }

    def bind_metrics(self, metrics: MetricsRegistry) -> None:
        """Late-attach a registry (dispatches so far are not counted)."""
        self.metrics = metrics
        self._bind_instruments()

    @property
    def num_cus(self) -> int:
        return len(self.compute_units)

    # ------------------------------------------------------------------
    # Model preload (LDS is per-CU, every CU gets a copy)
    # ------------------------------------------------------------------

    def write_lds_all(self, address: int, data: np.ndarray) -> None:
        for cu in self.compute_units:
            cu.local_memory.write_block(address, data)

    def write_lds_f32_all(self, address: int, data: np.ndarray) -> None:
        for cu in self.compute_units:
            cu.local_memory.write_f32(address, data)

    def place_lds_image(self, image: np.ndarray) -> int:
        """Load a read-only f32 model image into every CU's LDS and
        return its byte base.

        Images are placed by content: an identical image (tenants that
        deploy the same model) reuses its resident base, and a
        different one goes to the next free offset, so models sharing
        this engine never overwrite each other's weights.
        """
        words = np.ascontiguousarray(image, dtype=np.float32).view(np.uint32)
        key = words.tobytes()
        base = self._lds_images.get(key)
        if base is None:
            base = self._lds_free
            capacity = self.compute_units[0].local_memory.size_bytes
            if base + len(key) > capacity:
                raise GpuMemoryError(
                    f"LDS full: a {len(key)} B model image does not fit "
                    f"after {base} B of resident images ({capacity} B)"
                )
            self.write_lds_all(base, words)
            self._lds_images[key] = base
            self._lds_free = base + len(key)
        return base

    # ------------------------------------------------------------------
    # Fast-path plumbing
    # ------------------------------------------------------------------

    def _fallback_reason(self) -> Optional[str]:
        """Why this dispatch cannot take the compiled path (or None).

        Coverage collection hooks every architectural instruction
        issue, and multi-wavefront occupancy interleaves instructions
        from different wavefronts — neither is reproducible by fused
        block executors, so both route to the interpreter.
        """
        if not self.fast_path:
            return "disabled"
        if self.coverage is not None:
            return "coverage"
        if self.max_resident != 1:
            return "occupancy"
        return None

    def _executor_for(
        self, kernel: Kernel, batch: int
    ) -> Optional[CompiledKernel]:
        """LRU-cached compile at width ``batch`` (None = no lowering)."""
        key = (kernel.content_digest(), batch)
        cache = self._executors
        if key in cache:
            cache.move_to_end(key)
            self._m_compile_hits.inc()
            return cache[key]
        self._m_compile_misses.inc()
        try:
            compiled: Optional[CompiledKernel] = compile_kernel(
                kernel, self.timings, self.allowed_ops, batch
            )
        except CompileUnsupported:
            compiled = None
        cache[key] = compiled
        if len(cache) > EXECUTOR_CACHE_CAPACITY:
            cache.popitem(last=False)
            self._m_compile_evictions.inc()
        return compiled

    def _dispatch_plan(self, num_workgroups: int) -> List[List[int]]:
        """Round-robin wg->CU assignment, cached per workgroup count."""
        plan = self._plan_cache.get(num_workgroups)
        if plan is None:
            plan = [[] for _ in self.compute_units]
            for wg_id in range(num_workgroups):
                plan[wg_id % self.num_cus].append(wg_id)
            self._plan_cache[num_workgroups] = plan
            if len(self._plan_cache) > PLAN_CACHE_CAPACITY:
                self._plan_cache.popitem(last=False)
        else:
            self._plan_cache.move_to_end(num_workgroups)
        return plan

    def fastpath_stats(self) -> Dict[str, int]:
        """Cache occupancy snapshot (for benchmarks and tests)."""
        compiled = sum(
            1 for value in self._executors.values() if value is not None
        )
        return {
            "compiled_cached": compiled,
            "unsupported_cached": len(self._executors) - compiled,
            "plans_cached": len(self._plan_cache),
        }

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------

    def dispatch(
        self,
        kernel: Kernel,
        num_workgroups: int,
        args: Sequence[int] = (),
    ) -> DispatchResult:
        """Run ``num_workgroups`` workgroups of ``kernel``: a batch of one.

        Workgroup ids are distributed round-robin across CUs; the
        dispatch's latency is the slowest CU's elapsed cycles.
        """
        return self.dispatch_batch(kernel, num_workgroups, [args])[0]

    def dispatch_batch(
        self,
        kernel: Kernel,
        num_workgroups: int,
        args_lists: Sequence[Sequence[int]],
    ) -> List[DispatchResult]:
        """Run K compatible requests of ``kernel`` as one fused dispatch.

        ``args_lists`` holds one argument list per member; argument
        positions every member agrees on stay uniform scalars, the rest
        become (K,) per-member arrays inside the fused executor.

        When eligible (fast path enabled, no coverage collector,
        occupancy 1) the members run through the cached executor for
        (kernel, K).  The results — scores in memory, per-member cycle
        counts, instruction counters, fault type/message and partial
        effects — are bit-identical to interpreting the members one at
        a time: members run in lockstep (so each member's timing equals
        its solo timing), all global-memory writes are journaled, and
        any compiled-run exception rolls the journal back and replays
        on the exact path — the interpreter for a batch of one, serial
        batches of one for K >= 2 (member fault, control divergence).
        """
        members = len(args_lists)
        if members == 0:
            raise KernelLaunchError("dispatch_batch needs at least one member")
        if num_workgroups < 1:
            raise KernelLaunchError("num_workgroups must be >= 1")
        reason = self._fallback_reason()
        if reason is not None:
            return self._exact(
                kernel, num_workgroups, args_lists, reason, "engine"
            )
        compiled = self._executor_for(kernel, members)
        width = len(args_lists[0])
        if (
            compiled is None
            or width > NUM_SGPRS - 2
            or any(len(args) != width for args in args_lists)
        ):
            return self._exact(
                kernel, num_workgroups, args_lists, "unsupported",
                "unsupported",
            )

        # Column-wise argument stacking: uniform positions stay plain
        # ints (and fold through the scalar domain exactly like a batch
        # of one); varying positions become (K,) arrays.
        if members == 1:
            columns = [int(value) & 0xFFFFFFFF for value in args_lists[0]]
        else:
            columns = []
            for column in zip(*args_lists):
                values = [int(value) & 0xFFFFFFFF for value in column]
                first = values[0]
                if all(value == first for value in values[1:]):
                    columns.append(first)
                else:
                    columns.append(np.array(values, dtype=np.int64))

        plan = self._dispatch_plan(num_workgroups)
        journal: List[tuple] = []
        memory = _JournaledGlobalMemory(self.global_memory, journal)
        runs = []
        try:
            with np.errstate(all="ignore"):
                for cu in self.compute_units:
                    wg_ids = plan[cu.cu_id]
                    if wg_ids:
                        runs.append((cu, compiled.run_workgroups(
                            memory, cu.local_memory, wg_ids,
                            num_workgroups, columns,
                        )))
        except Exception:
            for addresses, values in reversed(journal):
                self.global_memory.scatter_all_u32(addresses, values)
            # A batch of one that raised is served as if it had no
            # lowering: the interpreter reproduces its fault exactly.
            return self._exact(
                kernel, num_workgroups, args_lists, "unsupported",
                "replayed",
            )

        # Commit: every member executed the identical instruction
        # stream in lockstep, so per-member timing and counts equal the
        # fused run's — scatter them back K-fold.
        per_cu_cycles = dict.fromkeys(range(self.num_cus), 0)
        instructions = 0
        for cu, (elapsed, count) in runs:
            cu.total_cycles += elapsed * members
            cu.total_instructions += count * members
            per_cu_cycles[cu.cu_id] = elapsed
            instructions += count
        cycles = max(per_cu_cycles.values())
        self._tally(members, cycles, instructions)
        self._m_fast_dispatches.inc(members)
        if members > 1:
            self._m_batch_dispatches.inc()
            self._m_batch_requests.inc(members)
        return [
            DispatchResult(
                kernel=kernel.name,
                cycles=cycles,
                instructions=instructions,
                per_cu_cycles=(
                    dict(per_cu_cycles) if member else per_cu_cycles
                ),
            )
            for member in range(members)
        ]

    def _exact(
        self,
        kernel: Kernel,
        num_workgroups: int,
        args_lists: Sequence[Sequence[int]],
        reason: str,
        batch_reason: str,
    ) -> List[DispatchResult]:
        """Serve members on the exact path: a batch of one on the
        interpreter (counted under ``reason``), K >= 2 as serial batches
        of one (counted once under ``batch_reason``)."""
        if len(args_lists) > 1:
            self._m_batch_fallback[batch_reason].inc()
            return [
                self.dispatch(kernel, num_workgroups, args)
                for args in args_lists
            ]
        args = args_lists[0]
        plan = self._dispatch_plan(num_workgroups)
        per_cu_cycles: Dict[int, int] = {}
        instructions_before = sum(
            cu.total_instructions for cu in self.compute_units
        )
        for cu in self.compute_units:
            wg_ids = plan[cu.cu_id]
            per_cu_cycles[cu.cu_id] = (
                cu.run_workgroups(kernel, wg_ids, num_workgroups, args)
                if wg_ids else 0
            )
        instructions = (
            sum(cu.total_instructions for cu in self.compute_units)
            - instructions_before
        )
        cycles = max(per_cu_cycles.values())
        self._tally(1, cycles, instructions)
        self._m_interpreted.inc()
        self._m_fallback[reason].inc()
        return [
            DispatchResult(
                kernel=kernel.name,
                cycles=cycles,
                instructions=instructions,
                per_cu_cycles=per_cu_cycles,
            )
        ]

    def _tally(self, members: int, cycles: int, instructions: int) -> None:
        self.dispatches += members
        self._m_dispatches.inc(members)
        self._m_cycles.inc(cycles * members)
        self._m_instructions.inc(instructions * members)
