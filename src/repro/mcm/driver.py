"""ML-MIAOW driver: the kernel-sequencing layer of the MCM.

Binds one deployed model to one GPU engine and runs inferences.  The
deployed model fixes the driver's ``kind`` and, with it, the MCM's
protocol conversion (``converter``).  Two execution modes:

- **exact** (``execute_on_gpu=True``): every inference actually runs
  on the GPU simulator.  When the engine's fast path is eligible the
  dispatches go through :mod:`repro.miaow.compiler`'s cached compiled
  executors (bit-identical to the interpreter); either way this mode
  is used by correctness tests and the equivalence checks.
- **calibrated** (``execute_on_gpu=False``): kernel cycle counts are
  measured once on the real simulator (they are data-independent —
  every kernel loop has a fixed trip count) and reused, while scores
  come from the float32 reference twin.  Used by the long Fig. 8
  queueing simulations, where thousands of inferences would otherwise
  make wall-clock time explode without changing a single cycle count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import McmError
from repro.mcm.engines import ProtocolConverter
from repro.miaow.gpu import Gpu
from repro.ml.kernels import DeployedModel, KernelResult
from repro.obs import MetricsRegistry, NULL_REGISTRY


@dataclass(frozen=True)
class InferencePhases:
    """GPU cycle accounting of one inference."""

    names: Sequence[str]
    cycles: Sequence[int]

    @property
    def total_cycles(self) -> int:
        return int(sum(self.cycles))

    @property
    def num_dispatches(self) -> int:
        return len(self.cycles)


@dataclass
class DriverResult:
    score: float
    phases: InferencePhases


def _driver_result(result: KernelResult) -> DriverResult:
    """A kernel-level inference result as the MCM sees it."""
    dispatches = result.dispatches
    return DriverResult(
        score=result.score,
        phases=InferencePhases(
            names=tuple(d.kernel for d in dispatches),
            cycles=tuple(d.cycles for d in dispatches),
        ),
    )


class MlMiaowDriver:
    """Host-side sequencing of kernel dispatches per inference."""

    def __init__(
        self,
        deployment: DeployedModel,
        gpu: Gpu,
        execute_on_gpu: bool = True,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.deployment = deployment
        self.gpu = gpu
        self.execute_on_gpu = execute_on_gpu
        self.metrics = metrics or NULL_REGISTRY
        self._bind_instruments()
        self.kind = deployment.kind
        #: Words the RX engine reads back per inference.
        self.result_words = deployment.result_words
        self.converter = ProtocolConverter(self.kind, deployment.dictionary)
        deployment.load(gpu)
        self._cached_phases = self._measure_phases()
        # Exact mode with input-shaped kernels (ELM): batch_key ->
        # phases, filled from real results.
        self._phases_by_key: Optional[Dict[Tuple, InferencePhases]] = (
            {} if execute_on_gpu and deployment.input_sets_phases else None
        )
        self._reference = None
        if not execute_on_gpu:
            self._bind_reference()

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------

    def _bind_instruments(self) -> None:
        registry = self.metrics
        self._m_inferences = registry.counter("driver.inferences")
        self._m_launches = registry.counter("driver.kernel_launches")
        self._m_gpu_cycles = registry.counter("driver.gpu_cycles")

    def bind_metrics(self, metrics: MetricsRegistry) -> None:
        """Late-attach a registry (the SoC binds its own at assembly).

        The warm-up calibration inference in the constructor is *not*
        retro-counted: metrics bound here see only real traffic.
        """
        self.metrics = metrics
        self._bind_instruments()
        self.gpu.bind_metrics(metrics)

    # ------------------------------------------------------------------
    # Calibration
    # ------------------------------------------------------------------

    def _measure_phases(self) -> InferencePhases:
        """One warm-up inference of the deployment's typical input to
        record per-phase cycles (then the model state is reset).

        Calibrated mode therefore reflects steady-state service time;
        exact mode measures every inference faithfully.
        """
        deployment = self.deployment
        (result,) = deployment.infer_batch(
            [deployment], [deployment.warmup_input()]
        )
        deployment.reset_state()
        return _driver_result(result).phases

    def _bind_reference(self) -> None:
        """A fresh float32 twin, its scoring callable bound once."""
        self._reference = self.deployment.make_reference()
        self._score = self._reference.infer

    @property
    def phases(self) -> InferencePhases:
        """The (data-independent) per-inference GPU cycle breakdown."""
        return self._cached_phases

    def phases_for(self, converted_input) -> Optional[InferencePhases]:
        """The phases an inference of ``converted_input`` will report,
        known before it runs; ``None`` when only running it can tell.

        Cycle counts are data-independent for a fixed kernel shape
        (:meth:`batch_key`).  Exact ELM is the one kind whose shape
        varies per input — the index count is the scalar loop bound —
        so its phases are memoised per key from real results.
        """
        if self._phases_by_key is None:
            return self._cached_phases
        return self._phases_by_key.get(
            self.deployment.batch_key(converted_input)
        )

    def _observe(self, converted_input, result: DriverResult) -> None:
        """Count one completed inference (and memoise exact ELM phases)."""
        self._m_inferences.inc()
        self._m_launches.inc(result.phases.num_dispatches)
        self._m_gpu_cycles.inc(result.phases.total_cycles)
        if self._phases_by_key is not None:
            key = self.deployment.batch_key(converted_input)
            self._phases_by_key[key] = result.phases

    def fastpath_stats(self) -> dict:
        """Engine fast-path cache snapshot (benchmarks/diagnostics)."""
        return self.gpu.fastpath_stats()

    # ------------------------------------------------------------------
    # Inference
    # ------------------------------------------------------------------

    def run_inference(self, converted_input) -> DriverResult:
        """Run one inference: a batch of one on the bound engine, or
        (calibrated) the float32 twin with the measured phases."""
        if self.execute_on_gpu:
            return self.run_inference_batch([self], [converted_input])[0]
        result = DriverResult(
            self._score(converted_input), self._cached_phases
        )
        self._observe(converted_input, result)
        return result

    def batch_key(self, converted_input) -> Optional[Tuple]:
        """Coalescing compatibility key for one converted input.

        Two inferences may share a fused dispatch iff their keys are
        equal: same model family and the shape parameters that fix the
        kernel digests, workgroup counts, and scalar loop bounds (so
        the fused executor's data-independent cycle counts match every
        member's single-dispatch counts exactly).  Returns ``None``
        when this inference cannot join a batch at all — calibrated
        drivers run no kernels, so there is nothing to fuse.
        """
        if not self.execute_on_gpu:
            return None
        return self.deployment.batch_key(converted_input)

    @staticmethod
    def run_inference_batch(
        drivers: Sequence["MlMiaowDriver"],
        converted_inputs: Sequence,
    ) -> List[DriverResult]:
        """Serve K compatible inferences with fused dispatches.

        All drivers must share one engine and one :meth:`batch_key`
        (the arbiter guarantees both).  Results — scores, phase names,
        and cycle counts — are bit-identical to calling
        :meth:`run_inference` on each driver in turn.
        """
        if len(drivers) != len(converted_inputs):
            raise McmError("one converted input per batched driver")
        first = drivers[0]
        kinds = {driver.kind for driver in drivers}
        if kinds != {first.kind}:
            raise McmError(f"cannot batch across model kinds {kinds}")
        results = first.deployment.infer_batch(
            [driver.deployment for driver in drivers], converted_inputs
        )
        outputs = [_driver_result(result) for result in results]
        for driver, converted, output in zip(
            drivers, converted_inputs, outputs
        ):
            driver._observe(converted, output)
        return outputs

    def reset(self) -> None:
        """Reset recurrent state (new trace session)."""
        self.deployment.reset_state()
        if self._reference is not None:
            self._bind_reference()

    # ------------------------------------------------------------------
    # Durability (dual-run voting and checkpointing)
    # ------------------------------------------------------------------

    def _state_owner(self):
        return self.deployment if self.execute_on_gpu else self._reference

    def export_model_state(self):
        """Snapshot the recurrent model state (None for stateless kinds)."""
        return self._state_owner().export_state()

    def restore_model_state(self, state) -> None:
        """Rewind to a snapshot from :meth:`export_model_state`."""
        self._state_owner().restore_state(state)
