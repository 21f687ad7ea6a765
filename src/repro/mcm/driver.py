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
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import McmError
from repro.mcm.engines import ProtocolConverter
from repro.miaow.gpu import Gpu
from repro.ml.kernels import (
    DeployedElm,
    DeployedLstm,
    DeployedMlp,
    ElmInferenceResult,
    LstmInferenceResult,
    MlpInferenceResult,
    elm_infer_indices_batch,
    lstm_infer_batch,
    mlp_infer_batch,
)
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


def _driver_result(
    result: Union[ElmInferenceResult, LstmInferenceResult, MlpInferenceResult],
) -> DriverResult:
    """A kernel-level inference result as the MCM sees it."""
    if isinstance(result, ElmInferenceResult):
        return DriverResult(
            score=result.score,
            phases=InferencePhases(
                names=("elm_score",), cycles=(result.dispatch.cycles,)
            ),
        )
    return DriverResult(
        score=(
            result.surprisal
            if isinstance(result, LstmInferenceResult)
            else result.score
        ),
        phases=InferencePhases(
            names=tuple(d.kernel for d in result.dispatches),
            cycles=tuple(d.cycles for d in result.dispatches),
        ),
    )


class MlMiaowDriver:
    """Host-side sequencing of kernel dispatches per inference."""

    def __init__(
        self,
        deployment: Union[DeployedElm, DeployedLstm, DeployedMlp],
        gpu: Gpu,
        execute_on_gpu: bool = True,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.deployment = deployment
        self.gpu = gpu
        self.execute_on_gpu = execute_on_gpu
        self.metrics = metrics or NULL_REGISTRY
        self._bind_instruments()
        if isinstance(deployment, DeployedElm):
            self.kind = "elm"
        elif isinstance(deployment, DeployedMlp):
            self.kind = "mlp"
        else:
            self.kind = "lstm"
        self.converter = ProtocolConverter(
            self.kind,
            deployment.dictionary if self.kind == "elm" else None,
        )
        deployment.load(gpu)
        self._reference = None
        self._cached_phases = self._measure_phases()
        # Exact ELM: batch_key -> phases, filled from real results.
        self._elm_phases: Dict[Tuple, InferencePhases] = {}
        if not execute_on_gpu:
            self._reference = self._make_reference()

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
        """One warm-up inference to record per-phase cycles.

        The ELM warm-up uses a typical all-in-dictionary input (M =
        positions): normal traffic gathers one weight column per
        n-gram position, while anomalous windows add a few unseen-bin
        repeats.  Calibrated mode therefore reflects steady-state
        service time; exact mode measures every inference faithfully.
        """
        if self.kind == "elm":
            indices = np.ones(self.deployment.positions, dtype=np.int64)
            return _driver_result(
                self.deployment.infer_indices(indices)
            ).phases
        if self.kind == "mlp":
            features = np.full(
                self.deployment.model.input_dim,
                1.0 / self.deployment.model.input_dim,
                dtype=np.float32,
            )
            return _driver_result(self.deployment.infer(features)).phases
        phases = _driver_result(self.deployment.infer(0)).phases
        self.deployment.reset_state()
        return phases

    def _make_reference(self):
        if self.kind == "lstm":
            return self.deployment.make_reference()
        return None

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
        if self.kind != "elm" or not self.execute_on_gpu:
            return self._cached_phases
        return self._elm_phases.get(self.batch_key(converted_input))

    def _observe(self, converted_input, result: DriverResult) -> None:
        """Count one completed inference (and memoise exact ELM phases)."""
        self._m_inferences.inc()
        self._m_launches.inc(result.phases.num_dispatches)
        self._m_gpu_cycles.inc(result.phases.total_cycles)
        if self.kind == "elm" and self.execute_on_gpu:
            self._elm_phases[self.batch_key(converted_input)] = result.phases

    def fastpath_stats(self) -> dict:
        """Engine fast-path cache snapshot (benchmarks/diagnostics)."""
        return self.gpu.fastpath_stats()

    @property
    def result_words(self) -> int:
        """Words the RX engine reads back per inference."""
        if self.kind == "elm":
            return self.deployment.num_workgroups
        return 1  # lstm and mlp both produce a single score word

    # ------------------------------------------------------------------
    # Inference
    # ------------------------------------------------------------------

    def run_inference(self, converted_input) -> DriverResult:
        """Run one inference on the bound engine."""
        if self.kind == "elm":
            result = self._run_elm(converted_input)
        elif self.kind == "mlp":
            result = self._run_mlp(converted_input)
        else:
            result = self._run_lstm(converted_input)
        self._observe(converted_input, result)
        return result

    def _run_mlp(self, features: np.ndarray) -> DriverResult:
        if self.execute_on_gpu:
            return _driver_result(self.deployment.infer(features))
        score = self.deployment.reference_score(features)
        return DriverResult(score=score, phases=self._cached_phases)

    def _run_elm(self, pattern_indices: np.ndarray) -> DriverResult:
        if self.execute_on_gpu:
            return _driver_result(
                self.deployment.infer_indices(pattern_indices)
            )
        # Calibrated mode: score via the f32 reference on dense features.
        dictionary = self.deployment.dictionary
        features = np.zeros((1, dictionary.size), dtype=np.float32)
        for index in np.asarray(pattern_indices):
            features[0, int(index)] += 1
        features /= self.deployment.positions
        score = float(
            self.deployment.model.score_mahalanobis_f32(features)[0]
        )
        return DriverResult(score=score, phases=self._cached_phases)

    def _run_lstm(self, branch_id: int) -> DriverResult:
        if self.execute_on_gpu:
            return _driver_result(self.deployment.infer(int(branch_id)))
        score = self._reference.infer(int(branch_id))
        return DriverResult(score=score, phases=self._cached_phases)

    # ------------------------------------------------------------------
    # Cross-tenant batched inference
    # ------------------------------------------------------------------

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
        deployment = self.deployment
        if self.kind == "elm":
            # The index count feeds the kernel's scalar loop bound.
            return (
                "elm",
                deployment.model.hidden_dim,
                deployment.num_workgroups,
                len(np.asarray(converted_input)),
            )
        if self.kind == "mlp":
            return (
                "mlp",
                deployment.model.input_dim,
                deployment.model.hidden_dim,
            )
        return ("lstm", deployment.model.hidden_size)

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
        deployments = [driver.deployment for driver in drivers]
        if first.kind == "elm":
            results = elm_infer_indices_batch(deployments, converted_inputs)
        elif first.kind == "mlp":
            results = mlp_infer_batch(deployments, converted_inputs)
        else:
            results = lstm_infer_batch(
                deployments,
                [int(branch_id) for branch_id in converted_inputs],
            )
        outputs = [_driver_result(result) for result in results]
        for driver, converted, output in zip(
            drivers, converted_inputs, outputs
        ):
            driver._observe(converted, output)
        return outputs

    def reset(self) -> None:
        """Reset recurrent state (new trace session)."""
        if self.kind == "lstm":
            self.deployment.reset_state()
            if self._reference is not None:
                self._reference = self.deployment.make_reference()

    # ------------------------------------------------------------------
    # Durability (dual-run voting and checkpointing)
    # ------------------------------------------------------------------

    def export_model_state(self):
        """Snapshot the recurrent model state (None for stateless kinds)."""
        if self.kind != "lstm":
            return None
        if self.execute_on_gpu:
            return self.deployment.export_state()
        return self._reference.export_state()

    def restore_model_state(self, state) -> None:
        """Rewind to a snapshot from :meth:`export_model_state`."""
        if self.kind != "lstm":
            return
        if self.execute_on_gpu:
            self.deployment.restore_state(state)
        else:
            self._reference.restore_state(state)
