"""MCM top level: FIFO + FSM + engines + driver + interrupt manager.

Timing model per inference (all converted to nanoseconds):

- FSM control transitions at the RTAD module clock (125 MHz),
- TX engine write burst (vector + control registers),
- kernel execution at the ML-MIAOW clock (50 MHz), one dispatch per
  phase with an FSM round per dispatch,
- RX engine result read,

with a single-server queue in front (the internal FIFO): a vector
arriving while the pipeline is busy waits, and arrivals that find the
FIFO full are dropped — the branch-information loss the paper reports
for branch-heavy workloads under the untrimmed engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.errors import McmError
from repro.igm.vector_encoder import InputVector
from repro.mcm.driver import DriverResult, InferencePhases, MlMiaowDriver
from repro.mcm.engines import RxEngine, TxEngine
from repro.mcm.fifo import InternalFifo
from repro.mcm.fsm import ControlFsm
from repro.mcm.interrupt import InterruptManager
from repro.ml.detector import ThresholdDetector
from repro.obs import MetricsRegistry, NULL_REGISTRY

RTAD_CLOCK_HZ = 125_000_000
GPU_CLOCK_HZ = 50_000_000


@dataclass(frozen=True)
class McmConfig:
    fifo_depth: int = 16
    rtad_clock_hz: float = RTAD_CLOCK_HZ
    gpu_clock_hz: float = GPU_CLOCK_HZ
    #: Judge the rolling mean of the last k scores rather than single
    #: scores.  Sequence models ([8]) score *runs* of branches: one
    #: surprising branch is normal, a run of them is an attack.  The
    #: hardware analogue is a small accumulator in the interrupt
    #: manager.  k=1 disables smoothing (the ELM configuration).
    score_smoothing: int = 1
    #: Dual-run voting: run every inference twice (restoring the model
    #: state in between so recurrent models see identical inputs) and
    #: flag records whose two scores disagree.  Catches silent engine
    #: corruption at the cost of doubling the model work.
    dual_run: bool = False


@dataclass(frozen=True)
class InferenceRecord:
    """One completed inference with its full latency breakdown."""

    sequence_number: int
    trigger_cycle: int        # CPU cycle of the branch that triggered it
    arrival_ns: float         # vector arrival at the MCM FIFO
    start_ns: float           # service start (READ_INPUT)
    done_ns: float            # judgment available (interrupt time)
    score: float
    anomalous: Optional[bool]
    gpu_cycles: int
    #: Dual-run voting verdict: None when voting is off, else whether
    #: the second (redundant) run disagreed with the first.
    divergent: Optional[bool] = None

    @property
    def queue_ns(self) -> float:
        return self.start_ns - self.arrival_ns

    @property
    def service_ns(self) -> float:
        return self.done_ns - self.start_ns


@dataclass(eq=False)
class PendingInference:
    """One head granted on the simulated clock, awaiting its compute.

    The grant fixes the timing (``phases``, the per-stage times and
    ``done_ns``); ``result`` and ``divergent`` arrive with the compute,
    and :meth:`Mcm.assemble` turns the whole into a record.
    """

    vector: InputVector
    arrival_ns: float
    start_ns: float
    converted: object
    phases: Optional[InferencePhases] = None
    #: control, TX copy, GPU and RX times, in nanoseconds.
    stages_ns: Tuple[float, float, float, float] = (0.0, 0.0, 0.0, 0.0)
    done_ns: float = 0.0
    result: Optional[DriverResult] = None
    divergent: Optional[bool] = None


class Mcm:
    """The ML Computing Module."""

    def __init__(
        self,
        driver: MlMiaowDriver,
        detector: Optional[ThresholdDetector] = None,
        config: Optional[McmConfig] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.driver = driver
        self.converter = driver.converter
        self.detector = detector
        self.config = config or McmConfig()
        self.fifo: InternalFifo[InputVector] = InternalFifo(
            depth=self.config.fifo_depth
        )
        self.fsm = ControlFsm()
        self.tx = TxEngine()
        self.rx = RxEngine()
        self.interrupts = InterruptManager()
        self.records: List[InferenceRecord] = []
        self._busy_until_ns = 0.0
        self._recent_scores: List[float] = []
        self.cancelled = 0
        self.metrics = metrics or NULL_REGISTRY
        self._m_vectors_in = self.metrics.counter("mcm.vectors_in")
        self._m_drops = self.metrics.counter("mcm.dropped_vectors")
        self._m_cancelled = self.metrics.counter("mcm.cancelled")
        self._m_inferences = self.metrics.counter("mcm.inferences")
        self._m_interrupts = self.metrics.counter("mcm.interrupts")
        self._m_fifo_depth = self.metrics.gauge("mcm.fifo.depth")
        self._m_queue = self.metrics.histogram("mcm.queue_ns")
        self._m_service = self.metrics.histogram("mcm.service_ns")
        self._m_control = self.metrics.histogram("mcm.control_ns")
        self._m_copy = self.metrics.histogram("mcm.copy_ns")
        self._m_gpu = self.metrics.histogram("mcm.gpu_ns")
        self._m_rx = self.metrics.histogram("mcm.rx_ns")
        self._m_dual_runs = self.metrics.counter("mcm.dual_run.runs")
        self._m_divergences = self.metrics.counter(
            "mcm.dual_run.divergences"
        )
        self._m_drain_batch = self.metrics.histogram(
            "mcm.drain.batch_vectors",
            buckets=(1, 2, 5, 10, 20, 50, 100, 200, 500, 1000),
        )
        # Per-inference constants hoisted off the service path.  Both
        # are pure-int precomputes fed into the *same* float formulas
        # as before, so every timing record stays byte-identical; only
        # the per-service attribute chases and the RX cycle recount go
        # away.
        self._control_cycles = self.fsm.control_cycles_per_inference
        self._rx_cycles = self.rx.cycles(self.driver.result_words)

    # ------------------------------------------------------------------
    # Clock conversions
    # ------------------------------------------------------------------

    def _rtad_ns(self, cycles: int) -> float:
        return cycles / self.config.rtad_clock_hz * 1e9

    def _gpu_ns(self, cycles: int) -> float:
        return cycles / self.config.gpu_clock_hz * 1e9

    # ------------------------------------------------------------------
    # Ingest and service (driven by repro.mcm.arbiter.ArbitratedMcm)
    # ------------------------------------------------------------------

    def enqueue(self, vector: InputVector, arrival_ns: float) -> bool:
        """FIFO admission only — no service.

        The arbiter (:class:`repro.mcm.arbiter.ArbitratedMcm`) owns the
        engine's busy window and decides when each lane's head is
        served.
        """
        self._m_vectors_in.inc()
        accepted = self.fifo.push(vector, arrival_ns)
        if accepted:
            self._m_fifo_depth.set(len(self.fifo))
        else:
            self._m_drops.inc()
        return accepted

    def grant_head(
        self, start_ns: float, extra_service_ns: float = 0.0
    ) -> PendingInference:
        """Timing pass: take the queued head at ``start_ns`` and settle
        its service on the simulated clock, without computing it.

        The caller (arbiter) owns start-time policy; all timing math is
        this lane's own.  ``extra_service_ns`` models an injected
        service stall (fault testing): it extends this one service.
        The returned inference still needs its ``result`` (a compute
        pass: :meth:`compute` or a fused dispatch) and then
        :meth:`assemble`.
        """
        entry = self.fifo.pop()
        if entry is None:
            raise McmError("grant_head on an empty FIFO")
        self._m_fifo_depth.set(len(self.fifo))
        converted = self.converter.convert(entry.item.values)
        pending = PendingInference(
            entry.item, entry.arrival_ns, start_ns, converted
        )
        phases = self.driver.phases_for(converted)
        if phases is None:
            # Only running it tells (exact ELM, an index count not seen
            # yet).  The model is stateless, so computing at the grant
            # is harmless; the result rides in the pending entry.
            self.compute(pending)
            phases = pending.result.phases
        control_ns = self._rtad_ns(
            self._control_cycles * phases.num_dispatches
        )
        tx_ns = self._rtad_ns(
            self.tx.cycles(self.converter.words_for(converted))
        )
        gpu_ns = self._gpu_ns(phases.total_cycles)
        rx_ns = self._rtad_ns(self._rx_cycles)
        pending.phases = phases
        pending.stages_ns = (control_ns, tx_ns, gpu_ns, rx_ns)
        pending.done_ns = (
            start_ns + control_ns + tx_ns + gpu_ns + rx_ns + extra_service_ns
        )
        self.fsm.run_inference_sequence(time_ns=start_ns)
        self._busy_until_ns = pending.done_ns
        return pending

    def record_drain_batch(self, served: int) -> None:
        """Observe one drain burst.

        The arbiter reports each lane's per-burst serve count here, so
        ``mcm.drain.batch_vectors`` sums to the lane's total served
        inferences.
        """
        if served:
            self._m_drain_batch.observe(served)

    def cancel_head(self) -> InputVector:
        """Drop the queued head *without* serving it (watchdog expiry).

        The request is counted in ``cancelled`` / ``mcm.cancelled`` and
        produces no record, no score, and no interrupt — exactly what a
        hardware watchdog abort looks like from the record stream."""
        entry = self.fifo.pop()
        if entry is None:
            raise McmError("cancel_head on an empty FIFO")
        self._m_fifo_depth.set(len(self.fifo))
        self.cancelled += 1
        self._m_cancelled.inc()
        return entry.item

    def reset_session(self) -> None:
        """Forget the timing state: the engine goes idle and the
        score-smoothing accumulator empties (a watchdog abort).

        This session's ``records``/``interrupts`` and every counter
        are kept.
        """
        self._busy_until_ns = 0.0
        self._recent_scores.clear()

    def start_session(self) -> None:
        """A new trace session: :meth:`reset_session`, then fresh
        ``records`` and ``interrupts`` lists.  They are new objects, so
        a list handed out for an earlier session stays intact."""
        self.reset_session()
        self.records = []
        self.interrupts.fired = []

    # ------------------------------------------------------------------
    # Compute and assembly (after the timing pass)
    # ------------------------------------------------------------------

    def compute(self, pending: PendingInference) -> None:
        """Run ``pending``'s inference alone (a batch of one).

        With dual-run voting on, a redundant second run starts from the
        same model state; recurrent state is rewound before and
        restored after, so the vote costs work but never perturbs the
        inference stream.
        """
        converted = pending.converted
        if not self.config.dual_run:
            pending.result = self.driver.run_inference(converted)
            return
        pre_state = self.driver.export_model_state()
        result = self.driver.run_inference(converted)
        post_state = self.driver.export_model_state()
        self.driver.restore_model_state(pre_state)
        second = self.driver.run_inference(converted)
        self.driver.restore_model_state(post_state)
        pending.result = result
        pending.divergent = bool(second.score != result.score)
        self._m_dual_runs.inc()
        if pending.divergent:
            self._m_divergences.inc()

    def assemble(self, pending: PendingInference) -> None:
        """Assembly pass: score a computed inference and record it.

        Smoothing, detection, interrupts, records and histograms, in
        serve order.  The result must report the phases its grant was
        timed with; anything else means the timing pass was wrong.
        """
        result = pending.result
        if result.phases != pending.phases:
            raise McmError(
                f"inference {pending.vector.sequence_number} ran phases "
                f"{result.phases} but was timed with {pending.phases}"
            )
        vector = pending.vector
        control_ns, tx_ns, gpu_ns, rx_ns = pending.stages_ns
        start_ns, done_ns = pending.start_ns, pending.done_ns

        judged_score = result.score
        k = self.config.score_smoothing
        if k > 1:
            self._recent_scores.append(result.score)
            if len(self._recent_scores) > k:
                self._recent_scores.pop(0)
            judged_score = float(np.mean(self._recent_scores))

        anomalous: Optional[bool] = None
        if self.detector is not None:
            anomalous = bool(self.detector.is_anomalous(judged_score))
            if anomalous:
                self.interrupts.fire(
                    time_ns=done_ns,
                    score=judged_score,
                    sequence_number=vector.sequence_number,
                )
                self._m_interrupts.inc()
        self._m_inferences.inc()
        self._m_queue.observe(start_ns - pending.arrival_ns)
        self._m_service.observe(done_ns - start_ns)
        self._m_control.observe(control_ns)
        self._m_copy.observe(tx_ns)
        self._m_gpu.observe(gpu_ns)
        self._m_rx.observe(rx_ns)
        self.records.append(
            InferenceRecord(
                sequence_number=vector.sequence_number,
                trigger_cycle=vector.trigger_cycle,
                arrival_ns=pending.arrival_ns,
                start_ns=start_ns,
                done_ns=done_ns,
                score=result.score,
                anomalous=anomalous,
                gpu_cycles=result.phases.total_cycles,
                divergent=pending.divergent,
            )
        )

    # ------------------------------------------------------------------
    # Durability
    # ------------------------------------------------------------------

    def export_state(self) -> dict:
        """Session state and counters for checkpointing.

        Requires a quiescent MCM (empty FIFO — guaranteed at round
        boundaries after the arbiter's ``finalize``): queued vectors
        hold live numpy arrays that a checkpoint deliberately does not
        carry.  Records and interrupts are not state: a round returns
        them.
        """
        if not self.fifo.empty:
            raise McmError("cannot checkpoint an MCM with queued vectors")
        return {
            "cancelled": self.cancelled,
            "busy_until_ns": self._busy_until_ns,
            "recent_scores": [float(s) for s in self._recent_scores],
            "fifo": {
                "pushes": self.fifo.pushes,
                "drops": self.fifo.drops,
                "max_occupancy": self.fifo.max_occupancy,
            },
        }

    def restore_state(self, state: dict) -> None:
        self.cancelled = state["cancelled"]
        self._busy_until_ns = state["busy_until_ns"]
        self._recent_scores = list(state["recent_scores"])
        self.fifo.pushes = state["fifo"]["pushes"]
        self.fifo.drops = state["fifo"]["drops"]
        self.fifo.max_occupancy = state["fifo"]["max_occupancy"]

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    @property
    def dropped_vectors(self) -> int:
        return self.fifo.drops

    @property
    def overflowed(self) -> bool:
        return self.fifo.overflowed
