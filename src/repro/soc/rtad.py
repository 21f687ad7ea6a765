"""The RTAD MPSoC: end-to-end anomaly-detection simulation.

:class:`RtadSoc` is the paper's unit — one IGM and one MCM serving one
monitored program — built as a one-tenant
:class:`repro.soc.manager.TenantRuntime`, so the SoC and the
multi-tenant manager share a single assembly path.

Two run modes:

- :meth:`RtadSoc.run_events` — the *full path*: branch events go
  through the trace frontend's packet encoding and link framing, the
  CPU-internal PTM FIFO batching, the (functionally exact) address
  mapper + vector encoder, then the MCM queue and the GPU engine.
  ``RtadConfig.dataplane`` picks the staged batched pipeline or the
  per-event :class:`repro.soc.loop.LoopDataplane` oracle.  Used by the
  integration tests and examples on short traces.
- :meth:`RtadSoc.run_monitored_stream` — the *queueing path* for the
  long Fig. 8 experiments: already-filtered monitored IDs with
  explicit arrival times, the trace-path latency folded in as the
  profile's analytic transfer delay.  The MCM/GPU portion is
  identical; only the per-raw-branch byte simulation is summarized.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence

import numpy as np

from repro.errors import SocConfigError
from repro.mcm.arbiter import ArbitratedMcm
from repro.mcm.mcm import InferenceRecord
from repro.obs import MetricsRegistry, NULL_REGISTRY
from repro.soc.clocks import CPU_CLOCK
from repro.soc.metrics import rtad_transfer_breakdown
from repro.utils.rng import derive_seed, make_rng
from repro.workloads.cfg import BranchEvent
from repro.workloads.program import SyntheticProgram

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.plan import FaultPlan
    from repro.soc.manager import Deployment


@dataclass(frozen=True)
class RtadConfig:
    """SoC-level configuration."""

    fifo_depth: int = 16
    igm_pipe_ns: float = 24.0           # decode + 2-cycle vectorize
    score_smoothing: int = 1            # interrupt-manager accumulator
    # Clock-scaling knobs (ablations; paper defaults).
    rtad_clock_hz: float = 125_000_000.0
    gpu_clock_hz: float = 50_000_000.0
    # Trace dataplane: "batched" runs the staged numpy pipeline
    # (repro.pipeline), "loop" the per-event reference implementation.
    # Both are behaviour-identical; batched is much faster.
    dataplane: str = "batched"
    chunk_events: int = 32768           # batched dataplane chunk size
    #: Run every inference twice from the same model state and flag
    #: divergent scores on the record (repro.durability voting mode).
    dual_run: bool = False
    #: Optional seeded fault-injection plan (repro.faults).  Event and
    #: FIFO-overflow channels apply identically to both dataplanes; a
    #: None (or all-zero-rate) plan leaves the SoC byte-identical.
    fault_plan: Optional["FaultPlan"] = None
    #: Trace grammar: any name in ``repro.frontends.frontend_names()``
    #: ("coresight" | "etrace").  Both grammars produce identical
    #: verdicts and IGM vectors; only byte counts (and therefore FIFO
    #: flush timestamps) differ.
    frontend: str = "coresight"

    def __post_init__(self) -> None:
        if self.dataplane not in ("batched", "loop"):
            raise SocConfigError(f"unknown dataplane {self.dataplane!r}")
        if self.chunk_events < 1:
            raise SocConfigError("chunk_events must be >= 1")
        # Deferred import: repro.frontends loads both grammars.
        from repro.frontends import frontend_names

        if self.frontend not in frontend_names():
            raise SocConfigError(
                f"unknown trace frontend {self.frontend!r} "
                f"(have: {', '.join(frontend_names())})"
            )


@dataclass
class AttackTrialResult:
    """Outcome of one injected-attack timing trial."""

    onset_ns: float
    detected: bool
    detection_latency_us: Optional[float]
    interrupts: int
    inferences: int
    dropped_vectors: int
    overflowed: bool
    false_interrupts_before_onset: int


class RtadSoc:
    """Host CPU + MLPU around one deployed model.

    A one-tenant facade over :class:`repro.soc.manager.TenantRuntime`,
    which assembles the address mapper, vector encoder, MCM lane and
    the trace dataplane ``deployment.config.dataplane`` selects.  The
    lane is served through a one-lane
    :class:`repro.mcm.arbiter.ArbitratedMcm`, the same service path
    :class:`repro.soc.manager.SocManager` uses; like the paper's SoC
    it injects no service faults.  The tenant's parts are exposed
    under their usual names.
    """

    def __init__(
        self,
        program: SyntheticProgram,
        deployment: "Deployment",
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        # Deferred import: repro.soc.manager imports RtadConfig from
        # this module.
        from repro.soc.manager import TenantRuntime

        self.program = program
        self.config = deployment.config
        self.metrics = metrics or NULL_REGISTRY
        if self.metrics.enabled:
            # The driver (and its GPU) are built by the caller; adopt
            # them into this SoC's registry so kernel launches and
            # wavefront cycles land in the same snapshot.
            deployment.driver.bind_metrics(self.metrics)
        self.tenant = TenantRuntime(0, deployment, metrics=self.metrics)
        self.mapper = self.tenant.mapper
        self.encoder = self.tenant.encoder
        self.mcm = self.tenant.mcm
        self.arbiter = ArbitratedMcm([self.mcm], metrics=self.metrics)
        self.pipeline = self.tenant.pipeline
        self.frontend = self.tenant.frontend
        self._m_events = self.metrics.counter("soc.events")
        self._m_monitored_ids = self.metrics.counter("soc.monitored_ids")
        self._m_read = self.metrics.histogram("pipeline.read_ns")
        self._m_e2e = self.metrics.histogram("pipeline.e2e_ns")

    # ------------------------------------------------------------------
    # Full-path run (byte-accurate trace path)
    # ------------------------------------------------------------------

    def run_events(
        self, events: Sequence[BranchEvent]
    ) -> List[InferenceRecord]:
        """Run raw branch events through the complete pipeline.

        Every call is an independent trace session: per-session state
        (trace encoder context, link framer, PTM FIFO bytes, encoder
        window, LSTM recurrent state, MCM busy window) is reset first,
        so back-to-back calls behave like fresh SoCs.  The returned
        list holds this session's records; the observability counters
        keep accumulating.
        """
        tenant = self.tenant
        with self.metrics.trace("soc.run_events", events=len(events)):
            self._m_events.inc(len(events))
            self._reset_session()
            if len(events):
                tenant.pipeline.run(events)
            # One lane: delivering the captured schedule after the run
            # is the same as pushing from inside the dataplane's sink.
            for vector, deliver_ns in tenant.schedule:
                self.arbiter.push(0, vector, deliver_ns)
            with self.metrics.trace("mcm.finalize"):
                [records] = self.arbiter.finalize()
            self._observe_records(records)
            return records

    def _reset_session(self) -> None:
        """Start a trace session: every per-session state back to fresh."""
        self.arbiter.reset_session()
        self.tenant.reset()

    def _observe_records(self, records: List[InferenceRecord]) -> None:
        """End-to-end latency of every inference of the session."""
        for record in records:
            trigger_ns = CPU_CLOCK.to_ns(record.trigger_cycle)
            self._m_e2e.observe(max(0.0, record.done_ns - trigger_ns))

    # ------------------------------------------------------------------
    # Queueing-path run (pre-filtered monitored stream)
    # ------------------------------------------------------------------

    def path_latency_ns(self) -> float:
        """Analytic trace-path latency for this benchmark (Fig. 7)."""
        breakdown = rtad_transfer_breakdown(
            self.program.profile, window=self.encoder.window
        )
        # Transfer step (3) and queueing are already modeled inside the
        # MCM; the path latency covers steps (1) and (2).
        return (breakdown.read_us + breakdown.vectorize_us) * 1e3

    def run_monitored_stream(
        self,
        ids: Sequence[int],
        times_ns: Sequence[float],
        path_latency_ns: Optional[float] = None,
    ) -> List[InferenceRecord]:
        """Feed already-filtered monitored branch IDs with timestamps.

        Like :meth:`run_events`, every call is an independent trace
        session; the returned list holds this session's records.
        """
        if len(ids) != len(times_ns):
            raise SocConfigError("ids/times length mismatch")
        latency = (
            self.path_latency_ns()
            if path_latency_ns is None
            else path_latency_ns
        )
        with self.metrics.trace(
            "soc.run_monitored_stream", ids=len(ids)
        ):
            self._m_monitored_ids.inc(len(ids))
            self._reset_session()
            for branch_id, time_ns in zip(ids, times_ns):
                vector = self.encoder.push(
                    index=int(branch_id),
                    address=0,
                    cycle=int(CPU_CLOCK.cycles(time_ns)),
                )
                if vector is not None:
                    self._m_read.observe(latency)
                    self.arbiter.push(0, vector, time_ns + latency)
            [records] = self.arbiter.finalize()
            self._observe_records(records)
            return records

    # ------------------------------------------------------------------
    # Attack trials (Fig. 8)
    # ------------------------------------------------------------------

    def run_attack_trial(
        self,
        normal_ids: Sequence[int],
        mean_interval_us: float,
        gadget_ids: Sequence[int],
        onset_index: int,
        gadget_interval_us: float = 2.0,
        seed: int = 0,
        timeout_us: float = 10_000.0,
    ) -> AttackTrialResult:
        """Inject a gadget into a monitored stream; time the detection.

        Normal arrivals are exponential with the benchmark's monitored
        interval; the gadget executes densely (an attacker sprinting
        through reused code).

        Following the paper's metric — "the total time taken for our
        inference engine ... to make a judgment on the normality of
        the behavior of a program immediately after the program
        executes a branch instruction" — the detection latency is the
        time from the first anomalous branch's retirement until the
        inference containing it completes (trace path + queueing +
        engine service).  Whether the model actually *flags* the
        anomaly is reported separately via ``detected``.
        """
        if not 0 < onset_index <= len(normal_ids):
            raise SocConfigError("onset index outside the normal stream")
        rng = make_rng(derive_seed(seed, "attack-trial", onset_index))
        gaps = rng.exponential(mean_interval_us * 1e3, len(normal_ids))
        normal_times = np.cumsum(gaps)

        onset_ns = float(normal_times[onset_index - 1]) + 1.0
        gadget_times = onset_ns + np.arange(len(gadget_ids)) * (
            gadget_interval_us * 1e3
        )
        shift = (
            float(gadget_times[-1]) - onset_ns + gadget_interval_us * 1e3
        )
        ids = list(normal_ids[:onset_index]) + list(gadget_ids) + list(
            normal_ids[onset_index:]
        )
        times = np.concatenate(
            [
                normal_times[:onset_index],
                gadget_times,
                normal_times[onset_index:] + shift,
            ]
        )
        # The trial is one session; only the FIFO drop count is a
        # lifetime counter on a reused SoC.
        seen_drops = self.mcm.dropped_vectors
        records = self.run_monitored_stream(ids, times)
        interrupts = self.mcm.interrupts.fired
        dropped = self.mcm.dropped_vectors - seen_drops
        false_before = sum(1 for i in interrupts if i.time_ns < onset_ns)
        # One deadline for the whole trial: the window filter below and
        # the judgment check further down must use the same instant, so
        # the us -> ns conversion happens exactly once.
        deadline_ns = onset_ns + timeout_us * 1e3
        detection = [
            i for i in interrupts
            if onset_ns <= i.time_ns <= deadline_ns
        ]
        # Judgment latency: the inference whose window first contains
        # the injected branch.  Event index onset_index completes the
        # vector with sequence number onset_index - (window - 1); if
        # the FIFO dropped it (overflow), the next surviving inference
        # carries the evidence.
        target_sequence = onset_index - (self.encoder.window - 1)
        judgment = next(
            (
                r for r in records
                if r.sequence_number >= target_sequence
                and r.done_ns >= onset_ns
            ),
            None,
        )
        # A judgment that lands after the timeout window counts as "no
        # judgment in time" — the trial reports None, matching how
        # ``detected`` is bounded above.
        latency_us: Optional[float] = None
        if judgment is not None and judgment.done_ns <= deadline_ns:
            latency_us = (judgment.done_ns - onset_ns) / 1e3
        return AttackTrialResult(
            onset_ns=onset_ns,
            detected=bool(detection),
            detection_latency_us=latency_us,
            interrupts=len(interrupts),
            inferences=len(records),
            dropped_vectors=dropped,
            overflowed=dropped > 0,
            false_interrupts_before_onset=false_before,
        )
