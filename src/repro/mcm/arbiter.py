"""Round-robin arbitration of one ML-MIAOW across MCM lanes.

The one MCM service path.  Multi-tenant deployments give every tenant
its own MCM lane — FIFO, interrupt manager, score smoothing, records —
while a single GPU engine serves them all; the solo
:class:`repro.soc.rtad.RtadSoc` is the one-lane case.
:class:`ArbitratedMcm` owns the shared busy
window: whenever the engine is free, the lane heads compete and the
grant goes to the earliest-ready head, ties broken round-robin from
the lane after the last grant (no lane can starve under sustained
load).

Time first, compute second.  As in the paper, where the MCM's
FIFO/FSM timing is separate from the ML-MIAOW compute, service runs
in three passes:

- **timing** — :meth:`ArbitratedMcm._drain` grants heads on the
  simulated clock via :meth:`repro.mcm.mcm.Mcm.grant_head`.  Cycle
  counts are known before the compute (``MlMiaowDriver.phases_for``),
  so queueing, drops, stalls and the watchdog settle here;
- **compute** — wave k holds the k-th granted inference of every
  deployment; a wave's batchable members run as fused dispatches of
  at most ``batch_limit``, the rest alone (a batch of one) through
  :meth:`repro.mcm.mcm.Mcm.compute`;
- **assembly** — each lane scores and records its inferences in
  grant order (:meth:`repro.mcm.mcm.Mcm.assemble`).

The compute and assembly passes run at :meth:`ArbitratedMcm.finalize`
and before anything resets a session or changes the lane set, so
records are bit-identical to serving every grant on the spot; only
the host-side GPU compute is shared.

**Watchdog.**  ``deadline_us`` arms a per-service watchdog: a grant
whose service would exceed the deadline (an injected hang, or a stall
at least that long) is *cancelled* instead of served — the head is
dropped from its lane FIFO, the lane's session state is reset via
:meth:`Mcm.reset_session`, the engine is occupied for exactly one
deadline (the abort window), and the trip is counted per lane.  With
no deadline armed, a hang wedges the shared engine until the next
session reset — the failure mode the watchdog exists to prevent.
"""

from __future__ import annotations

from itertools import zip_longest
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import McmError
from repro.faults.service import ServiceFaultInjector
from repro.igm.vector_encoder import InputVector
from repro.mcm.driver import MlMiaowDriver
from repro.mcm.mcm import InferenceRecord, Mcm, PendingInference
from repro.obs import MetricsRegistry, NULL_REGISTRY

#: One granted inference and the index of the lane it belongs to.
Grant = Tuple[int, PendingInference]


class ArbitratedMcm:
    """One shared inference engine multiplexed over N MCM lanes."""

    def __init__(
        self,
        lanes: Sequence[Mcm],
        metrics: Optional[MetricsRegistry] = None,
        deadline_us: Optional[float] = None,
        service_faults: Optional[
            Sequence[Optional[ServiceFaultInjector]]
        ] = None,
        batch_limit: int = 1,
    ) -> None:
        if not lanes:
            raise McmError("arbiter needs at least one lane")
        engines = {id(lane.driver.gpu) for lane in lanes}
        if len(engines) != 1:
            raise McmError(
                "arbitrated lanes must share a single GPU engine"
            )
        if deadline_us is not None and deadline_us <= 0:
            raise McmError("deadline_us must be positive (or None)")
        if service_faults is not None and len(service_faults) != len(lanes):
            raise McmError(
                "service_faults must have one (possibly None) entry "
                "per lane"
            )
        if batch_limit < 1:
            raise McmError("batch_limit must be >= 1")
        self.lanes: List[Mcm] = list(lanes)
        self.deadline_us = deadline_us
        self.batch_limit = batch_limit
        self.service_faults: List[Optional[ServiceFaultInjector]] = (
            list(service_faults)
            if service_faults is not None
            else [None] * len(self.lanes)
        )
        self.watchdog_trips: List[int] = [0] * len(self.lanes)
        self.batch_eligible: List[bool] = [True] * len(self.lanes)
        # Granted but not yet computed and assembled, in grant order.
        self._granted: List[Grant] = []
        self.hung = False
        self._busy_until_ns = 0.0
        self._next_lane = 0
        self.metrics = metrics or NULL_REGISTRY
        self._lane_seq = 0
        self._m_grants = [self._grant_counter() for _ in self.lanes]
        self._m_vectors = self.metrics.counter("mcm.arbiter.vectors_in")
        self._m_watchdog = self.metrics.counter(
            "mcm.arbiter.watchdog.cancelled"
        )
        self._m_hangs = self.metrics.counter("mcm.arbiter.hangs")
        self._m_batch_grants = self.metrics.counter(
            "mcm.arbiter.batch.grants"
        )
        self._m_batch_members = self.metrics.counter(
            "mcm.arbiter.batch.members"
        )

    def _grant_counter(self):
        counter = self.metrics.counter(
            f"mcm.arbiter.grants.{self._lane_seq}"
        )
        self._lane_seq += 1
        return counter

    # ------------------------------------------------------------------
    # Lane membership (tenant removal / re-admission)
    # ------------------------------------------------------------------

    def add_lane(
        self,
        lane: Mcm,
        fault: Optional[ServiceFaultInjector] = None,
    ) -> int:
        """Attach a lane mid-life; returns its index."""
        self._complete()
        if id(lane.driver.gpu) != id(self.lanes[0].driver.gpu):
            raise McmError(
                "arbitrated lanes must share a single GPU engine"
            )
        self.lanes.append(lane)
        self.service_faults.append(fault)
        self.watchdog_trips.append(0)
        self.batch_eligible.append(True)
        self._m_grants.append(self._grant_counter())
        return len(self.lanes) - 1

    def remove_lane(self, index: int) -> Mcm:
        """Detach lane ``index``; remaining lanes shift down."""
        if not 0 <= index < len(self.lanes):
            raise McmError(f"no lane {index}")
        if len(self.lanes) == 1:
            raise McmError("arbiter needs at least one lane")
        self._complete()
        lane = self.lanes.pop(index)
        self.service_faults.pop(index)
        self.watchdog_trips.pop(index)
        self.batch_eligible.pop(index)
        self._m_grants.pop(index)
        if self._next_lane > index:
            self._next_lane -= 1
        self._next_lane %= len(self.lanes)
        return lane

    # ------------------------------------------------------------------
    # Dataflow
    # ------------------------------------------------------------------

    def push(
        self, lane_index: int, vector: InputVector, arrival_ns: float
    ) -> bool:
        """Vector arrival on one lane; returns False if that lane's
        FIFO dropped it."""
        self._drain(until_ns=arrival_ns)
        self._m_vectors.inc()
        return self.lanes[lane_index].enqueue(vector, arrival_ns)

    def finalize(self) -> List[List[InferenceRecord]]:
        """Serve everything queued; this session's per-lane records."""
        self._drain(until_ns=float("inf"))
        self._complete()
        return [lane.records for lane in self.lanes]

    def reset_session(self) -> None:
        """Start a session: every lane gets fresh record lists."""
        # Work granted in the ending session completes first, against
        # the model state and smoothing window it was granted under.
        self._complete()
        self._busy_until_ns = 0.0
        self._next_lane = 0
        self.hung = False
        for lane in self.lanes:
            lane.start_session()
        for injector in self.service_faults:
            if injector is not None:
                injector.reset()

    def set_batch_eligible(self, index: int, eligible: bool) -> None:
        """Mark whether lane ``index`` may join fused dispatches.

        The SoC manager clears eligibility for unhealthy tenants:
        batching is a throughput optimisation, and a degraded or
        probationary lane should not share a fused launch.  Ineligible
        lanes still get served — one dispatch at a time.
        """
        if not 0 <= index < len(self.lanes):
            raise McmError(f"no lane {index}")
        self.batch_eligible[index] = bool(eligible)

    def _drain(self, until_ns: float) -> None:
        """Grant the engine to lane heads until none can start before
        ``until_ns``."""
        if self.hung:
            # A hung service with no watchdog owns the engine until
            # the next session reset; queued vectors just wait.
            return
        count = len(self.lanes)
        deadline_ns = (
            None if self.deadline_us is None else self.deadline_us * 1e3
        )
        served = [0] * count
        try:
            while True:
                best_start: Optional[float] = None
                best_lane = -1
                for offset in range(count):
                    index = (self._next_lane + offset) % count
                    head = self.lanes[index].fifo.peek()
                    if head is None:
                        continue
                    start_ns = max(head.arrival_ns, self._busy_until_ns)
                    if best_start is None or start_ns < best_start:
                        best_start = start_ns
                        best_lane = index
                if best_start is None or best_start >= until_ns:
                    return
                extra_ns, hang = 0.0, False
                injector = self.service_faults[best_lane]
                if injector is not None:
                    extra_ns, hang = injector.draw()
                if hang or (
                    deadline_ns is not None and extra_ns >= deadline_ns
                ):
                    if deadline_ns is None:
                        # No watchdog armed: the engine is wedged.
                        self.hung = True
                        self._busy_until_ns = float("inf")
                        self._m_hangs.inc()
                        return
                    # The cancel resets the lane's smoothing window, so
                    # everything granted before it is recorded first.
                    self._complete()
                    self.lanes[best_lane].cancel_head()
                    self.lanes[best_lane].reset_session()
                    self.watchdog_trips[best_lane] += 1
                    self._m_watchdog.inc()
                    # The abort occupies the engine for one full deadline.
                    self._busy_until_ns = best_start + deadline_ns
                    self._next_lane = (best_lane + 1) % count
                    continue
                pending = self.lanes[best_lane].grant_head(
                    best_start, extra_service_ns=extra_ns
                )
                self._granted.append((best_lane, pending))
                self._busy_until_ns = pending.done_ns
                self._m_grants[best_lane].inc()
                served[best_lane] += 1
                self._next_lane = (best_lane + 1) % count
        finally:
            # Every exit path — idle, horizon reached, hang — reports
            # the burst, so the per-lane drain histogram sums to the
            # lane's total serves even when the queue empties mid-round.
            for index in range(count):
                if served[index]:
                    self.lanes[index].record_drain_batch(served[index])

    def _complete(self) -> None:
        """Compute pass, then assembly pass, over every granted inference.

        Wave k is the k-th granted inference of every deployment, so
        each model's recurrent state advances in grant order.  Within
        a wave, batchable members (:meth:`_batch_key`) are grouped by
        key and run in fused dispatches of at most ``batch_limit``
        distinct deployments; the rest run alone through their lane's
        ``compute``, dual-run vote included.  Records are then
        assembled in grant order.
        """
        granted, self._granted = self._granted, []
        queues: Dict[int, List[Grant]] = {}
        for index, pending in granted:
            if pending.result is None:
                deployment = id(self.lanes[index].driver.deployment)
                queues.setdefault(deployment, []).append((index, pending))
        for wave in zip_longest(*queues.values()):
            groups: Dict[Tuple, List[Grant]] = {}
            for index, pending in filter(None, wave):
                key = self._batch_key(index, pending)
                if key is None:
                    self.lanes[index].compute(pending)
                else:
                    groups.setdefault(key, []).append((index, pending))
            for members in groups.values():
                for start in range(0, len(members), self.batch_limit):
                    self._run_fused(members[start:start + self.batch_limit])
        for index, pending in granted:
            self.lanes[index].assemble(pending)

    def _batch_key(self, index: int, pending: PendingInference):
        """The fused-dispatch key of a granted inference, or ``None``
        when it must run alone: its lane is batch-ineligible, carries a
        service-fault injector or votes by dual run, or the driver has
        no kernels to fuse (calibrated mode)."""
        lane = self.lanes[index]
        if (
            not self.batch_eligible[index]
            or self.service_faults[index] is not None
            or lane.config.dual_run
        ):
            return None
        return lane.driver.batch_key(pending.converted)

    def _run_fused(self, members: List[Grant]) -> None:
        """Compute same-key inferences of distinct deployments together
        (a width-1 batch is a plain single dispatch)."""
        results = MlMiaowDriver.run_inference_batch(
            [self.lanes[index].driver for index, _ in members],
            [pending.converted for _, pending in members],
        )
        for (_, pending), result in zip(members, results):
            pending.result = result
        if len(members) > 1:
            self._m_batch_grants.inc()
            self._m_batch_members.inc(len(members))
