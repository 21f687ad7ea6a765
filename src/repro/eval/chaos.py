"""``python -m repro.eval chaos`` — fault-injection sweeps.

Five experiments, all seeded and fully deterministic:

1. **Decoder recovery** — per trace grammar, the frontend's driver
   encodes and frames a branch stream, then byte-level faults (bit
   flips, byte drops, frame desyncs) are injected at each swept rate.
   The frontend's resync-hunting deframer + decoder pair reads the
   corrupted stream and the experiment reports how much of the branch
   stream survives and how many re-locks that cost, plus a decode of
   the same stream with its tail torn off.  The byte-fault channels
   are frontend-neutral and every grammar must recover.
2. **Dataplane degradation** — the demo SoC runs the same trace under
   event-drop / event-corrupt / FIFO-overflow plans at each rate; the
   anomaly judgments of surviving inferences are compared one-to-one
   (by sequence number) against the fault-free baseline.
3. **Quarantine isolation** — a three-tenant SoC where one tenant's
   services stall past the arbiter watchdog deadline.  The faulty
   tenant trips the watchdog, is quarantined, sits out probation, and
   is re-admitted; on quarantined rounds the healthy tenants' records
   are compared *exactly* (scores, timestamps) against a fault-free
   reference manager running without the quarantined neighbour.
4. **Connection faults** — seeded connection-level faults at the
   ingestion front door must not poison a clean neighbour
   (:func:`run_connection_chaos`).
5. **Fleet kill** — a worker process is killed with ``kill -9``
   mid-round (:func:`repro.eval.fleet.run_fleet_chaos`).

The rate=0 points double as no-op proofs: a plan whose channels all
have rate 0 must leave every output identical to no plan at all.
:meth:`ChaosResult.checks` declares every invariant.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.eval.fleet import FleetChaosResult, run_fleet_chaos
from repro.eval.report import Check, Report, record_signature, verdict_flags
from repro.faults.injectors import StreamFaultInjector
from repro.faults.plan import FaultKind, FaultPlan, FaultSpec
from repro.frontends import TraceFrontend, get_frontend
from repro.obs import MetricsRegistry
from repro.soc.manager import HealthPolicy

#: Default fault-rate sweep (per byte / event / vector).
DEFAULT_RATES = (0.0, 0.0005, 0.002, 0.01)

#: Quarantine-scenario shape.
_QUARANTINE_TENANTS = 3
_QUARANTINE_ROUNDS = 4
_FAULTY_TENANT = "tenant1"


# ----------------------------------------------------------------------
# Experiment 1: decoder recovery under byte corruption
# ----------------------------------------------------------------------


@dataclass
class DecoderChaosPoint:
    rate: float
    stream_bytes: int
    clean_branches: int
    recovered_branches: int
    recovered_fraction: float
    bytes_flipped: int
    bytes_dropped: int
    desyncs: int
    frame_resyncs: int
    decoder_resyncs: int
    truncated: int
    #: A decode of the same corrupted stream with its last
    #: ``torn_tail_bytes`` chopped off: the receivers must absorb the
    #: truncation as a counted event, never an exception.
    torn_tail_bytes: int
    torn_recovered_branches: int
    torn_truncated: int


#: Bytes chopped off for the torn-tail decode: enough to cut inside a
#: frame *and* inside the packet it carries.
_TORN_TAIL = 9


def byte_fault_plan(rate: float, seed: int) -> FaultPlan:
    """The byte-level channel mix the decoder sweep injects."""
    return FaultPlan(
        seed=seed,
        specs=(
            FaultSpec(FaultKind.BIT_FLIP, rate=rate),
            FaultSpec(FaultKind.BYTE_DROP, rate=rate),
            FaultSpec(
                FaultKind.FRAME_DESYNC, rate=rate / 8.0, desync_bytes=7
            ),
        ),
    )


def _sweep_frontend(name: str) -> TraceFrontend:
    """A frontend syncing every 128 trace bytes and every 4 frames, so
    the hunting receivers re-lock soon after damage."""
    from repro.coresight.ptm import PtmConfig
    from repro.frontends.etrace import EtraceConfig

    configs = {
        "coresight": {"ptm_config": PtmConfig(sync_interval_bytes=128)},
        "etrace": {"etrace_config": EtraceConfig(sync_interval_bytes=128)},
    }
    return get_frontend(name, sync_period=4, **configs[name])


def _decode(
    frontend: TraceFrontend, stream: bytes
) -> Tuple[int, int, int, int]:
    """Branches, frame resyncs, decoder resyncs and truncations of the
    resync-hunting receiver pair over ``stream``."""
    deframer = frontend.new_deframer(resync_hunt=True)
    decoder = frontend.new_decoder(strict=False, resync_hunt=True)
    items = list(decoder.feed(deframer.push(stream)))
    items += decoder.finish()
    # Branches are the only decoded items with a syscall flag, in
    # every grammar (the same predicate repro.serve decodes with).
    branches = sum(1 for item in items if hasattr(item, "is_syscall"))
    return (
        branches,
        deframer.frame_resyncs,
        decoder.resyncs,
        decoder.truncated,
    )


def run_decoder_sweep(
    frontend_name: str, rates: Sequence[float], events: int, seed: int
) -> List[DecoderChaosPoint]:
    """The decoder-recovery sweep over one trace grammar."""
    from repro.eval.metrics import demo_events

    frontend = _sweep_frontend(frontend_name)
    driver = frontend.create_driver()
    driver.enable()
    stream = driver.trace_all(
        demo_events("lstm", seed, events, run_label="chaos-decoder")
    )
    stream += driver.flush()
    clean_branches = _decode(frontend, stream)[0]
    points = []
    for rate in rates:
        injector = StreamFaultInjector(byte_fault_plan(rate, seed))
        corrupted = injector.feed(stream)
        branches, frame_resyncs, decoder_resyncs, truncated = _decode(
            frontend, corrupted
        )
        torn_branches, _, _, torn_truncated = _decode(
            frontend, corrupted[:-_TORN_TAIL]
        )
        points.append(
            DecoderChaosPoint(
                rate=rate,
                stream_bytes=len(corrupted),
                clean_branches=clean_branches,
                recovered_branches=branches,
                recovered_fraction=(
                    branches / clean_branches if clean_branches else 1.0
                ),
                bytes_flipped=injector.flipped,
                bytes_dropped=injector.dropped,
                desyncs=injector.desyncs,
                frame_resyncs=frame_resyncs,
                decoder_resyncs=decoder_resyncs,
                truncated=truncated,
                torn_tail_bytes=_TORN_TAIL,
                torn_recovered_branches=torn_branches,
                torn_truncated=torn_truncated,
            )
        )
    return points


# ----------------------------------------------------------------------
# Experiment 2: dataplane degradation (detection under injected loss)
# ----------------------------------------------------------------------


@dataclass
class DataplaneChaosPoint:
    rate: float
    inferences: int
    baseline_inferences: int
    matched: int
    flag_agreement: float
    interrupts: int
    events_dropped: int
    events_duplicated: int
    events_corrupted: int
    vectors_dropped: int


def dataplane_fault_plan(rate: float, seed: int) -> FaultPlan:
    """The event/vector channel mix the dataplane sweep injects."""
    return FaultPlan(
        seed=seed,
        specs=(
            FaultSpec(FaultKind.EVENT_DROP, rate=rate),
            FaultSpec(FaultKind.EVENT_CORRUPT, rate=rate),
            FaultSpec(FaultKind.FIFO_OVERFLOW, rate=rate / 4.0, burst=8),
        ),
    )


def run_dataplane_sweep(
    rates: Sequence[float], events: int, seed: int, kind: str = "lstm"
) -> List[DataplaneChaosPoint]:
    from repro.eval.metrics import build_demo_soc, demo_events

    stream = demo_events(kind, seed, events, run_label="chaos-dataplane")
    baseline_soc = build_demo_soc(kind, seed=seed)
    baseline = list(baseline_soc.run_events(stream))

    def flag_map(records) -> Dict[int, bool]:
        # Keyed by sequence number: the sweep measures which
        # inferences survive the faults, then how many still agree.
        return {
            r.sequence_number: bool(r.anomalous)
            for r in records
            if r.anomalous is not None
        }

    baseline_flags = flag_map(baseline)
    points = []
    for rate in rates:
        registry = MetricsRegistry()
        soc = build_demo_soc(
            kind,
            seed=seed,
            metrics=registry,
            fault_plan=dataplane_fault_plan(rate, seed),
        )
        records = list(soc.run_events(stream))
        flags = flag_map(records)
        matched = [s for s in flags if s in baseline_flags]
        agree = sum(1 for s in matched if flags[s] == baseline_flags[s])

        def count(name: str) -> int:
            return registry.counter(f"faults.{name}").value

        points.append(
            DataplaneChaosPoint(
                rate=rate,
                inferences=len(records),
                baseline_inferences=len(baseline),
                matched=len(matched),
                flag_agreement=(
                    agree / len(matched) if matched else 1.0
                ),
                interrupts=soc.mcm.interrupts.count,
                events_dropped=count("events.dropped"),
                events_duplicated=count("events.duplicated"),
                events_corrupted=count("events.corrupted"),
                vectors_dropped=count("vectors.dropped"),
            )
        )
    return points


# ----------------------------------------------------------------------
# Experiment 3: watchdog quarantine + healthy-tenant isolation
# ----------------------------------------------------------------------


@dataclass
class QuarantineRound:
    round: int
    health: Dict[str, str]
    records: Dict[str, int]
    watchdog_trips: int
    skipped: bool
    healthy_identical: Optional[bool]


@dataclass
class QuarantineChaosResult:
    faulty_tenant: str
    stall_rate: float
    deadline_us: float
    rounds: List[QuarantineRound] = field(default_factory=list)
    quarantines: int = 0
    readmissions: int = 0
    cancelled: int = 0
    healthy_always_identical: bool = True


def run_quarantine_scenario(
    events: int,
    seed: int,
    kind: str = "lstm",
    stall_rate: float = 0.25,
    stall_us: float = 5_000.0,
    deadline_us: float = 500.0,
    frontend: str = "coresight",
) -> QuarantineChaosResult:
    from repro.eval.metrics import build_demo_manager, demo_events

    per_round = max(200, events // _QUARANTINE_ROUNDS)
    registry = MetricsRegistry()
    plan = FaultPlan(
        seed=seed,
        specs=(
            FaultSpec(
                FaultKind.MCM_STALL, rate=stall_rate, stall_us=stall_us
            ),
        ),
    )
    frontends = {
        f"tenant{index}": frontend
        for index in range(_QUARANTINE_TENANTS)
    }
    manager = build_demo_manager(
        _QUARANTINE_TENANTS,
        kind=kind,
        seed=seed,
        metrics=registry,
        fault_plans={_FAULTY_TENANT: plan},
        deadline_us=deadline_us,
        health_policy=HealthPolicy(
            probation_rounds=1, recover_rounds=1
        ),
        frontends=frontends,
    )
    reference = build_demo_manager(
        _QUARANTINE_TENANTS, kind=kind, seed=seed, frontends=frontends
    )
    names = [runtime.name for runtime in manager.tenants]
    result = QuarantineChaosResult(
        faulty_tenant=_FAULTY_TENANT,
        stall_rate=stall_rate,
        deadline_us=deadline_us,
    )
    skipped_rounds = registry.counter("socmgr.health.skipped_rounds")
    for round_index in range(_QUARANTINE_ROUNDS):
        traces = {
            name: demo_events(
                kind,
                seed,
                per_round,
                run_label=f"chaos-{name}-r{round_index}",
            )
            for name in names
        }
        skips_before = skipped_rounds.value
        records = manager.run_events(traces)
        skipped = skipped_rounds.value > skips_before
        healthy_identical: Optional[bool] = None
        if skipped:
            # The invariant under test: a quarantined neighbour is
            # indistinguishable from an absent one.  The reference
            # manager (fault-free) runs this round without the faulty
            # tenant's trace; healthy records must match exactly.
            ref_traces = dict(traces)
            ref_traces[_FAULTY_TENANT] = []
            ref_records = reference.run_events(ref_traces)
            healthy_identical = all(
                [record_signature(r) for r in records[name]]
                == [record_signature(r) for r in ref_records[name]]
                for name in names
                if name != _FAULTY_TENANT
            )
            result.healthy_always_identical &= healthy_identical
        faulty_index = manager.tenant(_FAULTY_TENANT).index
        result.rounds.append(
            QuarantineRound(
                round=round_index,
                health={
                    name: health.value
                    for name, health in manager.health().items()
                },
                records={
                    name: len(recs) for name, recs in records.items()
                },
                watchdog_trips=manager.arbiter.watchdog_trips[
                    faulty_index
                ],
                skipped=skipped,
                healthy_identical=healthy_identical,
            )
        )
    result.quarantines = registry.counter("socmgr.health.quarantines").value
    result.readmissions = registry.counter("socmgr.health.readmissions").value
    result.cancelled = registry.counter("mcm.arbiter.watchdog.cancelled").value
    return result


# ----------------------------------------------------------------------
# Experiment 4: connection-level faults at the ingestion front door
# ----------------------------------------------------------------------


@dataclass
class ConnectionChaosResult(Report):
    """One deterministic run of the front-door connection sweep.

    Five tenants share one :class:`~repro.serve.IngestServer`; four of
    their clients are wired through seeded
    :class:`~repro.faults.connection.ConnectionFaultInjector` channels
    (slow-loris over raw CoreSight bytes, mid-frame disconnects over
    raw E-Trace bytes, corrupt frames, burst floods) while the fifth
    stays clean.  Round grouping is driven manually (``drain_once``
    per round, frozen server clock), so the healthy tenant's verdict
    flags can be compared exactly against a solo fault-free reference
    manager — the "no poisoning" invariant.
    """

    rounds: int
    recovery_rounds: int
    fault_rate: float
    tenants: Dict[str, str] = field(default_factory=dict)
    #: Client-side channel counts (what the injectors actually did).
    slow_frames: int = 0
    disconnects: int = 0
    corrupted_frames: int = 0
    flood_frames: int = 0
    #: Server-side accounting.
    server_counters: Dict[str, int] = field(default_factory=dict)
    breaker_states: Dict[str, str] = field(default_factory=dict)
    breaker_trips: int = 0
    #: Flood channel: responses seen by the client (ACK/SHED/ERR, one
    #: per *delivered* copy) vs logical frames it meant to send.
    flood_responses: int = 0
    flood_logical_frames: int = 0
    #: Clean tenant: every frame it sends must come back as an ACK.
    healthy_acks: int = 0
    healthy_frames: int = 0
    dataplane_crashes: int = 0
    healthy_round_flags: List[bool] = field(default_factory=list)
    healthy_always_identical: bool = True
    recovered_clean: bool = True

    def checks(self) -> Iterator[Check]:
        yield self.healthy_always_identical, (
            "connection: the clean tenant's verdict flags diverged "
            "from the fault-free reference"
        )
        yield self.recovered_clean, (
            "connection: a recovery round (clean traffic everywhere) "
            "still diverged from the reference"
        )
        yield not self.dataplane_crashes, (
            f"connection: {self.dataplane_crashes} dataplane crash(es) "
            "during drain"
        )
        for label, count in (
            ("slow-loris", self.slow_frames),
            ("disconnect", self.disconnects),
            ("corrupt", self.corrupted_frames),
            ("flood", self.flood_frames),
        ):
            yield count >= 1, f"connection: the {label} channel never fired"
        counters = self.server_counters
        yield counters.get("serve.clients.disconnected_midframe", 0) >= 1, (
            "connection: the server never observed a mid-frame "
            "disconnect"
        )
        yield counters.get("serve.decode.errors", 0) >= 1, (
            "connection: corrupted frames never reached the server's "
            "CRC check"
        )
        yield self.breaker_trips >= 1, (
            "connection: no circuit breaker ever tripped under the "
            "flood"
        )
        yield self.healthy_acks == self.healthy_frames, (
            "connection: the clean tenant saw "
            f"{self.healthy_acks} acks for {self.healthy_frames} frames "
            "(must be acked 1:1 — overload collateral)"
        )


_CONN_TENANTS = 5
_CONN_HEALTHY = "tenant0"
_CONN_CHANNELS: Dict[str, FaultKind] = {
    "tenant1": FaultKind.CONN_SLOW_LORIS,
    "tenant2": FaultKind.CONN_DISCONNECT,
    "tenant3": FaultKind.CONN_CORRUPT,
    "tenant4": FaultKind.CONN_FLOOD,
}
#: Raw-byte-stream sessions (grammar decoded server-side); the rest
#: send pre-decoded event batches.
_CONN_RAW_MODES = {"tenant1": "coresight", "tenant2": "etrace"}


def run_connection_chaos(
    events: int,
    seed: int,
    kind: str = "lstm",
    rounds: int = 8,
    recovery_rounds: int = 2,
    fault_rate: float = 0.6,
) -> ConnectionChaosResult:
    """Drive the front door through seeded connection faults.

    Fully deterministic: the server clock is frozen (no staleness, no
    rate limiting, no opportunistic drains), rounds are drained
    manually, and every fault decision is a counter hash.
    """
    import asyncio

    from repro.eval.metrics import build_demo_manager, demo_events
    from repro.faults.connection import ConnectionFaultInjector
    from repro.errors import ServeError
    from repro.serve import (
        IngestServer,
        ServeConfig,
        SimulatedClient,
    )

    per_round = max(100, events // (rounds + recovery_rounds) // 4)
    manager = build_demo_manager(_CONN_TENANTS, kind=kind, seed=seed)
    reference = build_demo_manager(1, kind=kind, seed=seed)
    # With the clock frozen the token bucket never refills, so the
    # burst is a whole-run event budget per tenant: sized to cover
    # every clean tenant's logical traffic with ~30% headroom, which
    # the flood channel's duplicated copies blow straight through —
    # that is what trips its breaker while neighbours stay CLOSED.
    burst = int(per_round * (rounds + recovery_rounds) * 1.3)
    server = IngestServer(
        manager,
        ServeConfig(
            max_queued_events=1 << 20,
            window_batches=256,
            rate_limit_eps=1.0,
            rate_burst_events=burst,
        ),
        clock_ns=lambda: 0,
    )
    names = [runtime.name for runtime in manager.tenants]
    injectors = {
        name: ConnectionFaultInjector(
            FaultPlan(
                seed=seed,
                specs=(FaultSpec(kindspec, rate=fault_rate),),
            ),
            client_index=index,
        )
        for index, (name, kindspec) in enumerate(
            _CONN_CHANNELS.items(), start=1
        )
    }
    result = ConnectionChaosResult(
        rounds=rounds,
        recovery_rounds=recovery_rounds,
        fault_rate=fault_rate,
        tenants={
            name: (
                "clean"
                if name == _CONN_HEALTHY
                else _CONN_CHANNELS[name].value
            )
            for name in names
        },
    )

    drivers = {
        name: get_frontend(frontend).create_driver()
        for name, frontend in _CONN_RAW_MODES.items()
    }
    for driver in drivers.values():
        driver.enable()

    #: Per-tenant response tallies, aggregated across reconnects.
    agg_acks = {name: 0 for name in names}
    agg_responses = {name: 0 for name in names}
    hellos = {name: 0 for name in names}

    async def scenario() -> None:
        clients: Dict[str, SimulatedClient] = {}

        def retire(name: str) -> None:
            client = clients.pop(name, None)
            if client is None:
                return
            agg_acks[name] += client.acks
            agg_responses[name] += (
                client.acks + client.sheds + client.errors
            )
            client.close()

        async def attach(name: str, faulty: bool) -> SimulatedClient:
            client = SimulatedClient.local_faulty(
                server, injectors.get(name) if faulty else None
            )
            await client.hello(
                name,
                mode="raw" if name in _CONN_RAW_MODES else "events",
                frontend=_CONN_RAW_MODES.get(name),
            )
            hellos[name] += 1
            return client

        async def send_round(name: str, round_index: int, faulty: bool):
            stream = demo_events(
                kind, seed, per_round,
                run_label=f"conn-{name}-r{round_index}",
            )
            try:
                if name not in clients:
                    clients[name] = await attach(name, faulty)
                client = clients[name]
                if name in _CONN_RAW_MODES:
                    chunk = drivers[name].trace_all(stream)
                    chunk += drivers[name].flush()
                    await client.send_raw(chunk)
                else:
                    await client.send_events(stream)
            except ServeError:
                # The injector hit this tenant's session itself —
                # mid-frame disconnect, or a corrupted HELLO the
                # server refused.  Drop the session; a fresh one
                # (fresh raw decoder) picks up next round.  The
                # injector object persists, so frame numbering — and
                # the seeded fates — stay aligned.
                retire(name)
            return stream

        total = rounds + recovery_rounds
        for round_index in range(total):
            recovery = round_index >= rounds
            if recovery:
                # Recovery rounds send clean traffic: drop any session
                # still wired through an injector so a fault-free
                # client reattaches.
                for name in list(clients):
                    if clients[name].injector is not None:
                        retire(name)
            healthy_stream = None
            for name in names:
                faulty = name != _CONN_HEALTHY and not recovery
                stream = await send_round(name, round_index, faulty)
                if name == _CONN_HEALTHY:
                    healthy_stream = stream
            try:
                server.drain_once()
            except Exception:
                result.dataplane_crashes += 1
                break
            # Healthy-isolation invariant: tenant0's flags this round
            # must match a solo fault-free run of the same events.
            ref_records = reference.run_events(
                {_CONN_HEALTHY: healthy_stream}
            )
            identical = verdict_flags(
                server.last_records.get(_CONN_HEALTHY, [])
            ) == verdict_flags(ref_records[_CONN_HEALTHY])
            result.healthy_round_flags.append(identical)
            result.healthy_always_identical &= identical
            if recovery and not identical:
                result.recovered_clean = False

        for name in list(clients):
            try:
                await clients[name].bye()
            except Exception:
                pass
            retire(name)
        try:
            await server.stop()
        except Exception:
            result.dataplane_crashes += 1

    asyncio.run(scenario())

    result.slow_frames = injectors["tenant1"].slow
    result.disconnects = injectors["tenant2"].disconnects
    result.corrupted_frames = injectors["tenant3"].corrupted
    result.flood_frames = injectors["tenant4"].floods
    total = rounds + recovery_rounds
    result.healthy_frames = total
    result.healthy_acks = agg_acks[_CONN_HEALTHY] - hellos[_CONN_HEALTHY]
    result.flood_logical_frames = total
    result.flood_responses = (
        agg_responses["tenant4"] - hellos["tenant4"]
    )
    result.server_counters = {
        name: count for name, count in server.counts.items() if count
    }
    result.breaker_states = {
        name: breaker.state.value
        for name, breaker in server.breakers.items()
    }
    result.breaker_trips = server.counts["serve.breaker.trips"]
    result.dataplane_crashes += len(server.drain_errors)
    return result


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------


@dataclass
class ChaosResult(Report):
    rates: Tuple[float, ...]
    events: int
    seed: int
    decoder: List[DecoderChaosPoint]
    dataplane: List[DataplaneChaosPoint]
    quarantine: QuarantineChaosResult
    decoder_etrace: List[DecoderChaosPoint]
    quarantine_etrace: QuarantineChaosResult
    connection: ConnectionChaosResult
    fleet: FleetChaosResult

    def checks(self) -> Iterator[Check]:
        """The invariants the experiments exist to demonstrate: rate-0
        points are no-op proofs (perfect recovery, byte-identical
        detection, zero injected faults), and quarantine must both
        fire and leave healthy tenants' records untouched."""
        for label, points in (
            ("decoder", self.decoder),
            ("decoder[etrace]", self.decoder_etrace),
        ):
            for point in points:
                yield (
                    point.rate != 0.0
                    or point.recovered_branches == point.clean_branches,
                    f"{label}: rate-0 run recovered "
                    f"{point.recovered_branches}/{point.clean_branches} "
                    "branches (must be all)",
                )
                yield (
                    point.torn_recovered_branches
                    <= point.recovered_branches,
                    f"{label}: torn-tail decode recovered more "
                    "branches than the full stream",
                )
        for point in self.dataplane:
            if point.rate != 0.0:
                continue
            yield point.inferences == point.baseline_inferences, (
                "dataplane: rate-0 run produced "
                f"{point.inferences} inferences vs baseline "
                f"{point.baseline_inferences}"
            )
            yield point.flag_agreement == 1.0, (
                "dataplane: rate-0 run disagreed with baseline flags "
                f"(agreement {point.flag_agreement:.3f})"
            )
            injected = (
                point.events_dropped
                + point.events_duplicated
                + point.events_corrupted
                + point.vectors_dropped
            )
            yield not injected, (
                f"dataplane: rate-0 run injected {injected} faults"
            )
        for label, q in (
            ("quarantine", self.quarantine),
            ("quarantine[etrace]", self.quarantine_etrace),
        ):
            yield q.healthy_always_identical, (
                f"{label}: healthy tenants' records diverged from the "
                "fault-free reference"
            )
            yield q.quarantines >= 1, (
                f"{label}: the faulty tenant was never quarantined"
            )
            yield q.readmissions >= 1, (
                f"{label}: the quarantined tenant was never re-admitted"
            )
        yield from self.connection.checks()
        yield from self.fleet.checks()


def run_chaos(
    rates: Sequence[float] = DEFAULT_RATES,
    events: int = 6_000,
    seed: int = 0,
    kind: str = "lstm",
) -> ChaosResult:
    """Run all the chaos experiments over the rate sweep.

    The decoder sweep and the quarantine scenario each run twice —
    once per trace grammar — so the recovery and isolation invariants
    are demonstrated for CoreSight and E-Trace side by side.  The
    fleet experiment (:mod:`repro.eval.fleet`) kills a worker process
    with a real ``kill -9`` mid-round and proves the supervisor's
    recovery lost and perturbed nothing.
    """
    for rate in rates:
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"fault rate must be in [0, 1], got {rate}")
    return ChaosResult(
        rates=tuple(rates),
        events=events,
        seed=seed,
        decoder=run_decoder_sweep("coresight", rates, events, seed),
        dataplane=run_dataplane_sweep(rates, events, seed, kind=kind),
        quarantine=run_quarantine_scenario(events, seed, kind=kind),
        decoder_etrace=run_decoder_sweep("etrace", rates, events, seed),
        quarantine_etrace=run_quarantine_scenario(
            events, seed, kind=kind, frontend="etrace"
        ),
        connection=run_connection_chaos(events, seed, kind=kind),
        fleet=run_fleet_chaos(events, seed, kind=kind),
    )
