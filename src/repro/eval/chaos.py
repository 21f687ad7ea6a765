"""``python -m repro.eval chaos`` — fault-injection sweeps.

Three experiments, all seeded and fully deterministic:

1. **Decoder recovery** — a PTM packet stream is TPIU-framed, then
   byte-level faults (bit flips, byte drops, frame desyncs) are
   injected at each swept rate.  The resync-hunting deframer + decoder
   pair reads the corrupted stream and the experiment reports how much
   of the branch stream survives and how many re-locks that cost.
   The same sweep runs against the RISC-V E-Trace grammar (ETP-framed
   stream, :class:`~repro.frontends.etrace.EtraceDeframer` +
   :class:`~repro.frontends.etrace.EtraceDecoder`), with an extra
   truncated-tail decode per point — the byte-fault channels are
   frontend-neutral and both grammars must recover.
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

The rate=0 points double as no-op proofs: a plan whose channels all
have rate 0 must leave every output identical to no plan at all.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.coresight.decoder import DecodedBranch, PftDecoder
from repro.coresight.ptm import Ptm, PtmConfig
from repro.coresight.tpiu import DEFAULT_SOURCE_ID, Tpiu, TpiuDeframer
from repro.eval.recovery import record_signature
from repro.eval.report import format_table
from repro.faults.injectors import StreamFaultInjector
from repro.faults.plan import FaultKind, FaultPlan, FaultSpec
from repro.mcm.mcm import InferenceRecord
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


def _framed_demo_stream(
    events: int, seed: int
) -> Tuple[bytes, int]:
    """A framed PTM stream plus its clean-decode branch count."""
    from repro.eval.metrics import demo_events

    ptm = Ptm(PtmConfig(sync_interval_bytes=128))
    tpiu = Tpiu(sync_period=4)
    stream = bytearray()
    for event in demo_events("lstm", seed, events, run_label="chaos-decoder"):
        stream += tpiu.push(ptm.feed(event))
    stream += tpiu.push(ptm.flush())
    stream += tpiu.flush()
    framed = bytes(stream)
    clean = _decode_framed(framed)
    return framed, clean.recovered_branches


def _decode_framed(framed: bytes) -> "DecoderChaosPoint":
    """Run the resync-hunting receiver pair over a framed stream."""
    deframer = TpiuDeframer(
        expected_source_id=DEFAULT_SOURCE_ID, resync_hunt=True
    )
    decoder = PftDecoder(strict=False, resync_hunt=True)
    payload = deframer.push(framed)
    items = list(decoder.feed(payload))
    items += decoder.finish()
    branches = sum(1 for i in items if isinstance(i, DecodedBranch))
    return DecoderChaosPoint(
        rate=0.0,
        stream_bytes=len(framed),
        clean_branches=0,
        recovered_branches=branches,
        recovered_fraction=0.0,
        bytes_flipped=0,
        bytes_dropped=0,
        desyncs=0,
        frame_resyncs=deframer.frame_resyncs,
        decoder_resyncs=decoder.resyncs,
        truncated=decoder.truncated,
    )


@dataclass
class EtraceDecoderChaosPoint(DecoderChaosPoint):
    """E-Trace sweep point: adds a torn-tail decode of the same
    corrupted stream (last ``torn_tail_bytes`` chopped off) — the
    deframer/decoder must absorb the truncation as a counted
    :class:`~repro.frontends.etrace.EtraceTruncation`, never an
    exception."""

    torn_tail_bytes: int = 0
    torn_recovered_branches: int = 0
    torn_truncated: int = 0


#: Bytes chopped off for the E-Trace torn-tail decode: enough to cut
#: inside an ETP frame *and* inside the packet it carries.
_ETRACE_TORN_TAIL = 9


def _framed_etrace_stream(events: int, seed: int) -> Tuple[bytes, int]:
    """A framed E-Trace stream plus its clean-decode branch count."""
    from repro.eval.metrics import demo_events
    from repro.frontends.etrace import (
        EtraceConfig,
        EtraceEncoder,
        EtraceFramer,
    )

    encoder = EtraceEncoder(EtraceConfig(sync_interval_bytes=128))
    framer = EtraceFramer(sync_period=4)
    stream = bytearray()
    for event in demo_events(
        "lstm", seed, events, run_label="chaos-decoder"
    ):
        stream += framer.push(encoder.feed(event))
    stream += framer.push(encoder.flush())
    stream += framer.flush()
    framed = bytes(stream)
    clean = _decode_etrace(framed)
    return framed, clean.recovered_branches


def _decode_etrace(framed: bytes) -> "EtraceDecoderChaosPoint":
    """Run the resync-hunting E-Trace receiver pair over a stream."""
    from repro.frontends.etrace import (
        EtraceBranch,
        EtraceDecoder,
        EtraceDeframer,
    )

    deframer = EtraceDeframer(resync_hunt=True)
    decoder = EtraceDecoder(strict=False, resync_hunt=True)
    payload = deframer.push(framed)
    items = list(decoder.feed(payload))
    items += decoder.finish()
    branches = sum(1 for i in items if isinstance(i, EtraceBranch))
    return EtraceDecoderChaosPoint(
        rate=0.0,
        stream_bytes=len(framed),
        clean_branches=0,
        recovered_branches=branches,
        recovered_fraction=0.0,
        bytes_flipped=0,
        bytes_dropped=0,
        desyncs=0,
        frame_resyncs=deframer.frame_resyncs,
        decoder_resyncs=decoder.resyncs,
        truncated=decoder.truncated,
    )


def run_etrace_decoder_sweep(
    rates: Sequence[float], events: int, seed: int
) -> List[EtraceDecoderChaosPoint]:
    """The decoder-recovery sweep, E-Trace grammar.

    Same byte-fault plan as the CoreSight sweep; each point also
    decodes the corrupted stream with its tail torn off to prove the
    truncation path is a counted event, not a crash.
    """
    framed, clean_branches = _framed_etrace_stream(events, seed)
    points = []
    for rate in rates:
        injector = StreamFaultInjector(byte_fault_plan(rate, seed))
        corrupted = injector.feed(framed)
        point = _decode_etrace(corrupted)
        point.rate = rate
        point.clean_branches = clean_branches
        point.recovered_fraction = (
            point.recovered_branches / clean_branches
            if clean_branches
            else 1.0
        )
        point.bytes_flipped = injector.flipped
        point.bytes_dropped = injector.dropped
        point.desyncs = injector.desyncs
        torn = _decode_etrace(corrupted[:-_ETRACE_TORN_TAIL])
        point.torn_tail_bytes = _ETRACE_TORN_TAIL
        point.torn_recovered_branches = torn.recovered_branches
        point.torn_truncated = torn.truncated
        points.append(point)
    return points


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


def run_decoder_sweep(
    rates: Sequence[float], events: int, seed: int
) -> List[DecoderChaosPoint]:
    framed, clean_branches = _framed_demo_stream(events, seed)
    points = []
    for rate in rates:
        injector = StreamFaultInjector(byte_fault_plan(rate, seed))
        corrupted = injector.feed(framed)
        point = _decode_framed(corrupted)
        point.rate = rate
        point.clean_branches = clean_branches
        point.recovered_fraction = (
            point.recovered_branches / clean_branches
            if clean_branches
            else 1.0
        )
        point.bytes_flipped = injector.flipped
        point.bytes_dropped = injector.dropped
        point.desyncs = injector.desyncs
        points.append(point)
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


def _flag_map(records: Sequence[InferenceRecord]) -> Dict[int, bool]:
    return {
        r.sequence_number: bool(r.anomalous)
        for r in records
        if r.anomalous is not None
    }


def run_dataplane_sweep(
    rates: Sequence[float], events: int, seed: int, kind: str = "lstm"
) -> List[DataplaneChaosPoint]:
    from repro.eval.metrics import build_demo_soc, demo_events

    stream = demo_events(kind, seed, events, run_label="chaos-dataplane")
    baseline_soc = build_demo_soc(kind, seed=seed)
    baseline = list(baseline_soc.run_events(stream))
    baseline_flags = _flag_map(baseline)
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
        flags = _flag_map(records)
        matched = [s for s in flags if s in baseline_flags]
        agree = sum(1 for s in matched if flags[s] == baseline_flags[s])
        counters = registry.snapshot()["counters"]
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
                events_dropped=int(
                    counters.get("faults.events.dropped", 0)
                ),
                events_duplicated=int(
                    counters.get("faults.events.duplicated", 0)
                ),
                events_corrupted=int(
                    counters.get("faults.events.corrupted", 0)
                ),
                vectors_dropped=int(
                    counters.get("faults.vectors.dropped", 0)
                ),
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
        skips_before = int(
            registry.snapshot()["counters"].get(
                "socmgr.health.skipped_rounds", 0
            )
        )
        records = manager.run_events(traces)
        skips_after = int(
            registry.snapshot()["counters"].get(
                "socmgr.health.skipped_rounds", 0
            )
        )
        skipped = skips_after > skips_before
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
    counters = registry.snapshot()["counters"]
    result.quarantines = int(
        counters.get("socmgr.health.quarantines", 0)
    )
    result.readmissions = int(
        counters.get("socmgr.health.readmissions", 0)
    )
    result.cancelled = int(
        counters.get("mcm.arbiter.watchdog.cancelled", 0)
    )
    return result


# ----------------------------------------------------------------------
# Experiment 4: connection-level faults at the ingestion front door
# ----------------------------------------------------------------------


@dataclass
class ConnectionChaosResult:
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
    from repro.faults.plan import FaultSpec
    from repro.errors import ServeError
    from repro.serve import (
        IngestServer,
        ServeConfig,
        SimulatedClient,
    )
    from repro.frontends import get_frontend

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
            live = _flag_map(
                server.last_records.get(_CONN_HEALTHY, [])
            )
            ref = _flag_map(ref_records[_CONN_HEALTHY])
            identical = live == ref
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
# Driver + reporting
# ----------------------------------------------------------------------


@dataclass
class ChaosResult:
    rates: Tuple[float, ...]
    events: int
    seed: int
    decoder: List[DecoderChaosPoint]
    dataplane: List[DataplaneChaosPoint]
    quarantine: QuarantineChaosResult
    decoder_etrace: List[EtraceDecoderChaosPoint] = field(
        default_factory=list
    )
    quarantine_etrace: Optional[QuarantineChaosResult] = None
    connection: Optional[ConnectionChaosResult] = None
    fleet: Optional["FleetChaosResult"] = None


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
    from repro.eval.fleet import run_fleet_chaos

    for rate in rates:
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"fault rate must be in [0, 1], got {rate}")
    return ChaosResult(
        rates=tuple(rates),
        events=events,
        seed=seed,
        decoder=run_decoder_sweep(rates, events, seed),
        dataplane=run_dataplane_sweep(rates, events, seed, kind=kind),
        quarantine=run_quarantine_scenario(events, seed, kind=kind),
        decoder_etrace=run_etrace_decoder_sweep(rates, events, seed),
        quarantine_etrace=run_quarantine_scenario(
            events, seed, kind=kind, frontend="etrace"
        ),
        connection=run_connection_chaos(events, seed, kind=kind),
        fleet=run_fleet_chaos(events, seed, kind=kind),
    )


def format_chaos(result: ChaosResult) -> str:
    decoder = format_table(
        ["rate", "flip", "drop", "desync", "branches", "recovered",
         "frame rs", "dec rs", "trunc"],
        [
            (
                f"{p.rate:g}",
                p.bytes_flipped,
                p.bytes_dropped,
                p.desyncs,
                f"{p.recovered_branches}/{p.clean_branches}",
                f"{p.recovered_fraction:.3f}",
                p.frame_resyncs,
                p.decoder_resyncs,
                p.truncated,
            )
            for p in result.decoder
        ],
        title="chaos: decoder recovery under byte corruption (coresight)",
    )
    decoder_etrace = format_table(
        ["rate", "flip", "drop", "desync", "branches", "recovered",
         "frame rs", "dec rs", "trunc", "torn rec", "torn trunc"],
        [
            (
                f"{p.rate:g}",
                p.bytes_flipped,
                p.bytes_dropped,
                p.desyncs,
                f"{p.recovered_branches}/{p.clean_branches}",
                f"{p.recovered_fraction:.3f}",
                p.frame_resyncs,
                p.decoder_resyncs,
                p.truncated,
                p.torn_recovered_branches,
                p.torn_truncated,
            )
            for p in result.decoder_etrace
        ],
        title="chaos: decoder recovery under byte corruption (etrace)",
    )
    dataplane = format_table(
        ["rate", "inferences", "baseline", "matched", "agreement",
         "ev drop", "ev dup", "ev corr", "vec drop"],
        [
            (
                f"{p.rate:g}",
                p.inferences,
                p.baseline_inferences,
                p.matched,
                f"{p.flag_agreement:.3f}",
                p.events_dropped,
                p.events_duplicated,
                p.events_corrupted,
                p.vectors_dropped,
            )
            for p in result.dataplane
        ],
        title="chaos: detection degradation under dataplane faults",
    )
    sections = [decoder, decoder_etrace, dataplane]
    sections.append(
        _format_quarantine(result.quarantine, "coresight")
    )
    if result.quarantine_etrace is not None:
        sections.append(
            _format_quarantine(result.quarantine_etrace, "etrace")
        )
    if result.connection is not None:
        sections.append(_format_connection(result.connection))
    if result.fleet is not None:
        from repro.eval.fleet import format_fleet_chaos

        sections.append(format_fleet_chaos(result.fleet))
    return "\n\n".join(sections)


def _format_connection(c: ConnectionChaosResult) -> str:
    counters = c.server_counters
    rows = [
        ("slow-loris frames (tenant1, raw coresight)", c.slow_frames),
        ("mid-frame disconnects (tenant2, raw etrace)", c.disconnects),
        ("corrupted frames (tenant3)", c.corrupted_frames),
        ("burst floods (tenant4)", c.flood_frames),
        ("server: midframe disconnects seen",
         counters.get("serve.clients.disconnected_midframe", 0)),
        ("server: decode errors (CRC)",
         counters.get("serve.decode.errors", 0)),
        ("server: frames shed (rate_limited)",
         counters.get("serve.shed.rate_limited", 0)),
        ("server: frames shed (sampled)",
         counters.get("serve.shed.sampled", 0)),
        ("server: breaker trips", c.breaker_trips),
        ("flood responses / logical frames",
         f"{c.flood_responses}/{c.flood_logical_frames}"),
        ("healthy acks / frames",
         f"{c.healthy_acks}/{c.healthy_frames}"),
        ("dataplane crashes", c.dataplane_crashes),
    ]
    return format_table(
        ["channel / invariant", "count"],
        rows,
        title=(
            f"chaos: connection faults at the front door "
            f"(rate {c.fault_rate:g}, {c.rounds}+{c.recovery_rounds} "
            f"rounds; healthy identical: "
            f"{'yes' if c.healthy_always_identical else 'NO'}, "
            f"recovered clean: "
            f"{'yes' if c.recovered_clean else 'NO'})"
        ),
    )


def _format_quarantine(
    q: QuarantineChaosResult, frontend: str
) -> str:
    return format_table(
        ["round", "health", "records", "trips", "skipped", "identical"],
        [
            (
                r.round,
                " ".join(
                    f"{name}={state}" for name, state in r.health.items()
                ),
                " ".join(
                    f"{name}={count}"
                    for name, count in r.records.items()
                ),
                r.watchdog_trips,
                "yes" if r.skipped else "no",
                "-" if r.healthy_identical is None
                else ("yes" if r.healthy_identical else "NO"),
            )
            for r in q.rounds
        ],
        title=(
            f"chaos: quarantine of {q.faulty_tenant} ({frontend}) "
            f"(stall rate {q.stall_rate:g}, deadline {q.deadline_us:g} us; "
            f"{q.quarantines} quarantines, {q.readmissions} readmissions, "
            f"{q.cancelled} watchdog cancels, healthy identical: "
            f"{'yes' if q.healthy_always_identical else 'NO'})"
        ),
    )


def chaos_failures(result: ChaosResult) -> List[str]:
    """Violated sweep invariants, as human-readable strings.

    An empty list means the sweep passed.  The invariants are the ones
    the experiments exist to demonstrate: rate-0 points are no-op
    proofs (perfect recovery, byte-identical detection, zero injected
    faults), and quarantine must both fire and leave healthy tenants'
    records untouched.  ``python -m repro.eval chaos`` exits non-zero
    when any of these fail.
    """
    failures: List[str] = []
    for point in result.decoder:
        if point.rate == 0.0 and (
            point.recovered_branches != point.clean_branches
        ):
            failures.append(
                "decoder: rate-0 run recovered "
                f"{point.recovered_branches}/{point.clean_branches} "
                "branches (must be all)"
            )
    for point in result.decoder_etrace:
        if point.rate == 0.0 and (
            point.recovered_branches != point.clean_branches
        ):
            failures.append(
                "decoder[etrace]: rate-0 run recovered "
                f"{point.recovered_branches}/{point.clean_branches} "
                "branches (must be all)"
            )
        if point.torn_recovered_branches > point.recovered_branches:
            failures.append(
                "decoder[etrace]: torn-tail decode recovered more "
                "branches than the full stream"
            )
    for point in result.dataplane:
        if point.rate != 0.0:
            continue
        if point.inferences != point.baseline_inferences:
            failures.append(
                "dataplane: rate-0 run produced "
                f"{point.inferences} inferences vs baseline "
                f"{point.baseline_inferences}"
            )
        if point.flag_agreement != 1.0:
            failures.append(
                "dataplane: rate-0 run disagreed with baseline flags "
                f"(agreement {point.flag_agreement:.3f})"
            )
        injected = (
            point.events_dropped
            + point.events_duplicated
            + point.events_corrupted
            + point.vectors_dropped
        )
        if injected:
            failures.append(
                f"dataplane: rate-0 run injected {injected} faults"
            )
    scenarios = [("quarantine", result.quarantine)]
    if result.quarantine_etrace is not None:
        scenarios.append(
            ("quarantine[etrace]", result.quarantine_etrace)
        )
    for label, q in scenarios:
        if not q.healthy_always_identical:
            failures.append(
                f"{label}: healthy tenants' records diverged from the "
                "fault-free reference"
            )
        if q.quarantines < 1:
            failures.append(
                f"{label}: the faulty tenant was never quarantined"
            )
        if q.readmissions < 1:
            failures.append(
                f"{label}: the quarantined tenant was never re-admitted"
            )
    if result.connection is not None:
        failures.extend(_connection_failures(result.connection))
    if result.fleet is not None:
        from repro.eval.fleet import fleet_chaos_failures

        failures.extend(fleet_chaos_failures(result.fleet))
    return failures


def _connection_failures(c: ConnectionChaosResult) -> List[str]:
    failures: List[str] = []
    if not c.healthy_always_identical:
        failures.append(
            "connection: the clean tenant's verdict flags diverged "
            "from the fault-free reference"
        )
    if not c.recovered_clean:
        failures.append(
            "connection: a recovery round (clean traffic everywhere) "
            "still diverged from the reference"
        )
    if c.dataplane_crashes:
        failures.append(
            f"connection: {c.dataplane_crashes} dataplane crash(es) "
            "during drain"
        )
    for label, count in (
        ("slow-loris", c.slow_frames),
        ("disconnect", c.disconnects),
        ("corrupt", c.corrupted_frames),
        ("flood", c.flood_frames),
    ):
        if count < 1:
            failures.append(
                f"connection: the {label} channel never fired"
            )
    counters = c.server_counters
    if counters.get("serve.clients.disconnected_midframe", 0) < 1:
        failures.append(
            "connection: the server never observed a mid-frame "
            "disconnect"
        )
    if counters.get("serve.decode.errors", 0) < 1:
        failures.append(
            "connection: corrupted frames never reached the server's "
            "CRC check"
        )
    if c.breaker_trips < 1:
        failures.append(
            "connection: no circuit breaker ever tripped under the "
            "flood"
        )
    if c.healthy_acks != c.healthy_frames:
        failures.append(
            "connection: the clean tenant saw "
            f"{c.healthy_acks} acks for {c.healthy_frames} frames "
            "(must be acked 1:1 — overload collateral)"
        )
    return failures


def chaos_to_json(result: ChaosResult) -> Dict[str, object]:
    """JSON document mirroring :func:`format_chaos`."""
    return {
        "rates": list(result.rates),
        "events": result.events,
        "seed": result.seed,
        "decoder": [asdict(p) for p in result.decoder],
        "decoder_etrace": [asdict(p) for p in result.decoder_etrace],
        "dataplane": [asdict(p) for p in result.dataplane],
        "quarantine": asdict(result.quarantine),
        "quarantine_etrace": (
            asdict(result.quarantine_etrace)
            if result.quarantine_etrace is not None
            else None
        ),
        "connection": (
            asdict(result.connection)
            if result.connection is not None
            else None
        ),
        "fleet": (
            asdict(result.fleet) if result.fleet is not None else None
        ),
        "failures": chaos_failures(result),
    }
