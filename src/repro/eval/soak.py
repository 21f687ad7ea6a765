"""``python -m repro.eval soak`` — front-door load and overload.

Four scenarios against the asyncio ingestion service
(:class:`repro.serve.IngestServer`), all on the in-memory transport so
a thousand-plus concurrent clients cost no file descriptors:

1. **steady** — ``--clients`` (default 1000) concurrent clients spread
   over both trace grammars and both ingest modes (raw byte streams
   decoded server-side, pre-decoded event batches) stream into a
   generously provisioned server.  Reports p50/p99/max ingest-to-
   verdict latency and checks conservation: every admitted event is
   either served in a round or shed as stale — and every frame got a
   visible answer.
2. **overload (deadline armed)** — clients outrun a deliberately
   slowed drain loop with a deadline configured: stale batches are
   shed at drain, doomed batches at the door, and the *admitted*
   requests keep a bounded tail.
3. **overload (unarmed)** — the identical offered load with no
   deadline: nothing sheds, the backlog drains eventually, and the
   admitted p99 balloons.  The armed-vs-unarmed p99 gap is the
   experiment's headline number.
4. **ratelimit** — a small client fleet against a per-tenant token
   bucket; refusals must come back as SHED frames with positive
   retry-after hints.

:meth:`SoakResult.checks` declares the scenario gates; any failure is
a non-zero exit (the CI smoke runs them with a reduced fleet).
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.eval.report import Check, Report
from repro.frontends import frontend_names, get_frontend
from repro.serve import IngestServer, ServeClient, ServeConfig
from repro.serve import protocol
from repro.workloads.cfg import BranchEvent

#: Steady-state fleet size (the acceptance bar: >= 1000 concurrent).
DEFAULT_CLIENTS = 1000

#: Tenants the fleets share (clients per tenant = clients / tenants).
SOAK_TENANTS = 4

#: Ingest deadline for the armed overload scenario.
OVERLOAD_DEADLINE_US = 30_000.0


@dataclass
class SoakScenario:
    """One scenario's aggregated outcome."""

    name: str
    clients: int
    frames_sent: int
    #: Data-frame responses by type (hello ACKs excluded).
    acks: int
    sheds: int
    errors: int
    admitted_events: int
    drained_events: int
    stale_events: int
    rounds: int
    p50_ms: float
    p99_ms: float
    max_ms: float
    latency_samples: int
    shed_counters: Dict[str, int] = field(default_factory=dict)
    breaker_trips: int = 0
    dataplane_crashes: int = 0
    min_retry_after_ms: float = 0.0
    wall_s: float = 0.0


@dataclass
class SoakResult(Report):
    clients: int
    seed: int
    kind: str
    frontends: Tuple[str, ...]
    deadline_us: float
    steady: SoakScenario
    overload_armed: SoakScenario
    overload_unarmed: SoakScenario
    ratelimit: SoakScenario

    def checks(self) -> Iterator[Check]:
        for s in (
            self.steady,
            self.overload_armed,
            self.overload_unarmed,
            self.ratelimit,
        ):
            yield not s.dataplane_crashes, (
                f"{s.name}: {s.dataplane_crashes} dataplane crashes"
            )
            answered = s.acks + s.sheds + s.errors
            yield answered == s.frames_sent, (
                f"{s.name}: {answered} responses for {s.frames_sent} "
                "data frames (every frame must be answered)"
            )
            yield s.admitted_events == s.drained_events + s.stale_events, (
                f"{s.name}: {s.admitted_events} admitted events != "
                f"{s.drained_events} drained + {s.stale_events} stale "
                "(shed work must be accounted, not lost)"
            )
        steady = self.steady
        yield steady.clients >= self.clients, (
            f"steady: only {steady.clients} clients ran "
            f"(requested {self.clients})"
        )
        yield not steady.errors, (
            f"steady: {steady.errors} protocol errors on a clean fleet"
        )
        yield steady.latency_samples > 0, (
            "steady: no ingest-to-verdict latency samples"
        )
        armed, unarmed = self.overload_armed, self.overload_unarmed
        yield (
            armed.shed_counters.get("deadline", 0)
            + armed.shed_counters.get("stale", 0) > 0,
            "overload-armed: deadline/stale shedding never fired",
        )
        deadline_ms = self.deadline_us / 1e3
        yield armed.p99_ms <= 2 * deadline_ms, (
            f"overload-armed: admitted p99 {armed.p99_ms:.1f} ms is "
            f"not bounded by the {deadline_ms:g} ms deadline"
        )
        yield (
            unarmed.p99_ms <= 2 * deadline_ms
            or armed.p99_ms <= unarmed.p99_ms,
            f"overload: armed p99 {armed.p99_ms:.1f} ms exceeds "
            f"unarmed p99 {unarmed.p99_ms:.1f} ms — the deadline did "
            "not bound the admitted tail",
        )
        limited = self.ratelimit
        yield limited.shed_counters.get("rate_limited", 0) > 0, (
            "ratelimit: the token bucket never refused"
        )
        yield not limited.sheds or limited.min_retry_after_ms > 0, (
            "ratelimit: SHED responses carried no positive retry-after"
        )


def _percentile_ms(samples_ns: Sequence[int], q: float) -> float:
    if not samples_ns:
        return 0.0
    ordered = sorted(samples_ns)
    index = min(len(ordered) - 1, int(q * len(ordered)))
    return ordered[index] / 1e6


@dataclass(frozen=True)
class _ClientSpec:
    tenant: str
    mode: str
    frontend: Optional[str]
    frames: Tuple[object, ...]  # event tuples (events mode) or bytes


def _raw_chunks(
    frontend_name: str,
    events: Sequence[BranchEvent],
    frames: int,
) -> Tuple[bytes, ...]:
    """One continuous encoded stream, split into per-frame chunks."""
    frontend = get_frontend(frontend_name)
    driver = frontend.create_driver()
    driver.enable()
    per_frame = max(1, len(events) // frames)
    chunks: List[bytes] = []
    for index in range(frames):
        start = index * per_frame
        stop = len(events) if index == frames - 1 else start + per_frame
        chunks.append(driver.trace_all(events[start:stop]))
    chunks[-1] += driver.flush()
    return tuple(chunks)


async def _drive_one(server: IngestServer, spec: _ClientSpec) -> ServeClient:
    client = ServeClient.local(server)
    await client.hello(spec.tenant, spec.mode, spec.frontend)
    for payload in spec.frames:
        if spec.mode == protocol.MODE_RAW:
            await client.send_raw(payload)  # type: ignore[arg-type]
        else:
            await client.send_events(payload)  # type: ignore[arg-type]
    await client.bye()
    return client


async def _run_fleet(
    name: str,
    server: IngestServer,
    specs: Sequence[_ClientSpec],
    settle_s: float = 0.0,
) -> SoakScenario:
    start_s = time.perf_counter()
    await server.start()
    clients = await asyncio.gather(
        *(_drive_one(server, spec) for spec in specs)
    )
    if settle_s:
        # Overload scenarios: let wall time pass with the backlog
        # still queued, so deadline/stale behaviour (or its absence)
        # is what the latency tail measures.
        await asyncio.sleep(settle_s)
    # Everything still queued gets its rounds before the books close.
    server.drain_all()
    await server.stop()
    wall_s = time.perf_counter() - start_s
    frames_sent = sum(len(spec.frames) for spec in specs)
    counts = server.counts
    # Each client's first ACK answered its HELLO, not a data frame.
    acks = sum(client.acks for client in clients) - len(clients)
    retries = [
        retry
        for client in clients
        for retry in client.retry_after_ms
    ]
    return SoakScenario(
        name=name,
        clients=len(specs),
        frames_sent=frames_sent,
        acks=acks,
        sheds=sum(client.sheds for client in clients),
        errors=sum(client.errors for client in clients),
        admitted_events=counts["serve.admitted.events"],
        drained_events=counts["serve.round.events"],
        stale_events=server.stale_events,
        rounds=counts["serve.rounds"],
        p50_ms=_percentile_ms(server.latencies_ns, 0.50),
        p99_ms=_percentile_ms(server.latencies_ns, 0.99),
        max_ms=_percentile_ms(server.latencies_ns, 1.0),
        latency_samples=len(server.latencies_ns),
        shed_counters={
            reason: counts[f"serve.shed.{reason}"]
            for reason in (
                "breaker_open", "sampled", "rate_limited",
                "queue_depth", "deadline", "buffer_full", "stale",
            )
        },
        breaker_trips=counts["serve.breaker.trips"],
        dataplane_crashes=len(server.drain_errors),
        min_retry_after_ms=min(retries) if retries else 0.0,
        wall_s=wall_s,
    )


def _event_frames(
    events: Sequence[BranchEvent], frames: int
) -> Tuple[Tuple[BranchEvent, ...], ...]:
    per_frame = max(1, len(events) // frames)
    return tuple(
        tuple(events[i * per_frame:(i + 1) * per_frame])
        for i in range(frames)
    )


def _events_specs(
    tenants: Sequence[str],
    events: Sequence[BranchEvent],
    clients: int,
    frames_per_client: int,
) -> List[_ClientSpec]:
    event_frames = _event_frames(events, frames_per_client)
    return [
        _ClientSpec(
            tenants[index % len(tenants)],
            protocol.MODE_EVENTS,
            None,
            event_frames,
        )
        for index in range(clients)
    ]


def _steady_specs(
    tenants: Sequence[str],
    events: Sequence[BranchEvent],
    clients: int,
    frames_per_client: int,
    frontends: Sequence[str],
) -> List[_ClientSpec]:
    """Every other client streams raw bytes, the grammars round-robin;
    the rest send event batches."""
    raw_chunks = {
        name: _raw_chunks(name, events, frames_per_client)
        for name in frontends
    }
    specs = _events_specs(tenants, events, clients, frames_per_client)
    for index in range(0, clients, 2):
        frontend = frontends[(index // 2) % len(frontends)]
        specs[index] = _ClientSpec(
            specs[index].tenant, protocol.MODE_RAW, frontend,
            raw_chunks[frontend],
        )
    return specs


def run_soak(
    clients: int = DEFAULT_CLIENTS,
    seed: int = 0,
    kind: str = "lstm",
    frames_per_client: int = 3,
    events_per_frame: int = 48,
) -> SoakResult:
    """Run all four scenarios; see the module docstring."""
    from repro.eval.metrics import build_demo_manager, demo_events

    frontends = frontend_names()
    stream = demo_events(
        kind, seed, frames_per_client * events_per_frame,
        run_label="soak",
    )

    def fresh_server(config: ServeConfig) -> IngestServer:
        manager = build_demo_manager(SOAK_TENANTS, kind=kind, seed=seed)
        return IngestServer(manager, config)

    async def scenarios() -> Tuple[SoakScenario, ...]:
        server = fresh_server(
            ServeConfig(
                window_batches=1024,
                max_queued_events=1 << 20,
                round_max_events=1 << 15,
                drain_interval_s=0.002,
                drain_kick_events=1 << 13,
            )
        )
        tenants = [t.name for t in server.manager.tenants]
        steady = await _run_fleet(
            "steady",
            server,
            _steady_specs(
                tenants, stream, clients, frames_per_client, frontends
            ),
        )

        # Overload: the round budget is squeezed far below the offered
        # rate, so the backlog genuinely grows; armed vs unarmed
        # differ only in the deadline.
        overload_clients = max(100, clients // 5)
        def overload_config(deadline_us):
            return ServeConfig(
                deadline_us=deadline_us,
                window_batches=4096,
                max_queued_events=1 << 20,
                round_max_events=256,
                drain_interval_s=0.02,
                drain_kick_events=1 << 30,  # interval/age-driven only
            )

        armed_server = fresh_server(overload_config(OVERLOAD_DEADLINE_US))
        tenants = [t.name for t in armed_server.manager.tenants]
        settle_s = 3 * OVERLOAD_DEADLINE_US / 1e6
        armed = await _run_fleet(
            "overload-armed",
            armed_server,
            _events_specs(tenants, stream, overload_clients, frames_per_client),
            settle_s=settle_s,
        )
        unarmed_server = fresh_server(overload_config(None))
        unarmed = await _run_fleet(
            "overload-unarmed",
            unarmed_server,
            _events_specs(tenants, stream, overload_clients, frames_per_client),
            settle_s=settle_s,
        )

        # Rate limiting: a token bucket far below the offered rate.
        limited_server = fresh_server(
            ServeConfig(
                rate_limit_eps=100.0,
                rate_burst_events=events_per_frame * 2,
                max_queued_events=1 << 20,
            )
        )
        limited = await _run_fleet(
            "ratelimit",
            limited_server,
            _events_specs(tenants, stream, max(16, clients // 20), 4),
        )
        return steady, armed, unarmed, limited

    steady, armed, unarmed, limited = asyncio.run(scenarios())
    return SoakResult(
        clients=clients,
        seed=seed,
        kind=kind,
        frontends=frontends,
        deadline_us=OVERLOAD_DEADLINE_US,
        steady=steady,
        overload_armed=armed,
        overload_unarmed=unarmed,
        ratelimit=limited,
    )
