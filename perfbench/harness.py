"""Workload drivers: set-up, timed windows, verification and metrics.

Three workloads drive the public entry points:

- ``serve-fleet-raw``: closed loop; two TCP connections stream large
  raw trace frames (one CoreSight, one E-Trace), one frame outstanding
  each, into ``IngestServer`` over a 2-shard ``FleetCoordinator``;
- ``engine-exact-batched``: closed loop of ``SocManager.run_events``
  rounds over 8 exact-mode LSTM tenants with ``batch_limit=8``;
- ``serve-solo-paced``: open loop at a fixed offered rate; two TCP
  connections send small EVENTS frames into ``IngestServer`` over a
  solo 2-tenant ``SocManager``.

A run measures one untraced window (the end-to-end metrics) or, with
tracing, an untraced half followed by a traced half of the same length
(the per-layer metrics, and the tracing overhead between the halves).
"""

from __future__ import annotations

import asyncio
import bisect
import functools
import itertools
import math
import os
import pathlib
import pickle
import struct
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.eval.metrics import build_demo_manager
from repro.fleet import FleetConfig, FleetCoordinator, demo_factory
from repro.obs import MetricsRegistry
from repro.serve import IngestServer, ServeConfig, protocol

from perfbench import inputs, layers
from perfbench.speed import PERIOD_S, SpeedProbe
from perfbench.tracer import Tracer
from perfbench.verify import (
    Reference,
    admitted_events,
    canonical_rounds,
    mismatched_tenants,
    model_outputs,
    percentile,
    verdicts,
)

SERVE_RAW = "serve-fleet-raw"
ENGINE = "engine-exact-batched"
PACED = "serve-solo-paced"
WORKLOADS = (SERVE_RAW, ENGINE, PACED)
#: The workloads ``BENCHMARK.json`` lists, in its order.
#: ``serve-solo-paced`` stays runnable but unlisted: its rate is the
#: offered one, and its open-loop p99 spreads from run to run by more
#: than the widest bound a listed metric may have.
GATED = (ENGINE, SERVE_RAW)
#: The window figures scaled to the reference host speed (``speed.py``),
#: per workload: those set by compute in the thread the probe runs in.
#: The fleet's p99 is set by stalls between its three processes on two
#: cores, which a faster host does not shorten; scaled, it spread from
#: run to run several times more than as measured.
SCALED = {
    ENGINE: ("events_per_s", "latency_p50_ms", "latency_p99_ms"),
    SERVE_RAW: ("events_per_s", "latency_p50_ms"),
}

LOADGEN = pathlib.Path(__file__).resolve().parent / "loadgen.py"

#: Traffic before the measured window (serve workloads).
WARM_S = 1.0
#: serve-solo-paced offered rate: frames per second per connection.
PACED_RATE_PER_CONN = 500.0
#: The load generator must finish within this much past its schedule.
LOADGEN_GRACE_S = 60.0
#: Canonical rounds replayed for the paper-model outputs.
CANONICAL_ROUNDS = 48
#: Length of one slice of the untraced window, in seconds.
SLICE_S = 1.0
#: Share of the slices, those with the lowest median latency, that the
#: end-to-end figures are pooled from.
KEEP = 0.75

_ACK = protocol.FrameType.ACK
_SHED = protocol.FrameType.SHED

_STAGE_LAYERS = {
    "tpiu": "link",
    "etrace_link": "link",
    "ptm_fifo": "fifo",
    "igm": "igm",
    "deliver": "deliver",
}


@dataclass
class Round:
    """One ``run_events`` call as the harness saw it."""

    start_ns: int
    end_ns: int
    counts: Dict[str, int]
    #: Per tenant, its records' ``(anomalous, score)`` (see ``verdicts``).
    records: Dict[str, tuple]
    #: Vectors the round delivered to the engine (solo managers only).
    vectors: int = 0
    pool_index: int = -1

    @property
    def events(self) -> int:
        return sum(self.counts.values())


@dataclass
class Phase:
    """One measured window: untraced, or traced."""

    traced: bool
    seconds: float
    start_ns: int = 0
    end_ns: int = 0
    cpu_s: float = 0.0
    #: Units delivered inside the window (source branch events).
    events: int = 0
    before: Dict[str, int] = field(default_factory=dict)
    after: Dict[str, int] = field(default_factory=dict)

    def contains(self, ns: Optional[int]) -> bool:
        return ns is not None and self.start_ns <= ns < self.end_ns

    def delta(self, name: str) -> int:
        return self.after.get(name, 0) - self.before.get(name, 0)

    def cpu_per_event(self) -> float:
        return self.cpu_s / max(1, self.events)


@dataclass
class Outcome:
    """Everything ``run.py`` prints for one run."""

    workload: str
    e2e: Dict[str, float]
    samples: int
    attempted: int
    failed: int
    laws: List[tuple] = field(default_factory=list)
    layers: Optional[Dict[str, float]] = None
    budget: List[tuple] = field(default_factory=list)
    traced_wall_s: float = 0.0
    #: The end-to-end figures as measured, before host-speed scaling.
    wall: Dict[str, float] = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return all(ok for _, ok, _ in self.laws)


# ----------------------------------------------------------------------
# Set-up
# ----------------------------------------------------------------------


class System:
    """The objects under test for one workload, built and warmed up."""

    def __init__(self, workload: str, work_dir: str) -> None:
        self.workload = workload
        self.fleet: Optional[FleetCoordinator] = None
        self.server: Optional[IngestServer] = None
        self.frontends: Dict[str, str] = {}
        if workload == SERVE_RAW:
            self.frontends = dict(inputs.RAW_TENANTS)
            factory = functools.partial(
                demo_factory,
                kind=inputs.KIND,
                seed=inputs.MODEL_SEED,
                frontends=self.frontends,
            )
            # Build the model here: forked workers inherit it.
            factory(list(self.frontends))
            self.journal_root = os.path.join(work_dir, "journal")
            self.fleet = FleetCoordinator(
                factory,
                list(self.frontends),
                self.journal_root,
                FleetConfig(num_shards=2, transport="shm"),
                tenant_frontends=self.frontends,
            )
            self.manager = self.fleet
            self.server = IngestServer(self.fleet, ServeConfig())
        elif workload == PACED:
            self.frontends = dict(inputs.PACED_TENANTS)
            self.manager = build_demo_manager(
                len(self.frontends),
                kind=inputs.KIND,
                seed=inputs.MODEL_SEED,
                frontends=self.frontends,
            )
            self.server = IngestServer(self.manager, ServeConfig())
        elif workload == ENGINE:
            self.manager = build_demo_manager(
                inputs.ENGINE_TENANTS,
                kind=inputs.KIND,
                seed=inputs.MODEL_SEED,
                execute_on_gpu=True,
                batch_limit=inputs.ENGINE_TENANTS,
            )
        else:
            raise ValueError(f"unknown workload {workload!r}")
        self.warmup = inputs.warmup_traces(engine=workload == ENGINE)
        self.manager.run_events(self.warmup)

    def reference(self) -> Reference:
        """Fresh reference managers with this system's engine topology,
        already fed the set-up warm-up round."""
        if self.fleet is not None:
            groups = [list(shard.tenants) for shard in self.fleet.shards]
        else:
            groups = [[runtime.name for runtime in self.manager.tenants]]
        reference = Reference(groups, self.frontends, exact=self.workload == ENGINE)
        reference.run(self.warmup)
        return reference

    def peak_rss_mb(self) -> float:
        """Peak RSS of this process plus its fleet workers."""
        pids = [os.getpid()]
        if self.fleet is not None:
            pids += [row["pid"] for row in self.fleet.liveness()]
        return sum(_vm_hwm_kb(pid) for pid in pids) / 1024.0

    def close(self) -> None:
        if self.fleet is not None:
            self.fleet.close()


def _vm_hwm_kb(pid: int) -> int:
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError(f"no VmHWM line for pid {pid}")


def plan(seconds: float, traced: bool) -> List[Phase]:
    if not traced:
        return [Phase(False, seconds)]
    return [Phase(False, seconds / 2), Phase(True, seconds / 2)]


# ----------------------------------------------------------------------
# Tracing hooks and counter snapshots
# ----------------------------------------------------------------------


def _stage_layer(stage) -> str:
    return "pipeline." + _STAGE_LAYERS.get(stage.name, "encode")


def trace_solo(tracer: Tracer, manager) -> MetricsRegistry:
    """Wrap a solo manager's layers; returns the engine's registry."""
    tracer.wrap(manager, "run_events", "soc")
    for runtime in manager.tenants:
        for stage in runtime.pipeline.stages:
            tracer.wrap(stage, "process", _stage_layer(stage))
    tracer.wrap(manager.arbiter, "push", "mcm")
    tracer.wrap(manager.arbiter, "finalize", "mcm")
    gpu = manager.tenants[0].deployment.driver.gpu
    tracer.wrap(gpu, "dispatch", "miaow")
    tracer.wrap(gpu, "dispatch_batch", "miaow")
    registry = MetricsRegistry()
    gpu.bind_metrics(registry)
    return registry


def _raw_sessions(server: IngestServer):
    return [session.raw for session, _ in server._peers if session.raw is not None]


def trace_serve(tracer: Tracer, system: System, decoded: List[int]):
    """Wrap the front door, its raw receivers and what it drives."""
    server = system.server
    tracer.wrap(server, "drain_once", "serve.drain")

    def count_bytes(args) -> None:
        decoded[0] += len(args[0])

    for raw in _raw_sessions(server):
        tracer.wrap(raw.deframer, "push", "frontends.decode", count_bytes)
        tracer.wrap(raw.decoder, "feed", "frontends.decode")
    if system.fleet is not None:
        tracer.wrap(system.fleet, "run_events", "fleet")
        return None
    return trace_solo(tracer, system.manager)


def solo_counters(manager, registry: Optional[MetricsRegistry]) -> Dict[str, int]:
    out = {
        "mapper.hits": sum(rt.mapper.hits for rt in manager.tenants),
        "mapper.misses": sum(rt.mapper.misses for rt in manager.tenants),
        "mcm.drops": sum(rt.mcm.fifo.drops for rt in manager.tenants),
    }
    if registry is not None:
        out.update(registry.snapshot()["counters"])
    return out


_FLEET_MERGED = (
    "socmgr.events",
    "socmgr.vectors",
    "socmgr.runs",
)


#: The journal's record prefix: body length, body CRC.
_RECORD_HEADER = struct.Struct("<II")


def journal_totals(root: str) -> Tuple[int, int]:
    """Bytes and records in every shard's write-ahead journal.

    The workers' journals carry no metrics registry, so the benchmark
    reads the segments themselves (each append opens, writes and
    closes its segment, so a round boundary sees every record).
    """
    size = records = 0
    for path in sorted(pathlib.Path(root).glob("shard-*/segment-*.wal")):
        data = path.read_bytes()
        offset = 0
        while offset + _RECORD_HEADER.size <= len(data):
            length, _ = _RECORD_HEADER.unpack_from(data, offset)
            end = offset + _RECORD_HEADER.size + length
            if end > len(data):
                break
            offset = end
            records += 1
        size += offset
    return size, records


def serve_counters(system: System, registry) -> Dict[str, int]:
    if system.fleet is not None:
        out = dict(system.fleet.transport_stats())
        merged = system.fleet.counters()
        out.update({name: merged.get(name, 0) for name in _FLEET_MERGED})
        size, records = journal_totals(system.journal_root)
        out["durability.journal.bytes"] = size
        out["durability.journal.appends"] = records
    else:
        out = solo_counters(system.manager, registry)
    out["frontends.resyncs"] = sum(
        raw.decoder.resyncs + raw.deframer.frame_resyncs
        for raw in _raw_sessions(system.server)
    )
    return out


# ----------------------------------------------------------------------
# engine-exact-batched
# ----------------------------------------------------------------------


def run_engine(
    system: System, seed: int, phases: List[Phase], tracer: Tracer, probe: SpeedProbe
):
    """Closed loop of rounds cycling through the seeded pool; the speed
    probe runs between rounds."""
    pool = inputs.engine_inputs(seed)
    manager = system.manager
    # Untimed warm-up: every pool round once, so every batch width
    # the pool produces is compiled before the window opens.
    for traces in pool:
        manager.run_events(traces)
    rounds: List[Round] = []
    registry = None
    for phase in phases:
        if phase.traced:
            registry = trace_solo(tracer, manager)
            phase.before = solo_counters(manager, registry)
            tracer.start()
        cpu = time.process_time()
        phase.start_ns = time.monotonic_ns()
        phase.end_ns = phase.start_ns + int(phase.seconds * 1e9)
        while time.monotonic_ns() < phase.end_ns:
            index = len(rounds) % len(pool)
            traces = pool[index]
            start = time.monotonic_ns()
            records = manager.run_events(traces)
            end = time.monotonic_ns()
            rounds.append(
                Round(
                    start,
                    end,
                    {name: len(events) for name, events in traces.items()},
                    verdicts(records),
                    sum(len(rt.schedule) for rt in manager.tenants),
                    index,
                )
            )
            phase.events += rounds[-1].events
            if probe.due():
                probe.tick()
        # The last round may end past the nominal window; the window
        # is what actually ran.
        phase.end_ns = max(phase.end_ns, rounds[-1].end_ns)
        phase.cpu_s = time.process_time() - cpu
        if phase.traced:
            tracer.stop()
            phase.after = solo_counters(manager, registry)
    return pool, rounds


def verify_engine(system: System, pool, rounds: List[Round]):
    """Rounds are independent sessions, so each pool round's reference
    output is computed once and every repetition is held to it."""
    reference = system.reference()
    expected = []
    groups = []
    for traces in pool:
        expected.append(reference.run(traces))
        groups.append(reference.last_groups)
    bad = {
        index
        for index, rnd in enumerate(rounds)
        if mismatched_tenants(rnd.records, expected[rnd.pool_index])
    }
    return bad, model_outputs(groups)


def window_figures(
    window: Phase, units: List[Tuple[int, int, int]]
) -> Tuple[Dict[str, float], int]:
    """``events_per_s``, the latency percentiles of one window, and the
    number of units they were pooled from.

    ``units`` holds ``(due_ns, done_ns, events)`` for every delivered
    frame or round due in the window.  The window is cut into slices of
    about :data:`SLICE_S`; a slice holds the units due in it, and its
    busy time runs from its start until the last of them was delivered.
    The figures come from the :data:`KEEP` share of the slices with the
    lowest median latency, pooled: their events over their busy time,
    and the percentiles of their units' latencies (``done - due``).

    The speed of a shared host drifts by up to 2x over tens of seconds;
    the fastest slices show the program with the least of that drift,
    as the best of repeated timings does.
    """
    count = max(1, round((window.end_ns - window.start_ns) / 1e9 / SLICE_S))
    width = (window.end_ns - window.start_ns) / count
    slices = []
    for index in range(count):
        start = window.start_ns + int(index * width)
        end = window.start_ns + int((index + 1) * width)
        mine = [unit for unit in units if start <= unit[0] < end]
        if mine:
            latencies = [(done - due) / 1e6 for due, done, _ in mine]
            slices.append((percentile(latencies, 0.50), start, mine, latencies))
    if not slices:
        return {"events_per_s": 0.0, "latency_p50_ms": 0.0, "latency_p99_ms": 0.0}, 0
    slices.sort(key=lambda entry: entry[0])
    kept = slices[: math.ceil(len(slices) * KEEP)]
    events = sum(unit[2] for _, _, mine, _ in kept for unit in mine)
    busy_ns = sum(max(unit[1] for unit in mine) - start for _, start, mine, _ in kept)
    latencies = [value for *_, values in kept for value in values]
    figures = {
        "events_per_s": events * 1e9 / busy_ns,
        "latency_p50_ms": percentile(latencies, 0.50),
        "latency_p99_ms": percentile(latencies, 0.99),
    }
    return figures, len(latencies)


def engine_outcome(system: System, phases: List[Phase], rounds, bad) -> Outcome:
    window = phases[0]
    units = [
        (r.start_ns, r.end_ns, r.events)
        for index, r in enumerate(rounds)
        if window.contains(r.start_ns) and index not in bad
    ]
    figures, samples = window_figures(window, units)
    outcome = Outcome(
        workload=system.workload,
        e2e=figures,
        samples=samples,
        attempted=len(rounds),
        failed=len(bad),
        laws=[
            (
                "verdicts match the reference",
                not bad,
                f"{len(bad)} of {len(rounds)} rounds differ",
            )
        ],
    )
    return outcome


# ----------------------------------------------------------------------
# serve workloads
# ----------------------------------------------------------------------


def _record_rounds(system: System, rounds: List[Round]) -> None:
    """The harness's own wrapper around ``run_events`` (always on)."""
    manager = system.manager
    inner = manager.run_events
    solo = system.fleet is None

    def run_events(traces):
        start = time.monotonic_ns()
        records = inner(traces)
        end = time.monotonic_ns()
        vectors = sum(len(rt.schedule) for rt in manager.tenants) if solo else 0
        rounds.append(
            Round(
                start,
                end,
                {name: len(events) for name, events in traces.items()},
                verdicts(records),
                vectors,
            )
        )
        return records

    manager.run_events = run_events


async def _ready(proc: subprocess.Popen) -> int:
    """Await the load generator's ``ready <t0_ns>`` line."""
    loop = asyncio.get_running_loop()
    ready = loop.create_future()
    fd = proc.stdout.fileno()
    buffer = bytearray()

    def on_readable() -> None:
        chunk = os.read(fd, 4096)
        buffer.extend(chunk)
        if b"\n" in buffer or not chunk:
            loop.remove_reader(fd)
            if ready.done():
                return
            line = bytes(buffer).split(b"\n")[0].split()
            if len(line) == 2 and line[0] == b"ready":
                ready.set_result(int(line[1]))
            else:
                ready.set_exception(
                    RuntimeError(f"load generator said {bytes(buffer)!r}")
                )

    loop.add_reader(fd, on_readable)
    return await asyncio.wait_for(ready, timeout=LOADGEN_GRACE_S)


async def _drive(
    system: System,
    spec: dict,
    phases: List[Phase],
    on_boundary,
    work_dir,
    probe: Optional[SpeedProbe],
):
    server = system.server
    host, port = await server.start_tcp()
    await server.start()
    spec_path = os.path.join(work_dir, "loadgen-spec.pkl")
    out_path = os.path.join(work_dir, "loadgen-out.pkl")
    with open(spec_path, "wb") as handle:
        pickle.dump(dict(spec, host=host, port=port), handle)
    proc = subprocess.Popen(
        [sys.executable, str(LOADGEN), spec_path, out_path],
        stdout=subprocess.PIPE,
    )
    loop = asyncio.get_running_loop()
    ticking = None

    def tick() -> None:
        nonlocal ticking
        probe.tick()
        ticking = loop.call_later(PERIOD_S, tick)

    try:
        t0_ns = await _ready(proc)
        if probe is not None:
            ticking = loop.call_soon(tick)
        at_ns = t0_ns + int(WARM_S * 1e9)
        for index, phase in enumerate(phases):
            phase.start_ns = at_ns
            at_ns += int(phase.seconds * 1e9)
            phase.end_ns = at_ns
            loop.call_at(phase.start_ns / 1e9, on_boundary, index)
        loop.call_at(at_ns / 1e9, on_boundary, len(phases))
        deadline = time.monotonic() + spec["duration_s"] + LOADGEN_GRACE_S
        while proc.poll() is None:
            if time.monotonic() > deadline:
                raise RuntimeError("the load generator overran its schedule")
            await asyncio.sleep(0.02)
        if proc.returncode != 0:
            raise RuntimeError(f"the load generator exited with {proc.returncode}")
    finally:
        if ticking is not None:
            ticking.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
        await server.stop()
    server.drain_all()
    with open(out_path, "rb") as handle:
        return pickle.load(handle)


def run_serve(
    system: System,
    seed: int,
    phases: List[Phase],
    tracer: Tracer,
    work_dir: str,
    probe: Optional[SpeedProbe],
):
    """Serve a seeded load generator through the measured windows; the
    speed probe, if any, runs as an event-loop callback."""
    duration_s = WARM_S + sum(phase.seconds for phase in phases)
    if system.workload == SERVE_RAW:
        streams = inputs.raw_inputs(seed)
        spec = {"loop": "closed"}
    else:
        streams = inputs.paced_inputs(seed, PACED_RATE_PER_CONN, duration_s)
        spec = {"loop": "paced", "rate_per_conn": PACED_RATE_PER_CONN}
    spec.update(
        duration_s=duration_s,
        bye=protocol.bye_frame(),
        conns=[{"hello": s.hello(), "frames": s.frames} for s in streams],
    )
    rounds: List[Round] = []
    _record_rounds(system, rounds)
    decoded = [0]
    state = {"registry": None}

    def on_boundary(index: int) -> None:
        if index > 0:
            phase = phases[index - 1]
            phase.cpu_s = time.process_time() - phase.cpu_s
            if phase.traced:
                tracer.stop()
                phase.after = serve_counters(system, state["registry"])
        if index < len(phases):
            phase = phases[index]
            if phase.traced:
                state["registry"] = trace_serve(tracer, system, decoded)
                phase.before = serve_counters(system, state["registry"])
                tracer.start()
            phase.cpu_s = time.process_time()

    log = asyncio.run(_drive(system, spec, phases, on_boundary, work_dir, probe))
    return streams, rounds, log, decoded[0]


@dataclass
class FrameRow:
    """One data frame: what the client saw and where its events went."""

    tenant: str
    due_ns: int
    sent_ns: int
    answer_ns: Optional[int]
    kind: Optional[int]
    accepted: int
    expected: int
    source: int
    first_round: Optional[int] = None
    last_round: Optional[int] = None
    delivered_ns: Optional[int] = None
    failed: bool = True


def frame_rows(streams, log, rounds: List[Round], bad: Dict[str, Set[int]]):
    """Map every frame to the rounds that consumed its events.

    Each tenant's admitted events are consumed in FIFO order, so a
    frame's events are the slice after all earlier ACKed frames'; the
    round whose cumulative count first covers the slice's last event
    delivered the frame's verdicts.
    """
    rows: List[FrameRow] = []
    for stream, conn in zip(streams, log["conns"]):
        consumed = list(
            itertools.accumulate(r.counts.get(stream.tenant, 0) for r in rounds)
        )
        answered = len(conn["answer_ns"])
        mine = []
        before = 0
        for index, (due, sent) in enumerate(zip(conn["due_ns"], conn["sent_ns"])):
            row = FrameRow(
                stream.tenant,
                due,
                sent,
                conn["answer_ns"][index] if index < answered else None,
                conn["answer_type"][index] if index < answered else None,
                conn["accepted"][index] if index < answered else 0,
                stream.decoded(index),
                stream.source(index),
            )
            if row.kind == _ACK and row.accepted:
                row.first_round = bisect.bisect_left(consumed, before + 1)
                row.last_round = bisect.bisect_left(consumed, before + row.accepted)
                before += row.accepted
            mine.append(row)
        # A frame that decoded to no events yet (the decoder holds a
        # partial packet) is delivered with the next frame that did.
        carry = None
        for row in reversed(mine):
            if row.kind == _ACK and not row.accepted:
                row.first_round = row.last_round = carry
            elif row.last_round is not None:
                carry = row.first_round
        tenant_bad = bad.get(stream.tenant, set())
        for row in mine:
            ok = (
                row.kind == _ACK
                and row.accepted == row.expected
                and row.last_round is not None
                and row.last_round < len(rounds)
            )
            if ok:
                row.delivered_ns = rounds[row.last_round].end_ns
                ok = not any(
                    index in tenant_bad
                    for index in range(row.first_round, row.last_round + 1)
                )
            row.failed = not ok
        rows.extend(mine)
    return rows


def verify_serve(system: System, streams, log, rounds: List[Round]):
    """Replay every recorded round; returns mismatches and laws."""
    reference = system.reference()
    admitted = {
        stream.tenant: admitted_events(stream, conn)
        for stream, conn in zip(streams, log["conns"])
    }
    cursors = dict.fromkeys(admitted, 0)
    bad: Dict[str, Set[int]] = defaultdict(set)
    for index, rnd in enumerate(rounds):
        traces = {}
        for tenant, count in rnd.counts.items():
            if count:
                start = cursors[tenant]
                traces[tenant] = admitted[tenant][start:start + count]
                cursors[tenant] = start + count
        for tenant in mismatched_tenants(rnd.records, reference.run(traces)):
            bad[tenant].add(index)
    laws = [
        (
            "round inputs == admitted frame events, per tenant",
            all(cursors[t] == len(admitted[t]) for t in admitted),
            ", ".join(f"{t}: {cursors[t]} vs {len(admitted[t])}" for t in admitted),
        )
    ]
    canonical = system.reference()
    groups = []
    for traces in canonical_rounds(streams, CANONICAL_ROUNDS):
        canonical.run(traces)
        groups.append(canonical.last_groups)
    return bad, laws, model_outputs(groups)


def serve_laws(system: System, log, rows: List[FrameRow]) -> List[tuple]:
    laws = []
    sent = sum(len(conn["sent_ns"]) for conn in log["conns"])
    answered = sum(len(conn["answer_ns"]) for conn in log["conns"])
    laws.append(("every frame answered", sent == answered, f"{answered}/{sent}"))
    miscounted = sum(
        1 for row in rows if row.kind == _ACK and row.accepted != row.expected
    )
    laws.append(
        (
            "ACKed events == precomputed decoded events, per frame",
            miscounted == 0,
            f"{miscounted} frames differ",
        )
    )
    stats = system.server.stats()
    admitted = stats["serve.admitted.events"]
    drained = stats["serve.round.events"]
    stale = system.server.stale_events
    laws.append(
        (
            "serve: admitted == drained + stale",
            admitted == drained + stale,
            f"{admitted} == {drained} + {stale}",
        )
    )
    if system.fleet is not None:
        merged = system.fleet.counters()
        shard_rounds = sum(
            value
            for name, value in merged.items()
            if name.startswith("fleet.shard.") and name.endswith(".rounds")
        )
        replayed = merged["fleet.rounds.replayed"]
        laws.append(
            (
                "fleet: admitted == shard rounds + replayed",
                merged["fleet.rounds.admitted"] == shard_rounds + replayed,
                f"{merged['fleet.rounds.admitted']} == {shard_rounds} + {replayed}",
            )
        )
        transport = system.fleet.transport_stats()
        staged = transport["fleet.transport.bytes.staged"]
        consumed = transport["fleet.transport.bytes.consumed"]
        discarded = transport["fleet.transport.bytes.discarded"]
        laws.append(
            (
                "transport: bytes staged == consumed + discarded",
                staged == consumed + discarded,
                f"{staged} == {consumed} + {discarded}",
            )
        )
    return laws


def serve_outcome(system: System, phases: List[Phase], rows: List[FrameRow], laws) -> Outcome:
    for phase in phases:
        phase.events = sum(
            row.source
            for row in rows
            if not row.failed and phase.contains(row.delivered_ns)
        )
    window = phases[0]
    units = [
        (row.due_ns, row.delivered_ns, row.source)
        for row in rows
        if window.contains(row.due_ns) and not row.failed
    ]
    attempted = [row for row in rows if any(p.contains(row.due_ns) for p in phases)]
    figures, samples = window_figures(window, units)
    return Outcome(
        workload=system.workload,
        e2e=figures,
        samples=samples,
        attempted=len(attempted),
        failed=sum(1 for row in attempted if row.failed),
        laws=laws,
    )


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def solo_layers(tracer: Tracer, phase: Phase, rounds: List[Round]) -> Dict[str, float]:
    inferences = sum(len(rs) for r in rounds for rs in r.records.values())
    fallbacks = sum(
        phase.delta(f"miaow.batch.fallback.{reason}")
        for reason in ("engine", "unsupported", "replayed")
    )
    fused = phase.delta("miaow.batch.dispatches")
    fast = phase.delta("miaow.fastpath.dispatches")
    hits = phase.delta("mapper.hits")
    out = {
        "soc.run_events.busy_s": tracer.busy_s("soc"),
        "mcm.busy_s": tracer.busy_s("mcm"),
        "miaow.dispatch.busy_s": tracer.busy_s("miaow"),
        "miaow.us_per_inference": _ratio(tracer.busy_ns["miaow"] / 1e3, inferences),
        "miaow.fastpath.hit_frac": _ratio(
            fast, fast + phase.delta("miaow.fastpath.interpreted")
        ),
        "miaow.batch.fallback_frac": _ratio(fallbacks, fused + fallbacks),
        "mcm.batch.members_per_grant": _ratio(
            phase.delta("miaow.batch.requests"), fused
        ),
        "mcm.dropped_vectors": float(phase.delta("mcm.drops")),
        "igm.mapper.hit_frac": _ratio(hits, hits + phase.delta("mapper.misses")),
        "igm.vectors_per_kevent": _ratio(
            1e3 * sum(r.vectors for r in rounds), sum(r.events for r in rounds)
        ),
    }
    for stage in ("encode", "link", "fifo", "igm", "deliver"):
        out[f"pipeline.{stage}.busy_s"] = tracer.busy_s(f"pipeline.{stage}")
    return out


def fleet_layers(tracer: Tracer, phase: Phase) -> Dict[str, float]:
    dispatches = phase.delta("fleet.transport.rounds")
    spans = [ns / 1e6 for ns in tracer.durations["fleet"]]
    transport_ns = phase.delta("fleet.transport.ns")
    events = phase.delta("socmgr.events")
    return {
        "fleet.round_p50_ms": percentile(spans, 0.50),
        "fleet.round_p99_ms": percentile(spans, 0.99),
        "fleet.transport.us_per_dispatch": _ratio(transport_ns / 1e3, dispatches),
        "fleet.c2w.us_per_dispatch": _ratio(
            phase.delta("fleet.transport.c2w_ns") / 1e3, dispatches
        ),
        "fleet.stage.us_per_dispatch": _ratio(
            phase.delta("fleet.transport.stage_ns") / 1e3, dispatches
        ),
        "fleet.bytes.per_dispatch": _ratio(
            phase.delta("fleet.transport.bytes.staged"), dispatches
        ),
        "fleet.worker.compute_s": tracer.busy_s("fleet") - transport_ns / 1e9,
        "durability.journal.bytes_per_event": _ratio(
            phase.delta("durability.journal.bytes"), events
        ),
        "durability.journal.appends_per_round": _ratio(
            phase.delta("durability.journal.appends"), phase.delta("socmgr.runs")
        ),
        "igm.vectors_per_kevent": _ratio(
            1e3 * phase.delta("socmgr.vectors"), events
        ),
    }


def serve_layers(
    tracer: Tracer, phase: Phase, rows: List[FrameRow], rounds: List[Round], decoded: int
) -> Dict[str, float]:
    mine = [row for row in rows if phase.contains(row.due_ns)]
    lags = [(row.sent_ns - row.due_ns) / 1e6 for row in mine]
    acks = [(row.answer_ns - row.sent_ns) / 1e6 for row in mine if row.answer_ns]
    waits = [
        max(0, rounds[row.first_round].start_ns - row.answer_ns) / 1e6
        for row in mine
        if row.kind == _ACK and row.first_round is not None
        and row.first_round < len(rounds)
    ]
    served = [r for r in rounds if phase.contains(r.start_ns)]
    return {
        "client.lag_p99_ms": percentile(lags, 0.99),
        "serve.ack_p50_ms": percentile(acks, 0.50),
        "serve.ack_p99_ms": percentile(acks, 0.99),
        "serve.queue_wait_p99_ms": percentile(waits, 0.99),
        "serve.drain.busy_s": tracer.busy_s("serve.drain"),
        "serve.round.events_mean": _ratio(sum(r.events for r in served), len(served)),
        "serve.shed.frames": float(sum(1 for row in mine if row.kind == _SHED)),
        "frontends.decode.busy_s": tracer.busy_s("frontends.decode"),
        "frontends.decode.bytes": float(decoded),
        "frontends.decode.resyncs": float(phase.delta("frontends.resyncs")),
    }


def layer_metrics(
    outcome: Outcome,
    system: System,
    phases: List[Phase],
    tracer: Tracer,
    rounds: List[Round],
    model: Dict[str, float],
    rows: Optional[List[FrameRow]] = None,
    decoded: int = 0,
) -> None:
    """Fill ``outcome.layers`` and the budget from the traced phase."""
    untraced, traced = phases
    values = {name: 0.0 for name, _, _, _ in layers.PER_LAYER}
    served = [r for r in rounds if traced.contains(r.start_ns)]
    if rows is not None:
        values.update(serve_layers(tracer, traced, rows, rounds, decoded))
    if system.fleet is not None:
        values.update(fleet_layers(tracer, traced))
    else:
        values.update(solo_layers(tracer, traced, served))
    values["other_s"] = tracer.other_ns / 1e9
    values["trace.overhead_frac"] = (
        _ratio(traced.cpu_per_event(), untraced.cpu_per_event()) - 1.0
    )
    values.update(model)
    outcome.layers = values
    outcome.traced_wall_s = tracer.wall_ns / 1e9
    outcome.budget = [
        (layer, tracer.busy_s(layer)) for layer in layers.BUDGET_LAYERS
    ] + [("other", values["other_s"])]
