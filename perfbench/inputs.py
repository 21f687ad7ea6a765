"""Seeded inputs for the three workloads.

The seed picks the demo program's CFG walks (``demo_events(...,
run_label=...)``); the models themselves stay fixed at seed 0, so a
seed changes what the system is fed, never what it runs.  Everything
here is built before any timed window:

- raw trace frames are encoded with each grammar's own trace driver,
  and their server-side decoded-event counts are precomputed with the
  same grammar's receivers (:class:`RawDecoder`), so a frame can be
  mapped to the monitoring round that consumed its last event by
  per-tenant FIFO counts;
- EVENTS frames are packed with the serve protocol's codec;
- engine rounds are cut so that every tenant contributes exactly one
  triggering branch (one inference) per round.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.durability.journal import encode_trace_chunk
from repro.eval.metrics import demo_events
from repro.fleet import demo_factory
from repro.frontends import get_frontend
from repro.serve import ServeConfig, protocol
from repro.workloads.cfg import BranchEvent, BranchKind

#: The demo model every workload runs (fixed; the seed never moves it).
KIND = "lstm"
MODEL_SEED = 0

#: serve-fleet-raw: one connection per (tenant, grammar).
RAW_TENANTS = (("tenant0", "coresight"), ("tenant1", "etrace"))
RAW_FRAME_EVENTS = 256
RAW_POOL_FRAMES = 48

#: serve-solo-paced: small pre-decoded EVENTS frames.
PACED_TENANTS = (("tenant0", "coresight"), ("tenant1", "etrace"))
PACED_FRAME_EVENTS = 32
PACED_POOL_FRAMES = 1024

#: Short walks mixed into each serve connection's event stream.
MIXED_WALKS = 16

#: engine-exact-batched: tenants, distinct pool rounds, and the branch
#: events one tenant contributes to one round.
ENGINE_TENANTS = 8
ENGINE_POOL_ROUNDS = 32
ENGINE_SLICE_EVENTS = 64
ENGINE_WALK_EVENTS = 12_000


def walk(seed, label: str, count: int) -> Tuple[BranchEvent, ...]:
    """A deterministic CFG walk of the demo program, picked by seed."""
    return tuple(
        demo_events(KIND, MODEL_SEED, count, run_label=f"perfbench-{seed}-{label}")
    )


def shifted(events: Sequence[BranchEvent], by: int) -> List[BranchEvent]:
    return [
        BranchEvent(event.cycle + by, event.source, event.target, event.kind, event.taken)
        for event in events
    ]


def mixed_walk(seed, label: str, count: int) -> Tuple[BranchEvent, ...]:
    """``count`` events from :data:`MIXED_WALKS` short walks laid end
    to end, their cycles shifted so that they keep rising.

    One walk keeps its own character (decode density, packet sizes)
    however long it runs; mixing many makes a seed change the events
    a stream carries but hardly what they cost to serve.
    """
    per = -(-count // MIXED_WALKS)
    events: List[BranchEvent] = []
    for part in range(MIXED_WALKS):
        piece = walk(seed, f"{label}-{part}", per)
        by = events[-1].cycle + 1 - piece[0].cycle if events else 0
        events.extend(shifted(piece, by))
    return tuple(events[:count])


class RawDecoder:
    """Server-side decode of one raw byte stream.

    Mirrors the front door's raw ingest: the grammar's resync-hunting
    deframer and lenient decoder, with every address-carrying item
    turned into a waypoint event at a fixed cycle cadence.
    """

    def __init__(self, frontend: str) -> None:
        grammar = get_frontend(frontend)
        self.deframer = grammar.new_deframer(resync_hunt=True)
        self.decoder = grammar.new_decoder(strict=False, resync_hunt=True)
        self._cadence = ServeConfig().raw_cycles_per_event
        self._cycle = 0
        self._last_target = 0

    def _events(self, items) -> List[BranchEvent]:
        events = []
        for item in items:
            if not hasattr(item, "is_syscall"):
                continue
            self._cycle += self._cadence
            target = int(item.address)
            events.append(
                BranchEvent(
                    cycle=self._cycle,
                    source=self._last_target,
                    target=target,
                    kind=(
                        BranchKind.SYSCALL
                        if item.is_syscall
                        else BranchKind.INDIRECT
                    ),
                )
            )
            self._last_target = target
        return events

    def feed(self, chunk: bytes) -> List[BranchEvent]:
        return self._events(self.decoder.feed(self.deframer.push(chunk)))

    def finish(self) -> List[BranchEvent]:
        return self._events(self.decoder.finish())

    @property
    def resyncs(self) -> int:
        return self.decoder.resyncs + self.deframer.frame_resyncs


@dataclass(frozen=True)
class Stream:
    """One connection's pool of data frames, sent cyclically."""

    tenant: str
    frontend: str
    mode: str
    #: Payload per frame (raw grammar bytes or packed events).
    payloads: Tuple[bytes, ...]
    #: Wire frames (header + body) per pool entry.
    frames: Tuple[bytes, ...]
    #: Source branch events each frame carries.
    source_events: Tuple[int, ...]
    #: Server-side decoded events per frame: first pass over the pool,
    #: then every later pass (the decoder carries state across a wrap).
    decoded_first: Tuple[int, ...]
    decoded_next: Tuple[int, ...]

    def decoded(self, index: int) -> int:
        pool = len(self.frames)
        counts = self.decoded_first if index < pool else self.decoded_next
        return counts[index % pool]

    def source(self, index: int) -> int:
        return self.source_events[index % len(self.frames)]

    def hello(self) -> bytes:
        frontend = self.frontend if self.mode == protocol.MODE_RAW else None
        return protocol.hello_frame(self.tenant, self.mode, frontend)


def decoded_counts(frontend: str, payloads: Sequence[bytes], passes: int):
    """Per-frame decoded-event counts over ``passes`` pool cycles."""
    decoder = RawDecoder(frontend)
    counts = [
        len(decoder.feed(payload))
        for _ in range(passes)
        for payload in payloads
    ]
    return counts, decoder.resyncs


def raw_stream(seed: int, tenant: str, frontend: str) -> Stream:
    """A pool of large raw frames: one continuous encoded stream."""
    events = mixed_walk(seed, tenant, RAW_POOL_FRAMES * RAW_FRAME_EVENTS)
    driver = get_frontend(frontend).create_driver()
    driver.enable()
    payloads = [
        driver.trace_all(
            events[index * RAW_FRAME_EVENTS:(index + 1) * RAW_FRAME_EVENTS]
        )
        for index in range(RAW_POOL_FRAMES)
    ]
    payloads[-1] += driver.flush()
    counts, resyncs = decoded_counts(frontend, payloads, passes=3)
    pool = len(payloads)
    if resyncs or counts[pool:2 * pool] != counts[2 * pool:]:
        raise RuntimeError(
            f"{tenant}/{frontend}: the raw pool does not decode cleanly "
            f"when cycled (resyncs={resyncs})"
        )
    return Stream(
        tenant=tenant,
        frontend=frontend,
        mode=protocol.MODE_RAW,
        payloads=tuple(payloads),
        frames=tuple(protocol.raw_frame(payload) for payload in payloads),
        source_events=(RAW_FRAME_EVENTS,) * pool,
        decoded_first=tuple(counts[:pool]),
        decoded_next=tuple(counts[pool:2 * pool]),
    )


def raw_inputs(seed: int) -> List[Stream]:
    return [raw_stream(seed, tenant, grammar) for tenant, grammar in RAW_TENANTS]


def paced_stream(seed: int, tenant: str, frontend: str, frames: int) -> Stream:
    """``frames`` EVENTS frames cut from a pool that repeats with its
    cycles shifted past the previous pass, so cycles keep rising."""
    pool = mixed_walk(seed, tenant, PACED_POOL_FRAMES * PACED_FRAME_EVENTS)
    span = pool[-1].cycle + 1 - pool[0].cycle
    payloads = []
    for index in range(frames):
        start = (index % PACED_POOL_FRAMES) * PACED_FRAME_EVENTS
        chunk = shifted(
            pool[start:start + PACED_FRAME_EVENTS],
            (index // PACED_POOL_FRAMES) * span,
        )
        payloads.append(encode_trace_chunk("", 0, index + 1, chunk))
    counts = (PACED_FRAME_EVENTS,) * frames
    return Stream(
        tenant=tenant,
        frontend=frontend,
        mode=protocol.MODE_EVENTS,
        payloads=tuple(payloads),
        frames=tuple(
            protocol.encode_frame(protocol.FrameType.EVENTS, payload)
            for payload in payloads
        ),
        source_events=counts,
        decoded_first=counts,
        decoded_next=counts,
    )


def paced_inputs(seed: int, rate_per_conn: float, duration_s: float) -> List[Stream]:
    frames = math.ceil(rate_per_conn * duration_s) + 1
    return [
        paced_stream(seed, tenant, grammar, frames)
        for tenant, grammar in PACED_TENANTS
    ]


def engine_tenant_names() -> List[str]:
    return [f"tenant{index}" for index in range(ENGINE_TENANTS)]


def trigger_slices(
    events: Sequence[BranchEvent], monitored, length: int
) -> List[Tuple[BranchEvent, ...]]:
    """Slices of exactly ``length`` events that end at a triggering
    branch and hold no other, so every seed feeds rounds of one size."""
    slices = []
    previous = -length
    for index, event in enumerate(events):
        if event.target in monitored:
            if index - previous >= length and index + 1 >= length:
                slices.append(tuple(events[index + 1 - length:index + 1]))
            previous = index
    return slices


def _engine_slices(seed, name: str, monitored) -> List[Tuple[BranchEvent, ...]]:
    count = ENGINE_WALK_EVENTS
    while True:
        slices = trigger_slices(
            walk(seed, name, count), monitored, ENGINE_SLICE_EVENTS
        )
        if slices:
            return slices
        count *= 4
        if count > 64 * ENGINE_WALK_EVENTS:
            raise RuntimeError(f"{name}: no triggering branch in its walk")


def _monitored() -> set:
    probe = demo_factory(["probe"], kind=KIND, seed=MODEL_SEED)[0]
    return set(probe.monitored_addresses)


def engine_inputs(seed: int) -> List[Dict[str, Tuple[BranchEvent, ...]]]:
    """The pool of engine rounds: one inference per tenant per round."""
    monitored = _monitored()
    per_tenant = {
        name: _engine_slices(seed, name, monitored)
        for name in engine_tenant_names()
    }
    return [
        {name: slices[index % len(slices)] for name, slices in per_tenant.items()}
        for index in range(ENGINE_POOL_ROUNDS)
    ]


#: Events per tenant in a serve workload's set-up warm-up round.
WARMUP_EVENTS = 512


def warmup_traces(engine: bool) -> Dict[str, Tuple[BranchEvent, ...]]:
    """The set-up warm-up round (seed-independent, so set-up time is)."""
    if engine:
        monitored = _monitored()
        return {
            name: _engine_slices("warmup", name, monitored)[0]
            for name in engine_tenant_names()
        }
    return {
        tenant: walk("warmup", tenant, WARMUP_EVENTS)
        for tenant, _ in RAW_TENANTS
    }
