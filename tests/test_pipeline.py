"""Unit tests for the staged dataplane (repro.pipeline).

Each batched stage is checked *differentially* against the per-event
reference component it replaces (Ptm, Tpiu/EtraceFramer, PtmFifoModel,
mapper + encoder loop), under randomized event streams and randomized chunk
boundaries — the carry state across batches is where the bugs live.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.coresight.ptm import Ptm, PtmConfig
from repro.coresight.tpiu import Tpiu
from repro.errors import SocConfigError
from repro.frontends import get_frontend
from repro.frontends.coresight import CoreSightFrontend
from repro.frontends.etrace import EtraceFramer
from repro.igm.address_mapper import AddressMapper
from repro.igm.vector_encoder import EncoderMode, InputVector, VectorEncoder
from repro.obs import MetricsRegistry
from repro.pipeline import (
    DeliverStage,
    EventBatch,
    FifoFlush,
    IgmStage,
    LinkFrameStage,
    Pipeline,
    PtmEncodeStage,
    PtmFifoStage,
    Stage,
    TraceBatch,
    build_trace_pipeline,
)
from repro.pipeline.stages import ByteCountEncodeStage
from repro.soc.cpu import PtmFifoModel
from repro.workloads.cfg import BranchEvent, BranchKind


def random_events(
    rng: np.random.Generator,
    count: int,
    syscall_rate: float = 0.05,
    atom_rate: float = 0.4,
) -> list:
    """A random but PTM-legal branch stream with mixed diff widths."""
    events = []
    cycle = 0
    address = 0x1000
    for _ in range(count):
        cycle += int(rng.integers(1, 2000))
        roll = rng.random()
        if roll < atom_rate:
            kind, taken = BranchKind.CONDITIONAL, False
            target = address + 4  # not-taken: no address packet
        elif roll < atom_rate + syscall_rate:
            kind, taken = BranchKind.SYSCALL, True
            target = int(rng.integers(0, 1 << 30)) * 4
        else:
            kind, taken = BranchKind.CALL, True
            # Mix short and long jumps so every prefix-compression
            # width (1..5 bytes) occurs.
            span = int(rng.choice([1 << 4, 1 << 10, 1 << 18, 1 << 25, 1 << 29]))
            target = int(rng.integers(0, span)) * 4 % (1 << 32)
        source = address
        events.append(
            BranchEvent(
                cycle=cycle, source=source, target=target,
                kind=kind, taken=taken,
            )
        )
        if taken:
            address = target
        else:
            address += 4
    return events


def random_chunks(rng: np.random.Generator, items, max_chunk: int = 97):
    """Split a list at random boundaries (including size-1 chunks)."""
    out = []
    start = 0
    while start < len(items):
        size = int(rng.integers(1, max_chunk))
        out.append(items[start : start + size])
        start += size
    return out


# ----------------------------------------------------------------------
# Stage protocol
# ----------------------------------------------------------------------


def test_concrete_stages_satisfy_protocol():
    mapper = AddressMapper()
    mapper.load([0x1000, 0x2000])
    encoder = VectorEncoder(window=2, vocabulary_size=3)
    stages = [
        PtmEncodeStage(),
        LinkFrameStage("tpiu", Tpiu),
        PtmFifoStage(),
        IgmStage(mapper, encoder),
        DeliverStage(lambda v, t: None),
    ]
    for stage in stages:
        assert isinstance(stage, Stage)
    assert len({stage.name for stage in stages}) == len(stages)


# ----------------------------------------------------------------------
# PTM encode stage vs the reference Ptm
# ----------------------------------------------------------------------


class TestPtmEncodeStage:
    @pytest.mark.parametrize(
        "config",
        [
            PtmConfig(),
            PtmConfig(sync_interval_bytes=64),
            PtmConfig(sync_interval_bytes=64, timestamps_enabled=True),
            PtmConfig(sync_interval_bytes=128, timestamps_enabled=True),
        ],
        ids=["default", "dense-sync", "timestamps", "ts-128"],
    )
    def test_matches_reference_ptm(self, config):
        rng = np.random.default_rng(7)
        for trial in range(8):
            events = random_events(rng, int(rng.integers(50, 400)))
            reference = Ptm(config)
            expect = [len(reference.feed(e)) for e in events]
            expect_tail = len(reference.flush())

            stage = PtmEncodeStage(config=config)
            assert PtmEncodeStage.models(config)
            got: list = []
            for chunk in random_chunks(rng, events):
                batch = TraceBatch(events=EventBatch.from_events(chunk))
                got.extend(stage.process(batch).ptm_bytes.tolist())
            tail = stage.flush()
            assert got == expect, f"trial {trial}: byte streams diverge"
            assert tail.tail_ptm_bytes == expect_tail

    def test_reference_fallback_path(self):
        # Waypoint mode is outside the vectorised stage's model: the
        # CoreSight frontend counts a real Ptm's bytes per event
        # instead — the same byte counts and the same ptm.* counters.
        config = PtmConfig(branch_broadcast=False)
        assert not PtmEncodeStage.models(config)
        with pytest.raises(SocConfigError):
            PtmEncodeStage(config=config)
        stage_registry = MetricsRegistry()
        stage = CoreSightFrontend(ptm_config=config).build_encode_stages(
            metrics=stage_registry
        )[0]
        assert isinstance(stage, ByteCountEncodeStage)
        assert stage.name == "ptm"
        rng = np.random.default_rng(3)
        events = random_events(rng, 200)
        ref_registry = MetricsRegistry()
        reference = Ptm(config, metrics=ref_registry)
        expect = [len(reference.feed(e)) for e in events]
        expect_tail = len(reference.flush())
        got: list = []
        for chunk in random_chunks(rng, events):
            batch = TraceBatch(events=EventBatch.from_events(chunk))
            got.extend(stage.process(batch).ptm_bytes.tolist())
        assert got == expect
        assert stage.flush().tail_ptm_bytes == expect_tail
        ref_counters = ref_registry.snapshot()["counters"]
        got_counters = stage_registry.snapshot()["counters"]
        assert any(name.startswith("ptm.") for name in ref_counters)
        for name, value in ref_counters.items():
            assert got_counters.get(name) == value, name

    def test_counters_match_reference(self):
        rng = np.random.default_rng(11)
        events = random_events(rng, 300)
        ref_registry = MetricsRegistry()
        reference = Ptm(PtmConfig(), metrics=ref_registry)
        for event in events:
            reference.feed(event)
        reference.flush()
        stage_registry = MetricsRegistry()
        stage = PtmEncodeStage(metrics=stage_registry)
        for chunk in random_chunks(rng, events):
            stage.process(TraceBatch(events=EventBatch.from_events(chunk)))
        stage.flush()
        ref_counters = ref_registry.snapshot()["counters"]
        got_counters = stage_registry.snapshot()["counters"]
        for name, value in ref_counters.items():
            assert got_counters.get(name) == value, name

    def test_reset_restarts_session(self):
        rng = np.random.default_rng(5)
        events = random_events(rng, 120)
        stage = PtmEncodeStage()
        first = stage.process(
            TraceBatch(events=EventBatch.from_events(events))
        ).ptm_bytes.copy()
        stage.flush()
        stage.reset()
        second = stage.process(
            TraceBatch(events=EventBatch.from_events(events))
        ).ptm_bytes
        assert np.array_equal(first, second)


# ----------------------------------------------------------------------
# Link framing stage vs each grammar's reference framer
# ----------------------------------------------------------------------

#: Grammar -> (stage name, reference framer) of its link layer.
LINKS = {"coresight": ("tpiu", Tpiu), "etrace": ("etrace_link", EtraceFramer)}


def _link_counters(registry: MetricsRegistry, framer) -> dict:
    prefix = framer.counter_prefix + "."
    counters = registry.snapshot()["counters"]
    return {k: v for k, v in counters.items() if k.startswith(prefix)}


class TestLinkFrameStage:
    @pytest.mark.parametrize("sync_period", [1, 3, 64])
    @pytest.mark.parametrize("grammar", sorted(LINKS))
    def test_matches_reference_framer(self, grammar, sync_period):
        name, framer = LINKS[grammar]
        rng = np.random.default_rng(13)
        ptm_bytes = rng.integers(0, 9, size=500)
        reference_metrics = MetricsRegistry()
        reference = framer(sync_period=sync_period, metrics=reference_metrics)
        stage_metrics = MetricsRegistry()
        stage = LinkFrameStage(
            name, framer, sync_period=sync_period, metrics=stage_metrics
        )
        assert stage.name == name
        got: list = []
        expect: list = []
        start = 0
        while start < len(ptm_bytes):
            size = int(rng.integers(1, 64))
            chunk = ptm_bytes[start : start + size]
            expect.extend(len(reference.push(bytes(int(n)))) for n in chunk)
            batch = TraceBatch()
            batch.events = EventBatch.from_events([])  # placeholder
            batch.events.cycle = np.zeros(len(chunk), dtype=np.int64)
            batch.ptm_bytes = chunk.astype(np.int64)
            got.extend(stage.process(batch).frame_bytes.tolist())
            # The carry state agrees at every chunk boundary.
            carry = reference.export_state()
            assert stage.export_state() == {
                "buffer": len(bytes.fromhex(carry["buffer"])),
                "frames_since_sync": carry["frames_since_sync"],
            }
            start += size
        expect_tail = len(reference.flush())
        tail = stage.flush()
        assert got == expect
        assert tail.tail_frame_bytes == expect_tail
        assert (
            stage.export_state()["frames_since_sync"]
            == reference.export_state()["frames_since_sync"]
        )
        assert _link_counters(stage_metrics, framer) == _link_counters(
            reference_metrics, framer
        )


# ----------------------------------------------------------------------
# PTM FIFO stage vs the reference PtmFifoModel
# ----------------------------------------------------------------------


class TestPtmFifoStage:
    def test_matches_reference_model(self):
        rng = np.random.default_rng(17)
        n = 600
        frame_bytes = rng.integers(0, 40, size=n).astype(np.int64)
        times = np.cumsum(rng.integers(1, 500, size=n)).astype(np.float64)

        reference = PtmFifoModel(threshold_bytes=176)
        expect = []
        for t, b in zip(times, frame_bytes):
            done = reference.push(float(t), int(b))
            if done is not None:
                expect.append(done)
        # reference-loop tail: the push's own drain handle is kept
        # (a threshold-crossing tail push drains everything), and the
        # explicit flush covers the below-threshold remainder.
        tail_done = reference.push(float(times[-1]), 13)
        if tail_done is None:
            tail_done = reference.flush(float(times[-1]))

        stage = PtmFifoStage(threshold_bytes=176)
        got = []
        start = 0
        while start < n:
            size = int(rng.integers(1, 80))
            batch = TraceBatch()
            batch.events = EventBatch.from_events([])
            batch.events.time_ns = times[start : start + size]
            batch.events.cycle = np.zeros(
                len(batch.events.time_ns), dtype=np.int64
            )
            batch.frame_bytes = frame_bytes[start : start + size]
            out = stage.process(batch)
            got.extend(f.done_ns for f in out.flushes)
            start += size
        tail = TraceBatch.tail_marker()
        tail.tail_frame_bytes = 13
        tail = stage.process(tail)
        assert got == expect
        if tail_done is not None:
            assert [f.done_ns for f in tail.flushes] == [tail_done]

    def test_tail_threshold_crossing_still_delivers(self):
        # Regression: an end-of-session push that itself crosses the
        # threshold used to drop its drain handle, losing the
        # session's pending vectors (the E-Trace/ELM parity workload
        # hit this).  The tail drain must always deliver.
        stage = PtmFifoStage(threshold_bytes=16)
        tail = TraceBatch.tail_marker()
        tail.tail_frame_bytes = 20
        tail = stage.process(tail)
        assert len(tail.flushes) == 1
        assert tail.flushes[0].delivers
        assert tail.flushes[0].amount == 20


# ----------------------------------------------------------------------
# IGM stage vs the mapper + encoder loop
# ----------------------------------------------------------------------


def reference_igm(events, addresses, mode, window, vocabulary):
    mapper = AddressMapper()
    mapper.load(addresses)
    encoder = VectorEncoder(
        mode=mode, window=window, vocabulary_size=vocabulary
    )
    vectors = []
    for event in events:
        index = mapper.lookup(event.target)
        if index is not None:
            vector = encoder.push(
                index=index, address=event.target, cycle=event.cycle
            )
            if vector is not None:
                vectors.append(vector)
    return vectors


class TestIgmStage:
    @pytest.mark.parametrize(
        "mode,window",
        [
            (EncoderMode.SEQUENCE, 1),
            (EncoderMode.SEQUENCE, 4),
            (EncoderMode.HISTOGRAM, 8),
        ],
    )
    def test_matches_reference_loop(self, mode, window):
        rng = np.random.default_rng(19)
        addresses = sorted(
            int(a) * 4 for a in rng.choice(5000, size=24, replace=False)
        )
        events = random_events(rng, 800)
        # splice monitored targets in so the mapper hits often
        for i in range(0, len(events), 3):
            e = events[i]
            events[i] = BranchEvent(
                cycle=e.cycle,
                source=e.source,
                target=int(rng.choice(addresses)),
                kind=BranchKind.CALL,
                taken=True,
            )
        vocabulary = len(addresses) + 1
        expect = reference_igm(events, addresses, mode, window, vocabulary)

        mapper = AddressMapper()
        mapper.load(addresses)
        encoder = VectorEncoder(
            mode=mode, window=window, vocabulary_size=vocabulary
        )
        stage = IgmStage(mapper, encoder)
        got = []
        for chunk in random_chunks(rng, events):
            batch = TraceBatch(events=EventBatch.from_events(chunk))
            got.extend(stage.process(batch).vectors)
        assert len(got) == len(expect)
        for a, b in zip(got, expect):
            assert np.array_equal(a.values, b.values)
            assert a.sequence_number == b.sequence_number
            assert a.trigger_address == b.trigger_address
            assert a.trigger_cycle == b.trigger_cycle
        # the wrapped encoder tracks the stage's progress
        assert encoder.vectors_emitted == len(expect)

    def test_rejects_strided_encoders(self):
        mapper = AddressMapper()
        mapper.load([0x1000])
        encoder = VectorEncoder(window=4, vocabulary_size=8, stride=2)
        with pytest.raises(ValueError):
            IgmStage(mapper, encoder)


# ----------------------------------------------------------------------
# Deliver stage
# ----------------------------------------------------------------------


def make_vector(seq: int, cycle: int = 0) -> InputVector:
    return InputVector(
        values=np.array([1], dtype=np.int64),
        sequence_number=seq,
        trigger_address=0x1000,
        trigger_cycle=cycle,
    )


def vector_batch(positions, flushes, count=None):
    batch = TraceBatch()
    batch.events = EventBatch.from_events([])
    batch.events.cycle = np.zeros(
        count or (max(positions) + 1 if positions else 1), dtype=np.int64
    )
    batch.vectors = [make_vector(i) for i in range(len(positions))]
    batch.vector_event_pos = np.asarray(positions, dtype=np.int64)
    batch.flushes = flushes
    return batch


class TestDeliverStage:
    def test_vectors_grouped_by_flush(self):
        delivered = []
        stage = DeliverStage(
            lambda v, t: delivered.append((v.sequence_number, t)),
            igm_pipe_ns=24.0,
        )
        flushes = [
            FifoFlush(event_pos=3, done_ns=1000.0, amount=176),
            FifoFlush(event_pos=7, done_ns=2000.0, amount=176),
        ]
        stage.process(vector_batch([1, 3, 5, 9], flushes, count=12))
        # pos 1,3 ride the first drain; pos 5 the second; pos 9 pends
        assert delivered == [
            (0, 1024.0), (1, 1024.0), (2, 2024.0),
        ]
        # a later batch's first flush carries the pending vector first
        stage.process(
            vector_batch([0], [FifoFlush(event_pos=0, done_ns=3000.0,
                                         amount=176)], count=2)
        )
        assert delivered[3:] == [(3, 3024.0), (0, 3024.0)]

    def test_tail_flush_without_delivery_loses_pending(self):
        registry = MetricsRegistry()
        delivered = []
        stage = DeliverStage(
            lambda v, t: delivered.append(v), metrics=registry
        )
        stage.process(vector_batch([0, 1], [], count=4))
        tail = TraceBatch.tail_marker()
        tail.flushes = [
            FifoFlush(event_pos=0, done_ns=10.0, amount=200,
                      delivers=False)
        ]
        stage.process(tail)
        assert delivered == []
        counters = registry.snapshot()["counters"]
        assert counters["pipeline.deliver.lost_vectors"] == 2


# ----------------------------------------------------------------------
# Pipeline assembler
# ----------------------------------------------------------------------


class TestPipeline:
    def _run(self, events, **kwargs) -> list:
        mapper = AddressMapper()
        addresses = sorted({e.target for e in events if e.taken})[:20]
        mapper.load(addresses)
        encoder = VectorEncoder(
            window=2, vocabulary_size=mapper.size + 1
        )
        delivered = []
        pipeline = build_trace_pipeline(
            mapper,
            encoder,
            lambda v, t: delivered.append((v.sequence_number, t)),
            frontend=get_frontend("coresight"),
            **kwargs,
        )
        pipeline.run(events)
        return delivered

    def test_chunking_invariant(self):
        rng = np.random.default_rng(23)
        events = random_events(rng, 2000, atom_rate=0.2)
        baseline = self._run(events, chunk_events=100000)
        for chunk_events in (7, 64, 256):
            got = self._run(events, chunk_events=chunk_events)
            assert got == baseline, f"chunk={chunk_events}"

    def test_every_chunk_crosses_every_stage_once(self):
        rng = np.random.default_rng(29)
        events = random_events(rng, 1200, atom_rate=0.2)
        registry = MetricsRegistry()
        mapper = AddressMapper()
        mapper.load(sorted({e.target for e in events if e.taken})[:10])
        encoder = VectorEncoder(window=1, vocabulary_size=mapper.size + 1)
        pipeline = build_trace_pipeline(
            mapper, encoder, lambda v, t: None,
            frontend=get_frontend("coresight"),
            metrics=registry, chunk_events=16,
        )
        pipeline.run(events)
        counters = registry.snapshot()["counters"]
        chunks = (1200 + 15) // 16
        stages = ("ptm", "tpiu", "ptm_fifo", "igm", "deliver")
        assert [stage.name for stage in pipeline.stages] == list(stages)
        assert counters["pipeline.chunks"] == chunks
        # every chunk, then the tail batch, ran every stage once
        for name in stages:
            assert counters[f"pipeline.stage.{name}.batches"] == chunks + 1
        # and had its integrity tag checked at every stage boundary
        assert counters["pipeline.integrity.checks"] == chunks * len(stages)
        assert counters["pipeline.integrity.crc_mismatches"] == 0
        assert counters["pipeline.integrity.gaps"] == 0

    def test_reset_gives_fresh_session(self):
        rng = np.random.default_rng(31)
        events = random_events(rng, 600, atom_rate=0.2)
        mapper = AddressMapper()
        mapper.load(sorted({e.target for e in events if e.taken})[:10])
        encoder = VectorEncoder(window=2, vocabulary_size=mapper.size + 1)
        delivered = []
        pipeline = build_trace_pipeline(
            mapper,
            encoder,
            lambda v, t: delivered.append((v, t)),
            frontend=get_frontend("coresight"),
        )
        pipeline.run(events)
        first = list(delivered)
        delivered.clear()
        pipeline.reset()
        encoder.reset(reset_sequence=True)
        pipeline.run(events)
        assert [(v.sequence_number, t) for v, t in delivered] == [
            (v.sequence_number, t) for v, t in first
        ]

    def test_empty_stage_list_rejected(self):
        with pytest.raises(SocConfigError):
            Pipeline([])

    def test_bad_chunk_size_rejected(self):
        with pytest.raises(SocConfigError):
            Pipeline([PtmEncodeStage()], chunk_events=0)
