"""Differential properties: the vectorised E-Trace encode stage equals
the per-event encoder.

:class:`~repro.pipeline.stages.EtraceEncodeStage` computes per-event
E-Trace byte counts from an :class:`~repro.eventbatch.EventBatch`'s
columns.  Its oracle is a :class:`ByteCountEncodeStage` that feeds a
real :class:`~repro.frontends.etrace.encoder.EtraceEncoder` one event
at a time.  Generated streams mix branch-map runs longer than one map
packet, syscalls, near, far and backward address deltas, and sync
intervals from 1 to 1,024 bytes; each is cut into random chunks and
checkpointed mid-stream into a fresh stage.  Per-event byte counts,
the tail flush, ``export_state()`` and every ``etrace.*`` and
``pipeline.stage.etrace.*`` counter must be equal, and a bad target or
sync address must raise the encoder's :class:`PacketEncodeError`.
"""

import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PacketEncodeError
from repro.eventbatch import EventBatch
from repro.frontends.etrace import EtraceConfig, EtraceEncoder, EtraceFrontend
from repro.frontends.etrace.packets import MAX_MAP_BRANCHES
from repro.obs import MetricsRegistry
from repro.pipeline.batch import TraceBatch
from repro.pipeline.stages import ByteCountEncodeStage, EtraceEncodeStage
from repro.workloads.cfg import BranchEvent, BranchKind

#: Kinds that emit an address packet (a taken conditional included).
ADDRESS_KINDS = (
    BranchKind.CONDITIONAL,
    BranchKind.UNCONDITIONAL,
    BranchKind.CALL,
    BranchKind.RETURN,
    BranchKind.INDIRECT,
    BranchKind.SYSCALL,
)
TOP = 0xFFFF_FFFE  # highest halfword-aligned 32-bit address

intervals = st.one_of(
    st.sampled_from((1, 2, 13, 14, 15, 16, 17, 18, 31, 32, 64, 1024)),
    st.integers(1, 1024),
)
halfwords = st.integers(0, TOP // 2).map(lambda units: units * 2)


@st.composite
def streams(draw, max_segments=10):
    """Map-only runs (up to 2.5 map packets long), each closed by an
    address event whose target is near, behind, equal to or far from
    the previous one."""
    events = []
    cycle = draw(st.integers(0, 1 << 20))
    target = draw(halfwords)
    for _ in range(draw(st.integers(0, max_segments))):
        run = draw(
            st.one_of(
                st.integers(0, 3),
                st.integers(MAX_MAP_BRANCHES - 2, 5 * MAX_MAP_BRANCHES // 2),
            )
        )
        base = draw(halfwords)
        for index in range(run):
            cycle += 1
            events.append(
                BranchEvent(
                    cycle=cycle,
                    source=(base + 4 * index) & TOP,
                    target=(base + 4 * index + 2) & TOP,
                    kind=BranchKind.CONDITIONAL,
                    taken=False,
                )
            )
        step = draw(
            st.one_of(
                st.integers(-64, 64),
                st.integers(-(1 << 20), 1 << 20),
                st.sampled_from((0, -TOP, TOP)),
            )
        )
        target = min(max(target + 2 * step, 0), TOP)
        if draw(st.booleans()):
            target = draw(halfwords)
        cycle += draw(st.integers(1, 40))
        events.append(
            BranchEvent(
                cycle=cycle,
                source=draw(halfwords),
                target=target,
                kind=draw(st.sampled_from(ADDRESS_KINDS)),
                taken=True,
            )
        )
    return events


def _cuts(draw, count):
    return sorted(set(draw(st.lists(st.integers(0, count), max_size=8))))


def _chunks(events, cuts):
    bounds = [0, *cuts, len(events)]
    return [events[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


def _columns(events):
    """Pure columns: the batch holds no object view."""
    full = EventBatch.from_events(events)
    return EventBatch(
        full.cycle, full.source, full.target, full.kind, full.taken
    )


def _oracle(interval, registry):
    config = EtraceConfig(sync_interval_bytes=interval)
    return ByteCountEncodeStage(
        "etrace",
        lambda: EtraceEncoder(config, metrics=registry),
        metrics=registry,
    )


def _stage(interval, registry):
    return EtraceEncodeStage(
        EtraceConfig(sync_interval_bytes=interval), metrics=registry
    )


def _counters(registry):
    return registry.snapshot()["counters"]


class TestEtraceEncodeStage:
    @settings(max_examples=150, deadline=None)
    @given(st.data(), streams(), intervals)
    def test_matches_the_per_event_encoder(self, data, events, interval):
        """Byte counts, carry state and counters agree at every chunk
        boundary, across a checkpoint into a fresh stage."""
        oracle_registry, registry = MetricsRegistry(), MetricsRegistry()
        oracle = _oracle(interval, oracle_registry)
        stage = _stage(interval, registry)
        chunks = _chunks(events, _cuts(data.draw, len(events)))
        checkpoint_at = data.draw(st.integers(0, len(chunks)))
        for index, chunk in enumerate(chunks):
            if index == checkpoint_at:
                # A checkpoint written by the oracle restores into a
                # fresh vectorised stage sharing the registry.
                document = json.loads(json.dumps(oracle.export_state()))
                stage = _stage(interval, registry)
                stage.restore_state(document)
                assert stage.export_state() == document
            want = oracle.process(
                TraceBatch(events=EventBatch.from_events(chunk))
            )
            got = stage.process(TraceBatch(events=_columns(chunk)))
            assert got.ptm_bytes.tolist() == want.ptm_bytes.tolist()
            assert stage.export_state() == oracle.export_state()
        assert (
            stage.flush().tail_ptm_bytes == oracle.flush().tail_ptm_bytes
        )
        assert stage.export_state() == oracle.export_state()
        assert _counters(registry) == _counters(oracle_registry)

    @settings(max_examples=100, deadline=None)
    @given(st.data(), streams(max_segments=6), intervals)
    def test_bad_addresses_raise_the_encoders_error(
        self, data, events, interval
    ):
        """A misaligned or out-of-range target, or an out-of-range
        source where a sync lands, fails in the same chunk with the
        same message as the first offending event does in the
        encoder."""
        if not events:
            return
        # One or two bad fields: a bad source ahead of a bad target
        # fails first when a sync lands on it.
        for _ in range(data.draw(st.integers(1, 2))):
            position = data.draw(st.integers(0, len(events) - 1))
            field = data.draw(st.sampled_from(("target", "source")))
            value = data.draw(
                st.sampled_from((1, 0x1234_5677, -2, -3, 1 << 32, 1 << 40))
            )
            events[position] = dataclasses.replace(
                events[position], **{field: value}
            )
        oracle = _oracle(interval, MetricsRegistry())
        stage = _stage(interval, MetricsRegistry())
        for chunk in _chunks(events, _cuts(data.draw, len(events))):
            try:
                want = oracle.process(
                    TraceBatch(events=EventBatch.from_events(chunk))
                )
            except PacketEncodeError as error:
                with pytest.raises(PacketEncodeError) as raised:
                    stage.process(TraceBatch(events=_columns(chunk)))
                assert str(raised.value) == str(error)
                return
            got = stage.process(TraceBatch(events=_columns(chunk)))
            assert got.ptm_bytes.tolist() == want.ptm_bytes.tolist()


    @pytest.mark.parametrize(
        "bad_source_at,bad_target_at,message",
        [
            (1, 2, "sync address out of 32-bit range"),
            (2, 1, "branch target not halfword aligned"),
            (0, 0, "sync address out of 32-bit range"),
        ],
    )
    def test_the_first_offending_event_decides_the_error(
        self, bad_source_at, bad_target_at, message
    ):
        """With a one-byte sync interval every event syncs, so a bad
        source fails at its own event — before any later bad target,
        and the start burst's before event 0's target."""
        events = [
            BranchEvent(cycle=i, source=0x100, target=0x200 + 4 * i,
                        kind=BranchKind.CALL)
            for i in range(4)
        ]
        events[bad_source_at] = dataclasses.replace(
            events[bad_source_at], source=-2
        )
        events[bad_target_at] = dataclasses.replace(
            events[bad_target_at], target=0x301
        )
        oracle = _oracle(1, MetricsRegistry())
        with pytest.raises(PacketEncodeError, match=message):
            oracle.process(TraceBatch(events=EventBatch.from_events(events)))
        stage = _stage(1, MetricsRegistry())
        with pytest.raises(PacketEncodeError, match=message):
            stage.process(TraceBatch(events=_columns(events)))


class TestEtraceFrontendStages:
    @pytest.mark.parametrize("interval", [1, 16, 1024])
    def test_every_config_builds_the_vectorised_stage(self, interval):
        config = EtraceConfig(sync_interval_bytes=interval)
        encode, _ = EtraceFrontend(etrace_config=config).build_encode_stages()
        assert isinstance(encode, EtraceEncodeStage)
        assert encode.name == "etrace"
        # The stage shares the frontend's config, as the driver does.
        assert encode.config is config

    def test_unstarted_stage_exports_no_encoder(self):
        stage = _stage(1024, MetricsRegistry())
        assert stage.export_state() == {"encoder": None}
        assert stage.flush().tail_ptm_bytes == 0
        assert stage.export_state() == {"encoder": None}
