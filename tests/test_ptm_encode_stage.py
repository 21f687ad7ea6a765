"""Differential properties: the vectorised PTM encode stage equals a
real :class:`~repro.coresight.ptm.Ptm`.

:class:`~repro.pipeline.stages.PtmEncodeStage` computes per-event
CoreSight byte counts from an :class:`~repro.eventbatch.EventBatch`'s
columns.  Its oracle feeds the same events to a real ``Ptm`` one at a
time.  Generated streams mix atom runs longer than one atom packet,
syscalls, and near, far and backward targets (every compressed
packet length), under sync intervals from 1 to 64 bytes — short
enough that a sync burst (17 bytes, 26 with timestamps) retriggers
the next sync at once — with and without timestamps.  Each stream is
cut into random chunks and checkpointed mid-stream into a fresh
stage.  Per-event byte counts, the tail flush, the carried state and
every ``ptm.*`` counter must be equal.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coresight.ptm import Ptm, PtmConfig
from repro.eventbatch import EventBatch
from repro.obs import MetricsRegistry
from repro.pipeline.batch import TraceBatch
from repro.pipeline.stages import PtmEncodeStage
from repro.workloads.cfg import BranchEvent, BranchKind

#: Kinds that emit a branch-address packet in branch-broadcast mode.
ADDRESS_KINDS = (
    BranchKind.CONDITIONAL,
    BranchKind.UNCONDITIONAL,
    BranchKind.CALL,
    BranchKind.RETURN,
    BranchKind.INDIRECT,
    BranchKind.SYSCALL,
)
TOP = 0xFFFF_FFFC  # highest word-aligned 32-bit address

words = st.integers(0, TOP // 4).map(lambda word: word * 4)


@st.composite
def streams(draw, max_segments=10):
    """Atom runs (up to 2.5 atom packets long), each closed by an
    address event whose target is near, behind, equal to or far from
    the previous one."""
    events = []
    cycle = draw(st.integers(0, 1 << 20))
    target = draw(words)
    for _ in range(draw(st.integers(0, max_segments))):
        base = draw(words)
        for index in range(draw(st.integers(0, 10))):
            cycle += 1
            events.append(
                BranchEvent(
                    cycle=cycle,
                    source=(base + 8 * index) & TOP,
                    target=(base + 8 * index + 4) & TOP,
                    kind=BranchKind.CONDITIONAL,
                    taken=False,
                )
            )
        step = draw(
            st.one_of(
                st.integers(-64, 64),
                st.integers(-(1 << 26), 1 << 26),
                st.sampled_from((0, -(TOP // 4), TOP // 4)),
            )
        )
        target = min(max(target + 4 * step, 0), TOP)
        if draw(st.booleans()):
            target = draw(words)
        cycle += draw(st.integers(1, 40))
        events.append(
            BranchEvent(
                cycle=cycle,
                source=draw(words),
                target=target,
                kind=draw(st.sampled_from(ADDRESS_KINDS)),
                taken=True,
            )
        )
    return events


def _chunks(draw, events):
    cuts = sorted(set(draw(st.lists(st.integers(0, len(events)), max_size=8))))
    bounds = [0, *cuts, len(events)]
    return [events[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


def _columns(events):
    """Pure columns: the batch holds no object view."""
    full = EventBatch.from_events(events)
    return EventBatch(
        full.cycle, full.source, full.target, full.kind, full.taken
    )


def _carried(ptm: Ptm) -> dict:
    """The Ptm's state in the stage's checkpoint vocabulary."""
    state = ptm.export_state()
    return {
        "started": state["started"],
        "last_address": state["last_address"],
        "pending_atoms": len(state["pending_atoms"]),
        "bytes_since_sync": state["bytes_since_sync"],
    }


def _counters(registry):
    return {
        name: value
        for name, value in registry.snapshot()["counters"].items()
        if name.startswith("ptm.")
    }


class TestPtmEncodeStage:
    @settings(max_examples=200, deadline=None)
    @given(
        st.data(),
        streams(),
        st.integers(1, 64),
        st.booleans(),
    )
    def test_matches_a_real_ptm(self, data, events, interval, timestamps):
        """Byte counts, carry state and counters agree at every chunk
        boundary, across a checkpoint into a fresh stage."""
        config = PtmConfig(
            sync_interval_bytes=interval, timestamps_enabled=timestamps
        )
        assert PtmEncodeStage.models(config)
        oracle_registry, registry = MetricsRegistry(), MetricsRegistry()
        ptm = Ptm(config, metrics=oracle_registry)
        stage = PtmEncodeStage(config, metrics=registry)
        chunks = _chunks(data.draw, events)
        checkpoint_at = data.draw(st.integers(0, len(chunks)))
        for index, chunk in enumerate(chunks):
            if index == checkpoint_at:
                document = json.loads(json.dumps(stage.export_state()))
                stage = PtmEncodeStage(config, metrics=registry)
                stage.restore_state(document)
            want = [len(ptm.feed(event)) for event in chunk]
            got = stage.process(TraceBatch(events=_columns(chunk)))
            assert got.ptm_bytes.tolist() == want
            assert stage.export_state() == _carried(ptm)
        assert stage.flush().tail_ptm_bytes == len(ptm.flush())
        assert stage.export_state() == _carried(ptm)
        assert _counters(registry) == _counters(oracle_registry)
