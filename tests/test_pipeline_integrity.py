"""End-to-end integrity tags in the staged dataplane.

``Pipeline.run`` stamps each chunk with a CRC32 over its event columns
plus a monotonic sequence number; every stage boundary re-verifies the
tag.  These tests pin the contract: silent in-flight mutation and
chunk gaps are counted, legitimate mutators (fault-injection stages)
re-stamp and stay invisible, and the optional dual-run voting mode on
the MCM flags divergence without perturbing the inference stream.
"""

from repro.eval.metrics import build_demo_deployments, demo_events
from repro.faults.plan import FaultKind, FaultPlan, FaultSpec
from repro.faults.stages import ChunkCorruptStage, EventFaultStage
from repro.obs import MetricsRegistry
from repro.pipeline.pipeline import Pipeline
from repro.pipeline.stage import StageBase
from repro.soc.manager import SocManager
from repro.workloads.cfg import BranchEvent, BranchKind

CHUNK_EVENTS = 32


class _PassStage(StageBase):
    name = "passthrough"

    def process(self, batch):
        self._account_batch(batch)
        return batch


class _MutatorStage(StageBase):
    """Flips one branch target per chunk, without re-stamping."""

    name = "mutator"

    def process(self, batch):
        if batch.events is not None and len(batch):
            batch.events.target[0] ^= 0x4
        return batch


class _DeclaredMutatorStage(_MutatorStage):
    """The same mutation, but declared — the pipeline re-stamps it."""

    name = "declared-mutator"
    mutates_events = True


def _events(count):
    return [
        BranchEvent(
            cycle=100 + 9 * i,
            source=0x1000 + 4 * i,
            target=0x4000 + 4 * (i % 17),
            kind=BranchKind.CALL if i % 5 else BranchKind.CONDITIONAL,
            taken=True,
        )
        for i in range(count)
    ]


def _run(stages, count=100):
    registry = MetricsRegistry()
    pipeline = Pipeline(
        stages, metrics=registry, chunk_events=CHUNK_EVENTS
    )
    pipeline.run(_events(count))
    return pipeline, registry


def _chunks(count):
    return (count + CHUNK_EVENTS - 1) // CHUNK_EVENTS


def test_clean_run_checks_every_boundary_without_findings():
    stages = [_PassStage(), _PassStage(), _PassStage()]
    _, registry = _run(stages, count=100)
    # Every chunk is verified at every stage boundary.
    assert registry.counter("pipeline.integrity.checks").value == (
        3 * _chunks(100)
    )
    assert registry.counter("pipeline.integrity.crc_mismatches").value == 0
    assert registry.counter("pipeline.integrity.gaps").value == 0


def test_silent_mutation_is_detected_downstream():
    stages = [_PassStage(), _MutatorStage(), _PassStage()]
    _, registry = _run(stages, count=100)
    # The stage after the mutator sees a stale tag on every chunk.
    assert registry.counter("pipeline.integrity.crc_mismatches").value == (
        _chunks(100)
    )


def test_declared_mutation_is_restamped_and_clean():
    stages = [_PassStage(), _DeclaredMutatorStage(), _PassStage()]
    _, registry = _run(stages, count=100)
    assert registry.counter("pipeline.integrity.crc_mismatches").value == 0


def test_chunk_gap_is_counted():
    stages = [_PassStage(), _PassStage()]
    pipeline, registry = _run(stages, count=64)
    # Simulate lost chunks between two runs of one session.
    pipeline._chunk_sequence += 5
    pipeline.run(_events(64))
    # Each stage notices the jump exactly once.
    assert registry.counter("pipeline.integrity.gaps").value == 2
    assert registry.counter("pipeline.integrity.crc_mismatches").value == 0


def test_reset_forgets_sequence_history():
    stages = [_PassStage(), _PassStage()]
    pipeline, registry = _run(stages, count=64)
    pipeline.reset()
    pipeline.run(_events(64))
    assert registry.counter("pipeline.integrity.gaps").value == 0


def test_chunk_corrupt_stage_is_caught_by_integrity_tags():
    plan = FaultPlan(
        seed=11, specs=(FaultSpec(FaultKind.CHUNK_CORRUPT, rate=1.0),)
    )
    registry = MetricsRegistry()
    pipeline = Pipeline(
        [
            _PassStage(),
            ChunkCorruptStage(plan, metrics=registry),
            _PassStage(),
        ],
        metrics=registry,
        chunk_events=CHUNK_EVENTS,
    )
    pipeline.run(_events(100))
    corrupted = registry.counter("faults.chunks.corrupted").value
    assert corrupted == _chunks(100)
    # The corruptor is silent by design (mutates_events stays False),
    # so the very next boundary check flags every corrupted chunk.
    assert not ChunkCorruptStage.mutates_events
    assert registry.counter("pipeline.integrity.crc_mismatches").value == (
        corrupted
    )


def test_event_fault_stage_restamps_no_false_positives():
    plan = FaultPlan(
        seed=3,
        specs=(
            FaultSpec(FaultKind.EVENT_CORRUPT, rate=0.2),
            FaultSpec(FaultKind.EVENT_DROP, rate=0.1),
        ),
    )
    registry = MetricsRegistry()
    pipeline = Pipeline(
        [
            EventFaultStage(plan, metrics=registry),
            _PassStage(),
            _PassStage(),
        ],
        metrics=registry,
        chunk_events=CHUNK_EVENTS,
    )
    pipeline.run(_events(200))
    # The injector mutated events (that is its job) ...
    assert EventFaultStage.mutates_events
    # ... and declared it, so downstream checks stay clean.
    assert registry.counter("pipeline.integrity.crc_mismatches").value == 0


def test_dual_run_voting_flags_but_never_perturbs():
    traces = {
        "tenant0": demo_events("lstm", 0, 400, run_label="dualrun-r0")
    }
    plain = SocManager(
        build_demo_deployments(num_tenants=1, kind="lstm"),
        metrics=MetricsRegistry(),
    )
    voting = SocManager(
        build_demo_deployments(num_tenants=1, kind="lstm", dual_run=True),
        metrics=MetricsRegistry(),
    )
    baseline = plain.run_events(traces)["tenant0"]
    voted = voting.run_events(traces)["tenant0"]
    assert baseline
    assert len(voted) == len(baseline)
    for reference, record in zip(baseline, voted):
        assert reference.divergent is None
        # A healthy engine never diverges from itself ...
        assert record.divergent is False
        # ... and the redundant run is timing/score transparent.
        assert record.sequence_number == reference.sequence_number
        assert record.trigger_cycle == reference.trigger_cycle
        assert record.arrival_ns == reference.arrival_ns
        assert record.start_ns == reference.start_ns
        assert record.done_ns == reference.done_ns
        assert record.score == reference.score
        assert record.anomalous == reference.anomalous
        assert record.gpu_cycles == reference.gpu_cycles
    runtime = voting.tenant("tenant0")
    assert runtime.metrics.counter("mcm.dual_run.runs").value == (
        len(voted)
    )
    assert runtime.metrics.counter("mcm.dual_run.divergences").value == 0
