"""``python -m repro.eval metrics`` — instrumented short-trace runs.

Runs a fixed-seed :class:`SyntheticProgram` through the *full*
``RtadSoc.run_events`` path with a live :class:`MetricsRegistry` and
reports the per-stage breakdown: counters for every pipeline stage
(PTM bytes/packets, TPIU frames, mapper hits/misses, vectors, MCM
inferences, kernel launches) and p50/p95/p99 latency histograms
mirroring Fig. 7's read/vectorize/copy decomposition.

The demo model (:mod:`repro.soc.demo`) is deliberately small (it
trains in seconds); the same builders back
``tests/test_golden_trace.py``, so the metrics command exercises
exactly the configuration the golden regression pins down.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.eval.report import format_snapshot, format_table
from repro.faults.plan import FaultPlan
from repro.frontends import frontend_names, get_frontend
from repro.miaow.gpu import Gpu
from repro.obs import MetricsRegistry
from repro.soc.demo import DEMO_KINDS, demo_events, demo_factory, demo_model
from repro.soc.manager import Deployment, HealthPolicy, SocManager
from repro.soc.rtad import RtadSoc

#: Histograms worth surfacing in the condensed per-stage table.
_LATENCY_METRICS = (
    ("pipeline.read_ns", "(1) read (PTM FIFO batching)"),
    ("pipeline.vectorize_ns", "(2) vectorize (IGM)"),
    ("mcm.copy_ns", "(3) copy (TX burst)"),
    ("mcm.queue_ns", "MCM queue wait"),
    ("mcm.gpu_ns", "GPU kernel time"),
    ("mcm.service_ns", "MCM service total"),
    ("pipeline.e2e_ns", "end-to-end (branch -> judgment)"),
)

#: Robustness counters always reported (0 when nothing fired), so the
#: metrics output shape is stable whether or not faults are injected.
ROBUSTNESS_COUNTERS = (
    "faults.bytes.flipped",
    "faults.bytes.dropped",
    "faults.bytes.duplicated",
    "faults.bytes.desyncs",
    "faults.events.dropped",
    "faults.events.duplicated",
    "faults.events.corrupted",
    "faults.vectors.dropped",
    "faults.chunks.corrupted",
    *(
        counter
        for frontend in map(get_frontend, frontend_names())
        for counter in frontend.decoder_counters + frontend.deframer_counters
    ),
    "pipeline.integrity.checks",
    "pipeline.integrity.crc_mismatches",
    "pipeline.integrity.gaps",
    "mcm.dropped_vectors",
    "mcm.cancelled",
    "mcm.dual_run.runs",
    "mcm.dual_run.divergences",
    "mcm.arbiter.watchdog.cancelled",
    "mcm.arbiter.hangs",
    "socmgr.crashes",
    "socmgr.health.quarantines",
    "socmgr.health.readmissions",
    "socmgr.health.degradations",
    "socmgr.recoveries",
    "socmgr.rounds_replayed",
    "durability.journal.appends",
    "durability.journal.bytes",
    "durability.journal.rolls",
    "durability.journal.torn_drops",
)

#: Fast-path counters always reported (0 when the engine never took
#: the compiled path — e.g. the calibrated demo mode, which dispatches
#: only the warm-up calibration inference), so the output shape is
#: stable across execution modes.
PERF_COUNTERS = (
    "miaow.compile.hits",
    "miaow.compile.misses",
    "miaow.compile.evictions",
    "miaow.fastpath.dispatches",
    "miaow.fastpath.interpreted",
    "miaow.fastpath.fallback.disabled",
    "miaow.fastpath.fallback.coverage",
    "miaow.fastpath.fallback.occupancy",
    "miaow.fastpath.fallback.unsupported",
    "miaow.batch.dispatches",
    "miaow.batch.requests",
    "miaow.batch.fallback.engine",
    "miaow.batch.fallback.unsupported",
    "miaow.batch.fallback.replayed",
)

def build_demo_soc(
    kind: str = "lstm",
    seed: int = 0,
    metrics: Optional[MetricsRegistry] = None,
    execute_on_gpu: bool = False,
    num_cus: int = 5,
    fifo_depth: int = 64,
    fault_plan: Optional[FaultPlan] = None,
    frontend: str = "coresight",
    dataplane: str = "batched",
    chunk_events: int = 32768,
) -> RtadSoc:
    """A small, deterministic, fully assembled SoC for short traces.

    ``frontend`` selects the trace grammar (``"coresight"`` or
    ``"etrace"``); ``dataplane`` and ``chunk_events`` are forwarded
    into :class:`RtadConfig`.
    """
    program, trained = demo_model(kind, seed)
    [deployment] = trained.deploy(
        ["rtad"],
        Gpu(num_cus=num_cus, name="ML-MIAOW"),
        execute_on_gpu=execute_on_gpu,
        fault_plans={"rtad": fault_plan},
        frontends={"rtad": frontend},
        fifo_depth=fifo_depth,
        dataplane=dataplane,
        chunk_events=chunk_events,
    )
    return RtadSoc(program, deployment, metrics=metrics)


def build_demo_deployments(
    num_tenants: int = 4, **options
) -> List[Deployment]:
    """Demo tenants ``tenant0..N-1`` around one new engine.

    ``options`` are :func:`repro.soc.demo.demo_factory`'s.
    """
    return demo_factory(
        [f"tenant{index}" for index in range(num_tenants)], **options
    )


def build_demo_manager(
    num_tenants: int = 4,
    metrics: Optional[MetricsRegistry] = None,
    deadline_us: Optional[float] = None,
    health_policy: Optional[HealthPolicy] = None,
    batch_limit: int = 1,
    journal=None,
    checkpoint_interval_events: Optional[int] = None,
    journal_chunk_events: int = 8192,
    crash_points=None,
    **options,
) -> SocManager:
    """A multi-tenant manager: N demo deployments, one shared engine.

    Every tenant monitors the same demo program configuration (its own
    mapper/encoder/detector instances), and every driver wraps the
    *same* Gpu — the arbitration configuration the SocManager tests
    exercise.  ``options`` are :func:`repro.soc.demo.demo_factory`'s.
    """
    return SocManager(
        build_demo_deployments(num_tenants, **options),
        metrics=metrics,
        deadline_us=deadline_us,
        health_policy=health_policy,
        batch_limit=batch_limit,
        journal=journal,
        checkpoint_interval_events=checkpoint_interval_events,
        journal_chunk_events=journal_chunk_events,
        crash_points=crash_points,
    )


@dataclass
class MetricsRunResult:
    """One instrumented run plus its full registry snapshot."""

    kind: str
    events: int
    inferences: int
    interrupts: int
    dropped: int
    wall_s: float
    snapshot: Dict[str, object]


def run_metrics(
    kind: str = "lstm", events: int = 12_000, seed: int = 0
) -> MetricsRunResult:
    """Run one instrumented short trace and snapshot every stage."""
    registry = MetricsRegistry()
    soc = build_demo_soc(kind, seed=seed, metrics=registry)
    stream = demo_events(kind, seed, events)
    start = time.perf_counter()
    records = soc.run_events(stream)
    wall_s = time.perf_counter() - start
    return MetricsRunResult(
        kind=kind,
        events=len(stream),
        inferences=len(records),
        interrupts=soc.mcm.interrupts.count,
        dropped=soc.mcm.dropped_vectors,
        wall_s=wall_s,
        snapshot=registry.snapshot(),
    )


def run_metrics_all(
    kinds: Sequence[str] = DEMO_KINDS,
    events: int = 12_000,
    seed: int = 0,
) -> List[MetricsRunResult]:
    return [run_metrics(kind, events=events, seed=seed) for kind in kinds]


def stage_table(result: MetricsRunResult) -> str:
    histograms = result.snapshot["histograms"]
    rows = []
    for name, label in _LATENCY_METRICS:
        entry = histograms.get(name)
        if not entry or not entry["count"]:
            continue
        rows.append(
            (
                label,
                entry["count"],
                entry["p50"] / 1e3,
                entry["p95"] / 1e3,
                entry["p99"] / 1e3,
                entry["max"] / 1e3,
            )
        )
    return format_table(
        ["stage", "n", "p50 us", "p95 us", "p99 us", "max us"],
        rows,
        title=f"{result.kind}: per-stage latency breakdown "
              f"({result.events} events, {result.inferences} inferences, "
              f"{result.interrupts} interrupts, {result.dropped} dropped)",
    )


def _counters(snapshot: Dict[str, object], names) -> Dict[str, int]:
    """``names`` from one registry snapshot, in order, 0 when absent."""
    counters: Dict[str, int] = snapshot.get("counters", {})  # type: ignore
    return {name: int(counters.get(name, 0)) for name in names}


def robustness_counters(snapshot: Dict[str, object]) -> Dict[str, int]:
    """Loss/recovery counters from one registry snapshot.

    Every canonical fault/recovery counter is present (0 when it never
    fired), and nothing else: the dataplane is a plain chain with no
    queue to stall or drop, so its integrity counters are the whole
    of its own loss accounting.
    """
    return _counters(snapshot, ROBUSTNESS_COUNTERS)


def perf_counters(snapshot: Dict[str, object]) -> Dict[str, int]:
    """Engine fast-path counters from one registry snapshot.

    Mirrors :func:`robustness_counters`: every canonical
    compiled-fast-path counter is present even when it reads zero.
    """
    return _counters(snapshot, PERF_COUNTERS)


def serve_counters(snapshot: Dict[str, object]) -> Dict[str, int]:
    """Ingestion front-door counters from one registry snapshot.

    Mirrors :func:`robustness_counters`: every canonical ``serve.*``
    counter is present with a stable shape — all zeros when the
    snapshot came from an in-process run that never went through
    :class:`repro.serve.IngestServer`.
    """
    from repro.serve.server import SERVE_COUNTERS

    return _counters(snapshot, SERVE_COUNTERS)


#: The counter tables of the text report: counter source and title.
COUNTER_TABLES = (
    (perf_counters, "engine fast path (compile cache / dispatch routing)"),
    (robustness_counters, "robustness (drops / stalls / faults / recovery)"),
    (serve_counters, "ingestion front door (admission / shed / breaker)"),
)


def format_metrics(results: Sequence[MetricsRunResult]) -> str:
    """Condensed stage tables plus the full instrument dump."""
    sections = []
    for result in results:
        sections.append(stage_table(result))
        for counters, title in COUNTER_TABLES:
            sections.append(
                format_table(
                    ["counter", "count"],
                    list(counters(result.snapshot).items()),
                    title=f"{result.kind}: {title}",
                )
            )
        sections.append(
            format_snapshot(
                result.snapshot, title=f"{result.kind} full metrics"
            )
        )
    return "\n\n".join(sections)


def metrics_to_json(results: Sequence[MetricsRunResult]) -> Dict[str, object]:
    """JSON document: one entry per model kind."""
    return {
        result.kind: {
            "events": result.events,
            "inferences": result.inferences,
            "interrupts": result.interrupts,
            "dropped": result.dropped,
            "perf": perf_counters(result.snapshot),
            "robustness": robustness_counters(result.snapshot),
            "serve": serve_counters(result.snapshot),
            "metrics": result.snapshot,
        }
        for result in results
    }
