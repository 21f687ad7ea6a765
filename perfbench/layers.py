"""The benchmark's metric table: names, units, and what each should move.

``END_TO_END`` metrics come from an untraced run; ``PER_LAYER``
metrics from a traced one.  Each per-layer entry names the end-to-end
metric and workload it should move, so an issue that targets a layer
can cite its prediction from here (``BENCHMARK.json`` carries the
names, units and directions; ``run.py`` prints the predictions next to
the values).
"""

from __future__ import annotations

#: (name, unit, better, bound)
END_TO_END = (
    ("events_per_s", "events/s", "higher", 0.25),
    ("latency_p50_ms", "ms", "lower", 0.25),
    ("latency_p99_ms", "ms", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

_SERVE_RAW = "serve-fleet-raw"
_ENGINE = "engine-exact-batched"
_PACED = "serve-solo-paced"

#: (name, unit, better, should move -> (e2e metric, workload))
PER_LAYER = (
    ("client.lag_p99_ms", "ms", "lower",
     f"sanity check for latency_* on {_PACED}"),
    ("serve.ack_p50_ms", "ms", "lower",
     f"events_per_s on {_SERVE_RAW}"),
    ("serve.ack_p99_ms", "ms", "lower",
     f"events_per_s on {_SERVE_RAW}; latency_p99_ms on {_PACED}"),
    ("serve.queue_wait_p99_ms", "ms", "lower",
     f"latency_p50_ms, latency_p99_ms on {_PACED}"),
    ("serve.drain.busy_s", "s", "lower",
     f"events_per_s on {_SERVE_RAW}; latency_* on {_PACED}"),
    ("serve.round.events_mean", "events", "higher",
     f"events_per_s on {_SERVE_RAW} (per-round costs amortised)"),
    ("serve.shed.frames", "count", "lower",
     f"failed frames on {_SERVE_RAW} and {_PACED}"),
    ("frontends.decode.busy_s", "s", "lower",
     f"events_per_s on {_SERVE_RAW}; none on the others"),
    ("frontends.decode.bytes", "B", "higher",
     f"events_per_s on {_SERVE_RAW}"),
    ("frontends.decode.resyncs", "count", "lower",
     f"failed frames on {_SERVE_RAW}"),
    ("fleet.round_p50_ms", "ms", "lower",
     f"events_per_s on {_SERVE_RAW}"),
    ("fleet.round_p99_ms", "ms", "lower",
     f"latency_p99_ms on {_SERVE_RAW}"),
    ("fleet.transport.us_per_dispatch", "us", "lower",
     f"events_per_s, latency_p99_ms on {_SERVE_RAW}"),
    ("fleet.c2w.us_per_dispatch", "us", "lower",
     f"events_per_s on {_SERVE_RAW}"),
    ("fleet.stage.us_per_dispatch", "us", "lower",
     f"events_per_s on {_SERVE_RAW}"),
    ("fleet.bytes.per_dispatch", "B", "lower",
     f"events_per_s on {_SERVE_RAW}"),
    ("fleet.worker.compute_s", "s", "lower",
     f"events_per_s, latency_p99_ms on {_SERVE_RAW}"),
    ("durability.journal.bytes_per_event", "B", "lower",
     f"events_per_s on {_SERVE_RAW}"),
    ("durability.journal.appends_per_round", "count", "lower",
     f"events_per_s on {_SERVE_RAW}"),
    ("soc.run_events.busy_s", "s", "lower",
     f"events_per_s on {_ENGINE}; latency_p50_ms on {_PACED}"),
    ("pipeline.encode.busy_s", "s", "lower",
     f"latency_* on {_PACED}; little on {_ENGINE}"),
    ("pipeline.link.busy_s", "s", "lower",
     f"latency_* on {_PACED}; little on {_ENGINE}"),
    ("pipeline.fifo.busy_s", "s", "lower",
     f"latency_* on {_PACED}; little on {_ENGINE}"),
    ("pipeline.igm.busy_s", "s", "lower",
     f"latency_* on {_PACED}; little on {_ENGINE}"),
    ("pipeline.deliver.busy_s", "s", "lower",
     f"latency_* on {_PACED}; little on {_ENGINE}"),
    ("igm.mapper.hit_frac", "frac", "higher",
     "input property; a change flags altered mapping"),
    ("igm.vectors_per_kevent", "vectors/kevent", "higher",
     "input property; a change flags altered vectorisation"),
    ("mcm.busy_s", "s", "lower",
     f"events_per_s, latency_* on {_ENGINE}"),
    ("mcm.batch.members_per_grant", "count", "higher",
     f"events_per_s, latency_* on {_ENGINE}"),
    ("mcm.dropped_vectors", "count", "lower",
     f"failed units on {_ENGINE}"),
    ("miaow.dispatch.busy_s", "s", "lower",
     f"events_per_s, latency_* on {_ENGINE}; none elsewhere"),
    ("miaow.us_per_inference", "us", "lower",
     f"events_per_s, latency_* on {_ENGINE}; none elsewhere"),
    ("miaow.fastpath.hit_frac", "frac", "higher",
     f"events_per_s on {_ENGINE}"),
    ("miaow.batch.fallback_frac", "frac", "lower",
     f"events_per_s on {_ENGINE}"),
    ("other_s", "s", "lower",
     "none; wall time no wrapped call covers (checks the budget)"),
    ("trace.overhead_frac", "frac", "lower",
     "none; cost of tracing itself (checks the budget)"),
    ("model.detect_p50_us", "us", "lower",
     "none; simulated clock, deterministic per seed"),
    ("model.detect_p99_us", "us", "lower",
     "none; simulated clock, deterministic per seed"),
    ("model.makespan_us", "us", "lower",
     "none; simulated clock, deterministic per seed"),
)

#: Budget rows: the layers whose self times plus ``other_s`` add up
#: to the traced wall time.
BUDGET_LAYERS = (
    "serve.drain",
    "frontends.decode",
    "fleet",
    "soc",
    "pipeline.encode",
    "pipeline.link",
    "pipeline.fifo",
    "pipeline.igm",
    "pipeline.deliver",
    "mcm",
    "miaow",
)


def units() -> dict:
    table = {name: unit for name, unit, _, _ in END_TO_END}
    table.update({name: unit for name, unit, _, _ in PER_LAYER})
    return table
