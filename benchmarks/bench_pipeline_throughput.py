"""Trace-dataplane throughput: per-event loop vs batched stages.

Times ``RtadSoc.run_events`` on the same traces through two demo SoCs
that differ only in ``RtadConfig.dataplane`` and records events/sec into
``benchmarks/results/BENCH_pipeline.json`` (mirrored to the
repository root via ``bench_io.save_result``).  The acceptance gate for
the staged-dataplane refactor is >= 3x events/sec on the 1M-event
trace; both implementations produce byte-identical records
(``tests/test_pipeline_equivalence.py``), so this is pure speed.

Runs three ways:

- ``pytest benchmarks/bench_pipeline_throughput.py`` — all three
  trace sizes, asserts the 1M-event speedup gate;
- ``python benchmarks/bench_pipeline_throughput.py --smoke`` — the
  smallest size only, for the CI smoke step (fails on speedup < 1);
- ``python benchmarks/bench_pipeline_throughput.py --decode`` — the
  server's raw-ingest decode alone (``deframer.push`` +
  ``decoder.feed`` + the ``EventBatch`` column build), per grammar,
  over perfbench's seed-1 raw frame pools: ns per wire byte and per
  decoded event.  Prints only; nothing is saved.
"""

from __future__ import annotations

import pathlib
import sys
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
for _path in (REPO_ROOT / "src", REPO_ROOT):  # script-mode imports
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

from repro.eval.metrics import build_demo_soc, demo_events  # noqa: E402

RESULT_NAME = "BENCH_pipeline.json"

FULL_SIZES = (50_000, 200_000, 1_000_000)
SMOKE_SIZES = (50_000,)
SPEEDUP_GATE = 3.0


def _timed_run(soc, events):
    start = time.perf_counter()
    records = soc.run_events(events)
    wall_s = time.perf_counter() - start
    return wall_s, len(records)


def run_throughput(sizes=FULL_SIZES, kind: str = "lstm") -> dict:
    socs = {
        dataplane: build_demo_soc(kind, dataplane=dataplane)
        for dataplane in ("loop", "batched")
    }
    entries = []
    for size in sizes:
        events = demo_events(
            kind, 0, size, run_label=f"throughput-{size}"
        )
        measured = {}
        for dataplane, soc in socs.items():
            wall_s, total_records = _timed_run(soc, events)
            measured[dataplane] = {
                "wall_s": round(wall_s, 4),
                "events_per_s": round(len(events) / wall_s, 1),
            }
        entries.append(
            {
                "events": len(events),
                "loop": measured["loop"],
                "batched": measured["batched"],
                "speedup": round(
                    measured["batched"]["events_per_s"]
                    / measured["loop"]["events_per_s"],
                    2,
                ),
            }
        )
    return {
        "benchmark": "pipeline_throughput",
        "kind": kind,
        "dataplanes": ["loop", "batched"],
        "gate_speedup_at_1m": SPEEDUP_GATE,
        "sizes": entries,
    }


def save_and_format(result: dict, smoke: bool = False) -> str:
    from bench_io import save_result

    result = dict(result, smoke=smoke)
    save_result(RESULT_NAME, result)
    lines = [
        "pipeline throughput: per-event loop vs batched stages",
        f"{'events':>10}  {'loop ev/s':>12}  {'batched ev/s':>13}  "
        f"{'speedup':>8}",
    ]
    for entry in result["sizes"]:
        lines.append(
            f"{entry['events']:>10}  "
            f"{entry['loop']['events_per_s']:>12,.0f}  "
            f"{entry['batched']['events_per_s']:>13,.0f}  "
            f"{entry['speedup']:>7.2f}x"
        )
    return "\n".join(lines)


def test_pipeline_throughput():
    result = run_throughput(FULL_SIZES)
    print()
    print(save_and_format(result))
    largest = result["sizes"][-1]
    assert largest["events"] == 1_000_000
    assert largest["speedup"] >= SPEEDUP_GATE, (
        f"batched dataplane only {largest['speedup']}x at 1M events"
    )
    # batched must never be slower, at any size
    for entry in result["sizes"]:
        assert entry["speedup"] >= 1.0, entry


def run_decode(passes: int = 20, repeats: int = 5) -> list:
    """Best-of-``repeats`` cost of raw ingest over each grammar's pool.

    Each repeat feeds ``passes`` cycles of the pool through a fresh
    ingest state, so the decoder carries state across frames and pool
    wraps exactly as a serve session does.
    """
    from perfbench.inputs import raw_inputs
    from repro.frontends import get_frontend
    from repro.obs import MetricsRegistry
    from repro.serve import ServeConfig
    from repro.serve.server import _RawIngest

    cadence = ServeConfig().raw_cycles_per_event
    rows = []
    for stream in raw_inputs(1):
        frontend = get_frontend(stream.frontend)
        wire = passes * sum(len(payload) for payload in stream.payloads)
        best = None
        for _ in range(repeats):
            ingest = _RawIngest(frontend, cadence, MetricsRegistry())
            events = 0
            start = time.perf_counter()
            for _ in range(passes):
                for payload in stream.payloads:
                    events += len(ingest.feed(payload))
            elapsed = time.perf_counter() - start
            best = elapsed if best is None else min(best, elapsed)
        rows.append(
            {
                "frontend": stream.frontend,
                "wire_bytes": wire,
                "events": events,
                "ns_per_byte": round(best / wire * 1e9, 1),
                "ns_per_event": round(best / events * 1e9, 1),
            }
        )
    return rows


def format_decode(rows) -> str:
    lines = [
        "raw-ingest decode: deframe + decode + column build",
        f"{'frontend':>10}  {'wire B':>9}  {'events':>8}  "
        f"{'ns/B':>7}  {'ns/event':>9}",
    ]
    for row in rows:
        lines.append(
            f"{row['frontend']:>10}  {row['wire_bytes']:>9}  "
            f"{row['events']:>8}  {row['ns_per_byte']:>7.1f}  "
            f"{row['ns_per_event']:>9.1f}"
        )
    return "\n".join(lines)


def main(argv) -> int:
    if "--decode" in argv:
        print(format_decode(run_decode()))
        return 0
    smoke = "--smoke" in argv
    sizes = SMOKE_SIZES if smoke else FULL_SIZES
    result = run_throughput(sizes)
    print(save_and_format(result, smoke=smoke))
    worst = min(entry["speedup"] for entry in result["sizes"])
    if smoke:
        return 0 if worst >= 1.0 else 1
    return 0 if result["sizes"][-1]["speedup"] >= SPEEDUP_GATE else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
