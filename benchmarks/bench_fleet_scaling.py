"""Fleet sharding scalability: modeled aggregate events/s vs shards.

The quantity this benchmark reports is **model-domain** aggregate
throughput, the same time basis as the paper-facing latency numbers
(``bench_ablation_cus.py`` reports modeled detection latency the same
way): every :class:`~repro.mcm.mcm.InferenceRecord` carries virtual
timestamps (``arrival_ns`` .. ``done_ns``) in the simulated SoC's
clock, where one shared ML-MIAOW engine serves every tenant's vectors.
With all tenants behind a single engine the simulated engine is the
bottleneck — the modeled round makespan far exceeds the trace's
arrival span.  Sharding tenants across N fleet workers gives each
shard its *own* modeled engine, so the aggregate makespan shrinks by
~N.  The metric:

    modeled aggregate events/s
        = total branch events / max-over-shards(modeled makespan)

where a shard's makespan is ``max(done_ns) - min(arrival_ns)`` over
its tenants' records for the round.

**Host wall-clock events/s is reported alongside and is NOT the
gate**: the simulation itself is CPU-bound Python and this container
is single-core, so wall-clock throughput stays roughly flat no matter
how many worker processes run (noted per point in the JSON).

Determinism ride-along: verdict flags per tenant must be identical
across every shard count, and counter conservation
(``fleet.rounds.admitted == fresh + replayed``) must hold per point.

**Transport comparison (pipe vs shm)**: a second sweep re-runs the
default 8-tenant load under both fleet transports and reports the
measured coordinator->worker transport time per dispatch — the
``fleet.transport.c2w_ns`` counter, a wall-clock-free sum of the four
thread-CPU shares of the byte path (coordinator staging + pipe send +
worker drain + worker payload fetch; see docs/FLEET.md §5).  Byte
counters (staged/consumed/discarded) and their conservation law ride
along per point, as does pipe-vs-shm verdict byte-identity.  Gate:
shared-memory reduces c2w time per dispatch by >= 2x at the 1-shard
point — the point where each dispatch carries the full 8-tenant round
payload, so the per-dispatch fixed cost (waking the blocked worker,
paid identically by both transports) does not dominate the bytes.
The smaller per-dispatch payloads at 2/4 shards report their ratios
un-gated for the same reason.  The transport gate only applies to
full (non-smoke) runs: smoke payloads are too small to clear the
fixed cost.

Results go to ``benchmarks/results/BENCH_fleet.json`` with a root
mirror via ``bench_io.save_result``.  Gate: modeled aggregate events/s
at 4 shards >= 3x the 1-shard baseline.

Runs three ways:

- ``pytest benchmarks/bench_fleet_scaling.py``
- ``python benchmarks/bench_fleet_scaling.py``
- ``python benchmarks/bench_fleet_scaling.py --smoke`` (CI: fewer
  events, same gates)
"""

from __future__ import annotations

import pathlib
import sys
import tempfile
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:  # script-mode imports
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.eval.report import verdict_flags  # noqa: E402

RESULT_NAME = "BENCH_fleet.json"
SEED = 0
TENANTS = 8
SHARD_COUNTS = (1, 2, 4)
EVENTS_PER_TENANT = 1_500
SMOKE_EVENTS_PER_TENANT = 500
SPEEDUP_GATE = 3.0
#: c2w reduction the shm transport must show at the gate point.
TRANSPORT_GATE = 2.0
#: Shard count the transport gate applies to: one dispatch carrying
#: the whole 8-tenant round, where bytes dominate the fixed wake cost.
TRANSPORT_GATE_SHARDS = 1
TRANSPORT_WARMUP_ROUNDS = 2
TRANSPORT_MEASURED_ROUNDS = 6
SMOKE_TRANSPORT_MEASURED_ROUNDS = 2


def _transport_fields(stats: dict) -> dict:
    """Per-point transport bytes + serialization time from a
    :meth:`FleetCoordinator.transport_stats` snapshot (or delta)."""
    staged = int(stats.get("fleet.transport.bytes.staged", 0))
    consumed = int(stats.get("fleet.transport.bytes.consumed", 0))
    discarded = int(stats.get("fleet.transport.bytes.discarded", 0))
    dispatches = max(1, int(stats.get("fleet.transport.rounds", 0)))
    return {
        "transport_bytes_staged": staged,
        "transport_bytes_consumed": consumed,
        "transport_bytes_discarded": discarded,
        "transport_conservation_ok": staged == consumed + discarded,
        "serialization_us_per_dispatch": (
            int(stats.get("fleet.transport.stage_ns", 0))
            / dispatches
            / 1e3
        ),
        "transport_c2w_us_per_dispatch": (
            int(stats.get("fleet.transport.c2w_ns", 0))
            / dispatches
            / 1e3
        ),
        "transport_wall_us_per_dispatch": (
            int(stats.get("fleet.transport.ns", 0)) / dispatches / 1e3
        ),
    }


def run_transport_comparison(
    events_per_tenant: int = EVENTS_PER_TENANT,
    seed: int = SEED,
    warmup_rounds: int = TRANSPORT_WARMUP_ROUNDS,
    measured_rounds: int = TRANSPORT_MEASURED_ROUNDS,
) -> dict:
    """Pipe vs shm: measured c2w transport time per dispatch.

    Runs the same multi-round 8-tenant load under both transports at
    each shard count.  Warm-up rounds are excluded (first-dispatch
    costs: ring creation, import paths, branch-predictor warmth);
    the per-dispatch figures are counter deltas over the measured
    rounds.  Conservation is asserted over the *whole* run including
    warm-up.
    """
    from repro.eval.metrics import demo_events
    from repro.fleet import FleetConfig, FleetCoordinator, demo_factory

    names = [f"tenant{index}" for index in range(TENANTS)]
    total_rounds = warmup_rounds + measured_rounds
    rounds = [
        {
            name: demo_events(
                "lstm",
                seed,
                events_per_tenant,
                run_label=f"fleet-transport-r{index}-{name}",
            )
            for name in names
        }
        for index in range(total_rounds)
    ]
    points = []
    for num_shards in SHARD_COUNTS:
        legs = {}
        flags = {}
        for transport in ("pipe", "shm"):
            journal_root = tempfile.mkdtemp(
                prefix="repro-bench-transport-"
            )
            with FleetCoordinator(
                demo_factory,
                names,
                journal_root,
                FleetConfig(
                    num_shards=num_shards, transport=transport
                ),
            ) as fleet:
                leg_flags = []
                for index in range(warmup_rounds):
                    fleet.run_events(rounds[index])
                base = dict(fleet.transport_stats())
                for index in range(warmup_rounds, total_rounds):
                    records = fleet.run_events(rounds[index])
                    leg_flags.append(
                        {
                            name: verdict_flags(records.get(name, []))
                            for name in names
                        }
                    )
                stats = fleet.transport_stats()
            delta = {
                key: stats[key] - base.get(key, 0) for key in stats
            }
            fields = _transport_fields(delta)
            # Conservation over the whole run, warm-up included.
            fields["transport_conservation_ok"] = int(
                stats.get("fleet.transport.bytes.staged", 0)
            ) == int(
                stats.get("fleet.transport.bytes.consumed", 0)
            ) + int(stats.get("fleet.transport.bytes.discarded", 0))
            fields["inline_spills"] = int(
                delta.get("fleet.transport.payloads.inline", 0)
            )
            legs[transport] = fields
            flags[transport] = leg_flags
        points.append(
            {
                "shards": num_shards,
                "dispatches_measured": measured_rounds * num_shards,
                "pipe": legs["pipe"],
                "shm": legs["shm"],
                "c2w_reduction": (
                    legs["pipe"]["transport_c2w_us_per_dispatch"]
                    / legs["shm"]["transport_c2w_us_per_dispatch"]
                ),
                "conservation_ok": (
                    legs["pipe"]["transport_conservation_ok"]
                    and legs["shm"]["transport_conservation_ok"]
                ),
                "flags_identical_pipe_vs_shm": (
                    flags["pipe"] == flags["shm"]
                ),
            }
        )
    return {
        "metric": (
            "coordinator->worker transport time per dispatch: the "
            "fleet.transport.c2w_ns counter (sum of the four "
            "thread-CPU shares of the byte path) over measured "
            "rounds, warm-up excluded"
        ),
        "tenants": TENANTS,
        "events_per_tenant": events_per_tenant,
        "warmup_rounds": warmup_rounds,
        "measured_rounds": measured_rounds,
        "gate": TRANSPORT_GATE,
        "gate_shards": TRANSPORT_GATE_SHARDS,
        "gate_note": (
            "gated at the 1-shard point where each dispatch carries "
            "the full round payload; 2/4-shard dispatches are floored "
            "by the fixed worker-wake cost both transports pay"
        ),
        "points": points,
    }


def run_fleet_scaling(
    events_per_tenant: int = EVENTS_PER_TENANT,
    seed: int = SEED,
    smoke: bool = False,
) -> dict:
    """One scaling sweep over :data:`SHARD_COUNTS`."""
    from repro.eval.metrics import demo_events
    from repro.fleet import FleetConfig, FleetCoordinator, demo_factory

    names = [f"tenant{index}" for index in range(TENANTS)]
    # Homogeneous offered load: every tenant replays the same CFG walk
    # (its own mapper/encoder/lane, same event stream), the standard
    # scaling-benchmark setup — shard throughput then measures the
    # engine, not accidental per-walk load imbalance.
    stream = demo_events(
        "lstm", seed, events_per_tenant, run_label="fleet-scaling"
    )
    traces = {name: stream for name in names}
    total_events = sum(len(events) for events in traces.values())
    points = []
    flags_by_shards = {}
    for num_shards in SHARD_COUNTS:
        journal_root = tempfile.mkdtemp(prefix="repro-bench-fleet-")
        with FleetCoordinator(
            demo_factory,
            names,
            journal_root,
            FleetConfig(num_shards=num_shards),
        ) as fleet:
            start_s = time.perf_counter()
            records = fleet.run_events(traces)
            wall_s = time.perf_counter() - start_s
            counters = fleet.counters()
            transport_stats = fleet.transport_stats()
            placement = {
                shard.id: list(shard.tenants) for shard in fleet.shards
            }
        flags_by_shards[num_shards] = {
            name: verdict_flags(records.get(name, [])) for name in names
        }
        # Modeled makespan per shard: its private engine's busy span
        # over this round, in the simulation's virtual clock.
        makespans_ns = []
        for shard_tenants in placement.values():
            shard_records = [
                record
                for name in shard_tenants
                for record in records.get(name, [])
            ]
            if not shard_records:
                continue
            makespans_ns.append(
                max(r.done_ns for r in shard_records)
                - min(r.arrival_ns for r in shard_records)
            )
        makespan_ns = max(makespans_ns)
        admitted = int(counters.get("fleet.rounds.admitted", 0))
        replayed = int(counters.get("fleet.rounds.replayed", 0))
        fresh = sum(
            value
            for name, value in counters.items()
            if name.startswith("fleet.shard.")
            and name.endswith(".rounds")
        )
        points.append(
            {
                "shards": num_shards,
                "tenants": TENANTS,
                "events": total_events,
                "verdicts": sum(len(r) for r in records.values()),
                "modeled_makespan_us": makespan_ns / 1e3,
                "modeled_events_per_s": total_events
                / (makespan_ns / 1e9),
                "wall_s": wall_s,
                "wall_events_per_s": total_events / wall_s,
                "wall_note": (
                    "host wall-clock; flat on a single-core container "
                    "regardless of worker count — not the gate"
                ),
                "conservation_ok": admitted == fresh + replayed,
                **_transport_fields(transport_stats),
            }
        )
    baseline = points[0]["modeled_events_per_s"]
    for point in points:
        point["modeled_speedup_vs_1_shard"] = (
            point["modeled_events_per_s"] / baseline
        )
    flags_identical = all(
        flags_by_shards[num_shards] == flags_by_shards[SHARD_COUNTS[0]]
        for num_shards in SHARD_COUNTS
    )
    transport = run_transport_comparison(
        events_per_tenant,
        seed,
        warmup_rounds=1 if smoke else TRANSPORT_WARMUP_ROUNDS,
        measured_rounds=(
            SMOKE_TRANSPORT_MEASURED_ROUNDS
            if smoke
            else TRANSPORT_MEASURED_ROUNDS
        ),
    )
    return {
        "benchmark": "fleet_scaling",
        "seed": seed,
        "smoke": smoke,
        "metric": (
            "modeled aggregate events/s = total events / max-over-"
            "shards modeled makespan (virtual InferenceRecord clock)"
        ),
        "events_per_tenant": events_per_tenant,
        "points": points,
        "speedup_gate": SPEEDUP_GATE,
        "flags_identical_across_shard_counts": flags_identical,
        "transport": transport,
    }


def bench_failures(result: dict) -> list:
    """Violated gates, as human-readable strings (empty == pass)."""
    failures = []
    by_shards = {p["shards"]: p for p in result["points"]}
    speedup = by_shards[4]["modeled_speedup_vs_1_shard"]
    if speedup < result["speedup_gate"]:
        failures.append(
            f"4-shard modeled speedup {speedup:.2f}x is below the "
            f"{result['speedup_gate']:g}x gate"
        )
    if not result["flags_identical_across_shard_counts"]:
        failures.append(
            "verdict flags diverged across shard counts (sharding "
            "must not change detection)"
        )
    for point in result["points"]:
        if not point["conservation_ok"]:
            failures.append(
                f"{point['shards']}-shard run violated counter "
                "conservation (admitted != fresh + replayed)"
            )
        if not point["transport_conservation_ok"]:
            failures.append(
                f"{point['shards']}-shard run violated transport byte "
                "conservation (staged != consumed + discarded)"
            )
    transport = result["transport"]
    for point in transport["points"]:
        if not point["conservation_ok"]:
            failures.append(
                f"transport comparison at {point['shards']} shards "
                "violated byte conservation"
            )
        if not point["flags_identical_pipe_vs_shm"]:
            failures.append(
                f"transport comparison at {point['shards']} shards: "
                "verdict flags diverged between pipe and shm (the "
                "transport must not change detection)"
            )
    if not result.get("smoke"):
        gated = next(
            p
            for p in transport["points"]
            if p["shards"] == transport["gate_shards"]
        )
        if gated["c2w_reduction"] < transport["gate"]:
            failures.append(
                f"shm c2w reduction {gated['c2w_reduction']:.2f}x at "
                f"{transport['gate_shards']} shard(s) is below the "
                f"{transport['gate']:g}x gate"
            )
    return failures


def format_result(result: dict) -> str:
    lines = [
        "fleet scaling: modeled aggregate events/s "
        f"({TENANTS} tenants, {result['events_per_tenant']} "
        "events/tenant)",
        f"{'shards':>6} | {'modeled ev/s':>14} | {'speedup':>8} | "
        f"{'makespan us':>12} | {'wall ev/s':>10}",
    ]
    for point in result["points"]:
        lines.append(
            f"{point['shards']:>6} | "
            f"{point['modeled_events_per_s']:>14.0f} | "
            f"{point['modeled_speedup_vs_1_shard']:>7.2f}x | "
            f"{point['modeled_makespan_us']:>12.1f} | "
            f"{point['wall_events_per_s']:>10.0f}"
        )
    transport = result["transport"]
    lines.append(
        "transport: coordinator->worker us/dispatch "
        f"(measured, {transport['measured_rounds']} rounds)"
    )
    lines.append(
        f"{'shards':>6} | {'pipe c2w us':>12} | {'shm c2w us':>11} | "
        f"{'reduction':>9} | {'conserved':>9} | {'flags==':>7}"
    )
    for point in transport["points"]:
        gate_mark = (
            " *" if point["shards"] == transport["gate_shards"] else ""
        )
        lines.append(
            f"{point['shards']:>6} | "
            f"{point['pipe']['transport_c2w_us_per_dispatch']:>12.0f} | "
            f"{point['shm']['transport_c2w_us_per_dispatch']:>11.0f} | "
            f"{point['c2w_reduction']:>8.2f}x | "
            f"{str(point['conservation_ok']):>9} | "
            f"{str(point['flags_identical_pipe_vs_shm']):>7}"
            f"{gate_mark}"
        )
    lines.append(
        f"  * gate point: shm must cut c2w >= {transport['gate']:g}x"
    )
    return "\n".join(lines)


def save_and_format(result: dict, smoke: bool = False) -> str:
    from bench_io import save_result

    save_result(RESULT_NAME, dict(result, smoke=smoke))
    return format_result(result)


def test_fleet_scaling():
    result = run_fleet_scaling()
    print()
    print(save_and_format(result))
    assert bench_failures(result) == []


def main(argv) -> int:
    smoke = "--smoke" in argv
    result = run_fleet_scaling(
        SMOKE_EVENTS_PER_TENANT if smoke else EVENTS_PER_TENANT,
        smoke=smoke,
    )
    print(save_and_format(result, smoke=smoke))
    failures = bench_failures(result)
    for line in failures:
        print(f"FAIL: {line}")
    return 0 if not failures else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
