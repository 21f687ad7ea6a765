"""perfbench — the end-to-end RTAD benchmark.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload serve-fleet-raw --seed 1 \
        --seconds 10 --trace 0

``--trace 0`` measures one untraced window and reports the end-to-end
metrics; ``--trace 1`` measures an untraced half and a traced half and
reports the per-layer metrics with the time budget.  ``--workload all``
runs every workload in turn.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

The benchmark builds nothing: it runs the repository's ``src/`` tree
and refuses to run without it.
"""

import time

_STARTED = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import pathlib  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORKLOADS = ("serve-fleet-raw", "engine-exact-batched", "serve-solo-paced")
#: Set-up time is the median of this many cold processes (this run's
#: own set-up counts as one).
SETUP_SAMPLES = 3
SETUP_TIMEOUT_S = 150


def parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only",
        action="store_true",
        help="build and warm the system, report set-up time, exit",
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def cold_setup(workload: str) -> float:
    """Set-up time of a fresh process (imports, model, system, warm-up)."""
    proc = subprocess.Popen(
        [sys.executable, __file__, "--workload", workload, "--setup-only"],
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=SETUP_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            # Its whole group: a killed set-up leaves its workers behind.
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"cold set-up exited with {proc.returncode}")
    return float(json.loads(out.strip().splitlines()[-1])["setup_s"])


def run_all(argv) -> int:
    status = 0
    for workload in WORKLOADS:
        args = list(argv)
        args[args.index("all")] = workload
        status |= subprocess.run([sys.executable, __file__] + args).returncode
    return status


def measure(args, work_dir: str):
    from perfbench import harness
    from perfbench.speed import SpeedProbe
    from perfbench.tracer import Tracer

    system = harness.System(args.workload, work_dir)
    setups = [time.monotonic() - _STARTED]
    scaled = harness.SCALED.get(args.workload, ())
    probe = SpeedProbe()
    phases = harness.plan(args.seconds, bool(args.trace))
    tracer = Tracer(keep_durations=("fleet",))
    rows = None
    decoded = 0
    try:
        if args.workload == harness.ENGINE:
            pool, rounds = harness.run_engine(system, args.seed, phases, tracer, probe)
            rss = system.peak_rss_mb()
            bad, model = harness.verify_engine(system, pool, rounds)
            outcome = harness.engine_outcome(system, phases, rounds, bad)
        else:
            streams, rounds, log, decoded = harness.run_serve(
                system, args.seed, phases, tracer, work_dir, probe if scaled else None
            )
            rss = system.peak_rss_mb()
            bad, laws, model = harness.verify_serve(system, streams, log, rounds)
            rows = harness.frame_rows(streams, log, rounds, bad)
            laws = laws + harness.serve_laws(system, log, rows)
            outcome = harness.serve_outcome(system, phases, rows, laws)
            outcome.laws.insert(
                0,
                (
                    "verdicts match the reference",
                    not bad,
                    f"{sum(map(len, bad.values()))} of {len(rounds)} "
                    "tenant-rounds differ",
                ),
            )
        if args.trace:
            harness.layer_metrics(
                outcome, system, phases, tracer, rounds, model, rows, decoded
            )
    finally:
        system.close()
    setups += [cold_setup(args.workload) for _ in range(SETUP_SAMPLES - 1)]
    outcome.e2e.update(setup_s=statistics.median(setups), peak_rss_mb=rss)
    outcome.wall = dict(outcome.e2e)
    slowdown = None
    if scaled:
        # To the reference host speed: rates up, times down.  Set-up is
        # reported as measured: a probe next to it tracked its speed no
        # better than no scaling at all.
        window = phases[0]
        slowdown = probe.slowdown(window.start_ns, window.end_ns)
        for name in scaled:
            if name == "events_per_s":
                outcome.e2e[name] *= slowdown
            else:
                outcome.e2e[name] /= slowdown
    return outcome, setups, model, system, slowdown


def report(args, outcome, setups, model, system, slowdown) -> dict:
    from perfbench import harness, layers

    units = layers.units()
    kind = "rounds" if args.workload == "engine-exact-batched" else "frames"
    print(
        f"perfbench {args.workload}  seed={args.seed}  seconds={args.seconds:g}  "
        f"trace={args.trace}"
    )
    window = args.seconds / 2 if args.trace else args.seconds
    if slowdown is None:
        scaling = "open loop, not scaled"
    else:
        scaling = (
            f"{', '.join(harness.SCALED[args.workload])} scaled to the "
            f"reference host speed (host slowdown {slowdown:.3f})"
        )
    print(
        f"\nend-to-end (untraced window of {window:g} s; {scaling}; then as "
        "measured on the wall clock):"
    )
    for name, unit, _, _ in layers.END_TO_END:
        print(
            f"  {name:<18} {outcome.e2e[name]:>14.4f} {unit:<9}"
            f"{outcome.wall[name]:>14.4f} {unit}"
        )
    print(
        f"  {'failed_frac':<18} {outcome.failed / max(1, outcome.attempted):>14.4f} "
        f"frac ({outcome.failed} of {outcome.attempted} {kind} failed)"
    )
    print(
        f"  samples: {outcome.samples} {kind} from the {harness.KEEP:.0%} of "
        f"{harness.SLICE_S:g} s slices with the lowest median latency; "
        "set-up samples: "
        + ", ".join(f"{value:.3f}" for value in setups)
        + " s"
    )
    print("\nlaws:")
    for name, ok, detail in outcome.laws:
        print(f"  [{'ok' if ok else 'BROKEN'}] {name}: {detail}")
    print(
        "\nsimulated clock (paper model; deterministic per seed, "
        "never a wall-clock figure):"
    )
    for name, value in model.items():
        print(f"  {name:<22} {value:>12.3f} {units[name]}")
    if outcome.layers is not None:
        wall = outcome.traced_wall_s
        total = sum(seconds for _, seconds in outcome.budget)
        print(f"\ntime budget (traced half, self time, wall {wall:.3f} s):")
        for layer, seconds in outcome.budget:
            print(f"  {layer:<18} {seconds:>10.4f} s  {100 * seconds / wall:6.1f} %")
        print(
            f"  {'sum':<18} {total:>10.4f} s  {100 * total / wall:6.1f} % of the "
            "traced wall"
        )
        if system.fleet is not None:
            print(
                "  fleet worker interior is not traced: it shows only as "
                "fleet.worker.compute_s and the merged worker counters"
            )
        print("\nper-layer (traced half):")
        for name, unit, _, moves in layers.PER_LAYER:
            print(f"  {name:<37} {outcome.layers[name]:>13.4f} {unit:<15} -> {moves}")
    if outcome.layers is None:
        metrics = {
            name: {"value": outcome.e2e[name], "unit": unit}
            for name, unit, _, _ in layers.END_TO_END
        }
    else:
        metrics = {
            name: {"value": outcome.layers[name], "unit": unit}
            for name, unit, _, _ in layers.PER_LAYER
        }
    return {
        "correct": outcome.correct,
        "attempted": max(1, outcome.attempted),
        "failed": outcome.failed,
        "metrics": metrics,
    }


def stop_children() -> None:
    """Stop and reap every helper process this one started.

    Fleet workers left by a failed set-up are killed first: they hold
    the shared-memory resource tracker's pipe open.  The tracker, which
    the shm fleet transport makes ``multiprocessing`` spawn, would
    otherwise outlive this process by a moment.
    """
    if "multiprocessing" in sys.modules:
        import multiprocessing

        for child in multiprocessing.active_children():
            child.kill()
            child.join()
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    if tracker is not None:
        tracker._resource_tracker._stop()


def main(argv) -> int:
    args = parse(argv)
    if args.workload == "all":
        return run_all(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(
            f"perfbench: {ROOT / 'src' / 'repro'} is missing; run from the "
            "root of a full checkout",
            file=sys.stderr,
        )
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    work_dir = ROOT / ".perfbench-work" / str(os.getpid())
    work_dir.mkdir(parents=True)
    try:
        if args.setup_only:
            from perfbench import harness

            system = harness.System(args.workload, str(work_dir))
            elapsed = time.monotonic() - _STARTED
            system.close()
            print(json.dumps({"setup_s": elapsed}))
            return 0
        result = report(args, *measure(args, str(work_dir)))
    finally:
        stop_children()
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_dir.parent.rmdir()
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
