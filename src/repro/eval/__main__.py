"""Regenerate every table and figure from the command line.

Usage::

    python -m repro.eval                    # everything (minutes)
    python -m repro.eval table1 table2      # a subset
    python -m repro.eval fig8 --trials 3 --benchmarks gcc omnetpp
    python -m repro.eval metrics            # instrumented pipeline run
    python -m repro.eval metrics --json --models lstm --events 6000
    python -m repro.eval chaos --json       # fault-rate sweep (exit 1
    python -m repro.eval recovery --json    # kill-and-replay) on any
                                            # violated invariant
    python -m repro.eval parity --json      # cross-frontend detection
                                            # equivalence gate

``--json`` prints one JSON document, so it takes exactly one of the
JSON experiments (metrics, chaos, recovery, profile, parity, soak).
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from repro.eval.chaos import DEFAULT_RATES, run_chaos
from repro.eval.fig6 import format_fig6, run_fig6
from repro.eval.fig7 import format_fig7, run_fig7
from repro.eval.fig8 import format_fig8, run_fig8
from repro.eval.fleet import run_fleet_metrics
from repro.eval.metrics import (
    DEMO_KINDS,
    format_metrics,
    metrics_to_json,
    run_metrics_all,
)
from repro.eval.parity import DEFAULT_FRONTENDS, run_parity
from repro.eval.profile import (
    DEFAULT_INFERENCES,
    format_profile,
    profile_to_json,
    run_profile,
)
from repro.eval.recovery import DEFAULT_SEEDS, run_recovery
from repro.eval.soak import DEFAULT_CLIENTS, run_soak
from repro.eval.table1 import format_table1, run_table1
from repro.eval.table2 import format_table2, run_table2


class _Output:
    """An experiment output without a :class:`~repro.eval.report.Report`
    (the paper tables and figures, ``profile`` and ``metrics``), with
    the same ``format``/``to_json``/``failures`` surface."""

    def __init__(self, text, document=None, failures=()):
        self._text = text
        self._document = document
        self._failures = list(failures)

    def format(self) -> str:
        return self._text

    def to_json(self):
        return self._document

    def failures(self):
        return self._failures


def _events(args, default: int = 12_000) -> int:
    return default if args.events is None else args.events


def _metrics(args) -> _Output:
    results = run_metrics_all(
        kinds=tuple(args.models or DEMO_KINDS),
        events=_events(args),
        seed=args.seed,
    )
    fleet = run_fleet_metrics(events=_events(args), seed=args.seed)
    return _Output(
        "\n\n".join([format_metrics(results), fleet.format()]),
        {**metrics_to_json(results), "fleet": fleet.to_json()},
        fleet.failures(),
    )


def _profile(args) -> _Output:
    profiled = run_profile(
        kinds=tuple(args.models or ("elm", "lstm")),
        inferences=args.inferences,
        seed=args.seed,
    )
    return _Output(format_profile(profiled), profile_to_json(profiled))


#: Every experiment, in the default run order: ``args -> result``.
RUNNERS = {
    "table1": lambda a: _Output(format_table1(run_table1(seed=a.seed))),
    "table2": lambda a: _Output(format_table2(run_table2(seed=a.seed))),
    "fig6": lambda a: _Output(format_fig6(run_fig6())),
    "fig7": lambda a: _Output(format_fig7(run_fig7())),
    "fig8": lambda a: _Output(
        format_fig8(
            run_fig8(benchmarks=a.benchmarks, trials=a.trials, seed=a.seed)
        )
    ),
    "metrics": _metrics,
    "chaos": lambda a: run_chaos(
        rates=tuple(a.rates or DEFAULT_RATES),
        events=_events(a),
        seed=a.seed,
    ),
    "recovery": lambda a: run_recovery(
        seeds=tuple(DEFAULT_SEEDS if a.seeds is None else a.seeds),
        rounds=a.rounds,
        kills_per_seed=a.kills,
    ),
    "profile": _profile,
    "parity": lambda a: run_parity(
        kinds=tuple(a.models) if a.models else None,
        events=_events(a, default=4_000),
        seed=a.seed,
        frontends=DEFAULT_FRONTENDS,
    ),
    "soak": lambda a: run_soak(
        clients=a.clients, seed=a.seed, kind=(a.models or ["lstm"])[0]
    ),
}

EXPERIMENTS = tuple(RUNNERS)

#: Experiments with a JSON document; ``--json`` takes exactly one.
_JSON_EXPERIMENTS = (
    "metrics", "chaos", "recovery", "profile", "parity", "soak",
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.eval",
        description="Reproduce the RTAD paper's tables and figures.",
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        help=f"which experiments to run: {', '.join(EXPERIMENTS)} "
             "(default: all)",
    )
    parser.add_argument(
        "--trials", type=int, default=5,
        help="attack trials per Fig. 8 cell (default 5)",
    )
    parser.add_argument(
        "--benchmarks", nargs="*", default=None,
        help="benchmark subset for Fig. 8 (default: all twelve)",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="experiment seed"
    )
    parser.add_argument(
        "--events", type=int, default=None,
        help="branch events per run (default 12000; parity defaults "
             "to 4000 — its workload must stay within MCM capacity)",
    )
    parser.add_argument(
        "--models", nargs="*", default=None, choices=DEMO_KINDS,
        help="model kinds for the metrics run (default: elm lstm)",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="emit one JSON experiment's output as JSON instead of text",
    )
    parser.add_argument(
        "--rates", nargs="*", type=float, default=None,
        help="fault-rate sweep for the chaos experiment "
             f"(default: {' '.join(str(r) for r in DEFAULT_RATES)})",
    )
    parser.add_argument(
        "--rounds", type=int, default=3,
        help="monitoring rounds per recovery run (default 3)",
    )
    parser.add_argument(
        "--kills", type=int, default=3,
        help="kill points per recovery seed (default 3)",
    )
    parser.add_argument(
        "--seeds", nargs="*", type=int, default=None,
        help="seed list for the recovery experiment (default: 0 1 2)",
    )
    parser.add_argument(
        "--inferences", type=int, default=DEFAULT_INFERENCES,
        help="exact-mode inferences per profiled model "
             f"(default {DEFAULT_INFERENCES})",
    )
    parser.add_argument(
        "--clients", type=int, default=DEFAULT_CLIENTS,
        help="concurrent simulated clients for the soak experiment "
             f"(default {DEFAULT_CLIENTS})",
    )
    args = parser.parse_args(argv)
    if args.events is not None and args.events < 0:
        parser.error("--events must be non-negative")
    if args.clients < 1:
        parser.error("--clients must be positive")
    selected = args.experiments or list(EXPERIMENTS)
    unknown = [name for name in selected if name not in EXPERIMENTS]
    if unknown:
        parser.error(
            f"unknown experiments {unknown}; choose from {EXPERIMENTS}"
        )
    if args.json and (
        len(selected) != 1 or selected[0] not in _JSON_EXPERIMENTS
    ):
        parser.error(
            "--json emits one JSON document: select exactly one of "
            f"{', '.join(_JSON_EXPERIMENTS)}"
        )

    failures = []
    for name in selected:
        start = time.perf_counter()
        result = RUNNERS[name](args)
        failures += [f"{name}: {line}" for line in result.failures()]
        if args.json:
            print(json.dumps(result.to_json(), indent=2, sort_keys=True))
        else:
            print(result.format())
            print(f"[{name}: {time.perf_counter() - start:.1f}s]\n")
    if failures:
        for line in failures:
            print(f"INVARIANT FAILED - {line}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
