"""Ingestion front-door soak: 1000+ concurrent clients, p50/p99.

Drives ``repro.serve.IngestServer`` through the four scenarios of
:func:`repro.eval.soak.run_soak` — a steady-state fleet streaming raw
frontend bytes (both grammars) and pre-decoded event batches over the
in-memory transport, an overload fleet with deadline-aware shedding
armed vs disarmed, and a rate-limited fleet — and records
ingest-to-verdict latency percentiles plus the full ``serve.*``
shed/admission accounting.

Results go to ``benchmarks/results/BENCH_serve.json`` and are
mirrored to the repository root via ``bench_io.save_result``, where
the acceptance gate reads them.  The gates are the soak invariants
themselves (:meth:`repro.eval.soak.SoakResult.checks`): zero dataplane
crashes, every frame answered, admitted == drained + stale, and the
armed overload scenario's admitted p99 bounded by the ingest deadline.

Runs three ways:

- ``pytest benchmarks/bench_serve_soak.py`` — the full 1000-client
  soak, asserts every invariant;
- ``python benchmarks/bench_serve_soak.py`` — same, as a script;
- ``python benchmarks/bench_serve_soak.py --smoke`` — a reduced fleet
  for the CI smoke step (same invariants, fewer clients).
"""

from __future__ import annotations

import pathlib
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:  # script-mode imports
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.eval.soak import DEFAULT_CLIENTS, run_soak  # noqa: E402

RESULT_NAME = "BENCH_serve.json"
SMOKE_CLIENTS = 120
SEED = 0


def save_and_format(soak, smoke: bool = False) -> str:
    from bench_io import save_result

    save_result(RESULT_NAME, dict(soak.to_json(), smoke=smoke))
    return soak.format()


def test_serve_soak():
    soak = run_soak(clients=DEFAULT_CLIENTS, seed=SEED)
    print()
    print(save_and_format(soak))
    assert soak.failures() == []


def main(argv) -> int:
    smoke = "--smoke" in argv
    clients = SMOKE_CLIENTS if smoke else DEFAULT_CLIENTS
    soak = run_soak(clients=clients, seed=SEED)
    print(save_and_format(soak, smoke=smoke))
    failures = soak.failures()
    for line in failures:
        print(f"FAIL: {line}")
    return 0 if not failures else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
