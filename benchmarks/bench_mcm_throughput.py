"""MCM inference throughput: interpreter vs trace-compiled fast path.

Times exact-mode inference (every kernel really dispatched on the GPU
simulator, through the :class:`MlMiaowDriver` sequencing layer the MCM
uses) with the engine's compiled fast path on and off, for the ELM and
the LSTM at three model sizes each.  Both paths are bit-identical
(``tests/test_miaow_compiler.py``), so this is pure speed.  The two
paths are timed in interleaved blocks, and a size's speedup is the
median of the per-pair ratios, so host load that drifts during a run
moves both sides of a pair alike.

Results go to ``benchmarks/results/BENCH_mcm.json`` and are mirrored
to the repository root via ``bench_io.save_result``, where
the acceptance gate reads them.  The gate for the fast-path work is
>= 5x inferences/sec at the *default* model sizes (ELM hidden_dim=256,
LSTM hidden_size=32).

A second, cross-tenant mode times the batched dispatch path: 16 ELM
tenants served one ``run_inference`` at a time versus one fused
``run_inference_batch`` (bit-identical results, see
``tests/test_miaow_batch_equivalence.py``).  The batched entry gates
>= 1.5x aggregate inference throughput over the single-dispatch fast
path.

Runs three ways:

- ``pytest benchmarks/bench_mcm_throughput.py`` — all sizes plus the
  batched mode, asserts the 5x gate at the defaults and the 1.5x
  batched gate;
- ``python benchmarks/bench_mcm_throughput.py --smoke`` — smallest
  size per model, for the CI smoke step (fails if the compiled path is
  ever slower than the interpreter);
- ``python benchmarks/bench_mcm_throughput.py --smoke --batched`` —
  the batched mode only, written to ``BENCH_mcm_batched.json`` (the CI
  smoke step uploads both variants).
"""

from __future__ import annotations

import pathlib
import sys
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:  # script-mode imports
    sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np  # noqa: E402

from repro.mcm.driver import MlMiaowDriver  # noqa: E402
from repro.miaow.gpu import Gpu  # noqa: E402
from repro.ml.elm import ExtremeLearningMachine  # noqa: E402
from repro.ml.features import PatternDictionary  # noqa: E402
from repro.ml.kernels import DeployedElm, DeployedLstm  # noqa: E402
from repro.ml.lstm import LstmModel  # noqa: E402

RESULT_NAME = "BENCH_mcm.json"

#: Default deployment sizes (the constructor defaults the SoC uses);
#: the 5x gate applies to these rows.
ELM_DEFAULT_HIDDEN = 256
LSTM_DEFAULT_HIDDEN = 32

ELM_SIZES = (64, 128, 256)
LSTM_SIZES = (8, 16, 32)
SMOKE_ELM_SIZES = (64,)
SMOKE_LSTM_SIZES = (8,)
SPEEDUP_GATE = 5.0
#: Interleaved interpreted/compiled block pairs per model size (at
#: least); the gated speedup is the median of their ratios.
PAIRS = 9

#: Cross-tenant batched dispatch: tenants sharing one fused launch,
#: and the aggregate-throughput multiplier the batched entry gates.
BATCH_TENANTS = 16
BATCH_SPEEDUP_GATE = 1.5
BATCHED_RESULT_NAME = "BENCH_mcm_batched.json"

WINDOW = 16
NUM_CUS = 5
SEED = 7


def _throughput(run_once, min_reps: int, min_wall_s: float = 0.25) -> dict:
    """Inferences/sec of ``run_once`` (warm-up excluded)."""
    run_once()
    reps = 0
    start = time.perf_counter()
    while True:
        run_once()
        reps += 1
        wall_s = time.perf_counter() - start
        if reps >= min_reps and wall_s >= min_wall_s:
            break
    return {
        "reps": reps,
        "wall_s": round(wall_s, 4),
        "inferences_per_s": round(reps / wall_s, 1),
    }


def _paired_speedup(
    run_interpreted,
    run_compiled,
    min_reps: int,
    pairs: int = PAIRS,
    block_s: float = 0.04,
) -> dict:
    """Compiled-over-interpreted speedup from interleaved blocks.

    Each pair times a block of interpreted and a block of compiled
    inferences back to back (which goes first alternates), so both
    sides of a pair see the same host load; the speedup is the median
    of the per-pair ratios.  The inf/s figures total every block.
    """
    runs = {"interpreter": run_interpreted, "compiled": run_compiled}
    for run in runs.values():
        run()  # warm-up (compile, caches)
    totals = {label: [0, 0.0] for label in runs}
    ratios = []
    order = list(runs)
    while len(ratios) < pairs or totals["compiled"][0] < min_reps:
        rate = {}
        for label in order:
            run = runs[label]
            reps = 0
            start = time.perf_counter()
            while True:
                run()
                reps += 1
                wall_s = time.perf_counter() - start
                if wall_s >= block_s:
                    break
            totals[label][0] += reps
            totals[label][1] += wall_s
            rate[label] = reps / wall_s
        ratios.append(rate["compiled"] / rate["interpreter"])
        order.reverse()
    measured = {
        label: {
            "reps": reps,
            "wall_s": round(wall_s, 4),
            "inferences_per_s": round(reps / wall_s, 1),
        }
        for label, (reps, wall_s) in totals.items()
    }
    measured["pairs"] = len(ratios)
    measured["speedup"] = round(float(np.median(ratios)), 2)
    return measured


def _elm_driver(hidden: int, fast_path: bool, dictionary, windows):
    model = ExtremeLearningMachine(
        input_dim=dictionary.size, hidden_dim=hidden, seed=SEED
    ).fit(dictionary.features(windows))
    gpu = Gpu(num_cus=NUM_CUS, fast_path=fast_path)
    deployed = DeployedElm(model, dictionary, WINDOW)
    return MlMiaowDriver(deployed, gpu, execute_on_gpu=True)


def _lstm_driver(hidden: int, fast_path: bool):
    model = LstmModel(vocabulary_size=64, hidden_size=hidden, seed=SEED)
    gpu = Gpu(num_cus=NUM_CUS, fast_path=fast_path)
    return MlMiaowDriver(DeployedLstm(model), gpu, execute_on_gpu=True)


def run_batched_throughput(
    hidden: int,
    tenants: int = BATCH_TENANTS,
    min_reps: int = 10,
) -> dict:
    """Aggregate inf/s: K sequential dispatches vs one fused dispatch.

    K exact-mode ELM drivers share one engine (the arbitrated-SoC
    shape).  The single path serves them with K compiled dispatches,
    the batched path with one ``run_inference_batch`` — bit-identical
    results, so the multiplier is pure host-dispatch amortization.
    """
    rng = np.random.default_rng(SEED)
    windows = rng.integers(0, 12, size=(200, WINDOW))
    dictionary = PatternDictionary(n=2, capacity=255, unseen_gain=2)
    dictionary.fit(windows)
    model = ExtremeLearningMachine(
        input_dim=dictionary.size, hidden_dim=hidden, seed=SEED
    ).fit(dictionary.features(windows))
    gpu = Gpu(num_cus=NUM_CUS, fast_path=True)
    drivers = [
        MlMiaowDriver(
            DeployedElm(model, dictionary, WINDOW), gpu, execute_on_gpu=True
        )
        for _ in range(tenants)
    ]
    inputs = [dictionary.indices(windows[i]) for i in range(tenants)]

    def run_single():
        for driver, indices in zip(drivers, inputs):
            driver.run_inference(indices)

    def run_batched():
        MlMiaowDriver.run_inference_batch(drivers, inputs)

    measured = {
        "single": _throughput(run_single, min_reps),
        "batched": _throughput(run_batched, min_reps),
    }
    for stats in measured.values():
        # each rep serves every tenant once: report aggregate inf/s
        stats["inferences_per_s"] = round(
            stats["inferences_per_s"] * tenants, 1
        )
    return {
        "kind": "elm",
        "hidden": hidden,
        "tenants": tenants,
        "single": measured["single"],
        "batched": measured["batched"],
        "batch_speedup": round(
            measured["batched"]["inferences_per_s"]
            / measured["single"]["inferences_per_s"],
            2,
        ),
        "gate": BATCH_SPEEDUP_GATE,
    }


def run_throughput(
    elm_sizes=ELM_SIZES,
    lstm_sizes=LSTM_SIZES,
    min_reps: int = 20,
    include_batched: bool = True,
) -> dict:
    rng = np.random.default_rng(SEED)
    windows = rng.integers(0, 12, size=(200, WINDOW))
    dictionary = PatternDictionary(n=2, capacity=255, unseen_gain=2)
    dictionary.fit(windows)
    indices = dictionary.indices(windows[0])

    def elm(hidden, fast):
        driver = _elm_driver(hidden, fast, dictionary, windows)
        return lambda: driver.run_inference(indices)

    def lstm(hidden, fast):
        driver = _lstm_driver(hidden, fast)
        return lambda: driver.run_inference(3)

    entries = []
    for kind, sizes, default, build in (
        ("elm", elm_sizes, ELM_DEFAULT_HIDDEN, elm),
        ("lstm", lstm_sizes, LSTM_DEFAULT_HIDDEN, lstm),
    ):
        for hidden in sizes:
            measured = _paired_speedup(
                build(hidden, False), build(hidden, True), min_reps
            )
            entries.append(
                {
                    "kind": kind,
                    "hidden": hidden,
                    "default_size": hidden == default,
                    **measured,
                }
            )
    result = {
        "benchmark": "mcm_throughput",
        "mode": "exact (execute_on_gpu=True)",
        "num_cus": NUM_CUS,
        "gate_speedup_at_default": SPEEDUP_GATE,
        "default_sizes": {
            "elm": ELM_DEFAULT_HIDDEN,
            "lstm": LSTM_DEFAULT_HIDDEN,
        },
        "models": entries,
    }
    if include_batched:
        result["batched"] = run_batched_throughput(
            hidden=max(elm_sizes), min_reps=max(3, min_reps // 4)
        )
    return result


def save_and_format(
    result: dict, smoke: bool = False, result_name: str = RESULT_NAME
) -> str:
    from bench_io import save_result

    result = dict(result, smoke=smoke)
    # One writer for both homes (results/ + repo root); the old
    # side-channel copy of the *pipeline* benchmark's file is gone —
    # every script mirrors its own result at write time.
    save_result(result_name, result)
    lines = []
    if result.get("models"):
        lines += [
            "mcm throughput: interpreter vs compiled fast path (exact mode)",
            f"{'model':>6}  {'hidden':>6}  {'interp inf/s':>13}  "
            f"{'compiled inf/s':>15}  {'speedup':>8}",
        ]
        for entry in result["models"]:
            marker = " *" if entry["default_size"] else ""
            lines.append(
                f"{entry['kind']:>6}  {entry['hidden']:>6}  "
                f"{entry['interpreter']['inferences_per_s']:>13,.0f}  "
                f"{entry['compiled']['inferences_per_s']:>15,.0f}  "
                f"{entry['speedup']:>7.2f}x{marker}"
            )
        lines.append("  (* = default deployment size, gated at "
                     f">= {SPEEDUP_GATE}x; speedup = median of the "
                     "interleaved pairs' ratios)")
    batched = result.get("batched")
    if batched:
        lines += [
            f"batched dispatch: {batched['tenants']} tenants, "
            f"elm h={batched['hidden']} (aggregate inf/s)",
            f"  single {batched['single']['inferences_per_s']:>12,.0f}  "
            f"batched {batched['batched']['inferences_per_s']:>12,.0f}  "
            f"{batched['batch_speedup']:.2f}x "
            f"(gated at >= {BATCH_SPEEDUP_GATE}x)",
        ]
    return "\n".join(lines)


def test_mcm_throughput():
    result = run_throughput()
    print()
    print(save_and_format(result))
    defaults = [e for e in result["models"] if e["default_size"]]
    assert {e["kind"] for e in defaults} == {"elm", "lstm"}
    for entry in defaults:
        assert entry["speedup"] >= SPEEDUP_GATE, (
            f"{entry['kind']} h={entry['hidden']} compiled path only "
            f"{entry['speedup']}x"
        )
    # the compiled path must never be slower, at any size
    for entry in result["models"]:
        assert entry["speedup"] >= 1.0, entry
    batched = result["batched"]
    assert batched["tenants"] >= BATCH_TENANTS
    assert batched["batch_speedup"] >= BATCH_SPEEDUP_GATE, (
        f"batched dispatch at {batched['tenants']} tenants only "
        f"{batched['batch_speedup']}x over single-dispatch"
    )


def main(argv) -> int:
    smoke = "--smoke" in argv
    batched_only = "--batched" in argv
    if batched_only:
        # CI runs this variant alongside the default smoke so both
        # BENCH_mcm.json flavours land in the artifact set.
        result = {
            "models": [],
            "batched": run_batched_throughput(
                hidden=min(SMOKE_ELM_SIZES) if smoke else max(ELM_SIZES),
                min_reps=3 if smoke else 10,
            ),
        }
        print(save_and_format(
            result, smoke=smoke, result_name=BATCHED_RESULT_NAME
        ))
        ok = result["batched"]["batch_speedup"] >= (
            1.0 if smoke else BATCH_SPEEDUP_GATE
        )
        return 0 if ok else 1
    if smoke:
        result = run_throughput(
            SMOKE_ELM_SIZES, SMOKE_LSTM_SIZES, min_reps=5
        )
    else:
        result = run_throughput()
    print(save_and_format(result, smoke=smoke))
    worst = min(entry["speedup"] for entry in result["models"])
    batch_ok = result["batched"]["batch_speedup"] >= (
        1.0 if smoke else BATCH_SPEEDUP_GATE
    )
    if smoke:
        return 0 if worst >= 1.0 and batch_ok else 1
    defaults_ok = all(
        entry["speedup"] >= SPEEDUP_GATE
        for entry in result["models"]
        if entry["default_size"]
    )
    return 0 if defaults_ok and worst >= 1.0 and batch_ok else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
