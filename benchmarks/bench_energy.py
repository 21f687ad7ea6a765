"""Energy per inference: the power-efficiency half of the trimming trade.

The paper claims area saving "can bring power efficiency" without
numbers; this bench produces them.  Same model, same inference, both
engines: ML-MIAOW retires the same instructions (equal dynamic energy)
but holds 5x the CUs in 1/5.5 the silicon of one full MIAOW — and
finishes sooner, so it leaks for less time.
"""

import numpy as np
import pytest

from conftest import save_result
from repro.eval.prep import get_bundle
from repro.eval.report import format_table
from repro.eval.table2 import run_table2
from repro.miaow.coverage import CoverageCollector
from repro.miaow.gpu import Gpu
from repro.synthesis.power import PowerModel


@pytest.fixture(scope="module")
def energy_reports():
    trim = run_table2()
    bundle = get_bundle("403.gcc", "elm")
    window = bundle.normal_ids[: bundle.window]
    reports = {}
    for name, cus, area in (
        ("MIAOW", 1, trim.full_area),
        ("ML-MIAOW", 5, trim.trimmed_area.times(5)),
    ):
        collector = CoverageCollector(name)
        gpu = Gpu(num_cus=cus, coverage=collector, name=name)
        deployment = bundle.make_deployment()
        deployment.load(gpu)
        result = deployment.infer(window)
        model = PowerModel(engine_area=area)
        reports[name] = model.energy_of_run(gpu, result.dispatches[0].cycles)
    return reports


def test_energy_per_inference(benchmark, energy_reports):
    bundle = get_bundle("403.gcc", "elm")

    def one():
        deployment = bundle.make_deployment()
        deployment.load(Gpu(num_cus=5))
        deployment.infer(bundle.normal_ids[: bundle.window])

    benchmark.pedantic(one, rounds=3, iterations=1)

    rows = []
    for name, report in energy_reports.items():
        rows.append(
            (
                name,
                round(report.elapsed_s * 1e6, 1),
                round(report.dynamic_pj / 1e6, 3),
                round(report.static_pj / 1e6, 3),
                round(report.total_uj, 3),
            )
        )
    miaow = energy_reports["MIAOW"]
    ml = energy_reports["ML-MIAOW"]
    rows.append(
        ("ratio", round(miaow.elapsed_s / ml.elapsed_s, 2),
         round(miaow.dynamic_pj / ml.dynamic_pj, 2),
         round(miaow.static_pj / ml.static_pj, 2),
         round(miaow.total_uj / ml.total_uj, 2))
    )
    save_result(
        "energy",
        format_table(
            ["engine", "latency us", "dynamic uJ", "static uJ",
             "total uJ"],
            rows,
            title="Energy per ELM inference (403.gcc)",
        ),
    )

    # Identical math => identical dynamic energy (same retired ops).
    assert miaow.dynamic_pj == pytest.approx(ml.dynamic_pj, rel=1e-6)
    # The trimmed engine leaks less: slightly less powered area, and
    # it finishes ~4x sooner.
    assert ml.static_pj < miaow.static_pj
    assert ml.total_uj < miaow.total_uj
    # Static advantage ≈ (area ratio) x (latency ratio).
    expected = (
        (ml.static_area_lutff / miaow.static_area_lutff)
        * (ml.elapsed_s / miaow.elapsed_s)
    )
    assert ml.static_pj / miaow.static_pj == pytest.approx(
        expected, rel=1e-6
    )
