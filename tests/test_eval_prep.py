"""Experiment preparation: bundles, caching, SoC wiring."""

import numpy as np
import pytest

from repro.eval.prep import (
    ELM_WINDOW,
    LSTM_SMOOTHING,
    ModelBundle,
    _rare_half,
    get_bundle,
    get_program,
    make_miaow,
    make_ml_miaow,
)


class TestRareHalf:
    def test_returns_less_frequent_ids(self):
        ids = np.array([1] * 50 + [2] * 30 + [3] * 5 + [4] * 2)
        rare = set(_rare_half(ids).tolist())
        assert 4 in rare and 3 in rare
        assert 1 not in rare

    def test_degenerate_repertoire(self):
        ids = np.array([7, 7, 7])
        assert set(_rare_half(ids).tolist()) == {7}


class TestEngines:
    def test_miaow_single_cu(self):
        gpu = make_miaow()
        assert gpu.num_cus == 1
        assert gpu.name == "MIAOW"

    def test_ml_miaow_five_cus(self):
        gpu = make_ml_miaow()
        assert gpu.num_cus == 5
        assert gpu.name == "ML-MIAOW"


class TestBundles:
    def test_program_cache(self):
        assert get_program("gcc") is get_program("403.gcc")

    def test_elm_bundle_contents(self):
        bundle = get_bundle("403.gcc", "elm")
        assert bundle.kind == "elm"
        assert bundle.window == ELM_WINDOW
        assert bundle.elm is not None and bundle.elm.fitted
        assert bundle.dictionary is not None
        assert len(bundle.normal_ids) > 1000
        assert bundle.detector.threshold > 0
        # gadget pool holds legitimate (training-observed) IDs that are
        # rare in the trial stream
        assert len(bundle.gadget_pool) >= 2
        assert all(0 < g <= 32 for g in bundle.gadget_pool)
        hot = np.unique(
            bundle.normal_ids, return_counts=True
        )
        hottest = int(hot[0][np.argmax(hot[1])])
        assert hottest not in set(bundle.gadget_pool.tolist())

    def test_bundle_cached(self):
        assert get_bundle("403.gcc", "elm") is get_bundle("gcc", "elm")

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            get_bundle("403.gcc", "svm")

    def test_elm_soc_wiring(self):
        bundle = get_bundle("403.gcc", "elm")
        soc = bundle.make_soc(make_ml_miaow(), execute_on_gpu=False)
        assert soc.mcm.driver.kind == "elm"
        assert soc.encoder.window == ELM_WINDOW
        assert soc.mcm.converter.kind == "elm"
        assert soc.mapper.size == len(bundle.monitored_addresses)

    def test_elm_soc_runs_stream(self):
        bundle = get_bundle("403.gcc", "elm")
        soc = bundle.make_soc(make_ml_miaow(), execute_on_gpu=False)
        interval_ns = bundle.mean_interval_us * 1e3
        ids = bundle.normal_ids[:80]
        times = np.arange(len(ids)) * interval_ns
        records = soc.run_monitored_stream(ids, times)
        assert len(records) == len(ids) - ELM_WINDOW + 1
        # sparse syscall arrivals never queue
        assert all(r.queue_ns == 0 for r in records)

    def test_fresh_soc_per_engine_isolated(self):
        bundle = get_bundle("403.gcc", "elm")
        soc_a = bundle.make_soc(make_miaow(), execute_on_gpu=False)
        soc_b = bundle.make_soc(make_ml_miaow(), execute_on_gpu=False)
        assert soc_a.mcm is not soc_b.mcm
        assert soc_a.mcm.driver.gpu is not soc_b.mcm.driver.gpu
