"""Chaos harness: recovery invariants under swept fault rates."""

import json

import pytest

from repro.eval.chaos import (
    run_chaos,
    run_decoder_sweep,
    run_quarantine_scenario,
)
from repro.frontends import frontend_names

RATES = (0.0, 0.01)
EVENTS = 900


@pytest.fixture(scope="module")
def chaos():
    return run_chaos(rates=RATES, events=EVENTS, seed=0)


class TestChaosSweep:
    def test_zero_rate_decoder_point_is_lossless(self, chaos):
        point = chaos.decoder[0]
        assert point.rate == 0.0
        assert point.recovered_fraction == 1.0
        assert point.bytes_flipped == 0
        assert point.bytes_dropped == 0
        assert point.decoder_resyncs == 0

    def test_nonzero_rate_decoder_point_relocks(self, chaos):
        point = chaos.decoder[-1]
        assert point.bytes_flipped + point.bytes_dropped > 0
        # the hunt-mode decoder re-locked and kept producing branches
        assert point.decoder_resyncs > 0
        assert 0.0 < point.recovered_fraction < 1.0

    def test_zero_rate_dataplane_point_matches_baseline(self, chaos):
        point = chaos.dataplane[0]
        assert point.inferences == point.baseline_inferences
        assert point.matched == point.baseline_inferences
        assert point.flag_agreement == 1.0
        assert point.events_dropped == 0
        assert point.vectors_dropped == 0

    def test_nonzero_rate_dataplane_point_degrades_gracefully(self, chaos):
        point = chaos.dataplane[-1]
        assert point.events_dropped > 0
        assert point.inferences > 0  # faults thin the stream, not kill it

    def test_quarantine_scenario_preserves_healthy_tenants(self, chaos):
        quarantine = chaos.quarantine
        assert quarantine.quarantines >= 1
        assert quarantine.cancelled >= 1
        assert quarantine.healthy_always_identical

    def test_json_round_trip(self, chaos):
        payload = chaos.to_json()
        decoded = json.loads(json.dumps(payload, sort_keys=True))
        assert decoded["rates"] == list(RATES)
        assert decoded["events"] == EVENTS
        assert len(decoded["decoder"]) == len(RATES)
        assert len(decoded["dataplane"]) == len(RATES)
        assert decoded["quarantine"]["rounds"]

    def test_text_report_mentions_every_section(self, chaos):
        text = chaos.format()
        assert "decoder" in text.lower()
        assert "dataplane" in text.lower()
        assert "quarantine" in text.lower()


class TestChaosValidation:
    def test_invalid_rate_rejected(self):
        with pytest.raises(ValueError):
            run_chaos(rates=(1.5,), events=100, seed=0)
        with pytest.raises(ValueError):
            run_chaos(rates=(-0.1,), events=100, seed=0)

    def test_decoder_sweep_monotone_damage(self):
        for frontend in frontend_names():
            points = run_decoder_sweep(
                frontend, (0.0, 0.02), events=EVENTS, seed=0
            )
            assert points[0].recovered_fraction == 1.0
            assert (
                points[0].recovered_fraction
                >= points[1].recovered_fraction
            )
            # the torn tail is a counted truncation, never a gain
            assert all(
                p.torn_recovered_branches <= p.recovered_branches
                for p in points
            )

    def test_quarantine_full_lifecycle(self):
        # larger rounds make the stall plan trip in round 0, so the
        # sweep window sees quarantine -> skipped -> re-admission
        result = run_quarantine_scenario(events=6_000, seed=0)
        assert result.quarantines >= 1
        assert result.readmissions >= 1
        assert result.healthy_always_identical
        skipped = [r for r in result.rounds if r.skipped]
        assert skipped
        assert all(
            r.records[result.faulty_tenant] == 0 for r in skipped
        )
        assert all(
            r.healthy_identical is True for r in skipped
        )
