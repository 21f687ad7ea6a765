"""Every declared check of the gated eval harnesses fires.

Each harness runs once per module at CI-smoke size and must pass.  Each
case then edits a copy of that passing result so one check is violated,
and asserts the check's exact message reaches ``failures()`` and the
JSON document's ``"failures"`` list.
"""

import copy
import os
import tempfile

import pytest

from repro.eval.chaos import run_chaos
from repro.eval.fleet import run_fleet_metrics
from repro.eval.parity import run_parity
from repro.eval.recovery import run_recovery
from repro.eval.soak import run_soak


def _in_tempdir(directory, run):
    """Run with ``tempfile`` pointed at ``directory``."""
    saved = tempfile.tempdir
    tempfile.tempdir = str(directory)
    try:
        return run()
    finally:
        tempfile.tempdir = saved


@pytest.fixture(scope="module")
def chaos_tmp(tmp_path_factory):
    return tmp_path_factory.mktemp("chaos")


@pytest.fixture(scope="module")
def chaos(chaos_tmp):
    return _in_tempdir(
        chaos_tmp,
        lambda: run_chaos(rates=(0.0, 0.01), events=1500, seed=0),
    )


@pytest.fixture(scope="module")
def recovery():
    return run_recovery(seeds=(0,), kills_per_seed=1)


@pytest.fixture(scope="module")
def parity():
    return run_parity(kinds=("lstm",), events=4000, seed=0)


@pytest.fixture(scope="module")
def soak():
    return run_soak(clients=40, seed=0)


@pytest.fixture(scope="module")
def fleet_metrics_tmp(tmp_path_factory):
    return tmp_path_factory.mktemp("fleet-metrics")


@pytest.fixture(scope="module")
def fleet_metrics(fleet_metrics_tmp):
    return _in_tempdir(
        fleet_metrics_tmp, lambda: run_fleet_metrics(seed=0)
    )


# ----------------------------------------------------------------------
# Edits: each breaks one invariant and returns the expected message.
# ----------------------------------------------------------------------


def _parity_overdrive(r):
    r.kinds[0].runs[0].dropped_vectors = 3
    return (
        "lstm: workload overdrives the MCM (dropped vectors: "
        "coresight=3) — verdict parity is undefined under queue "
        "pressure, reduce --events"
    )


def _parity_verdicts(r):
    r.kinds[0].verdicts_match = False
    return (
        "lstm: detection verdicts diverge across frontends "
        "['coresight', 'etrace']"
    )


def _parity_vectors(r):
    r.kinds[0].vectors_match = False
    return (
        "lstm: IGM vector streams diverge across frontends "
        "['coresight', 'etrace']"
    )


def _parity_vacuous(r):
    r.kinds[0].runs[1].inferences = 0
    return (
        "lstm: frontend etrace produced no inferences (parity would "
        "be vacuous)"
    )


def _recovery_journaled(r):
    r.runs[0].journaled_identical = False
    return "batched/seed0: journaling perturbed the record stream"


def _recovery_kill(r):
    trial = r.runs[1].trials[0]
    trial.identical = False
    return (
        f"loop/seed0: kill at site {trial.kill_at} ({trial.site}) "
        "recovered to a divergent record log"
    )


def _recovery_flips(r):
    r.flips_detected -= 1
    return (
        f"journal byte flips: only {r.flips_detected}/"
        f"{r.flip_trials} detected"
    )


def _soak_crashes(r):
    r.overload_unarmed.dataplane_crashes = 2
    return "overload-unarmed: 2 dataplane crashes"


def _soak_unanswered(r):
    s = r.ratelimit
    s.frames_sent += 1
    return (
        f"ratelimit: {s.acks + s.sheds + s.errors} responses for "
        f"{s.frames_sent} data frames (every frame must be answered)"
    )


def _soak_unaccounted(r):
    s = r.overload_armed
    s.admitted_events += 5
    return (
        f"overload-armed: {s.admitted_events} admitted events != "
        f"{s.drained_events} drained + {s.stale_events} stale (shed "
        "work must be accounted, not lost)"
    )


def _soak_clients(r):
    r.clients += 1
    return (
        f"steady: only {r.steady.clients} clients ran "
        f"(requested {r.clients})"
    )


def _soak_errors(r):
    r.steady.errors += 2
    r.steady.acks -= 2
    return f"steady: {r.steady.errors} protocol errors on a clean fleet"


def _soak_latency(r):
    r.steady.latency_samples = 0
    return "steady: no ingest-to-verdict latency samples"


def _soak_never_shed(r):
    r.overload_armed.shed_counters["deadline"] = 0
    r.overload_armed.shed_counters["stale"] = 0
    return "overload-armed: deadline/stale shedding never fired"


def _soak_unbounded(r):
    r.overload_armed.p99_ms = 61.0
    r.overload_unarmed.p99_ms = 0.0
    return (
        "overload-armed: admitted p99 61.0 ms is not bounded by the "
        "30 ms deadline"
    )


def _soak_armed_worse(r):
    r.overload_armed.p99_ms = 90.0
    r.overload_unarmed.p99_ms = 70.0
    return (
        "overload: armed p99 90.0 ms exceeds unarmed p99 70.0 ms — the "
        "deadline did not bound the admitted tail"
    )


def _soak_never_refused(r):
    r.ratelimit.shed_counters["rate_limited"] = 0
    return "ratelimit: the token bucket never refused"


def _soak_no_retry(r):
    r.ratelimit.min_retry_after_ms = 0.0
    return "ratelimit: SHED responses carried no positive retry-after"


def _metrics_rounds_law(r):
    r.conservation_ok = False
    return (
        "fleet: counter conservation violated — admitted "
        f"{r.rounds_admitted} != fresh {r.shard_rounds} + replayed "
        f"{r.rounds_replayed}"
    )


def _metrics_dead(r):
    r.liveness[0]["alive"] = False
    return "fleet: 1 shard(s) not alive at report time"


def _metrics_bytes_law(r):
    r.transport_conservation_ok = False
    stats = r.transport_stats
    return (
        "fleet: transport byte conservation violated — staged "
        f"{stats['fleet.transport.bytes.staged']} != consumed "
        f"{stats['fleet.transport.bytes.consumed']} + discarded "
        f"{stats['fleet.transport.bytes.discarded']}"
    )


def _decoder_lossy(field, label):
    def edit(r):
        point = getattr(r, field)[0]
        point.clean_branches += 1
        return (
            f"{label}: rate-0 run recovered {point.recovered_branches}/"
            f"{point.clean_branches} branches (must be all)"
        )

    return edit


def _etrace_torn(r):
    point = r.decoder_etrace[-1]
    point.torn_recovered_branches = point.recovered_branches + 1
    return (
        "decoder[etrace]: torn-tail decode recovered more branches "
        "than the full stream"
    )


def _dataplane_inferences(r):
    point = r.dataplane[0]
    point.inferences += 1
    return (
        f"dataplane: rate-0 run produced {point.inferences} inferences "
        f"vs baseline {point.baseline_inferences}"
    )


def _dataplane_agreement(r):
    r.dataplane[0].flag_agreement = 0.5
    return (
        "dataplane: rate-0 run disagreed with baseline flags "
        "(agreement 0.500)"
    )


def _dataplane_injected(r):
    r.dataplane[0].events_dropped = 4
    return "dataplane: rate-0 run injected 4 faults"


def _quarantine(field, label, attr, value, message):
    def edit(r):
        setattr(getattr(r, field), attr, value)
        return f"{label}: {message}"

    return edit


def _connection(attr, value, message):
    def edit(r):
        setattr(r.connection, attr, value)
        return f"connection: {message}"

    return edit


def _connection_counter(counter, message):
    def edit(r):
        r.connection.server_counters[counter] = 0
        return f"connection: {message}"

    return edit


def _connection_acks(r):
    c = r.connection
    c.healthy_acks -= 1
    return (
        f"connection: the clean tenant saw {c.healthy_acks} acks for "
        f"{c.healthy_frames} frames (must be acked 1:1 — overload "
        "collateral)"
    )


def _fleet(attr, value, message):
    def edit(r):
        r.fleet.transports = {0: "shm", 1: "shm"}
        setattr(r.fleet, attr, value)
        return f"fleet: {message}"

    return edit


def _fleet_lost(r):
    r.fleet.killed_resumed_identical = False
    return (
        "fleet: the killed shard's tenants lost admitted rounds "
        f"({r.fleet.lost_rounds})"
    )


def _fleet_rounds_law(r):
    f = r.fleet
    f.conservation_ok = False
    return (
        "fleet: counter conservation violated — admitted "
        f"{f.rounds_admitted} != fresh {f.shard_rounds} + replayed "
        f"{f.rounds_replayed}"
    )


def _fleet_not_refed(r):
    r.fleet.rounds_refed = 0
    r.fleet.rounds_reconciled = 0
    return "fleet: the interrupted round was neither re-fed nor reconciled"


def _fleet_bytes_law(r):
    f = r.fleet
    f.transport_conservation_ok = False
    return (
        "fleet: transport byte conservation violated across the kill — "
        f"staged {f.transport_bytes_staged} != consumed "
        f"{f.transport_bytes_consumed} + discarded "
        f"{f.transport_bytes_discarded}"
    )


CASES = [
    ("parity", _parity_overdrive),
    ("parity", _parity_verdicts),
    ("parity", _parity_vectors),
    ("parity", _parity_vacuous),
    ("recovery", _recovery_journaled),
    ("recovery", _recovery_kill),
    ("recovery", _recovery_flips),
    ("soak", _soak_crashes),
    ("soak", _soak_unanswered),
    ("soak", _soak_unaccounted),
    ("soak", _soak_clients),
    ("soak", _soak_errors),
    ("soak", _soak_latency),
    ("soak", _soak_never_shed),
    ("soak", _soak_unbounded),
    ("soak", _soak_armed_worse),
    ("soak", _soak_never_refused),
    ("soak", _soak_no_retry),
    ("fleet_metrics", _metrics_rounds_law),
    ("fleet_metrics", _metrics_dead),
    ("fleet_metrics", _metrics_bytes_law),
    ("chaos", _decoder_lossy("decoder", "decoder")),
    ("chaos", _decoder_lossy("decoder_etrace", "decoder[etrace]")),
    ("chaos", _etrace_torn),
    ("chaos", _dataplane_inferences),
    ("chaos", _dataplane_agreement),
    ("chaos", _dataplane_injected),
] + [
    ("chaos", _quarantine(field, label, attr, value, message))
    for field, label in (
        ("quarantine", "quarantine"),
        ("quarantine_etrace", "quarantine[etrace]"),
    )
    for attr, value, message in (
        (
            "healthy_always_identical", False,
            "healthy tenants' records diverged from the fault-free "
            "reference",
        ),
        ("quarantines", 0, "the faulty tenant was never quarantined"),
        (
            "readmissions", 0,
            "the quarantined tenant was never re-admitted",
        ),
    )
] + [
    ("chaos", _connection(
        "healthy_always_identical", False,
        "the clean tenant's verdict flags diverged from the fault-free "
        "reference",
    )),
    ("chaos", _connection(
        "recovered_clean", False,
        "a recovery round (clean traffic everywhere) still diverged "
        "from the reference",
    )),
    ("chaos", _connection(
        "dataplane_crashes", 1, "1 dataplane crash(es) during drain"
    )),
    ("chaos", _connection(
        "slow_frames", 0, "the slow-loris channel never fired"
    )),
    ("chaos", _connection(
        "disconnects", 0, "the disconnect channel never fired"
    )),
    ("chaos", _connection(
        "corrupted_frames", 0, "the corrupt channel never fired"
    )),
    ("chaos", _connection(
        "flood_frames", 0, "the flood channel never fired"
    )),
    ("chaos", _connection_counter(
        "serve.clients.disconnected_midframe",
        "the server never observed a mid-frame disconnect",
    )),
    ("chaos", _connection_counter(
        "serve.decode.errors",
        "corrupted frames never reached the server's CRC check",
    )),
    ("chaos", _connection(
        "breaker_trips", 0,
        "no circuit breaker ever tripped under the flood",
    )),
    ("chaos", _connection_acks),
    ("chaos", _fleet(
        "restarts", 0, "the killed worker was never restarted"
    )),
    ("chaos", _fleet(
        "survivors_identical", False,
        "surviving tenants' verdict flags diverged from the solo "
        "fault-free reference",
    )),
    ("chaos", _fleet_lost),
    ("chaos", _fleet_rounds_law),
    ("chaos", _fleet_not_refed),
    ("chaos", _fleet_bytes_law),
    ("chaos", _fleet(
        "ring_reinits", 0,
        "the killed shard's shm ring was never re-initialized after "
        "recovery",
    )),
    ("chaos", _fleet(
        "transport_bytes_discarded", 0,
        "the mid-round kill discarded no staged bytes (the in-flight "
        "shm slot was not accounted)",
    )),
    ("chaos", _fleet(
        "rebalances", 0,
        "the load-aware placer never rebalanced the imbalanced leg",
    )),
    ("chaos", _fleet(
        "rebalance_identical", False,
        "rebalanced verdict flags diverged from the solo fault-free "
        "reference",
    )),
]

#: Checks that cannot fire alone: an armed p99 above the unarmed one,
#: both past twice the deadline, is also an unbounded armed p99.
_NOT_ALONE = {_soak_armed_worse}


@pytest.mark.parametrize(
    "harness", ["chaos", "recovery", "parity", "soak", "fleet_metrics"]
)
def test_smoke_run_passes(request, harness):
    result = request.getfixturevalue(harness)
    assert result.failures() == []
    assert result.to_json()["failures"] == []


@pytest.mark.parametrize(
    "harness,edit",
    CASES,
    ids=[f"{harness}-{index}" for index, (harness, _) in enumerate(CASES)],
)
def test_check_fires(request, harness, edit):
    result = copy.deepcopy(request.getfixturevalue(harness))
    message = edit(result)
    failures = result.failures()
    assert message in failures
    assert message in result.to_json()["failures"]
    if edit not in _NOT_ALONE:
        assert failures == [message]


def test_cli_reports_a_failed_check(monkeypatch, capsys, parity):
    import repro.eval.__main__ as cli

    broken = copy.deepcopy(parity)
    message = _parity_verdicts(broken)
    monkeypatch.setattr(cli, "run_parity", lambda **_: broken)
    assert cli.main(["parity", "--models", "lstm"]) == 1
    assert (
        f"INVARIANT FAILED - parity: {message}"
        in capsys.readouterr().err
    )


def test_fleet_runs_remove_their_journals(
    chaos, chaos_tmp, fleet_metrics, fleet_metrics_tmp
):
    assert os.listdir(chaos_tmp) == []
    assert os.listdir(fleet_metrics_tmp) == []
