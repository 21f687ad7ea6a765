"""Fleet experiments for the eval harness (docs/FLEET.md).

Two entry points, both deterministic:

- :func:`run_fleet_chaos` — the fleet-chaos experiment wired into
  ``python -m repro.eval chaos``: a worker shard is killed with a real
  ``kill -9`` mid-round (deterministically, at a named WAL crash site
  via :class:`~repro.faults.crashpoints.SigkillInjector`), the
  supervisor restarts it, the fresh worker recovers from its journal,
  and the coordinator re-feeds the interrupted round.  The invariants:
  surviving tenants' verdict flags are bit-identical to a solo
  fault-free reference, and the killed shard's tenants resume with
  **zero lost admitted rounds**.

- :func:`run_fleet_metrics` — the fleet section of
  ``python -m repro.eval metrics``: a short fleet run reporting the
  merged ``fleet.*`` counter namespace, per-shard liveness (shard id,
  pid, restarts, tenants hosted), and the counter conservation law
  ``fleet.rounds.admitted == sum(per-shard fresh rounds) +
  fleet.rounds.replayed`` — violated conservation is a non-zero exit.

Both results check the same two conservation laws (:func:`_laws`):
rounds admitted == fresh + replayed, and transport bytes staged ==
consumed + discarded.  Every fleet run journals under a temporary
directory that is removed when the run ends.
"""

from __future__ import annotations

import shutil
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.eval.report import Check, Report, verdict_flags

#: Fleet-experiment shape: 4 demo tenants over 2 shards.
FLEET_TENANTS = 4
FLEET_SHARDS = 2

#: The WAL site the chaos kill is armed at: the round's inputs are
#: fully journaled but the ROUND_COMMIT has not been written, so the
#: recovered worker must discard the tail and accept a re-feed.
KILL_SITE = "wal.chunk.done"


def _tenant_names(count: int) -> List[str]:
    return [f"tenant{index}" for index in range(count)]


@contextmanager
def _fleet(label: str, config) -> Iterator[object]:
    """A demo fleet journaling under a temporary directory that is
    removed once the fleet has shut down."""
    from repro.fleet import FleetCoordinator, demo_factory

    journal_root = tempfile.mkdtemp(prefix=f"repro-fleet-{label}-")
    try:
        with FleetCoordinator(
            demo_factory,
            _tenant_names(FLEET_TENANTS),
            journal_root,
            config,
        ) as fleet:
            yield fleet
    finally:
        shutil.rmtree(journal_root, ignore_errors=True)


# ----------------------------------------------------------------------
# The two conservation laws, shared by both results
# ----------------------------------------------------------------------


def _ledger(transport_stats: Dict[str, int]) -> Tuple[int, int, int]:
    """Transport bytes (staged, consumed, discarded)."""
    staged, consumed, discarded = (
        int(transport_stats.get(f"fleet.transport.bytes.{term}", 0))
        for term in ("staged", "consumed", "discarded")
    )
    return staged, consumed, discarded


def _laws(
    counters: Dict[str, int], transport_stats: Dict[str, int]
) -> Dict[str, object]:
    """Both laws' round terms and verdicts, keyed by result field."""
    admitted = int(counters.get("fleet.rounds.admitted", 0))
    fresh = sum(
        value
        for name, value in counters.items()
        if name.startswith("fleet.shard.") and name.endswith(".rounds")
    )
    replayed = int(counters.get("fleet.rounds.replayed", 0))
    staged, consumed, discarded = _ledger(transport_stats)
    return {
        "rounds_admitted": admitted,
        "shard_rounds": fresh,
        "rounds_replayed": replayed,
        "conservation_ok": admitted == fresh + replayed,
        "transport_conservation_ok": staged == consumed + discarded,
    }


def _law_checks(
    result, ledger: Tuple[int, int, int], during: str = ""
) -> Iterator[Check]:
    staged, consumed, discarded = ledger
    yield result.conservation_ok, (
        "fleet: counter conservation violated — admitted "
        f"{result.rounds_admitted} != fresh {result.shard_rounds} "
        f"+ replayed {result.rounds_replayed}"
    )
    yield result.transport_conservation_ok, (
        f"fleet: transport byte conservation violated{during} — "
        f"staged {staged} != consumed {consumed} + discarded "
        f"{discarded}"
    )


# ----------------------------------------------------------------------
# One leg: the same rounds through a solo reference and a fleet
# ----------------------------------------------------------------------


@dataclass
class _Leg:
    #: Per tenant, the rounds whose verdict flags diverged from (or
    #: never reached) the solo fault-free reference.
    lost_rounds: Dict[str, int]
    #: Tenants hosted per shard before the first round.
    shard_tenants: List[List[str]]
    counters: Dict[str, int]
    transport_stats: Dict[str, int]
    transports: Dict[int, str]

    def count(self, name: str) -> int:
        return int(self.counters.get(f"fleet.{name}", 0))


def _round_traces(
    label: str, events: Dict[str, int], kind: str, seed: int, index: int
) -> Dict[str, tuple]:
    """Round ``index`` of a fleet experiment: ``events[name]`` demo
    branch events per tenant."""
    from repro.eval.metrics import demo_events

    return {
        name: demo_events(
            kind, seed, count, run_label=f"fleet-{label}-{name}-r{index}"
        )
        for name, count in events.items()
    }


def _run_leg(
    label: str,
    config,
    events: Dict[str, int],
    rounds: int,
    kind: str,
    seed: int,
    before_round: Optional[Callable[[object, int], None]] = None,
) -> _Leg:
    """Run ``rounds`` on a solo fault-free manager and on a fleet, and
    compare each tenant-round's :func:`verdict_flags`."""
    from repro.eval.metrics import build_demo_manager

    names = _tenant_names(FLEET_TENANTS)
    traces = [
        _round_traces(label, events, kind, seed, index)
        for index in range(rounds)
    ]
    reference = build_demo_manager(FLEET_TENANTS, kind=kind, seed=seed)
    solo = []
    for round_traces in traces:
        records = reference.run_events(round_traces)
        solo.append({n: verdict_flags(records.get(n, [])) for n in names})
    lost = dict.fromkeys(names, 0)
    with _fleet(label, config) as fleet:
        shard_tenants = [list(shard.tenants) for shard in fleet.shards]
        for round_index in range(rounds):
            if before_round is not None:
                before_round(fleet, round_index)
            records = fleet.run_events(traces[round_index])
            for name in names:
                lost[name] += (
                    verdict_flags(records.get(name, []))
                    != solo[round_index][name]
                )
        return _Leg(
            lost_rounds=lost,
            shard_tenants=shard_tenants,
            counters=fleet.counters(),
            transport_stats=fleet.transport_stats(),
            transports=fleet.transport_names(),
        )


# ----------------------------------------------------------------------
# Fleet chaos: kill -9 a worker mid-round
# ----------------------------------------------------------------------


@dataclass
class FleetChaosResult(Report):
    shards: int
    tenants: int
    rounds: int
    kill_round: int
    kill_site: str
    killed_shard: int
    killed_tenants: List[str] = field(default_factory=list)
    surviving_tenants: List[str] = field(default_factory=list)
    restarts: int = 0
    workers_spawned: int = 0
    heartbeat_misses: int = 0
    rounds_refed: int = 0
    rounds_reconciled: int = 0
    rounds_replayed: int = 0
    rounds_admitted: int = 0
    shard_rounds: int = 0
    conservation_ok: bool = True
    #: Per-tenant rounds whose verdict flags diverged from (or never
    #: reached) the solo fault-free reference.  All-zero == no loss.
    lost_rounds: Dict[str, int] = field(default_factory=dict)
    survivors_identical: bool = True
    killed_resumed_identical: bool = True
    #: Transport state across the kill: the armed shard dies while a
    #: shm slot is in flight, so the dispatch's bytes are discarded,
    #: the respawned worker re-attaches a fresh ring generation, and
    #: the byte conservation law must survive the crash.
    transports: Dict[int, str] = field(default_factory=dict)
    transport_bytes_staged: int = 0
    transport_bytes_consumed: int = 0
    transport_bytes_discarded: int = 0
    transport_conservation_ok: bool = True
    ring_reinits: int = 0
    #: Load-aware placement leg: an imbalanced fleet with rebalancing
    #: enabled must migrate at least one tenant and still produce
    #: verdicts bit-identical to the solo fault-free reference.
    rebalances: int = 0
    rebalance_tenants_moved: int = 0
    rebalance_identical: bool = True

    def checks(self) -> Iterator[Check]:
        yield self.restarts >= 1, (
            "fleet: the killed worker was never restarted"
        )
        yield self.survivors_identical, (
            "fleet: surviving tenants' verdict flags diverged from "
            "the solo fault-free reference"
        )
        yield self.killed_resumed_identical, (
            "fleet: the killed shard's tenants lost admitted rounds "
            f"({self.lost_rounds})"
        )
        yield self.rounds_refed + self.rounds_reconciled >= 1, (
            "fleet: the interrupted round was neither re-fed nor "
            "reconciled"
        )
        yield from _law_checks(
            self,
            (
                self.transport_bytes_staged,
                self.transport_bytes_consumed,
                self.transport_bytes_discarded,
            ),
            during=" across the kill",
        )
        shm = "shm" in self.transports.values()
        yield not shm or self.ring_reinits >= 1, (
            "fleet: the killed shard's shm ring was never "
            "re-initialized after recovery"
        )
        yield not shm or self.transport_bytes_discarded >= 1, (
            "fleet: the mid-round kill discarded no staged bytes "
            "(the in-flight shm slot was not accounted)"
        )
        yield self.rebalances >= 1, (
            "fleet: the load-aware placer never rebalanced the "
            "imbalanced leg"
        )
        yield self.rebalance_identical, (
            "fleet: rebalanced verdict flags diverged from the solo "
            "fault-free reference"
        )


def run_fleet_chaos(
    events: int = 6_000,
    seed: int = 0,
    kind: str = "lstm",
    shards: int = FLEET_SHARDS,
    rounds: int = 3,
    kill_round: int = 1,
    killed_shard: int = 0,
    kill_site: str = KILL_SITE,
) -> FleetChaosResult:
    """Kill a worker mid-round; prove nothing was lost or perturbed.

    Fully deterministic: the kill is armed at a WAL crash site (same
    site index dies on every run), rounds are fixed-seed CFG walks,
    and every comparison is exact — no timers, no races.
    """
    from repro.fleet import FleetConfig

    names = _tenant_names(FLEET_TENANTS)
    per_round = max(200, events // rounds // FLEET_TENANTS)

    def arm(fleet, round_index: int) -> None:
        if round_index == kill_round:
            fleet.arm_kill(killed_shard, kill_site, 0)

    # Kill leg: the solo reference runs every tenant on one manager
    # with no kill; the surviving AND recovered tenants must match it
    # bit-for-bit.
    kill = _run_leg(
        "chaos",
        FleetConfig(num_shards=shards),
        dict.fromkeys(names, per_round),
        rounds,
        kind,
        seed,
        before_round=arm,
    )
    # Rebalance leg: load-aware placement under deliberately imbalanced
    # load.  tenant0 offers 4x the events of its peers, so its shard's
    # modeled-makespan EWMA exceeds the coldest shard's by far more
    # than the rebalance ratio once warm-up passes; the placer must
    # migrate a tenant at a round boundary via the same checkpoint
    # handoff the crash path uses, and the verdict flags of *every*
    # tenant must stay bit-identical to the solo reference.
    rebalance = _run_leg(
        "rebalance",
        FleetConfig(
            num_shards=shards,
            rebalance_ratio=1.2,
            rebalance_warmup_rounds=1,
            rebalance_cooldown_rounds=1,
        ),
        {name: 1200 if name == names[0] else 300 for name in names},
        4,
        kind,
        seed,
    )
    killed = kill.shard_tenants[killed_shard]
    stats = kill.transport_stats
    staged, consumed, discarded = _ledger(stats)
    return FleetChaosResult(
        shards=shards,
        tenants=FLEET_TENANTS,
        rounds=rounds,
        kill_round=kill_round,
        kill_site=kill_site,
        killed_shard=killed_shard,
        killed_tenants=killed,
        surviving_tenants=[n for n in names if n not in killed],
        restarts=kill.count("restarts"),
        workers_spawned=kill.count("workers.spawned"),
        heartbeat_misses=kill.count("heartbeat.misses"),
        rounds_refed=kill.count("rounds.refed"),
        rounds_reconciled=kill.count("rounds.reconciled"),
        lost_rounds=kill.lost_rounds,
        survivors_identical=not any(
            kill.lost_rounds[n] for n in names if n not in killed
        ),
        killed_resumed_identical=not any(kill.lost_rounds[n] for n in killed),
        transports=kill.transports,
        transport_bytes_staged=staged,
        transport_bytes_consumed=consumed,
        transport_bytes_discarded=discarded,
        ring_reinits=int(stats.get("fleet.transport.shm.reinits", 0)),
        rebalances=rebalance.count("placement.rebalances"),
        rebalance_tenants_moved=rebalance.count("placement.tenants_moved"),
        rebalance_identical=not any(rebalance.lost_rounds.values()),
        **_laws(kill.counters, stats),
    )


# ----------------------------------------------------------------------
# Fleet metrics: merged counters + per-shard liveness
# ----------------------------------------------------------------------


@dataclass
class FleetMetricsResult(Report):
    shards: int
    tenants: int
    rounds: int
    events: int
    verdicts: int
    counters: Dict[str, int] = field(default_factory=dict)
    liveness: List[Dict[str, object]] = field(default_factory=list)
    health: Dict[str, str] = field(default_factory=dict)
    rounds_admitted: int = 0
    shard_rounds: int = 0
    rounds_replayed: int = 0
    conservation_ok: bool = True
    #: Per-shard active transport and the transport byte ledger
    #: (includes the wall-clock ``fleet.transport.*ns`` counters the
    #: merged byte-identity snapshot deliberately omits).
    transports: Dict[int, str] = field(default_factory=dict)
    transport_stats: Dict[str, int] = field(default_factory=dict)
    transport_conservation_ok: bool = True
    #: Load-aware placement surface: the sticky tenant->shard routing
    #: table and its epoch at report time.
    routing: Dict[str, int] = field(default_factory=dict)
    placement_epoch: int = 0

    def checks(self) -> Iterator[Check]:
        yield from _law_checks(self, _ledger(self.transport_stats))
        dead = [row for row in self.liveness if not row["alive"]]
        yield not dead, f"fleet: {len(dead)} shard(s) not alive at report time"


def run_fleet_metrics(
    events: int = 4_000,
    seed: int = 0,
    kind: str = "lstm",
    shards: int = FLEET_SHARDS,
    rounds: int = 2,
) -> FleetMetricsResult:
    """A short fault-free fleet run for the metrics report."""
    from repro.fleet import FleetConfig

    per_round = max(200, events // rounds // FLEET_TENANTS)
    workload = dict.fromkeys(_tenant_names(FLEET_TENANTS), per_round)
    verdicts = 0
    with _fleet("metrics", FleetConfig(num_shards=shards)) as fleet:
        for index in range(rounds):
            records = fleet.run_events(
                _round_traces("metrics", workload, kind, seed, index)
            )
            verdicts += sum(len(r) for r in records.values())
        counters = {
            name: int(value)
            for name, value in sorted(fleet.counters().items())
        }
        transport_stats = {
            name: int(value)
            for name, value in sorted(fleet.transport_stats().items())
        }
        return FleetMetricsResult(
            shards=shards,
            tenants=FLEET_TENANTS,
            rounds=rounds,
            events=per_round * FLEET_TENANTS * rounds,
            verdicts=verdicts,
            counters=counters,
            liveness=fleet.liveness(),
            health={
                name: state.value
                for name, state in fleet.health().items()
            },
            transports=fleet.transport_names(),
            transport_stats=transport_stats,
            routing=dict(fleet.routing_table()),
            placement_epoch=fleet.placement_epoch,
            **_laws(counters, transport_stats),
        )
