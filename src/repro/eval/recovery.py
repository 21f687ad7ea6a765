"""``python -m repro.eval recovery`` — kill-and-replay crash recovery.

The durability contract under test (docs/DURABILITY.md): a journaled
multi-tenant run that is killed at an arbitrary crash point and then
recovered via :meth:`SocManager.recover` must deliver every round's
per-tenant inference records exactly once, *byte-identical* to the
uninterrupted run's per-round returns.

The harness, per dataplane (``batched`` and ``loop``) and per seed:

1. runs a **baseline** manager with no journal at all — journaling
   must be behaviourally invisible, so this is the reference;
2. runs the same rounds journaled end-to-end with a *counting-only*
   crash injector, checks the records still match the baseline, and
   learns the total number of crash sites;
3. picks several **distinct kill points** by hashing the existing
   ``TENANT_CRASH`` fault channel, re-runs the journaled deployment
   until the injected :class:`~repro.errors.ProcessCrashError` fires,
   reopens the journal (torn tails are truncated on reopen), recovers,
   re-feeds the rounds from :attr:`SocManager.next_round`, and
   compares the delivered stream against the baseline byte by byte:
   the rounds the victim returned before the kill, then the recovered
   manager's last round if the killed round committed, then the
   resumed rounds' returns;
4. flips single journal bytes (positions drawn from the ``BIT_FLIP``
   channel hash) and checks every flip is *detected* — surfaced as a
   :class:`~repro.errors.JournalCorruptionError` or as a truncated
   valid prefix, never silently replayed.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.durability.journal import FileJournal, MIN_RECORD_BYTES
from repro.errors import JournalCorruptionError, ProcessCrashError
from repro.eval.report import Check, Report, record_signature
from repro.faults.crashpoints import CrashPointInjector
from repro.faults.plan import FaultKind, FaultPlan, FaultSpec
from repro.mcm.mcm import InferenceRecord
from repro.obs import MetricsRegistry
from repro.soc.manager import SocManager

DEFAULT_SEEDS = (0, 1, 2)
DEFAULT_KILLS_PER_SEED = 3
_DATAPLANES = ("batched", "loop")


#: One round's per-tenant records, serialized.
RoundLog = Dict[str, List[str]]


def _round_log(records: Dict[str, List[InferenceRecord]]) -> RoundLog:
    return {
        name: [record_signature(r) for r in tenant_records]
        for name, tenant_records in records.items()
    }


def _run_rounds(manager: SocManager, rounds) -> List[RoundLog]:
    return [_round_log(manager.run_events(traces)) for traces in rounds]


@dataclass
class KillTrial:
    """One kill-and-replay round trip."""

    kill_at: int
    site: str
    crashed_round: int
    resumed_round: int
    identical: bool


@dataclass
class DataplaneRecoveryResult:
    """All trials for one (dataplane, seed) cell."""

    dataplane: str
    seed: int
    total_sites: int
    journaled_identical: bool
    trials: List[KillTrial] = field(default_factory=list)


@dataclass
class RecoveryResult(Report):
    kind: str
    rounds: int
    events_per_round: int
    tenants: int
    seeds: Tuple[int, ...]
    runs: List[DataplaneRecoveryResult] = field(default_factory=list)
    flip_trials: int = 0
    flips_detected: int = 0

    def checks(self) -> Iterator[Check]:
        for run in self.runs:
            where = f"{run.dataplane}/seed{run.seed}"
            yield run.journaled_identical, (
                f"{where}: journaling perturbed the record stream"
            )
            for trial in run.trials:
                yield trial.identical, (
                    f"{where}: kill at site {trial.kill_at} "
                    f"({trial.site}) recovered to a divergent record "
                    "log"
                )
        yield self.flips_detected >= self.flip_trials, (
            f"journal byte flips: only {self.flips_detected}/"
            f"{self.flip_trials} detected"
        )


class _Scenario:
    """One deployment shape: fixed traces, rebuildable managers."""

    def __init__(
        self,
        kind: str,
        dataplane: str,
        seed: int,
        rounds: int,
        events_per_round: int,
        tenants: int,
        journal_chunk_events: int,
        checkpoint_interval_events: int,
    ) -> None:
        from repro.eval.metrics import build_demo_deployments, demo_events

        self._build = lambda: build_demo_deployments(
            num_tenants=tenants,
            kind=kind,
            dataplane=dataplane,
        )
        self._options = dict(
            checkpoint_interval_events=checkpoint_interval_events,
            journal_chunk_events=journal_chunk_events,
        )
        self.traces = [
            {
                f"tenant{index}": demo_events(
                    kind,
                    0,
                    events_per_round,
                    run_label=(
                        f"recovery-s{seed}-t{index}-r{round_index}"
                    ),
                )
                for index in range(tenants)
            }
            for round_index in range(rounds)
        ]

    def manager(self, journal=None, crash_points=None) -> SocManager:
        return SocManager(
            self._build(),
            metrics=MetricsRegistry(),
            journal=journal,
            crash_points=crash_points,
            **self._options,
        )

    def recover(self, journal) -> SocManager:
        return SocManager.recover(
            journal, self._build(), metrics=MetricsRegistry(), **self._options
        )


def _pick_kill_points(
    seed: int, total_sites: int, count: int
) -> List[int]:
    """Distinct kill indexes from the TENANT_CRASH channel hash."""
    plan = FaultPlan(
        seed=seed, specs=(FaultSpec(FaultKind.TENANT_CRASH, rate=1.0),)
    )
    picks: List[int] = []
    draw = 0
    while len(picks) < min(count, total_sites):
        candidate = plan.value(FaultKind.TENANT_CRASH, draw) % total_sites
        draw += 1
        if candidate not in picks:
            picks.append(candidate)
    return picks


def _run_cell(
    scenario: _Scenario,
    dataplane: str,
    seed: int,
    baseline: List[RoundLog],
    kills: int,
    workdir: str,
) -> Tuple[DataplaneRecoveryResult, Optional[str]]:
    """One (dataplane, seed) cell; returns the result plus the path of
    a completed journal directory kept for the byte-flip trials."""
    # Journaled, uninterrupted: journaling must be invisible.
    clean_dir = os.path.join(workdir, "clean")
    counting = CrashPointInjector(kill_at=None)
    manager = scenario.manager(
        journal=FileJournal(clean_dir), crash_points=counting
    )
    journaled = _run_rounds(manager, scenario.traces)
    result = DataplaneRecoveryResult(
        dataplane=dataplane,
        seed=seed,
        total_sites=counting.sites_reached,
        journaled_identical=journaled == baseline,
    )
    for kill_at in _pick_kill_points(
        seed, counting.sites_reached, kills
    ):
        kill_dir = os.path.join(workdir, f"kill-{kill_at}")
        injector = CrashPointInjector(kill_at=kill_at)
        victim = scenario.manager(
            journal=FileJournal(kill_dir), crash_points=injector
        )
        crashed_round = -1
        delivered: List[RoundLog] = []
        try:
            for round_index, traces in enumerate(scenario.traces):
                delivered.append(_round_log(victim.run_events(traces)))
        except ProcessCrashError:
            crashed_round = round_index
        # Reopen (truncates any torn tail) and recover.
        recovered = scenario.recover(FileJournal(kill_dir))
        resumed = recovered.next_round
        if 0 <= crashed_round < resumed:
            # The killed round committed before its return was lost.
            delivered.append(_round_log(recovered.last_records))
        delivered += _run_rounds(recovered, scenario.traces[resumed:])
        result.trials.append(
            KillTrial(
                kill_at=kill_at,
                site=injector.fired_site or "(never fired)",
                crashed_round=crashed_round,
                resumed_round=resumed,
                identical=delivered == baseline,
            )
        )
    return result, clean_dir


def _flip_trials(
    journal_dir: str, seed: int, count: int, workdir: str
) -> Tuple[int, int]:
    """Flip single bytes of a completed journal; count detections.

    A flip is *detected* when the reopened scan either raises
    :class:`JournalCorruptionError` or returns strictly fewer records
    than the pristine journal (valid-prefix truncation).  A flip that
    goes unnoticed is a durability hole.
    """
    pristine = len(FileJournal(journal_dir).records())
    segments = sorted(
        name
        for name in os.listdir(journal_dir)
        if name.endswith(".wal")
        and os.path.getsize(os.path.join(journal_dir, name))
        >= MIN_RECORD_BYTES
    )
    if not segments:
        return 0, 0
    plan = FaultPlan(
        seed=seed, specs=(FaultSpec(FaultKind.BIT_FLIP, rate=1.0),)
    )
    detected = 0
    for trial in range(count):
        trial_dir = os.path.join(workdir, f"flip-{trial}")
        shutil.copytree(journal_dir, trial_dir)
        segment = segments[
            plan.value(FaultKind.BIT_FLIP, 2 * trial) % len(segments)
        ]
        path = os.path.join(trial_dir, segment)
        with open(path, "r+b") as handle:
            data = bytearray(handle.read())
            position = plan.value(FaultKind.BIT_FLIP, 2 * trial + 1) % len(
                data
            )
            bit = 1 << (plan.value(FaultKind.BIT_FLIP, trial) % 8)
            data[position] ^= bit
            handle.seek(0)
            handle.write(data)
        try:
            survived = len(FileJournal(trial_dir).records())
        except JournalCorruptionError:
            detected += 1
        else:
            if survived < pristine:
                detected += 1
    return count, detected


def run_recovery(
    kind: str = "lstm",
    seeds: Sequence[int] = DEFAULT_SEEDS,
    rounds: int = 3,
    events_per_round: int = 1200,
    tenants: int = 2,
    kills_per_seed: int = DEFAULT_KILLS_PER_SEED,
    flip_trials: int = 6,
) -> RecoveryResult:
    """Run the full kill-and-replay matrix (both dataplanes)."""
    result = RecoveryResult(
        kind=kind,
        rounds=rounds,
        events_per_round=events_per_round,
        tenants=tenants,
        seeds=tuple(seeds),
    )
    # Checkpoint roughly every other round, so recoveries exercise
    # both checkpoint restore and multi-round replay.
    round_events = events_per_round * tenants
    checkpoint_interval = 2 * round_events
    flip_journal: Optional[str] = None
    root = tempfile.mkdtemp(prefix="rtad-recovery-")
    try:
        for dataplane in _DATAPLANES:
            for seed in seeds:
                scenario = _Scenario(
                    kind,
                    dataplane,
                    seed,
                    rounds,
                    events_per_round,
                    tenants,
                    journal_chunk_events=512,
                    checkpoint_interval_events=checkpoint_interval,
                )
                workdir = os.path.join(root, f"{dataplane}-s{seed}")
                cell, clean_dir = _run_cell(
                    scenario,
                    dataplane,
                    seed,
                    _run_rounds(scenario.manager(), scenario.traces),
                    kills_per_seed,
                    workdir,
                )
                result.runs.append(cell)
                if flip_journal is None:
                    flip_journal = clean_dir
        if flip_journal is not None and flip_trials > 0:
            result.flip_trials, result.flips_detected = _flip_trials(
                flip_journal,
                seeds[0] if seeds else 0,
                flip_trials,
                os.path.join(root, "flips"),
            )
    finally:
        shutil.rmtree(root, ignore_errors=True)
    return result
