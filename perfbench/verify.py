"""Verdict checks and paper-model outputs, computed after the window.

Every round the system ran is replayed through a solo *reference*
:class:`~repro.soc.manager.SocManager` built the slow, obvious way:
the same model mode, ``dataplane="loop"``, ``batch_limit=1``.  The
reference mirrors the system's engine topology (one manager per fleet
shard, or one for a solo manager) and is fed the same rounds in the
same order, so each tenant's ``(anomalous, score)`` per record must
match bit for bit.

The paper-model outputs come from ``InferenceRecord`` timestamps on
the *simulated* clock of a canonical replay of the workload's inputs;
they are deterministic per seed and never mix with wall-clock numbers.
"""

from __future__ import annotations

import math
from typing import Dict, List, Mapping, Sequence, Tuple

from repro.eval.metrics import build_demo_deployments
from repro.fleet import demo_factory
from repro.serve import protocol
from repro.soc.clocks import CPU_CLOCK
from repro.soc.manager import SocManager

from perfbench import inputs


def signature(records) -> Tuple[Tuple[object, float], ...]:
    return tuple((record.anomalous, record.score) for record in records)


def verdicts(records: Mapping[str, list]) -> Dict[str, tuple]:
    """One round's records cut to what the check compares.

    The harness keeps every round until the window ends; tuples of
    plain values leave the garbage collector nothing to traverse, so
    the benchmark's own bookkeeping does not lengthen the program's
    collection pauses as the window goes on.
    """
    return {name: signature(recs) for name, recs in records.items()}


class Reference:
    """Reference managers mirroring one system's engine topology."""

    def __init__(
        self,
        groups: Sequence[Sequence[str]],
        frontends: Mapping[str, str],
        exact: bool,
    ) -> None:
        self.groups: List[Tuple[List[str], SocManager]] = []
        for names in groups:
            if exact:
                deployments = build_demo_deployments(
                    len(names),
                    kind=inputs.KIND,
                    seed=inputs.MODEL_SEED,
                    dataplane="loop",
                    execute_on_gpu=True,
                )
                if [d.name for d in deployments] != list(names):
                    raise ValueError(f"exact reference needs tenant0.., got {names}")
            else:
                deployments = demo_factory(
                    list(names),
                    kind=inputs.KIND,
                    seed=inputs.MODEL_SEED,
                    dataplane="loop",
                    frontends=dict(frontends),
                )
            self.groups.append((list(names), SocManager(deployments, batch_limit=1)))

    def run(self, traces: Mapping[str, Sequence]) -> Dict[str, list]:
        """One round through every group that has traffic.

        Returns the records of each tenant that had traffic; the
        per-group record lists stay in :attr:`last_groups` for the
        paper-model figures.
        """
        out: Dict[str, list] = {}
        self.last_groups: List[list] = []
        for names, manager in self.groups:
            part = {name: traces[name] for name in names if len(traces.get(name, ()))}
            if part:
                records = manager.run_events(part)
                out.update({name: records[name] for name in part})
                self.last_groups.append([r for name in part for r in records[name]])
        return out


def _decode(stream: inputs.Stream, decoder, index: int) -> list:
    payload = stream.payloads[index % len(stream.payloads)]
    if decoder is not None:
        return decoder.feed(payload)
    return list(protocol.decode_events_payload(payload))


def _decoder(stream: inputs.Stream):
    if stream.mode == protocol.MODE_RAW:
        return inputs.RawDecoder(stream.frontend)
    return None


def admitted_events(stream: inputs.Stream, log: Mapping[str, list]) -> list:
    """The event stream the server admitted for one connection.

    Frames are decoded in the order they were sent, exactly as the
    server decoded them; only ACKed frames' events were admitted, and
    a raw session's decoder tail is flushed when the session ends.
    """
    decoder = _decoder(stream)
    events: list = []
    answers = log["answer_type"]
    for index in range(len(log["sent_ns"])):
        decoded = _decode(stream, decoder, index)
        if index < len(answers) and answers[index] == protocol.FrameType.ACK:
            events.extend(decoded)
    if decoder is not None:
        events.extend(decoder.finish())
    return events


def canonical_rounds(streams: Sequence[inputs.Stream], count: int) -> List[dict]:
    """Fixed rounds for the paper model: ~256 source events per tenant
    each, cut from the start of every connection's frame sequence."""
    decoders = {stream.tenant: _decoder(stream) for stream in streams}
    rounds = []
    index = 0
    for _ in range(count):
        traces: Dict[str, list] = {stream.tenant: [] for stream in streams}
        group = max(1, 256 // streams[0].source(0))
        for offset in range(group):
            for stream in streams:
                traces[stream.tenant].extend(
                    _decode(stream, decoders[stream.tenant], index + offset)
                )
        index += group
        rounds.append(traces)
    return rounds


def mismatched_tenants(system: Mapping[str, tuple], reference: Mapping[str, list]):
    """Tenants whose per-record verdicts (:func:`verdicts`) differ from
    the reference's records."""
    return sorted(
        name
        for name in reference
        if system.get(name, ()) != signature(reference[name])
    )


def detect_us(record) -> float:
    """Branch-to-judgment latency of one record on the simulated clock."""
    return (record.done_ns - CPU_CLOCK.to_ns(record.trigger_cycle)) / 1e3


def model_outputs(rounds: Sequence[Sequence[list]]) -> Dict[str, float]:
    """Paper-model figures from a canonical replay.

    ``rounds`` holds, per replayed round, one record list per engine
    (:attr:`Reference.last_groups`).  ``model.makespan_us`` sums, over
    the rounds, the slowest engine's modeled makespan (last judgment
    minus first arrival): the modeled time the replay keeps the
    engines busy.
    """
    detects: List[float] = []
    makespan = 0.0
    for groups in rounds:
        slowest = 0.0
        for records in groups:
            detects.extend(detect_us(record) for record in records)
            if records:
                span = max(r.done_ns for r in records) - min(r.arrival_ns for r in records)
                slowest = max(slowest, span / 1e3)
        makespan += slowest
    if not detects:
        raise RuntimeError("canonical replay produced no inference records")
    return {
        "model.detect_p50_us": percentile(detects, 0.50),
        "model.detect_p99_us": percentile(detects, 0.99),
        "model.makespan_us": makespan,
    }


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1])."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = math.ceil(q * len(ordered))
    return ordered[min(len(ordered), max(1, rank)) - 1]
