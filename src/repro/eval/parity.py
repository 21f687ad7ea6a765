"""``python -m repro.eval parity`` — cross-frontend detection parity.

The frontend refactor's end-to-end gate: the same CFG-walker branch
stream, run once per trace grammar (CoreSight PTM/TPIU vs RISC-V
E-Trace/ETP), must reach *identical* detection — same inference
sequence numbers, same scores, same anomalous flags — and the IGM
must see the *identical* vector stream.  The two frontends differ
only in how branch events are serialized to bytes; the address
mapper and vector encoder downstream are shared, so any divergence
is a frontend bug, not noise.

Two comparisons per model kind:

1. **Verdict parity** — full ``RtadSoc.run_events`` per frontend on a
   shared demo stream; records compared by (sequence number, score,
   anomalous flag).
2. **Vector parity** — a bare trace pipeline (mapper + encoder + a
   capturing sink) per frontend on the same stream; the IGM vector
   sequence is digested (sequence number, trigger address/cycle,
   vector values) and compared byte-for-byte.

``python -m repro.eval parity`` exits non-zero on any mismatch
(:meth:`ParityResult.checks`).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence

from repro.eval.report import Check, Report
from repro.igm.vector_encoder import EncoderMode, InputVector, VectorEncoder

#: The grammars compared by default — every frontend.
DEFAULT_FRONTENDS = ("coresight", "etrace")


@dataclass
class FrontendRun:
    """One frontend's observable outputs on the shared stream."""

    frontend: str
    inferences: int
    anomalous: int
    verdict_digest: str
    vectors: int
    vector_digest: str
    #: MCM queue-pressure drops during the run.  Verdict parity is
    #: only defined for a drop-free workload: which vectors a busy
    #: MCM sheds depends on delivery *timestamps*, and those
    #: legitimately differ between grammars.
    dropped_vectors: int = 0


@dataclass
class ParityKindResult:
    """Parity comparison for one model kind."""

    kind: str
    events: int
    runs: List[FrontendRun] = field(default_factory=list)
    verdicts_match: bool = True
    vectors_match: bool = True

    @property
    def parity(self) -> bool:
        return self.verdicts_match and self.vectors_match


@dataclass
class ParityResult(Report):
    seed: int
    events: int
    frontends: Sequence[str]
    kinds: List[ParityKindResult] = field(default_factory=list)

    @property
    def parity(self) -> bool:
        return all(kind.parity for kind in self.kinds)

    def checks(self) -> Iterator[Check]:
        frontends = list(self.frontends)
        for kind in self.kinds:
            drops = ", ".join(
                f"{run.frontend}={run.dropped_vectors}"
                for run in kind.runs
                if run.dropped_vectors > 0
            )
            yield not drops, (
                f"{kind.kind}: workload overdrives the MCM "
                f"(dropped vectors: {drops}) — verdict parity is "
                "undefined under queue pressure, reduce --events"
            )
            # Verdict parity is undefined (not violated) under drops.
            yield bool(drops) or kind.verdicts_match, (
                f"{kind.kind}: detection verdicts diverge across "
                f"frontends {frontends}"
            )
            yield kind.vectors_match, (
                f"{kind.kind}: IGM vector streams diverge across "
                f"frontends {frontends}"
            )
            for run in kind.runs:
                yield run.inferences != 0, (
                    f"{kind.kind}: frontend {run.frontend} produced "
                    "no inferences (parity would be vacuous)"
                )

    def to_json(self) -> Dict[str, object]:
        document = super().to_json()
        document["parity"] = self.parity
        for kind, entry in zip(self.kinds, document["kinds"]):
            entry["parity"] = kind.parity
        return document


def _digest(lines: Sequence[str]) -> str:
    hasher = hashlib.sha256()
    for line in lines:
        hasher.update(line.encode("ascii"))
        hasher.update(b"\n")
    return hasher.hexdigest()


def _vector_line(vector: InputVector) -> str:
    values = ",".join(f"{value:.9g}" for value in vector.values.tolist())
    return (
        f"{vector.sequence_number}:{vector.trigger_address:#x}:"
        f"{vector.trigger_cycle}:[{values}]"
    )


def _capture_vectors(
    frontend_name: str, soc, events
) -> List[InputVector]:
    """The IGM vector stream a bare pipeline produces for a frontend.

    Reuses the SoC's (stateless after load) address mapper with a
    fresh encoder, so the capture matches the detection run's mapper
    configuration exactly.
    """
    from repro.frontends import get_frontend
    from repro.pipeline import build_trace_pipeline

    encoder = VectorEncoder(
        mode=EncoderMode.SEQUENCE,
        window=soc.encoder.window,
        vocabulary_size=soc.mapper.size + 1,
    )
    captured: List[InputVector] = []
    pipeline = build_trace_pipeline(
        soc.mapper,
        encoder,
        lambda vector, _deliver_ns: captured.append(vector),
        frontend=get_frontend(frontend_name),
    )
    pipeline.run(events)
    return captured


def run_parity(
    kinds: Optional[Sequence[str]] = None,
    events: int = 4_000,
    seed: int = 0,
    frontends: Sequence[str] = DEFAULT_FRONTENDS,
) -> ParityResult:
    """Run the cross-frontend parity comparison.

    The default workload is sized to stay within MCM service
    capacity: under overload the MCM sheds vectors by arrival time,
    and arrival times legitimately differ between grammars, so
    verdict parity is undefined (the failure report says so
    explicitly rather than reporting a spurious divergence).
    """
    from repro.eval.metrics import DEMO_KINDS, build_demo_soc, demo_events

    result = ParityResult(
        seed=seed, events=events, frontends=tuple(frontends)
    )
    for kind in kinds or DEMO_KINDS:
        stream = demo_events(
            kind, seed, events, run_label=f"parity-{kind}"
        )
        kind_result = ParityKindResult(kind=kind, events=len(stream))
        for name in frontends:
            soc = build_demo_soc(kind, seed=seed, frontend=name)
            records = soc.run_events(stream)
            verdict_lines = [
                f"{r.sequence_number}:{r.score:.9g}:{int(bool(r.anomalous))}"
                for r in records
            ]
            vectors = _capture_vectors(name, soc, stream)
            run = FrontendRun(
                frontend=name,
                inferences=len(records),
                anomalous=sum(1 for r in records if r.anomalous),
                verdict_digest=_digest(verdict_lines),
                vectors=len(vectors),
                vector_digest=_digest(
                    [_vector_line(v) for v in vectors]
                ),
                dropped_vectors=soc.mcm.dropped_vectors,
            )
            kind_result.runs.append(run)
        runs = kind_result.runs
        kind_result.verdicts_match = len({r.verdict_digest for r in runs}) == 1
        kind_result.vectors_match = len({r.vector_digest for r in runs}) == 1
        result.kinds.append(kind_result)
    return result
