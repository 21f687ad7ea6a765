"""Rendering and result protocol for the experiment harness.

:class:`Report` is the one result protocol of the gated experiments
(``chaos``, ``recovery``, ``parity``, ``soak`` and the fleet sections):
a dataclass declares its invariants in :meth:`Report.checks`, and the
base derives the failure list, the JSON document and a generic text
rendering from the fields.  :func:`record_signature` and
:func:`verdict_flags` are the two verdict identities the experiments
compare records by.
"""

from __future__ import annotations

import json
from dataclasses import asdict, fields, is_dataclass
from typing import Dict, Iterator, List, Sequence, Tuple

from repro.obs.export import snapshot_to_text

#: One declared invariant: whether it holds, and the failure message.
Check = Tuple[bool, str]


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str = "",
) -> str:
    """Render an aligned ASCII table."""
    table: List[List[str]] = [[str(h) for h in headers]]
    for row in rows:
        table.append([_fmt(cell) for cell in row])
    widths = [
        max(len(table[r][c]) for r in range(len(table)))
        for c in range(len(headers))
    ]
    lines = []
    if title:
        lines.append(title)
    separator = "-+-".join("-" * w for w in widths)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(table[0], widths)))
    lines.append(separator)
    for row in table[1:]:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def format_snapshot(snapshot: Dict[str, object], title: str = "metrics") -> str:
    """Render a :meth:`MetricsRegistry.snapshot` dict as text.

    The experiment harness's single entry point for metric dumps, so
    every ``python -m repro.eval`` surface renders them the same way.
    """
    return snapshot_to_text(snapshot, title=title)


def _fmt(cell: object) -> str:
    if isinstance(cell, float):
        if cell == 0:
            return "0"
        if abs(cell) >= 1000:
            return f"{cell:,.0f}"
        if abs(cell) >= 10:
            return f"{cell:.1f}"
        return f"{cell:.3f}"
    return str(cell)


# ----------------------------------------------------------------------
# Result protocol
# ----------------------------------------------------------------------


class Report:
    """Base of the gated experiment results (subclasses are dataclasses).

    A subclass declares its invariants by overriding :meth:`checks`;
    ``python -m repro.eval`` exits non-zero when any check fails.
    """

    def checks(self) -> Iterator[Check]:
        """Yield ``(ok, message)`` for every declared invariant."""
        return iter(())

    def failures(self) -> List[str]:
        """Messages of the violated checks; empty means the run passed."""
        return [message for ok, message in self.checks() if not ok]

    def to_json(self) -> Dict[str, object]:
        """Every field, plus the ``failures`` list."""
        document = asdict(self)
        document["failures"] = self.failures()
        return document

    def format(self) -> str:
        """Every field as text, then the check verdict."""
        failures = self.failures()
        verdict = f"{len(failures)} failed" if failures else "all passed"
        lines = [_render(self, type(self).__name__), "", f"checks: {verdict}"]
        lines += [f"  - {message}" for message in failures]
        return "\n".join(lines)


def _is_records(value: object) -> bool:
    """A non-empty list of dataclasses or dicts (rendered as rows)."""
    return (
        isinstance(value, (list, tuple))
        and bool(value)
        and all(is_dataclass(item) or isinstance(item, dict) for item in value)
    )


def _cell(value: object) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:g}"
    if value is None:
        return "-"
    if isinstance(value, dict):
        return " ".join(f"{k}={_cell(v)}" for k, v in value.items())
    if isinstance(value, (list, tuple)):
        return " ".join(_cell(item) for item in value)
    return str(value)


def _render(record: object, title: str) -> str:
    """Scalars as a key/value table, then one section per mapping,
    nested record and list of records."""
    scalars = []
    sections = []
    for item in fields(record):
        value = getattr(record, item.name)
        path = f"{title}.{item.name}"
        if is_dataclass(value):
            sections.append(_render(value, path))
        elif _is_records(value):
            sections.append(_render_rows(value, path))
        elif isinstance(value, dict) and value:
            sections.append(
                format_table(
                    ["key", "value"],
                    [(k, _cell(v)) for k, v in value.items()],
                    title=path,
                )
            )
        else:
            scalars.append((item.name, _cell(value)))
    head = format_table(["field", "value"], scalars, title=title)
    return "\n\n".join([head, *sections])


def _render_rows(records: Sequence[object], title: str) -> str:
    """One row per record; nested lists of records follow as their own
    sections."""
    rows = [r if isinstance(r, dict) else asdict(r) for r in records]
    nested = [c for c in rows[0] if _is_records(rows[0][c])]
    flat = [c for c in rows[0] if c not in nested]
    sections = [
        format_table(
            flat, [[_cell(row[c]) for c in flat] for row in rows], title=title
        )
    ]
    for index, row in enumerate(rows):
        for column in nested:
            if _is_records(row[column]):
                sections.append(
                    _render_rows(row[column], f"{title}[{index}].{column}")
                )
    return "\n\n".join(sections)


# ----------------------------------------------------------------------
# Verdict identities
# ----------------------------------------------------------------------


def record_signature(record) -> str:
    """One inference record as a canonical JSON string.

    The full identity for comparisons within one engine topology: any
    drift in any of the nine fields breaks equality.
    """
    return json.dumps(
        {
            "seq": int(record.sequence_number),
            "trigger": int(record.trigger_cycle),
            "arrival": float(record.arrival_ns),
            "start": float(record.start_ns),
            "done": float(record.done_ns),
            "score": float(record.score),
            "anomalous": record.anomalous,
            "gpu_cycles": int(record.gpu_cycles),
            "divergent": record.divergent,
        },
        sort_keys=True,
        separators=(",", ":"),
    )


def verdict_flags(records) -> List[Tuple[bool, float]]:
    """The ordered ``(anomalous, exact score)`` verdicts of a record run.

    The identity for comparisons across topologies (fleet vs solo,
    front door vs solo).  Sequence numbers and timestamps are
    engine-local: a shard's private engine numbers its dispatches
    differently than a shared one, and a record's timing depends on
    its neighbours, so neither is part of the verdict.
    """
    return [(bool(r.anomalous), float(r.score)) for r in records]
