"""Experiment harness: one module per table/figure of the paper.

Every module exposes a ``run_*`` function.  The paper's tables and
figures pair it with a ``format_*`` helper that prints the same table
the paper shows, side by side with the paper's published numbers.  The
gated experiments (``chaos``, ``recovery``, ``parity``, ``soak`` and
the fleet sections) instead return a :class:`~repro.eval.report.Report`
dataclass that declares its checks and renders itself to text
(``format()``), JSON (``to_json()``) and the exit code
(``failures()``).  The benchmark suite (``benchmarks/``) wraps these
with pytest-benchmark.
"""

from repro.eval.report import format_table
from repro.eval.table1 import run_table1, format_table1
from repro.eval.table2 import run_table2, format_table2
from repro.eval.fig6 import run_fig6, format_fig6
from repro.eval.fig7 import run_fig7, format_fig7
from repro.eval.fig8 import run_fig8, format_fig8

__all__ = [
    "format_table",
    "run_table1",
    "format_table1",
    "run_table2",
    "format_table2",
    "run_fig6",
    "format_fig6",
    "run_fig7",
    "format_fig7",
    "run_fig8",
    "format_fig8",
]
