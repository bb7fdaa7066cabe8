"""Experiment harness: runs the paper's evaluations against the simulated
node and renders/exports the resulting tables and figures.

``python -m repro.harness <fig6|fig7|api|breakdown|...>`` regenerates each
artifact from the command line; the ``benchmarks/`` tree drives the same
entry points under pytest.
"""

from .experiment import (
    JobResult,
    PAPER_LIBRARIES,
    PAPER_PROC_COUNTS,
    run_io_experiment,
    run_sweep,
)
from .figures import ascii_chart, render_table, write_csv
from .tokens import count_source_metrics

__all__ = [
    "JobResult",
    "PAPER_LIBRARIES",
    "PAPER_PROC_COUNTS",
    "run_io_experiment",
    "run_sweep",
    "ascii_chart",
    "render_table",
    "write_csv",
    "count_source_metrics",
]
