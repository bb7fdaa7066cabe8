"""Experiment harness: runs the paper's evaluations against the simulated
node and renders/exports the resulting tables and figures.

``python -m repro.harness <fig6|fig7|api|breakdown|...|all>`` is the one
generator of every paper and ablation artifact under ``results/``
(:mod:`.artifacts`); it checks the claims each artifact carries (the
Fig. 6/7 bands live in :mod:`.claims`) and exits non-zero on a violation.
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
