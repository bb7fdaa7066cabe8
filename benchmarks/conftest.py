"""Shared helpers for the benchmark suite.

Every benchmark regenerates one paper artifact (figure/table) or one
ablation; the rendered output goes to stdout *and* ``results/`` so it
survives pytest's capture.  Run with::

    PYTHONPATH=src python -m pytest benchmarks/
"""

import os

import pytest

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "..", "results")


def emit(name: str, text: str) -> None:
    """Print a rendered artifact and persist it under results/."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{name}.txt")
    with open(path, "w") as f:
        f.write(text + "\n")
    print(f"\n{text}\n[saved {os.path.normpath(path)}]")


@pytest.fixture
def once():
    """Run the (deterministic) experiment exactly once: its figures are on
    the modeled clock, so repeating it would only re-measure the host."""

    def _run(fn, *args, **kwargs):
        return fn(*args, **kwargs)

    return _run
