"""Smoke tests: every example script must run cleanly end to end.

These are real subprocess runs of the shipped examples — the strongest
"does the public API actually work as documented" integration check."""

import os
import runpy
import subprocess
import sys

import pytest

BASE = os.path.normpath(os.path.join(os.path.dirname(__file__), "..", "examples"))
SRC = os.path.normpath(os.path.join(os.path.dirname(__file__), "..", "src"))

FAST_EXAMPLES = [
    "quickstart.py",
    "heat3d_stencil.py",
    "crash_recovery.py",
    "hierarchical_layout.py",
    "particle_checkpoint.py",
    "query_by_characteristics.py",
    "api_complexity/write_pmemcpy.py",
    "api_complexity/write_hdf5.py",
    "api_complexity/write_adios.py",
    "api_complexity/write_pnetcdf.py",
]

SLOW_EXAMPLES = [
    "s3d_checkpoint_restart.py",
]


def run_example(name: str, cwd: os.PathLike, timeout: int = 240
                ) -> subprocess.CompletedProcess:
    """Run one example script with ``cwd`` as its working directory, so
    files it writes (``results/...``) land there, not in the checkout."""
    # the examples import `repro` from a source checkout: make sure the
    # subprocess sees src/ regardless of how pytest itself was launched
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return subprocess.run(
        [sys.executable, os.path.join(BASE, name)],
        capture_output=True,
        text=True,
        timeout=timeout,
        cwd=cwd,
        env=env,
    )


@pytest.mark.parametrize("name", FAST_EXAMPLES)
def test_fast_example_runs(name, tmp_path):
    proc = run_example(name, tmp_path)
    assert proc.returncode == 0, f"{name} failed:\n{proc.stderr[-2000:]}"


@pytest.mark.parametrize("name", SLOW_EXAMPLES)
def test_slow_example_runs(name, tmp_path):
    proc = run_example(name, tmp_path, timeout=480)
    assert proc.returncode == 0, f"{name} failed:\n{proc.stderr[-2000:]}"


def test_quickstart_output_mentions_checksum(tmp_path):
    proc = run_example("quickstart.py", tmp_path)
    assert "checksum" in proc.stdout


def test_heat3d_restart_matches(tmp_path):
    """The example restarts exactly, and the trace it writes is the
    committed ``examples/results/heat3d.trace.json`` byte for byte, within
    the example's size budget."""
    proc = run_example("heat3d_stencil.py", tmp_path)
    assert "restart matches" in proc.stdout
    trace = "results/heat3d.trace.json"
    written = (tmp_path / trace).read_bytes()
    with open(os.path.join(BASE, trace), "rb") as f:
        assert written == f.read()
    example = runpy.run_path(os.path.join(BASE, "heat3d_stencil.py"))
    assert len(written) < example["TRACE_SIZE_BUDGET"]
