"""The paper's claims as checked by ``python -m repro.harness``, and the
one-generator-per-file map of ``results/``."""

from __future__ import annotations

import csv
import os
from pathlib import Path

from repro.harness.__main__ import main as harness_main
from repro.harness.artifacts import ARTIFACTS, GENERATORS
from repro.harness.claims import READ_CLAIMS, WRITE_CLAIMS, check
from repro.perf.baseline import DEFAULT_BASELINE_PATH
from repro.service.__main__ import SATURATION_FILES
from repro.service.loadgen import LoadReport, saturation_checks

RESULTS = Path(__file__).resolve().parents[1] / "results"


def _series(name: str) -> dict[str, dict[int, float]]:
    out: dict[str, dict[int, float]] = {}
    with open(RESULTS / name) as f:
        for row in csv.DictReader(f):
            out.setdefault(row["library"], {})[int(row["nprocs"])] = float(
                row["seconds"])
    return out


def test_committed_figures_pass_every_claim():
    for name, claims in (("fig6_writes.csv", WRITE_CLAIMS),
                         ("fig7_reads.csv", READ_CLAIMS)):
        checks = check(claims, _series(name))
        assert len(checks) == len(claims), name   # the sweep has 16..48
        assert all(ok for _, ok in checks), [c for c, ok in checks if not ok]


def test_inflated_pmcpy_a_writes_break_the_adios_band():
    series = _series("fig6_writes.csv")
    series["PMCPY-A"] = {p: 1.2 * t for p, t in series["PMCPY-A"].items()}
    failed = [c for c, ok in check(WRITE_CLAIMS, series) if not ok]
    assert any("ADIOS/PMCPY-A" in c for c in failed), failed


def test_claims_need_their_process_counts():
    small = {lib: {2: 1.0} for lib in _series("fig6_writes.csv")}
    assert check(WRITE_CLAIMS, small) == []
    assert check(READ_CLAIMS, small) == []


def test_committed_saturation_curve_passes_its_checks():
    with open(RESULTS / "service_saturation.csv") as f:
        reports = [LoadReport(clients=int(r["clients"]), duration_ms=0.0,
                              completed=int(r["completed"]),
                              reject_rate=float(r["reject_rate"]),
                              protocol_errors=int(r["protocol_errors"]))
                   for r in csv.DictReader(f)]
    checks = saturation_checks(reports)
    assert len(checks) == 4 and all(ok for _, ok in checks), checks


def test_api_command_regenerates_the_committed_table(tmp_path):
    assert harness_main(["api", "--out", str(tmp_path)]) == 0
    assert ((tmp_path / "api_complexity.csv").read_bytes()
            == (RESULTS / "api_complexity.csv").read_bytes())


def test_every_results_file_has_exactly_one_generator():
    owners = {
        "python -m repro.harness": {f"{stem}.{ext}" for stem in ARTIFACTS
                                    for ext in ("csv", "txt")},
        "python -m repro.perf update-baseline":
            {os.path.basename(DEFAULT_BASELINE_PATH)},
        "python -m repro.service bench": set(SATURATION_FILES),
    }
    files = {p.name for p in RESULTS.iterdir()}
    for name in sorted(files):
        assert len([o for o, owned in owners.items() if name in owned]) == 1, name
    # and no generator names a file that is not committed
    assert set().union(*owners.values()) <= files
    # every harness file's command has a generator (fig6/fig7: the sweep)
    assert set(ARTIFACTS.values()) == set(GENERATORS) | {"fig6", "fig7"}
