"""The paper's claims as checked by ``python -m repro.harness``, the
one-generator-per-file map of ``results/``, and one run per Fig. 6/7 cell."""

from __future__ import annotations

import csv
import os
from collections import Counter
from pathlib import Path

from repro.harness import experiment
from repro.harness.__main__ import main as harness_main
from repro.harness.artifacts import (
    ARTIFACTS,
    GENERATORS,
    aggregation,
    breakdown,
    mapsync,
    serializers,
)
from repro.harness.claims import READ_CLAIMS, WRITE_CLAIMS, check
from repro.perf.baseline import DEFAULT_BASELINE_PATH
from repro.service.__main__ import SATURATION_FILES
from repro.service.loadgen import LoadReport, saturation_checks
from repro.sim.resources import build_standard_resources
from repro.workloads import Domain3D

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


#: a domain small enough that the 48-rank cells take well under a second
SMALL = Domain3D(nvars=1, model_dims=(40, 40, 40), axis_scale=5)


def test_artifacts_run_no_figure_cell_twice(monkeypatch):
    """The sweep plus every artifact built from Fig. 6/7 jobs: no (driver,
    kwargs, nprocs, direction) job runs twice."""
    runs: Counter = Counter()

    def counted(job, direction):
        def run(ctx, workload, driver, path, kw=None, **extra):
            if ctx.rank == 0:   # once per Cluster.run
                runs[driver, tuple(sorted((kw or {}).items())),
                     ctx.nprocs, direction] += 1
            return job(ctx, workload, driver, path, kw, **extra)
        return run

    monkeypatch.setattr(experiment, "write_job",
                        counted(experiment.write_job, "write"))
    monkeypatch.setattr(experiment, "read_job",
                        counted(experiment.read_job, "read"))
    sweep = experiment.run_sweep(proc_counts=(8, 24, 48), workload=SMALL)
    assert len(runs) == len(sweep) == 30
    for generate in (breakdown, mapsync, serializers, aggregation):
        generate(SMALL, sweep)
    # cproto/cereal/raw write+read and 8/4 aggregators at 24p/48p
    assert len(runs) == 30 + 6 + 4
    assert [job for job, n in runs.items() if n > 1] == []


def _old_breakdown_fold(timing) -> dict[str, float]:
    """The reference E7 fold: mean over ranks per (phase, bucket), then
    summed per bucket."""
    nranks = len(timing.finish_ns) or 1
    detail: dict[tuple[str, str], float] = {}
    for (_rank, phase, bucket), ns in timing.breakdown.items():
        key = (phase, bucket)
        detail[key] = detail.get(key, 0.0) + ns / nranks
    buckets: dict[str, float] = {}
    for (_phase, bucket), ns in detail.items():
        buckets[bucket] = buckets.get(bucket, 0.0) + ns / 1e9
    return buckets


def test_job_buckets_equal_the_old_fold_over_a_plain_replay(monkeypatch):
    runs = []
    job_result = experiment._job_result
    monkeypatch.setattr(experiment, "_job_result",
                        lambda *a: runs.append(a[3]) or job_result(*a))
    for lib in ("PMCPY-B", "NetCDF"):
        out = experiment.run_io_experiment(lib, 4, SMALL)
        for r, res in zip(out, runs[-2:]):
            # a plain what-if replay of the same traces, as the breakdown
            # used to run; the job itself folds its causal replay
            plain = res.time(build_standard_resources(res.machine))
            assert r.buckets == _old_breakdown_fold(plain)
            assert r.seconds == plain.makespan_ns / 1e9
