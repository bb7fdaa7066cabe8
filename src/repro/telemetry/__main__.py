"""CLI: produce and read the per-job telemetry directory.

Usage::

    # fig6-style smoke across all six drivers, writing the directory
    python -m repro.telemetry smoke --out results/telemetry

    # where did a job's time go: its critical path, then its registry
    python -m repro.telemetry report results/telemetry [--job NAME]

``report`` reads exactly what ``smoke`` (or ``python -m repro.harness
fig6 --telemetry-out DIR``) writes through
:func:`~repro.telemetry.export.write_jobs`: per job a Chrome/Perfetto
``<job>.trace.json`` and a ``<job>.critpath.json``, plus one
``metrics.json`` keyed by job id.  With no ``--job`` it prints every job's
critical path and the registries merged across jobs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

#: the fig6-style smoke matrix — every driver the harness ships, with
#: pmemcpy in the paper's PMCPY-B (map_sync) configuration
SMOKE_DRIVERS: dict[str, tuple[str, dict]] = {
    "adios": ("adios", {}),
    "hdf5": ("hdf5", {}),
    "netcdf4": ("netcdf4", {}),
    "pnetcdf": ("pnetcdf", {}),
    "posix": ("posix", {}),
    "pmemcpy": ("pmemcpy", {"map_sync": True}),
}

SMOKE_NPROCS = 4


def _smoke_workload():
    from ..workloads import Domain3D

    return Domain3D(nvars=1, model_dims=(80, 80, 80), axis_scale=10)


def _run_smoke(directions=("write",)):
    """One fig6-style smoke sweep: every driver, small domain, 4 ranks."""
    from ..harness.experiment import run_io_experiment

    workload = _smoke_workload()
    results = []
    for label, (driver, kw) in SMOKE_DRIVERS.items():
        results.extend(run_io_experiment(
            label, SMOKE_NPROCS, workload,
            directions=directions, driver_override=(driver, kw),
        ))
    return results


def render_job(job: str, critpath: dict, metrics: dict) -> str:
    """One job's profile: its critical path, then its metric registry."""
    from .critpath import render_critpath
    from .metrics import MetricRegistry

    return "\n".join((
        render_critpath(critpath, f"{job}: critical path"),
        MetricRegistry.from_dict(metrics).render(f"{job}: metric families"),
    ))


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

def cmd_report(args) -> int:
    from .critpath import render_critpath
    from .export import METRICS_FILE
    from .metrics import MetricRegistry

    try:
        with open(os.path.join(args.dir, METRICS_FILE)) as f:
            jobs = json.load(f)
    except FileNotFoundError:
        print(f"error: {args.dir} has no {METRICS_FILE}; write it with "
              f"`harness ... --telemetry-out` or `telemetry smoke`",
              file=sys.stderr)
        return 2
    if args.job is not None and args.job not in jobs:
        print(f"error: no job {args.job!r}; available: "
              f"{', '.join(sorted(jobs))}", file=sys.stderr)
        return 2

    def critpath(job: str) -> dict:
        with open(os.path.join(args.dir, f"{job}.critpath.json")) as f:
            return json.load(f)

    if args.job is not None:
        print(render_job(args.job, critpath(args.job), jobs[args.job]))
        return 0
    merged = MetricRegistry()
    for job in sorted(jobs):
        print(render_critpath(critpath(job), f"{job}: critical path"))
        merged.merge(MetricRegistry.from_dict(jobs[job]))
    print(merged.render(f"all {len(jobs)} jobs: metric families"))
    return 0


# ---------------------------------------------------------------------------
# smoke
# ---------------------------------------------------------------------------

def cmd_smoke(args) -> int:
    from .export import write_jobs

    results = _run_smoke()
    errors = write_jobs(args.out, results)
    for r in results:
        print(render_job(r.job_id(), r.critpath, r.metrics))
        print()
    for e in errors:
        print(f"[invalid] {e}", file=sys.stderr)
    print(f"[telemetry] {args.out} ({len(results)} jobs)")
    return 1 if errors else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="repro.telemetry", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("report", help="render the profile report")
    p.add_argument("dir", help="directory written by write_jobs")
    p.add_argument("--job", default=None,
                   help="render one job (default: every job)")
    p.set_defaults(fn=cmd_report)

    p = sub.add_parser("smoke", help="fig6 smoke across all six drivers")
    p.add_argument("--out", default="results/telemetry")
    p.set_defaults(fn=cmd_smoke)

    args = ap.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
