"""CLI: render and produce I/O observability artifacts.

Usage::

    # render the Darshan-style profile report from saved artifacts
    python -m repro.telemetry report --metrics results/metrics.json \
        --trace results/traces/pmemcpy_write_8p.trace.json [--job NAME]

    # fig6-style smoke across all six drivers, writing the artifacts
    python -m repro.telemetry smoke --out results/telemetry

``report`` consumes exactly what ``smoke`` (or ``python -m repro.harness
fig6 --trace-out/--metrics-out``) writes: a Chrome/Perfetto trace JSON per
job plus one metrics JSON keyed by job id.
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


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

def cmd_report(args) -> int:
    from .export import render_report, spans_from_chrome, spans_from_dicts
    from .metrics import MetricRegistry

    spans = None
    if args.trace:
        with open(args.trace) as f:
            doc = json.load(f)
        # accept either a chrome_trace document or a raw span-dict list
        spans = spans_from_chrome(doc) if isinstance(doc, dict) \
            else spans_from_dicts(doc)
    metrics = None
    if args.metrics:
        with open(args.metrics) as f:
            doc = json.load(f)
        # per-job file from --metrics-out, or a single registry dict
        if doc and all(isinstance(v, dict) and "kind" not in v
                       for v in doc.values()):
            if args.job:
                try:
                    doc = doc[args.job]
                except KeyError:
                    jobs = ", ".join(sorted(doc))
                    print(f"error: no job {args.job!r}; available: {jobs}",
                          file=sys.stderr)
                    return 2
            else:
                merged = MetricRegistry()
                for job_doc in doc.values():
                    merged.merge(MetricRegistry.from_dict(job_doc))
                metrics = merged
        if metrics is None:
            metrics = MetricRegistry.from_dict(doc)
    if spans is None and metrics is None:
        print("error: need --trace and/or --metrics", file=sys.stderr)
        return 2
    title = args.job or (os.path.basename(args.trace) if args.trace
                         else "I/O profile")
    if args.json:
        # machine-readable mirror of the rendered report, in the same
        # repro-critpath/1 shape ``perf doctor --json`` emits (the report
        # keys ride along as extras, which the schema allows) — one
        # validator covers both artifacts
        from .critpath import (
            CRITPATH_SCHEMA,
            critical_path_spans,
            critpath_doc,
            critpath_dumps,
            validate_critpath,
        )
        from .export import darshan_records, registry_percentiles
        from .spans import exclusive_ns_by_family

        extras = {
            "title": title,
            "span_count": len(spans) if spans else 0,
            "exclusive_ns_by_family":
                exclusive_ns_by_family(spans) if spans else {},
            "darshan": darshan_records(spans) if spans else [],
            "latency": registry_percentiles(metrics) if metrics else {},
            "metrics": metrics.as_dict() if metrics else {},
        }
        if spans:
            doc = critpath_doc(critical_path_spans(spans), **extras)
        else:
            # metrics-only report: no span forest to walk, so the
            # critical-path section is legitimately empty
            doc = {"schema": CRITPATH_SCHEMA, "source": "spans",
                   "total_ns": 0.0, "families": {}, **extras}
        errors = validate_critpath(doc)
        if errors:
            for e in errors[:5]:
                print(f"error: {e}", file=sys.stderr)
            return 1
        sys.stdout.write(critpath_dumps(doc))
        print()
        return 0
    print(render_report(metrics, spans, title=title))
    return 0


# ---------------------------------------------------------------------------
# smoke
# ---------------------------------------------------------------------------

def cmd_smoke(args) -> int:
    from .export import (
        chrome_trace,
        render_report,
        validate_chrome_trace,
        write_json,
    )
    from .metrics import MetricRegistry

    results = _run_smoke()
    trace_dir = os.path.join(args.out, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    metrics_path = os.path.join(args.out, "metrics.json")
    bad = 0
    for r in results:
        doc = chrome_trace(r.spans, process_name=r.job_id())
        errors = validate_chrome_trace(doc)
        if errors:
            bad += 1
            for e in errors[:5]:
                print(f"[invalid] {r.job_id()}: {e}", file=sys.stderr)
        path = write_json(
            os.path.join(trace_dir, f"{r.job_id()}.trace.json"), doc)
        print(f"[trace] {path}  ({len(r.spans)} spans)")
        print(render_report(MetricRegistry.from_dict(r.metrics), r.spans,
                            title=r.job_id()))
        print()
    write_json(metrics_path, {r.job_id(): r.metrics for r in results})
    print(f"[metrics] {metrics_path}")
    return 1 if bad else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="repro.telemetry", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("report", help="render the profile report")
    p.add_argument("--trace", default=None,
                   help="Chrome trace JSON (or raw span-dict list)")
    p.add_argument("--metrics", default=None,
                   help="metrics JSON (per-job map or single registry)")
    p.add_argument("--job", default=None,
                   help="job id to select from a per-job metrics file")
    p.add_argument("--json", action="store_true",
                   help="emit the report as machine-readable JSON")
    p.set_defaults(fn=cmd_report)

    p = sub.add_parser("smoke", help="fig6 smoke across all six drivers")
    p.add_argument("--out", default="results/telemetry")
    p.set_defaults(fn=cmd_smoke)

    args = ap.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
