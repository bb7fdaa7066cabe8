"""CLI: regenerate the paper's tables and figures.

Usage::

    python -m repro.harness fig6            # write perf (Fig. 6)
    python -m repro.harness fig7            # read perf (Fig. 7)
    python -m repro.harness api             # §3 API complexity table
    python -m repro.harness breakdown       # E7 copy-path decomposition
    python -m repro.harness utilization     # per-library resource bottlenecks
    python -m repro.harness all
    options: --procs 8,16,24,32,48  --axis-scale 12  --out results/
             --profile   # print per-job I/O metric tables
             --trace-out DIR    # one Chrome/Perfetto trace JSON per job
             --metrics-out FILE # per-job typed metric registries (JSON)
             --critpath-out DIR # one repro-critpath/1 JSON per job
             --flame-out DIR    # one folded flamegraph stack file per job
"""

from __future__ import annotations

import argparse
import os
import sys

from ..workloads import Domain3D
from .experiment import (
    PAPER_PROC_COUNTS,
    breakdown_experiment,
    run_sweep,
    series_from,
)
from .figures import ascii_chart, render_table, series_to_rows, write_csv
from .tokens import count_file_metrics

#: the paper's own counts for the equivalent C/C++ programs (§3)
PAPER_API_COUNTS = {
    "pmemcpy": {"lines": 16, "tokens": 132},
    "hdf5": {"lines": 42, "tokens": 253},
    "adios": {"lines": 24, "tokens": 164},
}


def _workload(args) -> Domain3D:
    return Domain3D(axis_scale=args.axis_scale)


def cmd_figures(args, directions) -> None:
    workload = _workload(args)
    procs = tuple(int(p) for p in args.procs.split(","))
    results = run_sweep(
        proc_counts=procs, workload=workload, directions=directions
    )
    if args.profile:
        from ..telemetry import MetricRegistry

        for r in results:
            print(MetricRegistry.from_dict(r.metrics).render(
                f"{r.library} {r.direction} @{r.nprocs} procs — I/O telemetry"
            ))
            print()
    if args.trace_out:
        from ..telemetry.export import (
            chrome_trace, spans_from_dicts, write_json,
        )

        os.makedirs(args.trace_out, exist_ok=True)
        for r in results:
            doc = chrome_trace(spans_from_dicts(r.spans),
                               process_name=r.job_id())
            path = os.path.join(args.trace_out, f"{r.job_id()}.trace.json")
            write_json(path, doc)
            print(f"[trace] {path}")
    if args.critpath_out:
        from ..telemetry.export import write_json

        os.makedirs(args.critpath_out, exist_ok=True)
        for r in results:
            if r.critpath is None:
                continue
            path = os.path.join(args.critpath_out,
                                f"{r.job_id()}.critpath.json")
            write_json(path, r.critpath)
            print(f"[critpath] {path}")
    if args.flame_out:
        from ..telemetry.export import spans_from_dicts
        from ..telemetry.flame import write_folded

        os.makedirs(args.flame_out, exist_ok=True)
        for r in results:
            path = os.path.join(args.flame_out, f"{r.job_id()}.folded")
            write_folded(path, spans_from_dicts(r.spans))
            print(f"[flame] {path}")
    if args.metrics_out:
        from ..telemetry.export import write_json

        doc = {r.job_id(): r.metrics for r in results}
        write_json(args.metrics_out, doc)
        print(f"[metrics] {args.metrics_out}")
    for direction, fig in (("write", "fig6"), ("read", "fig7")):
        if direction not in directions:
            continue
        series = series_from(results, direction)
        title = (
            f"Fig. {'6' if direction == 'write' else '7'}: "
            f"{direction} time of a "
            f"{workload.model_total_bytes / 1e9:.0f} GB 3-D domain "
            f"(modeled seconds)"
        )
        print(ascii_chart(title, series))
        print()
        rows = series_to_rows(series)
        path = write_csv(
            os.path.join(args.out, f"{fig}_{direction}.csv"),
            ["library", "nprocs", "seconds"],
            rows,
        )
        print(f"[csv] {path}")
        print(render_table(title, ["library", "nprocs", "seconds"], rows))
        print()


def cmd_api(args) -> None:
    base = os.path.join(os.path.dirname(__file__), "..", "..", "..",
                        "examples", "api_complexity")
    base = os.path.normpath(base)
    rows = []
    for lib in ("pmemcpy", "adios", "hdf5", "pnetcdf"):
        path = os.path.join(base, f"write_{lib}.py")
        if not os.path.exists(path):
            continue
        m = count_file_metrics(path)
        paper = PAPER_API_COUNTS.get(lib, {})
        rows.append((
            lib, m["lines"], m["tokens"],
            paper.get("lines", "-"), paper.get("tokens", "-"),
        ))
    table = render_table(
        "E3: API complexity — equivalent parallel 1-D array write",
        ["library", "lines (ours)", "tokens (ours)",
         "lines (paper)", "tokens (paper)"],
        rows,
    )
    print(table)
    write_csv(
        os.path.join(args.out, "api_complexity.csv"),
        ["library", "lines_ours", "tokens_ours", "lines_paper", "tokens_paper"],
        rows,
    )


def cmd_breakdown(args) -> None:
    res = breakdown_experiment(nprocs=24, workload=_workload(args))
    for label, dirs in res.items():
        for direction, pb in dirs.items():
            print(pb.render(f"{label} {direction} @24 procs"))
            print()


def cmd_utilization(args) -> None:
    from ..config import DEFAULT_MACHINE
    from ..sim import build_standard_resources, utilization
    from ..workloads import read_job, write_job
    from .experiment import PAPER_LIBRARIES, _cluster_for

    workload = _workload(args)
    resources = build_standard_resources(DEFAULT_MACHINE)
    for label, (driver, kw) in PAPER_LIBRARIES.items():
        cl = _cluster_for(workload, DEFAULT_MACHINE)
        res_w = cl.run(
            24, lambda ctx: write_job(ctx, workload, driver, "/pmem/u", kw)
        )
        res_r = cl.run(
            24, lambda ctx: read_job(ctx, workload, driver, "/pmem/u", kw)
        )
        for direction, res in (("write", res_w), ("read", res_r)):
            u = utilization(res.traces, res.time(), resources)
            print(u.render(f"{label} {direction} @24 procs"))
            print()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="repro.harness", description=__doc__)
    ap.add_argument("command", choices=["fig6", "fig7", "api", "breakdown", "utilization", "all"])
    ap.add_argument("--procs", default=",".join(map(str, PAPER_PROC_COUNTS)))
    ap.add_argument("--axis-scale", type=int, default=10,
                    help="shrink factor per axis for the functional pass")
    ap.add_argument("--out", default="results")
    ap.add_argument("--profile", action="store_true",
                    help="print the merged metric registry of each job")
    ap.add_argument("--trace-out", default=None, metavar="DIR",
                    help="write one Chrome/Perfetto trace JSON per job")
    ap.add_argument("--metrics-out", default=None, metavar="FILE",
                    help="write per-job typed metric registries as JSON")
    ap.add_argument("--critpath-out", default=None, metavar="DIR",
                    help="write one repro-critpath/1 JSON per job")
    ap.add_argument("--flame-out", default=None, metavar="DIR",
                    help="write one folded flamegraph stack file per job")
    args = ap.parse_args(argv)

    if args.command == "fig6":
        cmd_figures(args, ("write",))
    elif args.command == "fig7":
        cmd_figures(args, ("read",))
    elif args.command == "api":
        cmd_api(args)
    elif args.command == "breakdown":
        cmd_breakdown(args)
    elif args.command == "utilization":
        cmd_utilization(args)
    else:
        cmd_figures(args, ("write", "read"))
        cmd_api(args)
        cmd_breakdown(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
