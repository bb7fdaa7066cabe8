"""CLI: regenerate the paper's tables, figures and ablations, and check the
claims each one carries.

Usage::

    python -m repro.harness fig6            # Figs. 6 + 7 from one sweep
    python -m repro.harness fig7            # (same sweep, both figures)
    python -m repro.harness api             # §3 API complexity table
    python -m repro.harness breakdown       # E7 copy-path decomposition
    python -m repro.harness mapsync         # E4 (also: serializers, layouts,
                                            # collective_io, fill_ablation,
                                            # compression, aggregation,
                                            # partial_reads)
    python -m repro.harness all             # every artifact above
    options: --procs 8,16,24,32,48  --axis-scale 10  --out results/
             --profile   # print per-job I/O metric tables
             --trace-out DIR    # one Chrome/Perfetto trace JSON per job
             --metrics-out FILE # per-job typed metric registries (JSON)
             --critpath-out DIR # one repro-critpath/1 JSON per job
             --flame-out DIR    # one folded flamegraph stack file per job

Each artifact is written to ``--out`` as ``<name>.csv`` and ``<name>.txt``.
The exit status is 1 when any checked claim is violated; a figure claim is
checked only when ``--procs`` contains every process count it names.
"""

from __future__ import annotations

import argparse
import os
import sys

from ..workloads import Domain3D
from .artifacts import ARTIFACTS, GENERATORS, figures
from .experiment import PAPER_PROC_COUNTS, JobResult, run_sweep


def export_telemetry(args, results: list[JobResult]) -> None:
    """The per-job profile/trace/critpath/flame/metrics side outputs."""
    if args.profile:
        from ..telemetry import MetricRegistry

        for r in results:
            print(MetricRegistry.from_dict(r.metrics).render(
                f"{r.library} {r.direction} @{r.nprocs} procs — I/O telemetry"
            ))
            print()
    if args.trace_out:
        from ..telemetry.export import chrome_trace, write_json

        os.makedirs(args.trace_out, exist_ok=True)
        for r in results:
            doc = chrome_trace(r.spans, process_name=r.job_id())
            path = os.path.join(args.trace_out, f"{r.job_id()}.trace.json")
            write_json(path, doc)
            print(f"[trace] {path}")
    if args.critpath_out:
        from ..telemetry.export import write_json

        os.makedirs(args.critpath_out, exist_ok=True)
        for r in results:
            path = os.path.join(args.critpath_out,
                                f"{r.job_id()}.critpath.json")
            write_json(path, r.critpath)
            print(f"[critpath] {path}")
    if args.flame_out:
        from ..telemetry.flame import write_folded

        os.makedirs(args.flame_out, exist_ok=True)
        for r in results:
            path = os.path.join(args.flame_out, f"{r.job_id()}.folded")
            write_folded(path, r.spans)
            print(f"[flame] {path}")
    if args.metrics_out:
        from ..telemetry.export import write_json

        doc = {r.job_id(): r.metrics for r in results}
        write_json(args.metrics_out, doc)
        print(f"[metrics] {args.metrics_out}")


def main(argv=None) -> int:
    commands = sorted(set(ARTIFACTS.values())) + ["all"]
    ap = argparse.ArgumentParser(prog="repro.harness", description=__doc__)
    ap.add_argument("command", choices=commands)
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

    workload = Domain3D(axis_scale=args.axis_scale)
    artifacts = []
    sweep: list[JobResult] = []
    if args.command in ("fig6", "fig7", "all"):
        sweep = run_sweep(
            proc_counts=tuple(int(p) for p in args.procs.split(",")),
            workload=workload,
        )
        export_telemetry(args, sweep)
        artifacts += figures(workload, sweep)
    for name, generate in GENERATORS.items():
        if args.command in (name, "all"):
            artifacts.append(generate(workload, sweep))

    os.makedirs(args.out, exist_ok=True)
    failed = []
    for art in artifacts:
        art.write(args.out)
        print(art.render())
        print(f"[saved] {os.path.join(args.out, art.name)}.{{csv,txt}}\n")
        failed += [f"{art.name}: {claim}" for claim in art.failed]
    for line in failed:
        print(f"VIOLATED {line}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
