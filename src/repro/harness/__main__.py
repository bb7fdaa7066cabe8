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
             --telemetry-out DIR  # per-job trace + critical path, and
                                  # the registries; read it back with
                                  # python -m repro.telemetry report DIR

Each artifact is written to ``--out`` as ``<name>.csv`` and ``<name>.txt``.
The exit status is 1 when any checked claim is violated (or a written
trace fails its schema); a figure claim is checked only when ``--procs``
contains every process count it names.
"""

from __future__ import annotations

import argparse
import os
import sys

from ..workloads import Domain3D
from .artifacts import ARTIFACTS, GENERATORS, figures
from .experiment import PAPER_PROC_COUNTS, JobResult, run_sweep


def main(argv=None) -> int:
    commands = sorted(set(ARTIFACTS.values())) + ["all"]
    ap = argparse.ArgumentParser(prog="repro.harness", description=__doc__)
    ap.add_argument("command", choices=commands)
    ap.add_argument("--procs", default=",".join(map(str, PAPER_PROC_COUNTS)))
    ap.add_argument("--axis-scale", type=int, default=10,
                    help="shrink factor per axis for the functional pass")
    ap.add_argument("--out", default="results")
    ap.add_argument("--telemetry-out", default=None, metavar="DIR",
                    help="write each job's trace and critical path, and "
                         "the per-job registries, to DIR")
    args = ap.parse_args(argv)

    workload = Domain3D(axis_scale=args.axis_scale)
    artifacts = []
    failed = []
    sweep: list[JobResult] = []
    if args.command in ("fig6", "fig7", "all"):
        sweep = run_sweep(
            proc_counts=tuple(int(p) for p in args.procs.split(",")),
            workload=workload,
        )
        if args.telemetry_out:
            from ..telemetry.export import write_jobs

            failed += [f"telemetry: {e}"
                       for e in write_jobs(args.telemetry_out, sweep)]
            print(f"[telemetry] {args.telemetry_out} ({len(sweep)} jobs)")
        artifacts += figures(workload, sweep)
    for name, generate in GENERATORS.items():
        if args.command in (name, "all"):
            artifacts.append(generate(workload, sweep))

    os.makedirs(args.out, exist_ok=True)
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
