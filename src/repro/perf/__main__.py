"""CLI: the performance-regression observatory.

Usage::

    # measure the scenario suite -> BENCH_PERF.json (unified bench schema)
    python -m repro.perf run [--quick] [--scenario NAME ...]

    # gate BENCH_PERF.json against the committed baseline; on failure the
    # report diffs the critical paths and ranks the span families whose
    # path time grew
    python -m repro.perf compare [--bench BENCH_PERF.json]
        [--baseline results/perf_baseline.json] [--report FILE] [--json FILE]

    # snapshot the current BENCH file (or a fresh run) as the baseline
    python -m repro.perf update-baseline [--bench BENCH_PERF.json]

    # prove the gate works: inflate LOCK_OVERHEAD_NS and require compare
    # to fail with meta.lock as the top critical-path family
    python -m repro.perf selftest

    # causal analysis of one scenario: critical path by span family,
    # lock hand-offs, per-stripe contention, what-if estimates
    python -m repro.perf doctor SCENARIO [--json FILE] [--flame-out FILE]

    # the doctor's own gate: byte-stable output, shares summing to 100%,
    # and an empty self-diff
    python -m repro.perf doctor --selftest
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from ..telemetry.bench import bench_doc, load_bench, write_bench
from ..telemetry.metrics import _fmt_quantity
from .baseline import (
    DEFAULT_BASELINE_PATH,
    baseline_from_runs,
    load_baseline,
    save_baseline,
)
from .compare import compare_runs
from .measure import measure_all, measure_scenario
from .scenarios import get, select

DEFAULT_BENCH_PATH = "BENCH_PERF.json"
BENCH_NAME = "perf_scenarios"


def _measure(args) -> list[dict]:
    scenarios = select(quick=args.quick, names=args.scenario or None,
                       groups=getattr(args, "group", None) or None)

    def progress(m):
        print(f"[perf] {m.scenario:<24} "
              f"modeled {_fmt_quantity(m.modeled_ns, 'ns')}")

    return [m.as_run() for m in measure_all(scenarios, progress)]


def cmd_run(args) -> int:
    runs = _measure(args)
    doc = bench_doc(BENCH_NAME, runs, quick=bool(args.quick))
    write_bench(args.out, doc)
    print(f"[bench] {args.out}  ({len(runs)} scenarios)")
    return 0


def cmd_compare(args) -> int:
    doc = load_bench(args.bench)
    try:
        baseline = load_baseline(args.baseline)
    except (FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    rep = compare_runs(baseline, doc.get("runs", []))
    text = rep.render()
    print(text)
    if args.report:
        d = os.path.dirname(args.report)
        if d:
            os.makedirs(d, exist_ok=True)
        with open(args.report, "w") as f:
            f.write(text + "\n")
        print(f"[report] {args.report}")
    if args.json:
        with open(args.json, "w") as f:
            json.dump(rep.as_dict(), f, indent=1)
            f.write("\n")
        print(f"[json] {args.json}")
    if not rep.ok:
        # automatic root-causing: diff baseline-vs-current critical paths
        # and leave the narrative where both humans and CI will see it
        narrative = rep.doctor_narrative()
        if narrative:
            doc["doctor"] = {
                "narrative": narrative,
                "top_critpath_family": rep.top_critpath_family(),
                "culprits": {
                    v.scenario: v.critpath_culprits
                    for v in rep.regressions if v.critpath_culprits
                },
            }
            write_bench(args.bench, doc)
            print(f"[doctor] root-cause narrative written into {args.bench}")
        step_summary = os.environ.get("GITHUB_STEP_SUMMARY")
        if step_summary:
            with open(step_summary, "a") as f:
                f.write("## perf doctor — regression root cause\n\n```\n")
                f.write(narrative or
                        "no critical-path evidence recorded for the "
                        "failing scenarios")
                f.write("\n```\n")
    return 0 if rep.ok else 1


def cmd_update_baseline(args) -> int:
    if os.path.exists(args.bench) and not args.fresh:
        doc = load_bench(args.bench)
        runs = doc.get("runs", [])
        print(f"[baseline] snapshotting {args.bench} ({len(runs)} scenarios)")
    else:
        print("[baseline] measuring a fresh run "
              f"({'quick' if args.quick else 'full'} budget)")
        runs = _measure(args)
    path = save_baseline(args.baseline, baseline_from_runs(runs))
    print(f"[baseline] {path}")
    return 0


def cmd_selftest(args) -> int:
    """The gate's own gate: a synthetic slowdown must (a) trip the modeled
    gate and (b) put ``meta.lock`` at the top of the critical-path diff."""
    from ..pmdk import hashmap as _hashmap
    from ..pmdk import locks as _locks

    names = ("meta.lock_single", "meta.lock_striped")
    scenarios = [get(n) for n in names]
    print(f"[selftest] baseline pass over {', '.join(names)}")
    base_runs = [measure_scenario(s).as_run() for s in scenarios]
    baseline = baseline_from_runs(base_runs)

    factor = args.factor
    old = _locks.LOCK_OVERHEAD_NS
    print(f"[selftest] inflating LOCK_OVERHEAD_NS {old:g} -> "
          f"{old * factor:g} ns and re-measuring")
    _locks.LOCK_OVERHEAD_NS = old * factor
    _hashmap.LOCK_OVERHEAD_NS = old * factor
    try:
        cur_runs = [measure_scenario(s).as_run() for s in scenarios]
    finally:
        _locks.LOCK_OVERHEAD_NS = old
        _hashmap.LOCK_OVERHEAD_NS = old

    rep = compare_runs(baseline, cur_runs)
    print(rep.render())
    if rep.ok:
        print("error: inflated lock overhead did not trip the modeled gate",
              file=sys.stderr)
        return 1
    if len(rep.regressions) != len(names):
        print("error: inflated lock overhead tripped the gate on only "
              f"{[v.scenario for v in rep.regressions]}", file=sys.stderr)
        return 1
    top = rep.top_critpath_family()
    if top != "meta.lock":
        print(f"error: expected meta.lock as top critical-path family, "
              f"got {top!r}", file=sys.stderr)
        return 1
    print("[selftest] regression detected and attributed to meta.lock ✓")
    return 0


def _analyze_scenario(name: str) -> tuple[dict, dict, object]:
    """Run one scenario under full tracing with the doctor's capture hook
    armed; returns ``(critpath_doc, perf_record, spmd_result_or_None)``."""
    from ..telemetry.critpath import (
        capture_analysis,
        critical_path_spans,
        critical_path_spmd,
        critpath_doc,
        whatif_report,
    )
    from ..telemetry.spans import TRACE_ENV

    sc = get(name)
    prev_trace = os.environ.get(TRACE_ENV)
    os.environ[TRACE_ENV] = "full"
    try:
        with capture_analysis() as captured:
            rec = sc.run()
    finally:
        if prev_trace is None:
            os.environ.pop(TRACE_ENV, None)
        else:
            os.environ[TRACE_ENV] = prev_trace
    spmd = [p for kind, p in captured if kind == "spmd"]
    service = [p for kind, p in captured if kind == "service"]
    if spmd:
        res = spmd[-1]
        # sc.run() timed res causally; this reads that replay, it runs none
        cp = critical_path_spmd(res)
        wi = whatif_report(res.traces, cp.total_ns, machine=res.machine)
        return critpath_doc(cp, whatif=wi, scenario=name), rec, res
    if service:
        core, t0 = service[-1]
        cp = critical_path_spans(core.ctx.trace.spans, t0, core.clock_ns)
        return critpath_doc(cp, scenario=name), rec, None
    raise RuntimeError(
        f"scenario {name} offered no analyzable run to the doctor"
    )


def _render_doctor(doc: dict) -> str:
    lines = [f"== perf doctor: {doc.get('scenario', '?')} =="]
    lines.append(
        f"  critical path {_fmt_quantity(doc['total_ns'], 'ns')} "
        f"(source: {doc['source']})"
    )
    fams = doc.get("families", {})
    if fams:
        lines.append("  critical-path share by span family:")
        ranked = sorted(fams.items(), key=lambda kv: (-kv[1]["ns"], kv[0]))
        for fam, row in ranked[:12]:
            lines.append(
                f"    {fam:<22} {_fmt_quantity(row['ns'], 'ns'):<16} "
                f"{row['share'] * 100:6.2f}%"
            )
        if len(ranked) > 12:
            lines.append(f"    ... and {len(ranked) - 12} smaller families")
    handoffs = doc.get("handoffs", {})
    if handoffs:
        lines.append("  waits jumped on the path (blame stays with the "
                     "holder's work):")
        for fam, h in sorted(handoffs.items(),
                             key=lambda kv: -kv[1]["wait_ns"]):
            lines.append(
                f"    {fam:<22} {h['count']:>4} hand-offs, "
                f"{_fmt_quantity(h['wait_ns'], 'ns')} waited"
            )
    contention = doc.get("contention", {})
    if contention:
        lines.append("  lock contention (wait-for graph):")
        ranked = sorted(contention.items(),
                        key=lambda kv: (-kv[1]["wait_ns"], kv[0]))
        for lock_id, st in ranked[:8]:
            lines.append(
                f"    {lock_id:<28} {st['acquires']:>5} acq "
                f"({st['contended']} contended, queue<={st['max_queue']})  "
                f"wait {_fmt_quantity(st['wait_ns'], 'ns')}  "
                f"hold mean {_fmt_quantity(st['mean_hold_ns'], 'ns')}"
            )
        if len(ranked) > 8:
            lines.append(f"    ... and {len(ranked) - 8} quieter locks")
    whatif = doc.get("whatif")
    if whatif:
        lines.append("  what-if (replayed counterfactuals, ranked by "
                     "time saved):")
        for row in whatif:
            lines.append(
                f"    {row['name']:<12} -> "
                f"{_fmt_quantity(row['modeled_ns'], 'ns'):<16} "
                f"saves {_fmt_quantity(row['delta_ns'], 'ns'):<16} "
                f"({row['speedup']:.2f}x)"
            )
    return "\n".join(lines)


def cmd_doctor(args) -> int:
    from ..telemetry.critpath import critpath_dumps, validate_critpath

    if args.selftest:
        return _doctor_selftest()
    if not args.scenario_name:
        print("error: doctor needs a scenario name (or --selftest)",
              file=sys.stderr)
        return 2
    doc, _rec, res = _analyze_scenario(args.scenario_name)
    errs = validate_critpath(doc)
    if errs:
        print(f"error: doctor produced an invalid critpath doc: {errs[:3]}",
              file=sys.stderr)
        return 1
    print(_render_doctor(doc))
    if args.json:
        d = os.path.dirname(args.json)
        if d:
            os.makedirs(d, exist_ok=True)
        with open(args.json, "w") as f:
            f.write(critpath_dumps(doc))
            f.write("\n")
        print(f"[json] {args.json}")
    if args.flame_out:
        from ..telemetry.flame import write_folded

        if res is None:
            print("[flame] scenario has no replayable span forest; "
                  "skipping --flame-out")
        else:
            d = os.path.dirname(args.flame_out)
            if d:
                os.makedirs(d, exist_ok=True)
            write_folded(args.flame_out, res.traces)
            print(f"[flame] {args.flame_out} (fold with speedscope or "
                  f"flamegraph.pl)")
    return 0


def _doctor_selftest() -> int:
    """The doctor's own gate (CI: ``perf doctor --selftest``):

    1. byte-identical critpath JSON across two runs of a single-rank and
       of a multi-rank scenario;
    2. per-family critical-path shares summing to 100% ± 0.1% of the
       end-to-end modeled time, on a single-rank, a lock-bound, a service
       and a multi-rank fig6 scenario;
    3. a baseline-vs-self diff reporting exactly zero culprits.

    That an injected slowdown is blamed on the right family is the gate's
    own check (``perf selftest``), which diffs the same critical paths.
    """
    from ..telemetry.critpath import (
        critpath_culprits,
        critpath_dumps,
        validate_critpath,
    )

    failures: list[str] = []

    print("[doctor-selftest] 1/3 byte-stable output, one and eight ranks")
    for name in ("mem.memcpy_persist", "fig6.PMCPY-B.8p"):
        doc_a = _analyze_scenario(name)[0]
        if critpath_dumps(doc_a) != critpath_dumps(_analyze_scenario(name)[0]):
            failures.append(
                f"{name}: critpath JSON differs between two identical runs")

    print("[doctor-selftest] 2/3 shares sum to 100% of modeled time")
    names = ["mem.memcpy_persist", "meta.lock_single",
             "service.rpc_store", "fig6.PMCPY-B.8p"]
    for name in names:
        doc, rec, _res = _analyze_scenario(name)
        errs = validate_critpath(doc)
        if errs:
            failures.append(f"{name}: invalid critpath doc: {errs[:2]}")
            continue
        share_sum = sum(r["share"] for r in doc["families"].values())
        ns_sum = sum(r["ns"] for r in doc["families"].values())
        modeled = float(rec["modeled_ns"])
        if abs(share_sum - 1.0) > 1e-3:
            failures.append(f"{name}: shares sum to {share_sum:.6f}")
        if modeled > 0 and abs(ns_sum - modeled) > 1e-3 * modeled:
            failures.append(
                f"{name}: path families sum to {ns_sum:.0f} ns but "
                f"end-to-end modeled time is {modeled:.0f} ns"
            )
        print(f"[doctor-selftest]   {name:<28} "
              f"{share_sum * 100:7.3f}% of "
              f"{_fmt_quantity(modeled, 'ns')}")

    print("[doctor-selftest] 3/3 baseline-vs-self diff must be empty")
    self_culprits = critpath_culprits(doc_a, doc_a)
    if self_culprits:
        failures.append(
            f"self-diff produced culprits: "
            f"{[c['family'] for c in self_culprits]}"
        )

    if failures:
        for f in failures:
            print(f"error: {f}", file=sys.stderr)
        return 1
    print("[doctor-selftest] all checks passed ✓")
    return 0


def _add_measure_args(p, *, out: bool) -> None:
    p.add_argument("--quick", action="store_true",
                   help="small CI budget: quick scenarios only")
    p.add_argument("--scenario", action="append", metavar="NAME",
                   help="measure only NAME (repeatable)")
    p.add_argument("--group", action="append", metavar="GROUP",
                   help="measure only scenarios in GROUP (repeatable)")
    if out:
        p.add_argument("--out", default=DEFAULT_BENCH_PATH)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="repro.perf", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="measure scenarios -> BENCH_PERF.json")
    _add_measure_args(p, out=True)
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("compare", help="gate a BENCH file vs the baseline")
    p.add_argument("--bench", default=DEFAULT_BENCH_PATH)
    p.add_argument("--baseline", default=DEFAULT_BASELINE_PATH)
    p.add_argument("--report", default=None, metavar="FILE",
                   help="also write the rendered report to FILE")
    p.add_argument("--json", default=None, metavar="FILE",
                   help="write the machine-readable verdicts to FILE")
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser("update-baseline",
                       help="snapshot a BENCH file (or fresh run) as baseline")
    p.add_argument("--bench", default=DEFAULT_BENCH_PATH)
    p.add_argument("--baseline", default=DEFAULT_BASELINE_PATH)
    p.add_argument("--fresh", action="store_true",
                   help="ignore an existing BENCH file; re-measure")
    _add_measure_args(p, out=False)
    p.set_defaults(fn=cmd_update_baseline)

    p = sub.add_parser("selftest",
                       help="synthetic slowdown must fail with meta.lock top")
    p.add_argument("--factor", type=float, default=400.0,
                   help="LOCK_OVERHEAD_NS inflation factor")
    p.set_defaults(fn=cmd_selftest)

    p = sub.add_parser("doctor",
                       help="causal analysis: critical path, contention, "
                            "what-ifs")
    p.add_argument("scenario_name", nargs="?", metavar="SCENARIO",
                   help="registered perf scenario to analyze")
    p.add_argument("--selftest", action="store_true",
                   help="run the doctor's own correctness gate instead")
    p.add_argument("--json", default=None, metavar="FILE",
                   help="write the repro-critpath/1 document to FILE")
    p.add_argument("--flame-out", default=None, metavar="FILE",
                   help="write folded flamegraph stacks to FILE")
    p.set_defaults(fn=cmd_doctor)

    args = ap.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
