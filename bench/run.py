#!/usr/bin/env python3
"""Host-clock benchmark of the pMEMCPY reproduction, measured from outside.

    python3 bench/run.py --workload kv_small --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --trace        # timed + traced sets
    python3 bench/run.py --smoke                       # plumbing check, <40 s
    python3 bench/run.py --sets 2                      # two sets, then --agree
    python3 bench/run.py --agree bench/out/set1 bench/out/set2

One workload runs in this process (it is a fresh one); ``all`` starts one
child per workload and hands them the host slice by slice, round-robin, so
that a noisy neighbour costs every workload one slice instead of costing
one workload its whole window.  The last line of a single-workload run is
the result object the driver reads; everything else (quartiles, sample
counts, host, sizes) goes to ``bench/out/<workload>[.trace].json``.

Metric names, units, directions and bounds are read from ``BENCHMARK.json``;
README.md says what each one means and which layer should move which.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

_T0 = time.perf_counter()
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m for m in MANIFEST["end_to_end"]}
PER_LAYER = {m["name"]: m for m in MANIFEST["per_layer"]}
WORKLOAD_NAMES = [w["name"] for w in MANIFEST["workloads"]]
LIBS = ("PMCPY-A", "PMCPY-B", "ADIOS", "NetCDF", "pNetCDF")
PHASE_NAMES = ("exec", "replay", "analysis", "fold", "other")


def clock_of(name: str, unit: str) -> str:
    if "modeled" in name or "modeled" in unit:
        return "modeled"
    return "count" if unit in ("count", "ratio") else "host"


# ---------------------------------------------------------------- statistics

def summarize(per_unit: list[float], samples: int) -> dict:
    """Median unit value plus quartiles."""
    if len(per_unit) >= 2:
        q1, _, q3 = statistics.quantiles(per_unit, n=4, method="inclusive")
    else:
        q1 = q3 = per_unit[0]
    return {"value": statistics.median(per_unit), "q1": q1, "q3": q3,
            "units": per_unit, "samples": samples}


def host_info() -> dict:
    import numpy

    caches = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        for index in sorted(base.glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level} {kind}"] = (index / "size").read_text().strip()
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "machine": platform.machine(),
            "caches": caches or "unknown"}


# ---------------------------------------------------------------- one workload

class Gate:
    """Slice hand-off with the ``all`` parent: announce, then wait for
    "go" before every slice and say "DONE" after it."""

    def __init__(self, enabled: bool, nslices: int):
        self.enabled = enabled
        if enabled:
            print(f"READY {nslices}", flush=True)

    def __enter__(self):
        if self.enabled and not sys.stdin.readline():
            raise SystemExit("gate closed by parent")

    def __exit__(self, *exc):
        if self.enabled:
            print("DONE", flush=True)


def end_to_end_metrics(workload, recs, setup_s: float) -> dict:
    """The end-to-end metrics of the (untraced) units ``recs``: each is
    taken per unit, and the median unit is reported — a burst of host
    noise spoils the units it hits, not the run."""
    out = {"setup_s": {"value": setup_s}}
    ops = [(r.attempted - r.failed) / r.wall for r in recs]
    out["ops_per_s"] = summarize(ops, sum(r.attempted for r in recs))
    for kind in ("store", "load"):
        for q in (50, 95):
            out[f"{kind}_p{q}_ms"] = summarize(
                workload.unit_percentiles(recs, kind, q),
                sum(len(r.lat[kind]) for r in recs))
    out["peak_rss_mb"] = {"value": workload.peak_rss_mb()}
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(workload, untraced, traced, window, first, first_ops,
                      overhead_ns, server, rss_growth_mb) -> dict:
    """Every per-layer metric of one traced run.

    ``window`` is the tracer delta over the traced units, ``first`` over
    the first traced slice and its ``first_ops`` ops; ``server`` (what the
    server counted itself) and ``rss_growth_mb`` are deltas over the
    *untraced* units, where the wrappers do not disturb its batching.

    Self times have the wrappers' cost taken out.  Its size is what the run
    itself shows — process CPU per op, traced minus untraced, spread over
    the wrapped calls — and the tracer's calibration only says how a call's
    cost splits between its own span (``overhead_ns[0]``) and its parent's
    self time (``overhead_ns[1]``).  The corrected self times of a run then
    add up to the untraced CPU per op instead of the traced one."""
    import numpy as np

    ops = sum(r.attempted - r.failed for r in traced)
    cpu_ns = sum(r.cpu for r in traced) * 1e9
    # the tracer's clocks are raw: bring them to the reference host with
    # the traced slices' effective slowdown, like every other host time
    slowdown = _ratio(sum(r.raw_cpu for r in traced),
                      sum(r.cpu for r in traced))
    window = dict(window, layers={
        k: (cpu / slowdown, wall / slowdown, calls, child_calls)
        for k, (cpu, wall, calls, child_calls) in window["layers"].items()})
    exact = workload.exact_counts
    count_src = first if exact else window
    count_ops = first_ops if exact else ops
    out: dict[str, float] = {}
    plain = _ratio(sum(r.cpu for r in untraced),
                   sum(r.attempted - r.failed for r in untraced))
    extra_ns = max(0.0, cpu_ns - plain * 1e9 * ops)
    calls_total = sum(v[2] for v in window["layers"].values())
    scale = _ratio(extra_ns, calls_total * sum(overhead_ns))
    own, child = (scale * ns for ns in overhead_ns)
    out["trace.wrapper_ns_per_call"] = own + child
    attributed = busy = 0
    self_ns = {}
    for layer, (self_cpu, _, calls, child_calls) in window["layers"].items():
        self_ns[layer] = max(0.0, self_cpu - calls * own - child_calls * child)
        out[f"{layer}.self_us_per_op"] = _ratio(self_ns[layer] / 1e3, ops)
        out[f"{layer}.calls_per_op"] = _ratio(
            count_src["layers"][layer][2], count_ops)
        attributed += self_cpu
        busy += self_ns[layer]
    counts = count_src["counts"]
    out["sim.fluid.trace_ops_per_op"] = _ratio(
        counts.get("fluid_trace_ops", 0), count_ops)
    out["sim.fluid.us_per_trace_op"] = _ratio(
        self_ns["sim.fluid"] / 1e3,
        window["counts"].get("fluid_trace_ops", 0))
    out["mem.device.persists_per_store"] = _ratio(
        counts.get("device_persists", 0), counts.get("pmem_stores", 0))
    out["mem.device.store_bytes_per_user_byte"] = _ratio(
        counts.get("device_store_bytes", 0), counts.get("pmem_user_bytes", 0))
    out["pmemcpy.stored_bytes_per_user_byte"] = _ratio(
        counts.get("pmem_stored_bytes", 0), counts.get("pmem_user_bytes", 0))

    # harness: host seconds per job by library (untraced), and where the
    # main thread spent a traced job
    for lib in LIBS:
        jobs = [ms / 1e3 for r in untraced
                for cell, ms in zip(r.cells, r.lat["store"]) if cell[0] == lib]
        out[f"harness.job_s.{lib}"] = statistics.mean(jobs) if jobs else 0.0
    job_wall = window["job_wall"]
    phases = window["phase_wall"]
    for phase in PHASE_NAMES:
        out[f"harness.phase_frac.{phase}"] = _ratio(
            phases.get(phase, 0), job_wall)
    out["harness.phase_sum_err_frac"] = _ratio(
        abs(sum(phases.get(p, 0) for p in PHASE_NAMES) - job_wall), job_wall)

    # modeled clock: first untraced unit (tracing cannot move it)
    out["modeled_s"] = untraced[0].modeled_s
    out["baselines.modeled_s"] = untraced[0].baseline_modeled_s

    # service: the server's own counters over the untraced units
    served = sum(r.attempted for r in untraced)
    if server:
        out["modeled_s"] = server["clock_ns"] / 1e9 / served * 1000
    stores = sum(len(r.lat["store"]) for r in untraced)
    out["service.batch_requests_mean"] = _ratio(
        server.get("batch_requests", 0), server.get("batches", 0))
    out["service.coalesced_frac"] = _ratio(server.get("coalesced", 0), stores)
    out["service.reject_frac"] = _ratio(server.get("rejects", 0), served)
    out["service.rss_growth_kb_per_kreq"] = (
        _ratio(rss_growth_mb * 1024, served) * 1000 if server else 0.0)
    latencies = [ms for r in traced for k in ("store", "load")
                 for ms in r.lat[k]]
    out["service.wait_ms_per_op"] = (
        statistics.mean(latencies) - _ratio(busy / 1e6, ops)
        if server and latencies else 0.0)

    part = [ms for r in untraced for ms in r.lat["part"]]
    out["part_p50_ms"] = float(np.percentile(part, 50)) if part else 0.0
    out["part_p95_ms"] = float(np.percentile(part, 95)) if part else 0.0

    rate = [statistics.median((r.attempted - r.failed) / r.wall for r in rs)
            for rs in (untraced, traced)]
    out["trace.overhead_frac"] = 1.0 - _ratio(rate[1], rate[0])
    out["trace.unattributed_frac"] = 1.0 - _ratio(attributed, cpu_ns)
    return out


def run_workload(ns) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import repro  # noqa: F401 - import time is part of setup_s
    from workloads import WORKLOADS, Rec, host_slowdown, rss_mb

    slow = host_slowdown(3)
    import_s = (time.perf_counter() - _T0) / slow
    cls = WORKLOADS[ns.workload]
    traced_run = bool(ns.trace)

    # set-up: several times, median; the last instance is the one measured
    setups = []
    workload = None
    for _ in range(1 if ns.smoke else 3):
        if workload is not None:
            workload.close()
        t0 = time.perf_counter()
        workload = cls(ns.seed, ns.smoke)
        workload.setup()
        took = time.perf_counter() - t0
        slow, before = host_slowdown(3), slow
        setups.append(took / ((before + slow) / 2))
    setup_s = import_s + statistics.median(setups)

    # a traced run spends 40% of its slices untraced: they give the
    # reference for trace.overhead_frac and the undisturbed host numbers
    nslices = 1 if ns.smoke else workload.nslices
    budget = ns.seconds / nslices
    n_untraced = max(1, round(nslices * 0.4)) if traced_run else nslices
    n_traced = max(1, nslices - n_untraced) if traced_run else 0
    gate = Gate(ns.gate, n_untraced + n_traced)

    stats0, rss0 = workload.stats(), rss_mb()
    untraced = []
    for _ in range(n_untraced):
        with gate:
            untraced += workload.run_slice(budget)
    stats1, rss1 = workload.stats(), rss_mb()
    e2e = end_to_end_metrics(workload, untraced, setup_s)
    e2e["setup_s"].update(import_s=import_s, setups=setups)
    final = Rec()
    layer_values = None
    tracer = None

    if traced_run:
        from layers import Tracer

        # the wrappers go in before the system under test is rebuilt:
        # a running server holds bound methods and live coroutines that
        # patching a class afterwards would not reach
        workload.finish(final)
        workload.close()
        tracer = Tracer()
        tracer.install()
        workload = cls(ns.seed, ns.smoke)
        traced = []
        snaps = []
        for i in range(n_traced):
            with gate:
                if i == 0:
                    workload.setup()
                    snaps.append(tracer.snapshot())
                # the first traced slice is one unit: its counts do not
                # depend on how many units fit the window
                traced += workload.run_slice(
                    0 if i == 0 and nslices > 1 else budget)
                if i == 0:
                    snaps.append(tracer.snapshot())
                    first_ops = sum(r.attempted - r.failed for r in traced)
        snaps.append(tracer.snapshot())
        layer_values = per_layer_metrics(
            workload, untraced, traced,
            tracer.delta(snaps[0], snaps[-1]),
            tracer.delta(snaps[0], snaps[1]), first_ops, tracer.overhead_ns,
            {k: stats1[k] - stats0[k] for k in stats1}, rss1 - rss0)
    else:
        traced = []
    workload.finish(final)
    sizes = workload.sizes()
    workload.close()

    recs = untraced + traced + [final]
    attempted = sum(r.attempted for r in recs)
    failed = sum(r.failed for r in recs)
    correct = failed == 0

    metrics = {}
    for name, spec in END_TO_END.items():
        metrics[name] = {**e2e[name], "unit": spec["unit"],
                         "better": spec["better"], "bound": spec["bound"],
                         "clock": clock_of(name, spec["unit"])}
    if layer_values is not None:
        if set(layer_values) != set(PER_LAYER):
            raise SystemExit(
                "per-layer metrics differ from BENCHMARK.json: "
                f"{sorted(set(layer_values) ^ set(PER_LAYER))}")
        for name, spec in PER_LAYER.items():
            metrics[name] = {"value": layer_values[name],
                             "unit": spec["unit"], "better": spec["better"],
                             "clock": clock_of(name, spec["unit"])}

    doc = {
        "schema": "bench-run/1", "workload": workload.name,
        "why": workload.why, "mode": "traced" if traced_run else "timed",
        "seed": ns.seed, "seconds": ns.seconds, "smoke": ns.smoke,
        "units": {"untraced": len(untraced), "traced": len(traced)},
        "host": host_info(), "sizes": sizes,
        # every host time above is divided by the slowdown of its granule;
        # these are the per-unit means and the raw throughput they hide
        "host_slowdown": [round(statistics.mean(r.slowdowns), 4)
                          for r in untraced + traced],
        "raw_ops_per_s": [round((r.attempted - r.failed) / r.raw_wall, 4)
                          for r in untraced + traced],
        "correct": correct, "attempted": attempted, "failed": failed,
        "notes": [n for r in recs for n in r.notes][:16],
        "metrics": metrics,
    }
    out_dir = Path(ns.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    suffix = ".trace.json" if traced_run else ".json"
    if tracer is not None:
        doc["missing_targets"] = tracer.missing
        tracer.dump(out_dir / f"{workload.name}.spans.json")
    (out_dir / f"{workload.name}{suffix}").write_text(
        json.dumps(doc, indent=1) + "\n")

    print_metrics(doc)
    reported = PER_LAYER if traced_run else END_TO_END
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {n: {"value": metrics[n]["value"],
                        "unit": metrics[n]["unit"]} for n in reported},
    }))
    return 0 if correct else 1


def print_metrics(doc: dict) -> None:
    host = doc["host"]
    print(f"# {doc['workload']} ({doc['mode']}, seed {doc['seed']}, "
          f"{doc['seconds']} s): nproc={host['nproc']} "
          f"python={host['python']} numpy={host['numpy']} "
          f"caches={host['caches']}")
    print(f"# sizes: {json.dumps(doc['sizes'])}")
    for name, m in doc["metrics"].items():
        if doc["mode"] == "traced" and name in PER_LAYER and not m["value"]:
            continue  # a layer this workload never enters
        extra = ""
        if "q1" in m:
            extra = (f"  [q1 {m['q1']:.6g} q3 {m['q3']:.6g}, "
                     f"{len(m['units'])} units, {m['samples']} samples]")
        print(f"{doc['workload']:<17}{name:<40}{m['value']:>14.6g} "
              f"{m['unit']:<10}{m['clock']:<8}{extra}")
    for note in doc["notes"]:
        print(f"# FAILED: {note}")
    print(f"# correct={doc['correct']} attempted={doc['attempted']} "
          f"failed={doc['failed']}")


# ------------------------------------------------------------ all workloads

def run_all(ns, out_dir: Path, trace: int) -> bool:
    """One child per workload, slices interleaved round-robin (a smoke
    run checks plumbing, not numbers: its children just run side by side)."""
    children = []
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(ns.seed), "--seconds", str(ns.seconds),
               "--trace", str(trace), "--out", str(out_dir),
               "--smoke" if ns.smoke else "--gate"]
        proc = subprocess.Popen(cmd, stdin=subprocess.PIPE,
                                stdout=subprocess.PIPE, text=True)
        turns = 0
        if not ns.smoke:
            # set-up runs alone: the next child starts when this is ready
            ready = proc.stdout.readline().split()
            turns = int(ready[1]) if ready[:1] == ["READY"] else 0
        children.append([name, proc, turns])
    outputs = {}
    while len(outputs) < len(children):
        for child in children:
            name, proc, turns = child
            if name in outputs:
                continue
            if turns > 1:
                proc.stdin.write("go\n")
                proc.stdin.flush()
                child[2] = turns - 1 if proc.stdout.readline() else 0
            else:
                # the last turn lasts until the child has written its
                # results, so its post-processing disturbs nobody's slice
                outputs[name], _ = proc.communicate("go\n" if turns else None)
    ok = True
    for name, proc, _ in children:
        # the child's own report, minus the hand-off and the driver's line
        print("".join(line for line in outputs[name].splitlines(True)
                      if line.strip() != "DONE"
                      and not line.startswith('{"correct"')), end="")
        ok &= proc.returncode == 0
    return ok


def main_all(ns) -> int:
    sets = [Path(ns.out) / f"set{i + 1}" for i in range(ns.sets)] \
        if ns.sets > 1 else [Path(ns.out)]
    ok = True
    for out_dir in sets:
        if ns.smoke:
            # one traced child per workload: its untraced slice gives the
            # end-to-end numbers, so nothing is set up twice
            ok &= run_all(ns, out_dir, 1)
        else:
            ok &= run_all(ns, out_dir, 0)
            if ns.trace or ns.sets > 1:
                ok &= run_all(ns, out_dir, 1)
    if ns.sets > 1:
        ok &= agree(sets[0], sets[1])
    return 0 if ok else 1


# ---------------------------------------------------------------- agreement

EXACT_SUFFIXES = (".calls_per_op",)
EXACT_NAMES = ("sim.fluid.trace_ops_per_op", "modeled_s")
EXACT_WORKLOADS = ("kv_small", "kv_grid")


def agree(a_dir: Path, b_dir: Path) -> bool:
    """Do two sets of runs agree within the benchmark's own bounds?"""
    ok = True
    print(f"{'workload':<17}{'metric':<40}{'A':>12}{'B':>12}{'diff':>9}"
          f"{'bound':>8}")
    for name in WORKLOAD_NAMES:
        rows = []
        a, b = (json.loads((d / f"{name}.json").read_text())["metrics"]
                for d in (a_dir, b_dir))
        for metric, spec in END_TO_END.items():
            rows.append((metric, a[metric]["value"], b[metric]["value"],
                         spec["bound"]))
        paths = [d / f"{name}.trace.json" for d in (a_dir, b_dir)]
        if name in EXACT_WORKLOADS and all(p.exists() for p in paths):
            a, b = (json.loads(p.read_text())["metrics"] for p in paths)
            for metric in PER_LAYER:
                if metric.endswith(EXACT_SUFFIXES) or metric in EXACT_NAMES:
                    rows.append((metric, a[metric]["value"],
                                 b[metric]["value"], 0.0))
        for metric, va, vb, bound in rows:
            diff = abs(vb - va) / abs(va) if va else abs(vb)
            bad = diff > bound
            ok &= not bad
            if bad or bound:
                print(f"{name:<17}{metric:<40}{va:>12.6g}{vb:>12.6g}"
                      f"{diff:>9.4f}{bound:>8.3f}"
                      f"{'  DISAGREE' if bad else ''}")
    print("sets agree" if ok else "sets DISAGREE")
    return ok


# ---------------------------------------------------------------- entry

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES + ["all"],
                    default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float,
                    default=float(MANIFEST["run_seconds"]),
                    help="timed window per run")
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                    choices=(0, 1),
                    help="1: the traced run (per-layer metrics)")
    ap.add_argument("--smoke", action="store_true",
                    help="2 s windows, one slice, 8-proc fig grid, "
                         "all four workloads traced")
    ap.add_argument("--sets", type=int, default=1, choices=(1, 2),
                    help="2: run everything twice and compare the sets")
    ap.add_argument("--agree", nargs=2, metavar=("A", "B"), type=Path,
                    help="compare two output directories and exit")
    ap.add_argument("--out", default=str(HERE / "out"),
                    help="output directory (default bench/out)")
    ap.add_argument("--gate", action="store_true", help=argparse.SUPPRESS)
    ns = ap.parse_args(argv)
    if ns.agree:
        return 0 if agree(*ns.agree) else 1
    if ns.smoke:
        ns.seconds = 2.0
    if ns.workload == "all":
        return main_all(ns)
    return run_workload(ns)


if __name__ == "__main__":
    sys.exit(main())
