"""The human perf report: per-scenario history sparklines + attribution.

``python -m repro.perf report`` renders the current ``BENCH_PERF.json``
with, per scenario:

- a sparkline of modeled time across prior BENCH files (the bench
  trajectory, oldest → newest, current run appended);
- the baseline delta, when a baseline is supplied;
- the top span families by exclusive time with their latency
  percentiles (:meth:`Histogram.percentiles` via the recorded
  ``latency`` block).
"""

from __future__ import annotations

import glob as _glob

from ..telemetry.bench import load_bench
from ..telemetry.metrics import _fmt_quantity
from .measure import Measurement

SPARK = "▁▂▃▄▅▆▇█"


def sparkline(values: list[float]) -> str:
    """Unicode sparkline, scaled to the series' own min..max."""
    vals = [float(v) for v in values]
    if not vals:
        return ""
    lo, hi = min(vals), max(vals)
    if hi <= lo:
        return SPARK[0] * len(vals)
    steps = len(SPARK) - 1
    return "".join(
        SPARK[round((v - lo) / (hi - lo) * steps)] for v in vals
    )


def load_history(patterns) -> dict[str, list[float]]:
    """``{scenario: [modeled_ns, ...]}`` from prior BENCH files.

    ``patterns`` is a list of paths or globs; files are read in sorted
    path order (name your snapshots so that sorts chronologically).
    Non-perf bench files (e.g. ``BENCH_telemetry.json``) are skipped."""
    paths: list[str] = []
    for p in patterns:
        hits = sorted(_glob.glob(p))
        paths.extend(hits if hits else [])
    out: dict[str, list[float]] = {}
    for path in paths:
        try:
            doc = load_bench(path)
        except (OSError, ValueError):
            continue
        if doc.get("bench") != "perf_scenarios":
            continue
        for r in doc.get("runs", []):
            name = r.get("scenario")
            if name and "modeled_ns" in r:
                out.setdefault(name, []).append(float(r["modeled_ns"]))
    return out


def render_perf_report(
    doc: dict,
    baseline_doc: dict | None = None,
    history: dict[str, list[float]] | None = None,
    title: str = "perf observatory",
) -> str:
    history = history or {}
    base_scenarios = (baseline_doc or {}).get("scenarios", {})
    lines = [f"== {title} =="]
    runs = doc.get("runs", [])
    if not runs:
        lines.append("  (no scenarios measured)")
        return "\n".join(lines)
    width = max(len(r.get("scenario", "?")) for r in runs)
    for r in runs:
        m = Measurement.from_run(r)
        series = history.get(m.scenario, []) + [m.modeled_ns]
        spark = sparkline(series[-16:])
        base = base_scenarios.get(m.scenario)
        if base and float(base.get("modeled_ns", 0.0)):
            delta = (m.modeled_ns - float(base["modeled_ns"])) \
                / float(base["modeled_ns"])
            vs = f"{delta * 100:+6.2f}% vs baseline"
        else:
            vs = "   (no baseline)"
        lines.append(
            f"  {m.scenario:<{width}}  "
            f"modeled {_fmt_quantity(m.modeled_ns, 'ns'):<18} {vs}  {spark}"
        )
        top = sorted(m.families.items(), key=lambda kv: -kv[1])[:3]
        total = sum(m.families.values()) or 1.0
        for fam, ns in top:
            pct = m.latency.get(fam)
            pct_s = ""
            if pct:
                pct_s = ("  p50=" + _fmt_quantity(pct.get("p50", 0.0), "ns")
                         + " p95=" + _fmt_quantity(pct.get("p95", 0.0), "ns")
                         + " p99=" + _fmt_quantity(pct.get("p99", 0.0), "ns"))
            lines.append(
                f"      {fam:<18} {_fmt_quantity(ns, 'ns'):<16} "
                f"({100.0 * ns / total:5.1f}% excl){pct_s}"
            )
    return "\n".join(lines)
