"""Exporters: Chrome/Perfetto trace JSON, Darshan-style records, reports.

Three views of one run's observability data:

- :func:`chrome_trace` — the Trace Event Format consumed by Perfetto /
  ``chrome://tracing``: one complete ("ph": "X") event per span, one track
  (tid) per rank, timestamps in microseconds.
- :func:`darshan_records` — a Darshan-style per-(rank, variable) I/O record
  table built from the span attributes: op counts, bytes, and time split by
  direction, the shape of a ``darshan-parser`` counter dump.
- :func:`render_report` / :func:`render_darshan` — the human-readable
  breakdown (``python -m repro.telemetry report``): per-span-name latency
  families with share-of-total attribution.
"""

from __future__ import annotations

import json

from .metrics import Histogram, MetricRegistry, _fmt_quantity
from .spans import Span, as_span_list, child_ns_index

#: span names that carry a ``var`` attribute and count as I/O operations
#: for the Darshan record table, mapped to their direction
_IO_SPANS = {
    "pmemcpy.store": "write",
    "pmemcpy.load": "read",
    "driver.write": "write",
    "driver.read": "read",
}


# ---------------------------------------------------------------------------
# Chrome trace-event JSON
# ---------------------------------------------------------------------------

def chrome_trace(traces_or_spans, *, process_name: str = "repro") -> dict:
    """Trace Event Format document: ``{"traceEvents": [...], ...}``.

    Accepts a list of :class:`~repro.sim.trace.RankTrace` or a flat span
    list.  Every span becomes a complete event on its rank's track; ranks
    are labelled through ``thread_name`` metadata events.
    """
    spans = _as_spans(traces_or_spans)
    events: list[dict] = [{
        "name": "process_name", "ph": "M", "pid": 0, "tid": 0,
        "args": {"name": process_name},
    }]
    for rank in sorted({s.rank for s in spans}):
        events.append({
            "name": "thread_name", "ph": "M", "pid": 0, "tid": rank,
            "args": {"name": f"rank {rank}"},
        })
    for s in spans:
        ev = {
            "name": s.name,
            "cat": s.name.split(".", 1)[0],
            "ph": "X",
            "ts": s.start_ns / 1e3,           # trace-event ts is in us
            "dur": max(s.duration_ns, 0.0) / 1e3,
            "pid": 0,
            "tid": s.rank,
            "args": _span_args(s),
        }
        events.append(ev)
    return {
        "traceEvents": events,
        "displayTimeUnit": "ns",
        "otherData": {"clock": "modeled-ns (rank lower-bound)"},
    }


def _span_args(s: Span) -> dict:
    args = {"span_id": s.span_id, "status": s.status}
    if s.parent_id is not None:
        args["parent_id"] = s.parent_id
    if s.attrs:
        args.update({k: _jsonable(v) for k, v in s.attrs.items()})
    return args


def _jsonable(v):
    if isinstance(v, (str, int, float, bool)) or v is None:
        return v
    return str(v)


def validate_chrome_trace(doc) -> list[str]:
    """Schema check for the Trace Event Format (JSON Object Format flavour).

    Returns a list of violations (empty = valid): required keys, key types,
    non-negative durations, and 'X' events paired with numeric ts/dur.
    """
    errors: list[str] = []
    if not isinstance(doc, dict) or "traceEvents" not in doc:
        return ["document is not an object with a 'traceEvents' array"]
    events = doc["traceEvents"]
    if not isinstance(events, list):
        return ["'traceEvents' is not an array"]
    for i, ev in enumerate(events):
        where = f"event[{i}]"
        if not isinstance(ev, dict):
            errors.append(f"{where}: not an object")
            continue
        for key, types in (("name", str), ("ph", str),
                           ("pid", (int, float)), ("tid", (int, float))):
            if key not in ev:
                errors.append(f"{where}: missing required key {key!r}")
            elif not isinstance(ev[key], types):
                errors.append(f"{where}: {key!r} has wrong type "
                              f"{type(ev[key]).__name__}")
        ph = ev.get("ph")
        if ph == "X":
            for key in ("ts", "dur"):
                if not isinstance(ev.get(key), (int, float)):
                    errors.append(f"{where}: 'X' event needs numeric {key!r}")
            if isinstance(ev.get("dur"), (int, float)) and ev["dur"] < 0:
                errors.append(f"{where}: negative duration {ev['dur']}")
        elif ph == "M":
            if "args" not in ev or not isinstance(ev["args"], dict):
                errors.append(f"{where}: metadata event without args object")
        elif ph not in ("B", "E", "i", "C", None):
            errors.append(f"{where}: unsupported phase {ph!r}")
        if "args" in ev and not isinstance(ev["args"], dict):
            errors.append(f"{where}: args is not an object")
    return errors


# ---------------------------------------------------------------------------
# Darshan-style per-rank/per-variable records
# ---------------------------------------------------------------------------

def darshan_records(traces_or_spans) -> list[dict]:
    """Per-(rank, variable) I/O characterization rows, Darshan-style.

    Aggregates the I/O-op spans (store/load at the pMEMCPY level, the
    driver write/read spans for the baselines) into one record per rank and
    variable: op counts, byte totals, cumulative time, and the slowest
    single operation — the counters a ``darshan-parser`` dump leads with.
    """
    spans = _as_spans(traces_or_spans)
    # only the outermost I/O span of a nest counts: the pmemcpy driver's
    # ``driver.write`` wraps a ``pmemcpy.store`` and both are I/O ops, but
    # they describe the same bytes
    io_ids = {s.span_id for s in spans if s.name in _IO_SPANS}
    recs: dict[tuple[int, str], dict] = {}
    for s in spans:
        direction = _IO_SPANS.get(s.name)
        if direction is None or not s.attrs:
            continue
        if s.parent_id is not None and s.parent_id in io_ids:
            continue
        var = s.attrs.get("var")
        if var is None:
            continue
        rec = recs.get((s.rank, var))
        if rec is None:
            rec = recs[(s.rank, var)] = {
                "rank": s.rank, "var": var,
                "writes": 0, "write_bytes": 0, "write_ns": 0.0,
                "reads": 0, "read_bytes": 0, "read_ns": 0.0,
                "errors": 0, "slowest_ns": 0.0,
            }
        rec[f"{direction}s"] += 1
        rec[f"{direction}_bytes"] += int(s.attrs.get("bytes", 0) or 0)
        rec[f"{direction}_ns"] += s.duration_ns
        if s.status != "ok":
            rec["errors"] += 1
        rec["slowest_ns"] = max(rec["slowest_ns"], s.duration_ns)
    return [recs[k] for k in sorted(recs)]


def render_darshan(records: list[dict],
                   title: str = "per-rank/per-variable I/O records") -> str:
    lines = [f"== {title} =="]
    if not records:
        lines.append("  (no I/O records)")
        return "\n".join(lines)
    hdr = ("rank", "variable", "wr", "wr_bytes", "wr_time", "rd",
           "rd_bytes", "rd_time", "slowest", "err")
    rows = [
        (str(r["rank"]), r["var"], str(r["writes"]),
         _fmt_quantity(r["write_bytes"], "B"),
         _fmt_quantity(r["write_ns"], "ns"),
         str(r["reads"]), _fmt_quantity(r["read_bytes"], "B"),
         _fmt_quantity(r["read_ns"], "ns"),
         _fmt_quantity(r["slowest_ns"], "ns"), str(r["errors"]))
        for r in records
    ]
    widths = [max(len(h), *(len(row[i]) for row in rows))
              for i, h in enumerate(hdr)]
    lines.append("  " + "  ".join(h.ljust(w) for h, w in zip(hdr, widths)))
    for row in rows:
        lines.append("  " + "  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Per-phase breakdown report
# ---------------------------------------------------------------------------

def span_breakdown(traces_or_spans) -> dict[str, dict]:
    """Aggregate spans by name: count, total/self ns, errors.

    ``self_ns`` is the span's duration minus its recorded children — the
    exclusive time the Fig. 6/7 attribution wants."""
    spans = _as_spans(traces_or_spans)
    child_ns = child_ns_index(spans)
    out: dict[str, dict] = {}
    for s in spans:
        b = out.setdefault(s.name, {
            "count": 0, "total_ns": 0.0, "self_ns": 0.0,
            "max_ns": 0.0, "errors": 0,
        })
        b["count"] += 1
        b["total_ns"] += s.duration_ns
        b["self_ns"] += max(s.duration_ns - child_ns.get(s.span_id, 0.0), 0.0)
        b["max_ns"] = max(b["max_ns"], s.duration_ns)
        if s.status != "ok":
            b["errors"] += 1
    return out


def render_report(metrics: MetricRegistry | None = None,
                  traces_or_spans=None,
                  title: str = "I/O profile") -> str:
    """The Darshan-style human-readable breakdown.

    Works from a metric registry (span latency families + counters), a
    span set, or both; with both, the span tree supplies exclusive-time
    attribution and the registry supplies the latency distributions.
    """
    lines = [f"== {title} =="]
    if traces_or_spans is not None:
        bd = span_breakdown(traces_or_spans)
        if bd:
            total = sum(b["self_ns"] for b in bd.values()) or 1.0
            lines.append("-- per-phase breakdown (exclusive modeled time) --")
            width = max(len(n) for n in bd)
            for name in sorted(bd, key=lambda n: -bd[n]["self_ns"]):
                b = bd[name]
                err = f"  errors={b['errors']}" if b["errors"] else ""
                lines.append(
                    f"  {name:<{width}}  n={b['count']:<7} self="
                    f"{_fmt_quantity(b['self_ns'], 'ns'):<22} "
                    f"({100.0 * b['self_ns'] / total:5.1f}%)  total="
                    f"{_fmt_quantity(b['total_ns'], 'ns')}{err}"
                )
    if metrics is not None and len(metrics):
        fams = [n for n in metrics.names()
                if n.startswith("span.") and n.endswith(".ns")]
        if fams:
            lines.append("-- latency families (modeled ns) --")
            width = max(len(n) for n in fams)
            for name in fams:
                h = metrics.get(name)
                if not isinstance(h, Histogram) or not h.count:
                    continue
                pct = h.percentiles((0.5, 0.99))
                lines.append(
                    f"  {name:<{width}}  n={h.count:<7} "
                    f"mean={_fmt_quantity(h.mean, 'ns'):<20} "
                    f"p50={_fmt_quantity(pct['p50'], 'ns'):<20} "
                    f"p99={_fmt_quantity(pct['p99'], 'ns'):<20} "
                    f"max={_fmt_quantity(h.max, 'ns')}"
                )
        others = [n for n in metrics.names() if n not in fams]
        if others:
            lines.append("-- metric families --")
            sub = MetricRegistry()
            for n in others:
                sub._m[n] = metrics.get(n)
            lines.extend(sub.render("").splitlines()[1:])
    if traces_or_spans is not None:
        recs = darshan_records(traces_or_spans)
        if recs:
            lines.append(render_darshan(recs))
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# (de)serialization helpers shared by the harness and the CLI
# ---------------------------------------------------------------------------

def spans_to_dicts(traces_or_spans) -> list[dict]:
    return [s.as_dict() for s in _as_spans(traces_or_spans)]


def spans_from_dicts(rows: list[dict]) -> list[Span]:
    out = []
    for r in rows:
        s = Span(r["span_id"], r.get("parent_id"), r["name"], r["rank"],
                 r["start_ns"], r.get("attrs"))
        s.end_ns = r["end_ns"]
        s.status = r.get("status", "ok")
        out.append(s)
    return out


def spans_from_chrome(doc: dict) -> list[Span]:
    """Rebuild spans from a :func:`chrome_trace` document (its inverse —
    the 'X' events carry span_id/parent_id/status in ``args``)."""
    out: list[Span] = []
    for ev in doc.get("traceEvents", ()):
        if ev.get("ph") != "X":
            continue
        args = dict(ev.get("args") or {})
        span_id = int(args.pop("span_id", 0) or 0)
        parent = args.pop("parent_id", None)
        status = args.pop("status", "ok")
        s = Span(span_id, int(parent) if parent is not None else None,
                 ev["name"], int(ev["tid"]), float(ev["ts"]) * 1e3,
                 args or None)
        s.end_ns = s.start_ns + float(ev["dur"]) * 1e3
        s.status = status
        out.append(s)
    out.sort(key=lambda s: (s.rank, s.start_ns, s.span_id))
    return out


def write_json(path: str, doc) -> str:
    with open(path, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")
    return path


def _as_spans(traces_or_spans) -> list[Span]:
    return as_span_list(traces_or_spans)


def registry_percentiles(
    metrics: MetricRegistry, ps: tuple[float, ...] = (0.5, 0.95, 0.99)
) -> dict[str, dict[str, float]]:
    """``{histogram_name: {"p50": ..., "p95": ..., "p99": ...}}`` for every
    populated histogram of a registry.

    The one shared spelling of registry-wide percentile extraction:
    ``PMEM.stats()``, the service SLO report and the telemetry report all
    consume this instead of re-deriving bucket math per caller."""
    out: dict[str, dict[str, float]] = {}
    for name in metrics.names():
        h = metrics.get(name)
        if isinstance(h, Histogram) and h.count:
            out[name] = h.percentiles(ps)
    return out
