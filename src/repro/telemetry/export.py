"""Exporters: Chrome/Perfetto trace JSON and the per-job artifact layout.

- :func:`chrome_trace` — the Trace Event Format consumed by Perfetto /
  ``chrome://tracing``: one complete ("ph": "X") event per span, one track
  (tid) per rank, timestamps in microseconds.
- :func:`write_jobs` — the one on-disk layout of a set of finished jobs
  (``python -m repro.harness ... --telemetry-out DIR`` and ``python -m
  repro.telemetry smoke --out DIR``), which ``python -m repro.telemetry
  report DIR`` reads back: per job a trace and its ``repro-critpath/1``
  document, plus one ``metrics.json`` of per-job registries.
"""

from __future__ import annotations

import json
import os

from .metrics import Histogram, MetricRegistry
from .spans import Span, as_span_list

#: name of the per-job registry map in a :func:`write_jobs` directory
METRICS_FILE = "metrics.json"


# ---------------------------------------------------------------------------
# Chrome trace-event JSON
# ---------------------------------------------------------------------------

def chrome_trace(traces_or_spans, *, process_name: str = "repro") -> dict:
    """Trace Event Format document: ``{"traceEvents": [...], ...}``.

    Accepts a list of :class:`~repro.sim.trace.RankTrace` or a flat span
    list.  Every span becomes a complete event on its rank's track; ranks
    are labelled through ``thread_name`` metadata events.
    """
    spans = as_span_list(traces_or_spans)
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
# (de)serialization helpers shared by the harness and the CLI
# ---------------------------------------------------------------------------

def spans_to_dicts(traces_or_spans) -> list[dict]:
    return [s.as_dict() for s in as_span_list(traces_or_spans)]


def spans_from_dicts(rows: list[dict]) -> list[Span]:
    out = []
    for r in rows:
        s = Span(r["span_id"], r.get("parent_id"), r["name"], r["rank"],
                 r["start_ns"], r.get("attrs"))
        s.end_ns = r["end_ns"]
        s.status = r.get("status", "ok")
        out.append(s)
    return out


def write_json(path: str, doc) -> str:
    with open(path, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")
    return path


def write_jobs(out_dir: str, results) -> list[str]:
    """Write finished harness jobs (:class:`~repro.harness.experiment.
    JobResult`) to ``out_dir``: ``<job>.trace.json`` (Chrome/Perfetto) and
    ``<job>.critpath.json`` (the job's replay-sourced repro-critpath/1
    document) per job, plus one :data:`METRICS_FILE` keyed by job id.

    Returns the trace schema violations as ``"<job>: <error>"`` lines,
    empty when every trace is valid."""
    from .critpath import critpath_dumps

    os.makedirs(out_dir, exist_ok=True)
    errors: list[str] = []
    for r in results:
        job = r.job_id()
        doc = chrome_trace(r.spans, process_name=job)
        errors += [f"{job}: {e}" for e in validate_chrome_trace(doc)]
        write_json(os.path.join(out_dir, f"{job}.trace.json"), doc)
        with open(os.path.join(out_dir, f"{job}.critpath.json"), "w") as f:
            f.write(critpath_dumps(r.critpath) + "\n")
    write_json(os.path.join(out_dir, METRICS_FILE),
               {r.job_id(): r.metrics for r in results})
    return errors


def registry_percentiles(
    metrics: MetricRegistry, ps: tuple[float, ...] = (0.5, 0.95, 0.99)
) -> dict[str, dict[str, float]]:
    """``{histogram_name: {"p50": ..., "p95": ..., "p99": ...}}`` for every
    populated histogram of a registry.

    The one shared spelling of registry-wide percentile extraction:
    ``PMEM.stats()``, the service stats and the SLO report consume this
    instead of re-deriving bucket math per caller."""
    out: dict[str, dict[str, float]] = {}
    for name in metrics.names():
        h = metrics.get(name)
        if isinstance(h, Histogram) and h.count:
            out[name] = h.percentiles(ps)
    return out
