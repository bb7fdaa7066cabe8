"""Flight recorder: a bounded, tail-sampled ring of request span trees.

The Darshan lesson (openPMD + Darshan I/O monitoring, arXiv 2408.02869)
is that *per-operation* records — not aggregate counters — are what make
production I/O debuggable.  Aggregates tell you p99 moved; they cannot
tell you what the request that moved it actually did.  The flight
recorder closes that gap for the service layer: every completed RPC is
**offered** as a :class:`FlightRecord` (its trace id, timing, status,
and the full cross-layer span tree collected under that trace id), and a
**tail-sampling** policy decides which offers survive in a bounded ring:

==========  ================================================================
error       any request that unwound with a typed error — always kept
rejected    admission-control rejects (``ServiceOverloadedError``) — always
            kept, so overload events are reconstructible after the fact
slo         latency above the configured SLO threshold — always kept
sample      1 in ``sample_every`` of the remaining (healthy) requests,
            starting with the first, so a quiet service still has exemplars
==========  ================================================================

The ring is ``capacity``-bounded (:class:`collections.deque` semantics:
the oldest kept record falls out first), so the recorder is safe to leave
always-on — memory is O(capacity × spans-per-request) regardless of
traffic.

**SLO burn** detection rides on top: over a sliding window of the last
``burn_window`` offers, if the fraction kept for cause (error / rejected /
slo) reaches ``burn_frac``, the ``on_burn`` callback fires (once per
window fill, not per request) — the service layer uses it to auto-dump
the ring to disk while the evidence is still in it.

A dump (:meth:`FlightRecorder.dump`) is a plain JSON document (schema
``repro-flight/1``) whose records embed their spans as
:meth:`~repro.telemetry.spans.Span.as_dict` rows — the exact shape
:func:`~repro.telemetry.export.spans_from_dicts` inverts, so a dump
re-renders through the Perfetto exporter (:func:`flight_chrome_trace`).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable

from .spans import Span

#: dump document schema tag (validated by :func:`validate_flight_dump`)
FLIGHT_SCHEMA = "repro-flight/1"

#: keep-reasons, in classification order (first match wins)
KEEP_ERROR = "error"
KEEP_REJECTED = "rejected"
KEEP_SLO = "slo"
KEEP_SAMPLE = "sample"

#: reasons that count toward SLO-burn detection
_BURN_REASONS = (KEEP_ERROR, KEEP_REJECTED, KEEP_SLO)


@dataclass
class FlightRecord:
    """One completed request, as the flight recorder remembers it."""

    trace_id: int
    seq: int
    op: str
    var: str = ""
    #: "ok", "rejected", or "error:<ExcType>"
    status: str = "ok"
    #: service-clock interval from accept to the encoded response
    start_ns: float = 0.0
    end_ns: float = 0.0
    bytes_in: int = 0
    bytes_out: int = 0
    #: why the tail sampler kept it (set by the recorder on keep)
    kept: str = ""
    #: the request's cross-layer span tree (accept → … → engine)
    spans: list[Span] = field(default_factory=list)

    @property
    def latency_ns(self) -> float:
        return self.end_ns - self.start_ns

    def as_dict(self) -> dict:
        return {
            "trace_id": self.trace_id,
            "trace_hex": f"{self.trace_id:016x}",
            "seq": self.seq,
            "op": self.op,
            "var": self.var,
            "status": self.status,
            "start_ns": self.start_ns,
            "end_ns": self.end_ns,
            "latency_ns": self.latency_ns,
            "bytes_in": self.bytes_in,
            "bytes_out": self.bytes_out,
            "kept": self.kept,
            "spans": [s.as_dict() for s in self.spans],
        }


class FlightRecorder:
    """Always-on bounded recorder of request span trees (see module doc)."""

    def __init__(self, capacity: int = 256, sample_every: int = 64,
                 slo_ns: float | None = None, *,
                 burn_window: int = 64, burn_frac: float = 0.5,
                 on_burn: Callable[["FlightRecorder"], None] | None = None):
        if capacity < 1:
            raise ValueError("flight recorder capacity must be >= 1")
        if sample_every < 1:
            raise ValueError("sample_every must be >= 1")
        self.capacity = capacity
        self.sample_every = sample_every
        self.slo_ns = slo_ns
        self.burn_window = burn_window
        self.burn_frac = burn_frac
        self.on_burn = on_burn
        self._ring: deque[FlightRecord] = deque(maxlen=capacity)
        self.offered = 0
        self.kept_total = 0
        self.kept_by_reason = {r: 0 for r in
                               (KEEP_ERROR, KEEP_REJECTED, KEEP_SLO,
                                KEEP_SAMPLE)}
        self.burns = 0
        self._healthy_seen = 0
        self._window: deque[bool] = deque(maxlen=max(1, burn_window))

    # ------------------------------------------------------------------ policy

    def classify(self, rec: FlightRecord) -> str | None:
        """The keep-reason ``rec`` earns, or None (tail-dropped)."""
        if rec.status == "rejected":
            return KEEP_REJECTED
        if rec.status.startswith("error:"):
            return KEEP_ERROR
        if self.slo_ns is not None and rec.latency_ns > self.slo_ns:
            return KEEP_SLO
        taken = self._healthy_seen % self.sample_every == 0
        self._healthy_seen += 1
        return KEEP_SAMPLE if taken else None

    def offer(self, rec: FlightRecord) -> str | None:
        """Run ``rec`` through tail sampling; returns the keep-reason."""
        self.offered += 1
        reason = self.classify(rec)
        if reason is not None:
            rec.kept = reason
            self._ring.append(rec)
            self.kept_total += 1
            self.kept_by_reason[reason] += 1
        # SLO-burn bookkeeping: a window full of for-cause keeps fires
        # the auto-dump hook once, then the window restarts
        self._window.append(reason in _BURN_REASONS)
        if (len(self._window) == self._window.maxlen
                and sum(self._window) >= self.burn_frac * len(self._window)):
            self.burns += 1
            self._window.clear()
            if self.on_burn is not None:
                self.on_burn(self)
        return reason

    # ------------------------------------------------------------------ read

    def __len__(self) -> int:
        return len(self._ring)

    def records(self, trace_id: int | None = None) -> list[FlightRecord]:
        """Kept records, oldest first (optionally one trace id's)."""
        if trace_id is None:
            return list(self._ring)
        return [r for r in self._ring if r.trace_id == trace_id]

    def stats(self) -> dict:
        return {
            "capacity": self.capacity,
            "resident": len(self._ring),
            "offered": self.offered,
            "kept": self.kept_total,
            "dropped": self.offered - self.kept_total,
            "kept_by_reason": dict(self.kept_by_reason),
            "burns": self.burns,
            "sample_every": self.sample_every,
            "slo_ns": self.slo_ns,
        }

    def dump(self) -> dict:
        """The whole ring as a JSON-able ``repro-flight/1`` document."""
        return {
            "schema": FLIGHT_SCHEMA,
            **self.stats(),
            "records": [r.as_dict() for r in self._ring],
        }


# ---------------------------------------------------------------------------
# dump consumers: validation + re-export through the existing paths
# ---------------------------------------------------------------------------

_REQUIRED_RECORD_KEYS = (
    "trace_id", "seq", "op", "status", "start_ns", "end_ns",
    "latency_ns", "kept", "spans",
)
_REQUIRED_SPAN_KEYS = ("span_id", "name", "rank", "start_ns", "end_ns")


def validate_flight_dump(doc) -> list[str]:
    """Schema check for a flight-recorder dump; returns violations."""
    errors: list[str] = []
    if not isinstance(doc, dict):
        return ["dump is not an object"]
    if doc.get("schema") != FLIGHT_SCHEMA:
        errors.append(f"schema is {doc.get('schema')!r}, "
                      f"expected {FLIGHT_SCHEMA!r}")
    for key in ("capacity", "offered", "kept", "records"):
        if key not in doc:
            errors.append(f"missing top-level key {key!r}")
    records = doc.get("records", [])
    if not isinstance(records, list):
        return errors + ["'records' is not an array"]
    if isinstance(doc.get("kept"), int) and len(records) > \
            doc.get("capacity", len(records)):
        errors.append("more records than capacity")
    for i, rec in enumerate(records):
        where = f"records[{i}]"
        if not isinstance(rec, dict):
            errors.append(f"{where}: not an object")
            continue
        for key in _REQUIRED_RECORD_KEYS:
            if key not in rec:
                errors.append(f"{where}: missing key {key!r}")
        if rec.get("kept") not in (KEEP_ERROR, KEEP_REJECTED, KEEP_SLO,
                                   KEEP_SAMPLE):
            errors.append(f"{where}: unknown keep-reason {rec.get('kept')!r}")
        if not isinstance(rec.get("spans"), list):
            errors.append(f"{where}: 'spans' is not an array")
            continue
        for j, sp in enumerate(rec["spans"]):
            if not isinstance(sp, dict):
                errors.append(f"{where}.spans[{j}]: not an object")
                continue
            for key in _REQUIRED_SPAN_KEYS:
                if key not in sp:
                    errors.append(f"{where}.spans[{j}]: missing {key!r}")
    return errors


def _dump_spans(doc_or_records) -> list[Span]:
    from .export import spans_from_dicts

    records = doc_or_records.get("records", []) \
        if isinstance(doc_or_records, dict) else list(doc_or_records)
    rows: list[dict] = []
    seen: set[int] = set()
    for rec in records:
        span_rows = rec["spans"] if isinstance(rec, dict) \
            else [s.as_dict() for s in rec.spans]
        for row in span_rows:
            # batch-shared spans (the engine stage) appear once per record
            if row["span_id"] in seen:
                continue
            seen.add(row["span_id"])
            rows.append(row)
    return spans_from_dicts(rows)


def flight_chrome_trace(doc_or_records, *,
                        process_name: str = "repro.flight") -> dict:
    """Render a dump (or a record list) through the Perfetto exporter."""
    from .export import chrome_trace

    return chrome_trace(_dump_spans(doc_or_records),
                        process_name=process_name)

