"""Structured spans: a causal, timed tree over every I/O operation.

A :class:`Span` is one named, timed interval of a rank's execution —
start/end in **modeled nanoseconds** (the rank's ``ctx.lb_ns`` lower-bound
clock), the owning rank, a parent link, free-form attributes, and a status
("ok" or the exception type that unwound it).  Spans nest: the per-rank
:class:`Tracer` keeps an open-span stack, so instrumenting a layer is one
``with span(ctx, "name"):`` and the causal tree falls out.  Completed spans
accumulate on the rank's :class:`~repro.sim.trace.RankTrace` (like the
telemetry counters) and survive the SPMD run for export
(:mod:`repro.telemetry.export`).

Span accounting is **exception-safe by construction**: the context manager
closes the span in ``finally``, tagging it ``error:<ExcType>`` — an
exception can never leak an unclosed span or charge a success counter.

Every span is recorded (Darshan-style always-on).  On close, each also
feeds the ``span.<name>.ns`` latency histogram of the rank's metric
registry, so latency distributions survive even when the full trees are
later discarded.
"""

from __future__ import annotations

import collections
import itertools

import numpy as np

_span_ids = itertools.count(1)


class Span:
    """One completed (or open) timed interval of a rank's execution."""

    __slots__ = ("span_id", "parent_id", "name", "rank",
                 "start_ns", "end_ns", "attrs", "status")

    def __init__(self, span_id: int, parent_id: int | None, name: str,
                 rank: int, start_ns: float, attrs: dict | None):
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.rank = rank
        self.start_ns = start_ns
        self.end_ns = start_ns
        self.attrs = attrs
        self.status = "ok"

    @property
    def duration_ns(self) -> float:
        return self.end_ns - self.start_ns

    def as_dict(self) -> dict:
        d = {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "rank": self.rank,
            "start_ns": self.start_ns,
            "end_ns": self.end_ns,
            "status": self.status,
        }
        if self.attrs:
            d["attrs"] = dict(self.attrs)
        return d

    def __repr__(self) -> str:
        return (f"Span({self.name!r}, rank={self.rank}, "
                f"[{self.start_ns:.0f}..{self.end_ns:.0f}]ns, "
                f"{self.status})")


class LeafBatch:
    """``len(starts)`` childless ``name`` spans of one rank, in columns.

    Span ``i`` has id ``first_id + i``, the given parent, the interval
    ``[starts[i], ends[i]]``, attrs ``{"bytes": nbytes[i]}`` and status
    "ok".  :meth:`spans` builds those objects; until the trace's spans are
    read, the batch stands in their place."""

    __slots__ = ("name", "parent_id", "rank", "first_id", "starts", "ends",
                 "nbytes")

    def __init__(self, name: str, parent_id: int | None, rank: int,
                 first_id: int, starts: np.ndarray, ends: np.ndarray,
                 nbytes: np.ndarray):
        self.name = name
        self.parent_id = parent_id
        self.rank = rank
        self.first_id = first_id
        self.starts = starts
        self.ends = ends
        self.nbytes = nbytes

    def spans(self) -> list[Span]:
        out = []
        for span_id, start, end, nbytes in zip(
            itertools.count(self.first_id), self.starts.tolist(),
            self.ends.tolist(), self.nbytes.tolist(),
        ):
            s = Span(span_id, self.parent_id, self.name, self.rank, start,
                     {"bytes": nbytes})
            s.end_ns = end
            out.append(s)
        return out


class Tracer:
    """Per-rank span recorder (attached lazily to the rank's trace)."""

    __slots__ = ("trace", "rank", "stack", "_hists")

    def __init__(self, trace):
        self.trace = trace
        self.rank = trace.rank
        self.stack: list[Span] = []
        #: per-name cache of the ``span.<name>.ns`` histograms — span close
        #: is the hot path, one f-string + registry probe per name total
        self._hists: dict = {}

    def begin(self, ctx, name: str, attrs: dict | None = None) -> Span:
        parent = self.stack[-1].span_id if self.stack else None
        s = Span(next(_span_ids), parent, name, self.rank, ctx.lb_ns, attrs)
        self.stack.append(s)
        return s

    def end(self, ctx, span: Span, status: str = "ok") -> None:
        top = self.stack.pop()
        if top is not span:  # pragma: no cover - instrumentation bug guard
            raise RuntimeError(
                f"span stack corrupted: closing {span!r}, top is {top!r}"
            )
        span.end_ns = ctx.lb_ns
        span.status = status
        self.trace.span_entries.append(span)
        h = self._hists.get(span.name) or self._hist(ctx, span.name)
        h.observe(span.end_ns - span.start_ns)

    def _hist(self, ctx, name: str):
        """The ``span.<name>.ns`` histogram, cached on first use."""
        from . import metrics_for

        h = self._hists[name] = metrics_for(ctx).histogram(f"span.{name}.ns")
        return h

    def leaves(self, ctx, name: str, starts: np.ndarray, ends: np.ndarray,
               nbytes: np.ndarray) -> None:
        """Record ``len(starts)`` childless spans that opened and closed
        one after the other at the given clocks, span ``i`` with attrs
        ``{"bytes": nbytes[i]}`` — what a ``begin``/``end`` pair per span
        records, span ids included — as one :class:`LeafBatch` entry of the
        rank's trace."""
        n = len(starts)
        if not n:
            return
        parent = self.stack[-1].span_id if self.stack else None
        # one C-level pass over the counter: the block of ids is consecutive
        # even while other rank threads mint ids
        last = collections.deque(itertools.islice(_span_ids, n), maxlen=1)[0]
        trace = self.trace
        trace.span_entries.append(LeafBatch(
            name, parent, self.rank, last - n + 1, starts, ends, nbytes))
        trace.span_batches += 1
        h = self._hists.get(name) or self._hist(ctx, name)
        h.observe_many(ends - starts)

    @property
    def depth(self) -> int:
        return len(self.stack)


def tracer_for(ctx) -> Tracer:
    """The calling rank's tracer (created on first use)."""
    trace = ctx.trace
    t = trace.tracer
    if t is None:
        t = trace.tracer = Tracer(trace)
    return t


class span:
    """``with span(ctx, "store.publish", var=name): ...``

    Exception-safe: the span always closes; an unwinding exception marks it
    ``error:<ExcType>`` and re-raises.  Attributes may be amended during
    the block via the yielded span object's ``attrs`` dict.
    """

    __slots__ = ("ctx", "name", "attrs", "_tracer", "_span")

    def __init__(self, ctx, name: str, **attrs):
        self.ctx = ctx
        self.name = name
        self.attrs = attrs or None

    def __enter__(self) -> Span:
        self._tracer = tracer_for(self.ctx)
        self._span = self._tracer.begin(self.ctx, self.name, self.attrs)
        return self._span

    def __exit__(self, exc_type, exc, tb):
        status = "ok" if exc_type is None else f"error:{exc_type.__name__}"
        self._tracer.end(self.ctx, self._span, status)
        return False


def spans_of(traces) -> list[Span]:
    """All completed spans of a finished run, ordered by (rank, start)."""
    out: list[Span] = []
    for t in traces:
        out.extend(getattr(t, "spans", ()))
    out.sort(key=lambda s: (s.rank, s.start_ns, s.span_id))
    return out


def as_span_list(traces_or_spans) -> list[Span]:
    """Normalize either a RankTrace list or a flat span list to spans."""
    seq = list(traces_or_spans)
    if seq and not isinstance(seq[0], Span):
        return spans_of(seq)
    return seq


def family_of(name: str) -> str:
    """Attribution-family key of a span name.

    Span names are already hierarchical (``store.persist``, ``pmdk.tx``);
    the one historical outlier is the hyphenated ``meta-lock`` span, which
    attributes as the ``meta.lock`` subsystem."""
    return name.replace("-", ".")
