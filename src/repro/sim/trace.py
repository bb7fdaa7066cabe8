"""Trace operation types recorded by the functional pass.

A trace is, per rank, an ordered list of ops.  Five kinds exist:

- :class:`Delay` — a fixed latency (syscall entry, page fault, msync commit);
- :class:`Transfer` — ``amount`` abstract units moved through one named
  resource, rate-limited by a per-stream cap and by the resource's max-min
  fair share (bytes for devices, core-nanoseconds for the CPU);
- :class:`Barrier` — a rendezvous among a set of ranks; completes for all
  participants when the last one arrives;
- :class:`Acquire` / :class:`Release` — enter/exit a named critical section.
  The timing pass serializes exclusive sections on the same ``lock_id``
  (FIFO, shared readers batched), so lock contention shows up in modeled
  wall-clock — not just in the functional pass's thread interleaving.

Ops carry a ``phase`` label so results can be broken down into the paper's
copy-path stages (generate / rearrange / serialize / kernel / device...).

One more *entry* kind stores many ops at once: :class:`Rows`, the N row
reads of one partial-read chunk held as numpy columns.  It stands for its
expansion — per row, its fault delays, a read :class:`Delay` and a
:class:`Transfer` — and :attr:`RankTrace.ops` shows only that expansion, so
a row batch is a storage format, never a cost-model change.
"""

from __future__ import annotations

import copy
import itertools
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class Delay:
    ns: float
    phase: str = ""
    note: str = ""

    def __post_init__(self):
        if self.ns < 0:
            raise ValueError(f"negative delay: {self.ns}")


@dataclass(frozen=True)
class Transfer:
    resource: str
    amount: float          # abstract units (bytes, or core-ns for "cpu")
    stream_cap: float      # units per ns this stream can draw at most
    phase: str = ""
    note: str = ""

    def __post_init__(self):
        if self.amount < 0:
            raise ValueError(f"negative transfer amount: {self.amount}")
        if self.stream_cap <= 0:
            raise ValueError(f"non-positive stream cap: {self.stream_cap}")


@dataclass(frozen=True)
class Barrier:
    #: barriers with the same id and participant set rendezvous together.
    barrier_id: int
    participants: tuple[int, ...]
    phase: str = ""


@dataclass(frozen=True)
class Acquire:
    """Enter a critical section on ``lock_id``.

    Takes zero time when the lock is free; otherwise the rank waits (time
    charged to the ``lock`` bucket) until the holder(s) release.  ``shared``
    acquisitions coexist with other shared holders (reader-writer
    semantics); exclusive ones serialize.
    """

    lock_id: str
    shared: bool = False
    phase: str = ""
    note: str = ""


@dataclass(frozen=True)
class Release:
    """Leave the critical section entered by the matching :class:`Acquire`."""

    lock_id: str
    phase: str = ""


TraceOp = Delay | Transfer | Barrier | Acquire | Release


@dataclass(frozen=True, eq=False)
class Rows:
    """The reads of ``len(model_bytes)`` rows, in columns.

    Row ``i`` stands for, in order: one ``Delay(ns[i], phase, lead_note)``
    per ``(lead_note, ns)`` of :attr:`lead` where ``ns[i] > 0`` (the
    faults its first touch takes), then ``Delay(read_ns, phase, note)``
    and ``Transfer(resource, model_bytes[i], stream_cap, phase, note)`` —
    each row keeps its own two read ops, because alternating latency and
    bandwidth ops are not equivalent to their totals under contention.
    Iterating yields that expansion; the columns are float64.
    """

    phase: str
    read_ns: float
    resource: str
    stream_cap: float
    note: str
    model_bytes: np.ndarray
    lead: tuple[tuple[str, np.ndarray], ...] = ()
    #: the number of ops the entry stands for
    n_ops: int = field(init=False)

    def __post_init__(self):
        n = len(self.model_bytes)
        if not n or not self.model_bytes.min() > 0:
            raise ValueError("Rows: every row must move bytes")
        if not self.read_ns > 0:
            raise ValueError(f"Rows: non-positive read delay {self.read_ns}")
        if not self.stream_cap > 0:
            raise ValueError(f"non-positive stream cap: {self.stream_cap}")
        n_ops = 2 * n
        for _note, ns in self.lead:
            if len(ns) != n or not ns.min() >= 0:
                raise ValueError("Rows: a lead column is not one ns per row")
            n_ops += int(np.count_nonzero(ns))
        object.__setattr__(self, "n_ops", n_ops)

    def __len__(self) -> int:
        return len(self.model_bytes)

    def __getitem__(self, rows: slice) -> "Rows":
        """The entry of a contiguous slice of the rows (valid as a part of
        a valid entry, so not checked again)."""
        part = copy.copy(self)
        lead = tuple((note, ns[rows]) for note, ns in self.lead)
        model_bytes = self.model_bytes[rows]
        object.__setattr__(part, "model_bytes", model_bytes)
        object.__setattr__(part, "lead", lead)
        object.__setattr__(part, "n_ops", 2 * len(model_bytes) + sum(
            int(np.count_nonzero(ns)) for _note, ns in lead))
        return part

    def steps(self, start: float, rate: float) -> np.ndarray:
        """``start``, then the clock increment of each op slot, row by row:
        each lead column's ns (0 where the row takes no such op), the read
        delay and ``model_bytes / rate``.  ``np.add.accumulate`` of it is
        the clock after every slot, by the left fold ``clock += step``."""
        n, width = len(self), len(self.lead) + 2
        steps = np.empty(n * width + 1)
        steps[0] = start
        grid = steps[1:].reshape(n, width)
        for k, (_note, ns) in enumerate(self.lead):
            grid[:, k] = ns
        grid[:, -2] = self.read_ns
        np.divide(self.model_bytes, rate, out=grid[:, -1])
        return steps

    def __iter__(self):
        phase, note = self.phase, self.note
        read = Delay(self.read_ns, phase, note)
        lead = [(lead_note, ns.tolist()) for lead_note, ns in self.lead]
        for i, amount in enumerate(self.model_bytes.tolist()):
            for lead_note, ns in lead:
                if ns[i] > 0:
                    yield Delay(ns[i], phase, lead_note)
            yield read
            yield Transfer(self.resource, amount, self.stream_cap, phase, note)


class TraceOps(Sequence):
    """Read-only view of a trace's ops with every :class:`Rows` entry
    expanded (lazily, on iteration); compares ``==`` to a list of ops."""

    __slots__ = ("_entries",)

    def __init__(self, entries: list):
        self._entries = entries

    def __iter__(self):
        entries = self._entries
        if Rows not in map(type, entries):
            return iter(entries)
        return itertools.chain.from_iterable(
            e if type(e) is Rows else (e,) for e in entries)

    def __len__(self) -> int:
        entries = self._entries
        if Rows not in map(type, entries):
            return len(entries)
        return sum(e.n_ops if type(e) is Rows else 1 for e in entries)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(self)[index]
        if index < 0:
            index += len(self)
        if index >= 0:
            for op in itertools.islice(self, index, None):
                return op
        raise IndexError("trace op index out of range")

    def __eq__(self, other) -> bool:
        if isinstance(other, (TraceOps, list, tuple)):
            return list(self) == list(other)
        return NotImplemented

    __hash__ = None

    def __repr__(self) -> str:
        return repr(list(self))


class RankTrace:
    """The ordered op list of a single rank.

    :attr:`entries` is the stored list — ops and :class:`Rows` entries,
    which recording appends to directly; :attr:`ops` is its read-only
    expanded view, the sequence of ops the trace stands for.
    """

    def __init__(self, rank: int, ops=(), *, metrics=None, spans=None,
                 tracer=None, lock_events=None):
        self.rank = rank
        self.entries: list = list(ops)
        #: the rank's typed metric families (a ``repro.telemetry.MetricRegistry``),
        #: created lazily on first ``metrics_for()`` or ``record()`` — kept here
        #: so counters, gauges and fixed-bucket histograms survive the SPMD run
        #: alongside the ops they describe
        self.metrics = metrics
        #: completed structured spans (``repro.telemetry.Span``) in close
        #: order, appended by the rank's tracer; a batch of leaf spans sits
        #: here as one entry until :attr:`spans` is read
        self.span_entries: list = list(spans or ())
        #: how many batch entries :attr:`span_entries` still holds
        self.span_batches = 0
        #: the rank's span tracer (a ``repro.telemetry.Tracer``), created
        #: lazily on first ``tracer_for()``; holds the open-span stack
        self.tracer = tracer
        #: lock-discipline event log: ``("acquire", lock_id, "r"|"w")``,
        #: ``("release", lock_id, "")`` and ``("write", scope, "")`` tuples in
        #: rank program order, consumed by :mod:`repro.sim.lockcheck`
        self.lock_events: list = lock_events if lock_events is not None else []

    @property
    def ops(self) -> TraceOps:
        return TraceOps(self.entries)

    def op_list(self) -> list:
        """The ops as a list: :attr:`entries` itself when it holds no
        :class:`Rows` entry, else a new expanded list."""
        entries = self.entries
        if Rows in map(type, entries):
            return list(TraceOps(entries))
        return entries

    @property
    def spans(self) -> list:
        """The completed spans, every batch entry expanded in place."""
        if self.span_batches:
            self.span_entries[:] = itertools.chain.from_iterable(
                s.spans() if hasattr(s, "spans") else (s,)
                for s in self.span_entries)
            self.span_batches = 0
        return self.span_entries

    def __eq__(self, other) -> bool:
        if not isinstance(other, RankTrace):
            return NotImplemented
        return self.rank == other.rank and self.ops == other.ops

    __hash__ = None

    def __repr__(self) -> str:
        return f"RankTrace(rank={self.rank!r}, ops={self.ops!r})"

    def append(self, op: TraceOp) -> None:
        self.entries.append(op)

    # -- analytic helpers (used by tests and sanity checks) ------------------

    def total_delay_ns(self) -> float:
        return sum(op.ns for op in self.ops if isinstance(op, Delay))

    def total_amount(self, resource: str) -> float:
        return sum(
            op.amount
            for op in self.ops
            if isinstance(op, Transfer) and op.resource == resource
        )

    def lower_bound_ns(self) -> float:
        """Uncontended lower bound: every transfer at its stream cap."""
        t = self.total_delay_ns()
        for op in self.ops:
            if isinstance(op, Transfer):
                t += op.amount / op.stream_cap
        return t
