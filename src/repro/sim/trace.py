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
"""

from __future__ import annotations

from dataclasses import dataclass, field


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


@dataclass
class RankTrace:
    """The ordered op list of a single rank."""

    rank: int
    ops: list[TraceOp] = field(default_factory=list)
    #: the rank's typed metric families (a ``repro.telemetry.MetricRegistry``),
    #: created lazily on first ``metrics_for()`` or ``record()`` — kept here
    #: so counters, gauges and fixed-bucket histograms survive the SPMD run
    #: alongside the ops they describe
    metrics: object | None = field(default=None, compare=False, repr=False)
    #: completed structured spans (``repro.telemetry.Span``), appended by
    #: the rank's tracer as instrumented operations close
    spans: list = field(default_factory=list, compare=False, repr=False)
    #: the rank's span tracer (a ``repro.telemetry.Tracer``), created
    #: lazily on first ``tracer_for()``; holds the open-span stack
    tracer: object | None = field(default=None, compare=False, repr=False)
    #: lock-discipline event log: ``("acquire", lock_id, "r"|"w")``,
    #: ``("release", lock_id, "")`` and ``("write", scope, "")`` tuples in
    #: rank program order, consumed by :mod:`repro.sim.lockcheck`
    lock_events: list = field(default_factory=list, compare=False, repr=False)

    def append(self, op: TraceOp) -> None:
        self.ops.append(op)

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
