"""mpmetrics-style typed metric families: Counter, Gauge, Histogram.

Every rank counts in exactly one :class:`MetricRegistry`, attached to its
:class:`~repro.sim.trace.RankTrace` and merged after an SPMD run with
:func:`MetricRegistry.merged`; each family has well-defined cross-rank and
cross-run aggregation semantics.

Naming rules (DESIGN.md §9):

=====================  ====================================================
``<layer>.<op>``        Counter — event count (``pmdk.lock.acquires``)
``*_ops`` / ``*_bytes``  Counter — tallies bumped by ``record()``
                        (``driver_write_ops``, ``pmemcpy_stored_read_bytes``)
``<layer>.<op>.ns``     Histogram — latency in modeled ns, log2 buckets
``<layer>.<op>.bytes``  Histogram — access sizes in bytes, log2 buckets;
                        its count/sum are the op and byte totals
``meta.stripe.acquires``  Histogram — stripe-lane occupancy, lane buckets
``*.inflight`` etc.     Gauge — last-written level (merge takes the max)
=====================  ====================================================

Histograms carry **fixed** buckets so aggregation is O(buckets), never
O(distinct values): the default scheme is log2 (bucket *i* holds values in
``(2^(i-1), 2^i]``), and :data:`LANE_BOUNDS` is a fixed 64-lane linear
scheme for stripe-occupancy distributions (exact for up to 64 stripes,
overflowing into the last bucket beyond — replacing the unbounded
``meta.stripe.<i>.acquires`` counter keys).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Iterable

import numpy as np

#: number of log2 buckets: values up to 2**63 land exactly, bigger overflow
_NLOG2 = 64

#: upper bounds ("le") of the default latency/size buckets: 1, 2, 4, ...
LOG2_BOUNDS: tuple[float, ...] = tuple(float(2 ** i) for i in range(_NLOG2))

#: fixed 64-lane linear bounds for stripe-occupancy histograms
LANE_BOUNDS: tuple[float, ...] = tuple(float(i) for i in range(64))


class Counter:
    """A named monotonic event counter (merge = sum)."""

    kind = "counter"
    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def add(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r}: negative add {amount}")
        self.value += amount

    def merge(self, other: "Counter") -> None:
        self.value += other.value

    def as_dict(self) -> dict:
        return {"kind": "counter", "value": self.value}

    def load(self, d: dict) -> None:
        self.value = float(d["value"])


class Gauge:
    """A named level (merge = max: "the worst rank sets the figure")."""

    kind = "gauge"
    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def add(self, amount: float) -> None:
        self.value += amount

    def merge(self, other: "Gauge") -> None:
        self.value = max(self.value, other.value)

    def as_dict(self) -> dict:
        return {"kind": "gauge", "value": self.value}

    def load(self, d: dict) -> None:
        self.value = float(d["value"])


class Histogram:
    """Fixed-bucket distribution with count/sum/min/max.

    ``bounds`` are inclusive upper edges; a final implicit +Inf bucket
    catches overflow.  Two histograms merge only if their bounds match —
    which fixed schemes guarantee — making cross-rank and cross-run
    aggregation O(len(bounds)).
    """

    kind = "histogram"
    __slots__ = ("name", "bounds", "buckets", "count", "sum", "min", "max")

    def __init__(self, name: str, bounds: tuple[float, ...] = LOG2_BOUNDS):
        self.name = name
        # keep identity for the canonical schemes: _index fast-paths on it
        self.bounds = bounds if bounds in (LOG2_BOUNDS, LANE_BOUNDS) \
            else tuple(bounds)
        self.buckets = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def _index(self, value: float) -> int:
        if self.bounds is LOG2_BOUNDS:
            # fast path: bucket i covers (2^(i-1), 2^i]
            if value <= 1.0:
                return 0
            i = int(value)
            n = i.bit_length() - (1 if i == value and not i & (i - 1) else 0)
            return min(n, _NLOG2)
        return bisect_left(self.bounds, value)

    def observe(self, value: float) -> None:
        self.buckets[self._index(value)] += 1
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def observe_many(self, values) -> None:
        """:meth:`observe` each of ``values`` (a sequence or ndarray of
        floats) in order: ``sum`` accumulates by the same left fold of
        float additions, so the state afterwards is what the one-by-one
        calls leave."""
        values = np.asarray(values, dtype=np.float64)
        if not len(values):
            return
        low, high = float(values.min()), float(values.max())
        if not (math.isfinite(low) and math.isfinite(high)):
            for value in values.tolist():
                self.observe(value)
            return
        first = self._index(low)
        if first == self._index(high):     # buckets are ordered by value
            self.buckets[first] += len(values)
        else:
            if self.bounds is LOG2_BOUNDS:
                # bucket i covers (2^(i-1), 2^i]: frexp's exponent, one
                # less for an exact power of two
                mant, exp = np.frexp(values)
                index = np.where(values <= 1.0, 0,
                                 np.minimum(exp - (mant == 0.5), _NLOG2))
            else:
                index = np.searchsorted(self.bounds, values, side="left")
            counts = np.bincount(index, minlength=len(self.buckets))
            for i in np.flatnonzero(counts).tolist():
                self.buckets[i] += int(counts[i])
        self.count += len(values)
        # finite draws may sum past float max, and inf + -inf is nan: the
        # values observe() gets silently from Python floats
        with np.errstate(over="ignore", invalid="ignore"):
            self.sum = float(np.add.accumulate(
                np.concatenate(([self.sum], values)))[-1])
        self.min = min(self.min, low)
        self.max = max(self.max, high)

    def merge(self, other: "Histogram") -> None:
        if self.bounds != other.bounds:
            raise ValueError(
                f"histogram {self.name!r}: merging incompatible bucket bounds"
            )
        for i, n in enumerate(other.buckets):
            self.buckets[i] += n
        self.count += other.count
        self.sum += other.sum
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)

    # ------------------------------------------------------------------ read

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Upper-edge estimate of the q-quantile (0 <= q <= 1)."""
        if not self.count:
            return 0.0
        target = q * self.count
        seen = 0
        for i, n in enumerate(self.buckets):
            seen += n
            if seen >= target and n:
                if i >= len(self.bounds):
                    return self.max
                return min(self.bounds[i], self.max)
        return self.max

    def percentiles(
        self, ps: tuple[float, ...] = (0.5, 0.95, 0.99)
    ) -> dict[str, float]:
        """``{"p50": ..., "p95": ..., "p99": ...}`` upper-edge estimates.

        The one shared spelling of percentile extraction — report renderers
        and the perf observatory consume this instead of re-deriving bucket
        math.  Keys are ``p<100q>`` (``0.999`` -> ``p99.9``)."""
        return {f"p{100 * p:g}": self.quantile(p) for p in ps}

    def nonzero_buckets(self) -> list[tuple[float, int]]:
        """``[(upper_edge, count)]`` for occupied buckets only."""
        out = []
        for i, n in enumerate(self.buckets):
            if n:
                edge = self.bounds[i] if i < len(self.bounds) else float("inf")
                out.append((edge, n))
        return out

    def as_dict(self) -> dict:
        return {
            "kind": "histogram",
            "count": self.count,
            "sum": self.sum,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
            "bounds": "lane64" if self.bounds == LANE_BOUNDS else "log2",
            "buckets": {
                str(edge): n for edge, n in self.nonzero_buckets()
            },
        }

    def load(self, d: dict) -> None:
        self.count = int(d["count"])
        self.sum = float(d["sum"])
        self.min = float(d["min"]) if self.count else float("inf")
        self.max = float(d["max"]) if self.count else float("-inf")
        edges = list(self.bounds) + [float("inf")]
        for edge_s, n in d.get("buckets", {}).items():
            edge = float(edge_s)
            self.buckets[edges.index(edge)] += int(n)


_BOUND_SCHEMES = {"log2": LOG2_BOUNDS, "lane64": LANE_BOUNDS}


class MetricRegistry:
    """One rank's (or one merged run's) named metric families.

    Lookup-or-create accessors are the hot path: a metric is a single dict
    probe away, so instrumentation points stay Darshan-cheap.
    """

    __slots__ = ("_m",)

    def __init__(self):
        self._m: dict[str, Counter | Gauge | Histogram] = {}

    # ------------------------------------------------------------------ families

    def _family(self, name: str, cls, *args):
        m = self._m.get(name)
        if m is None:
            m = self._m[name] = cls(name, *args)
        elif type(m) is not cls:
            raise TypeError(
                f"metric {name!r} already registered as {m.kind}, "
                f"requested {cls.kind}"
            )
        return m

    def counter(self, name: str) -> Counter:
        return self._family(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._family(name, Gauge)

    def histogram(self, name: str,
                  bounds: tuple[float, ...] = LOG2_BOUNDS) -> Histogram:
        h = self._family(name, Histogram, bounds)
        return h

    # ------------------------------------------------------------------ read / merge

    def get(self, name: str):
        return self._m.get(name)

    def names(self) -> list[str]:
        return sorted(self._m)

    def __len__(self) -> int:
        return len(self._m)

    def __contains__(self, name: str) -> bool:
        return name in self._m

    def merge(self, other: "MetricRegistry") -> "MetricRegistry":
        for name, m in other._m.items():
            mine = self._m.get(name)
            if mine is None:
                if isinstance(m, Histogram):
                    mine = self._m[name] = Histogram(name, m.bounds)
                else:
                    mine = self._m[name] = type(m)(name)
            mine.merge(m)
        return self

    @classmethod
    def merged(cls, registries: Iterable["MetricRegistry | None"]
               ) -> "MetricRegistry":
        out = cls()
        for r in registries:
            if r is not None:
                out.merge(r)
        return out

    # ------------------------------------------------------------------ (de)serialization

    def as_dict(self) -> dict:
        return {name: self._m[name].as_dict() for name in sorted(self._m)}

    @classmethod
    def from_dict(cls, d: dict) -> "MetricRegistry":
        out = cls()
        for name, md in d.items():
            kind = md.get("kind")
            if kind == "counter":
                out.counter(name).load(md)
            elif kind == "gauge":
                out.gauge(name).load(md)
            elif kind == "histogram":
                bounds = _BOUND_SCHEMES.get(md.get("bounds", "log2"),
                                            LOG2_BOUNDS)
                out.histogram(name, bounds).load(md)
            else:
                raise ValueError(f"metric {name!r}: unknown kind {kind!r}")
        return out

    # ------------------------------------------------------------------ render

    def render(self, title: str = "metric families") -> str:
        """Fixed-width table, one family per line (the ``--profile``
        view)."""
        lines = [f"== {title} =="]
        if not self._m:
            lines.append("  (no metrics recorded)")
            return "\n".join(lines)
        width = max(len(n) for n in self._m)
        for name in sorted(self._m):
            m = self._m[name]
            if isinstance(m, Histogram):
                lines.append(
                    f"  {name:<{width}}  n={m.count:<8} "
                    f"sum={_fmt_value(name, m.sum)}  mean="
                    f"{_fmt_value(name, m.mean)}  p50="
                    f"{_fmt_value(name, m.quantile(0.5))}  p99="
                    f"{_fmt_value(name, m.quantile(0.99))}"
                )
            else:
                lines.append(
                    f"  {name:<{width}}  {_fmt_value(name, m.value)}"
                )
        return "\n".join(lines)


def _fmt_value(name: str, v: float) -> str:
    """Render ``v`` in the unit the metric's name ends in."""
    if name.endswith(("_ns", ".ns")):
        return _fmt_quantity(v, "ns")
    if name.endswith(("_bytes", ".bytes")):
        return _fmt_quantity(v, "B")
    if v == int(v):
        return f"{int(v):,}"
    return f"{v:,.2f}"


def _fmt_quantity(v: float, unit: str) -> str:
    """``12,345,678 B (11.8 MiB)``-style rendering."""
    base = f"{v:,.0f} {unit}" if v == int(v) else f"{v:,.2f} {unit}"
    if unit == "B" and v >= 1024:
        scaled, suffix = float(v), ""
        for s in ("KiB", "MiB", "GiB", "TiB"):
            if scaled < 1024:
                break
            scaled /= 1024
            suffix = s
        return f"{base} ({scaled:.1f} {suffix})"
    if unit == "ns" and v >= 1e3:
        for factor, s in ((1e9, "s"), (1e6, "ms"), (1e3, "us")):
            if v >= factor:
                return f"{base} ({v / factor:.2f} {s})"
    return base
