"""mpmetrics-style monotonic counters.

A :class:`Counters` is a flat bag of named, add-only floats.  Every rank
owns exactly one (attached to its :class:`~repro.sim.trace.RankTrace`, so
counters survive the SPMD run and can be aggregated afterwards), and every
instrumentation point is a single dict add — cheap enough to leave on by
default, Darshan-style.

The counter taxonomy (see DESIGN.md "I/O telemetry"):

==========================  ==================================================
``*_ops`` / ``*_calls``     event counts (stores, loads, persists, acquires)
``*_bytes``                 byte totals; device counters carry *modeled*
                            (paper-scale) bytes, ``logical_*``/``driver_*``
                            counters carry real payload bytes
``*_ns``                    modeled nanoseconds (e.g. meta-lock hold time)
``phase:<name>_ns``         modeled lower-bound ns spent inside a trace phase
``meta.lock.acquires``      metadata-guard acquisitions (any scope)
``meta.lock.contended``     acquisitions that had to wait for another rank
``meta.stripe.<i>.acquires``  acquisitions landing on stripe lane ``i`` —
                            the stripe-occupancy histogram
==========================  ==================================================
"""

from __future__ import annotations

import functools
import operator
from typing import Iterable


class Counters:
    """A named bag of monotonically increasing counters."""

    __slots__ = ("_c",)

    def __init__(self):
        self._c: dict[str, float] = {}

    # ------------------------------------------------------------------ update

    def add(self, name: str, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {name!r}: negative increment {amount}")
        self._c[name] = self._c.get(name, 0.0) + amount

    def add_each(self, name: str, amounts: list[float]) -> None:
        """:meth:`add` each of ``amounts`` in order (a float total depends
        on the order of its additions, so they are not pre-summed)."""
        if not amounts:
            return
        if min(amounts) < 0:
            raise ValueError(
                f"counter {name!r}: negative increment {min(amounts)}")
        self._c[name] = functools.reduce(
            operator.add, amounts, self._c.get(name, 0.0))

    def merge(self, other: "Counters") -> "Counters":
        for name, v in other._c.items():
            self._c[name] = self._c.get(name, 0.0) + v
        return self

    @classmethod
    def merged(cls, counters: Iterable["Counters | None"]) -> "Counters":
        """Sum a set of per-rank counter bags into one."""
        out = cls()
        for c in counters:
            if c is not None:
                out.merge(c)
        return out

    # ------------------------------------------------------------------ read

    def get(self, name: str) -> float:
        return self._c.get(name, 0.0)

    def __contains__(self, name: str) -> bool:
        return name in self._c

    def __len__(self) -> int:
        return len(self._c)

    def as_dict(self) -> dict[str, float]:
        return dict(sorted(self._c.items()))

    # ------------------------------------------------------------------ render

    def render(self, title: str = "I/O telemetry") -> str:
        """Fixed-width counter table (the ``--profile`` view)."""
        lines = [f"== {title} =="]
        if not self._c:
            lines.append("  (no counters recorded)")
            return "\n".join(lines)
        width = max(len(n) for n in self._c)
        for name in sorted(self._c):
            lines.append(f"  {name:<{width}}  {_fmt_value(name, self._c[name])}")
        return "\n".join(lines)


def _fmt_value(name: str, v: float) -> str:
    if name.endswith("_ns"):
        return _fmt_quantity(v, "ns")
    if name.endswith("_bytes"):
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
