"""Scenario measurement on the modeled clock.

Each scenario runs once with ``REPRO_TRACE`` forced to ``full`` so the
span families are always recorded.  Everything it reports — the exact
modeled makespan and the critical-path summary — comes from the
simulator clock, so one run is the measurement.  Host wall time is not
measured here: ``bench/`` owns that clock (DESIGN.md §10).
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from ..telemetry.spans import TRACE_ENV
from .scenarios import Scenario


@dataclass
class Measurement:
    """One scenario's tracked figures (a ``runs[]`` record)."""

    scenario: str
    group: str
    deterministic: bool
    modeled_ns: float
    modeled_tolerance_frac: float | None = None
    #: compact critical-path summary ({"total_ns", "families", "source"})
    #: from the scenario's causal replay; absent on legacy records
    critpath: dict | None = None

    def as_run(self) -> dict:
        out = {
            "scenario": self.scenario,
            "group": self.group,
            "deterministic": self.deterministic,
            "modeled_ns": self.modeled_ns,
        }
        if self.modeled_tolerance_frac is not None:
            out["modeled_tolerance_frac"] = self.modeled_tolerance_frac
        if self.critpath is not None:
            out["critpath"] = self.critpath
        return out

    @classmethod
    def from_run(cls, d: dict) -> "Measurement":
        """Read a ``runs[]`` record; keys it does not track (such as the
        ``families``/``latency`` maps of older records) are ignored."""
        tol = d.get("modeled_tolerance_frac")
        return cls(
            scenario=d["scenario"],
            group=d.get("group", ""),
            deterministic=bool(d.get("deterministic", False)),
            modeled_ns=float(d["modeled_ns"]),
            modeled_tolerance_frac=float(tol) if tol is not None else None,
            critpath=d.get("critpath"),
        )


def measure_scenario(scenario: Scenario) -> Measurement:
    """Run one scenario once under full tracing."""
    prev_trace = os.environ.get(TRACE_ENV)
    os.environ[TRACE_ENV] = "full"
    try:
        record = scenario.run()
    finally:
        if prev_trace is None:
            os.environ.pop(TRACE_ENV, None)
        else:
            os.environ[TRACE_ENV] = prev_trace
    return Measurement(
        scenario=scenario.name,
        group=scenario.group,
        deterministic=scenario.deterministic,
        modeled_ns=float(record["modeled_ns"]),
        modeled_tolerance_frac=scenario.modeled_tolerance_frac,
        critpath=record["critpath"],
    )


def measure_all(scenarios, progress=None) -> list[Measurement]:
    out = []
    for s in scenarios:
        m = measure_scenario(s)
        if progress is not None:
            progress(m)
        out.append(m)
    return out
