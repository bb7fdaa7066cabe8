"""Scenario measurement on the modeled clock.

Each scenario runs once, every span recorded.  Everything it reports —
the exact modeled makespan and the critical-path summary — comes from
the simulator clock, so one run is the measurement.  Host wall time is not
measured here: ``bench/`` owns that clock (DESIGN.md §10).
"""

from __future__ import annotations

from dataclasses import dataclass

from .scenarios import Scenario


@dataclass
class Measurement:
    """One scenario's tracked figures (a ``runs[]`` record)."""

    scenario: str
    group: str
    modeled_ns: float
    #: compact critical-path summary ({"total_ns", "families", "source"})
    #: from the scenario's causal replay; absent on legacy records
    critpath: dict | None = None

    def as_run(self) -> dict:
        out = {
            "scenario": self.scenario,
            "group": self.group,
            "modeled_ns": self.modeled_ns,
        }
        if self.critpath is not None:
            out["critpath"] = self.critpath
        return out

    @classmethod
    def from_run(cls, d: dict) -> "Measurement":
        """Read a ``runs[]`` record; keys it does not track (such as the
        ``families``/``latency`` maps of older records) are ignored."""
        return cls(
            scenario=d["scenario"],
            group=d.get("group", ""),
            modeled_ns=float(d["modeled_ns"]),
            critpath=d.get("critpath"),
        )


def measure_scenario(scenario: Scenario) -> Measurement:
    """Run one scenario once."""
    record = scenario.run()
    return Measurement(
        scenario=scenario.name,
        group=scenario.group,
        modeled_ns=float(record["modeled_ns"]),
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
