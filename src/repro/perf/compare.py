"""Modeled-clock regression gating with critical-path attribution.

The simulator clock is deterministic, so the delta between baseline and
current ``modeled_ns`` is exact: anything beyond ±:data:`MODELED_GATE_FRAC`
(1%) is a real change.  Slowdowns fail; speedups are reported as ``improved``
(refresh the baseline).  Host wall time is not gated here — ``bench/``
owns that clock.

The modeled makespan *is* the critical path, so a failing scenario is
explained by one diff: :func:`~repro.telemetry.critpath.critpath_culprits`
ranks the span families (``meta.lock``, ``store.persist``, ``pmdk.tx``,
...) whose critical-path time grew, and the report names the family with
the most path time added across every failure.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..telemetry.critpath import critpath_culprits, narrate_culprits
from ..telemetry.metrics import _fmt_quantity
from .measure import Measurement

MODELED_GATE_FRAC = 0.01

#: verdict statuses that fail the gate
FAILING = ("modeled-regression",)


@dataclass
class ScenarioVerdict:
    scenario: str
    # ok | improved | modeled-regression | new
    status: str
    base_modeled_ns: float = 0.0
    cur_modeled_ns: float = 0.0
    modeled_delta_frac: float = 0.0
    #: per-family critical-path deltas (repro.telemetry.critpath rows) for
    #: failed scenarios where both sides recorded a critpath summary
    critpath_culprits: list[dict] = field(default_factory=list)
    #: one-sentence root-cause narrative derived from the culprits
    narrative: str = ""

    @property
    def failed(self) -> bool:
        return self.status in FAILING

    def as_dict(self) -> dict:
        d = {
            "scenario": self.scenario,
            "status": self.status,
            "base_modeled_ns": self.base_modeled_ns,
            "cur_modeled_ns": self.cur_modeled_ns,
            "modeled_delta_frac": round(self.modeled_delta_frac, 6),
        }
        if self.critpath_culprits:
            d["critpath_culprits"] = list(self.critpath_culprits)
        if self.narrative:
            d["narrative"] = self.narrative
        return d


@dataclass
class CompareReport:
    verdicts: list[ScenarioVerdict]
    missing: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not any(v.failed for v in self.verdicts)

    @property
    def regressions(self) -> list[ScenarioVerdict]:
        return [v for v in self.verdicts if v.failed]

    def top_critpath_family(self) -> str | None:
        """The family with the most critical-path time added across the
        failing scenarios — the report's one-line culprit."""
        totals: dict[str, float] = {}
        for v in self.regressions:
            for c in v.critpath_culprits:
                totals[c["family"]] = (
                    totals.get(c["family"], 0.0) + c["delta_ns"]
                )
        if not totals:
            return None
        return max(sorted(totals), key=lambda f: totals[f])

    def doctor_narrative(self) -> str:
        """Root-cause paragraph covering every failed scenario (empty when
        the gate passed or no critpath evidence exists)."""
        lines = [v.narrative for v in self.regressions if v.narrative]
        top = self.top_critpath_family()
        if top and lines:
            lines.append(f"Overall critical-path culprit: {top}.")
        return "\n".join(lines)

    def as_dict(self) -> dict:
        return {
            "ok": self.ok,
            "top_critpath_family": self.top_critpath_family(),
            "doctor_narrative": self.doctor_narrative(),
            "missing_from_run": list(self.missing),
            "scenarios": [v.as_dict() for v in self.verdicts],
        }

    def render(self) -> str:
        lines = ["== perf comparison ==",
                 f"  modeled gate ±{MODELED_GATE_FRAC * 100:.1f}% (exact)"]
        for v in self.verdicts:
            mark = {"ok": " ", "improved": "+", "new": "?"}.get(v.status, "!")
            lines.append(
                f"  [{mark}] {v.scenario:<24} {v.status:<19} "
                f"modeled {_fmt_quantity(v.cur_modeled_ns, 'ns'):<18} "
                f"({v.modeled_delta_frac * +100:+.2f}% vs baseline)"
            )
            if v.failed and v.critpath_culprits:
                lines.append("      critical-path diff "
                             "(path time added by span family):")
                for c in v.critpath_culprits[:5]:
                    lines.append(
                        f"        {c['family']:<18} "
                        f"+{_fmt_quantity(c['delta_ns'], 'ns'):<16} "
                        f"({_fmt_quantity(c['base_ns'], 'ns')} -> "
                        f"{_fmt_quantity(c['cur_ns'], 'ns')})"
                    )
            if v.failed and v.narrative:
                lines.append(f"      ROOT CAUSE: {v.narrative}")
        if self.missing:
            lines.append(
                f"  (not measured this run: {', '.join(self.missing)})"
            )
        top = self.top_critpath_family()
        if top:
            lines.append(f"  TOP CRITICAL-PATH FAMILY: {top}")
        lines.append("  RESULT: " + ("PASS" if self.ok else "FAIL"))
        return "\n".join(lines)


def compare_runs(baseline_doc: dict, runs: list[dict]) -> CompareReport:
    """Gate ``runs[]`` records against a committed baseline document."""
    base_scenarios = baseline_doc.get("scenarios", {})
    verdicts: list[ScenarioVerdict] = []
    seen: set[str] = set()
    for r in runs:
        m = Measurement.from_run(r)
        seen.add(m.scenario)
        base = base_scenarios.get(m.scenario)
        if base is None:
            verdicts.append(ScenarioVerdict(
                m.scenario, "new", cur_modeled_ns=m.modeled_ns,
            ))
            continue
        base_ns = float(base["modeled_ns"])
        delta_frac = (m.modeled_ns - base_ns) / base_ns if base_ns else 0.0
        if delta_frac > MODELED_GATE_FRAC:
            status = "modeled-regression"
        elif delta_frac < -MODELED_GATE_FRAC:
            status = "improved"
        else:
            status = "ok"
        culprits: list[dict] = []
        narrative = ""
        if status in FAILING and base.get("critpath") and m.critpath:
            culprits = critpath_culprits(base["critpath"], m.critpath)
            narrative = narrate_culprits(
                m.scenario, culprits,
                total_delta_ns=m.modeled_ns - base_ns,
            )
        verdicts.append(ScenarioVerdict(
            m.scenario, status,
            base_modeled_ns=base_ns,
            cur_modeled_ns=m.modeled_ns,
            modeled_delta_frac=delta_frac,
            critpath_culprits=culprits,
            narrative=narrative,
        ))
    missing = sorted(set(base_scenarios) - seen)
    return CompareReport(verdicts=verdicts, missing=missing)
