"""Modeled-clock regression gating with span-diff attribution.

The simulator clock is deterministic, so the delta between baseline and
current ``modeled_ns`` is exact: anything beyond ±:data:`MODELED_GATE_FRAC`
(1%), or a scenario's own declared ``modeled_tolerance_frac`` when wider,
is a real change.  Slowdowns fail; speedups are reported as ``improved``
(refresh the baseline).  Host wall time is not gated here — ``bench/``
owns that clock.

The observability heart is :func:`attribute_families`: the per-family
exclusive-time maps of baseline and current run are merged and ranked by
delta, so a failing gate names the guilty subsystem (``meta.lock``,
``store.persist``, ``pmdk.tx``, ...) rather than just the scenario.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..telemetry.metrics import _fmt_quantity
from .measure import Measurement

MODELED_GATE_FRAC = 0.01

#: verdict statuses that fail the gate
FAILING = ("modeled-regression",)


@dataclass
class FamilyDelta:
    """One span family's contribution to a scenario's slowdown."""

    family: str
    base_ns: float
    cur_ns: float
    delta_ns: float
    share: float  # of the total positive family delta

    def as_dict(self) -> dict:
        return {
            "family": self.family,
            "base_ns": self.base_ns,
            "cur_ns": self.cur_ns,
            "delta_ns": self.delta_ns,
            "share": round(self.share, 4),
        }


def attribute_families(base: dict, cur: dict,
                       top: int | None = None) -> list[FamilyDelta]:
    """Merge two per-family exclusive-time maps and rank by delta.

    Families are sorted by absolute regression (largest added exclusive
    time first); ``share`` is each family's fraction of the *total
    positive* delta, so shares of the slowed-down families sum to 1."""
    fams = sorted(set(base) | set(cur))
    gained = sum(max(cur.get(f, 0.0) - base.get(f, 0.0), 0.0) for f in fams)
    out = [
        FamilyDelta(
            family=f,
            base_ns=base.get(f, 0.0),
            cur_ns=cur.get(f, 0.0),
            delta_ns=cur.get(f, 0.0) - base.get(f, 0.0),
            share=(max(cur.get(f, 0.0) - base.get(f, 0.0), 0.0) / gained
                   if gained > 0 else 0.0),
        )
        for f in fams
    ]
    out.sort(key=lambda d: (-d.delta_ns, d.family))
    return out[:top] if top else out


@dataclass
class ScenarioVerdict:
    scenario: str
    # ok | improved | modeled-regression | new
    status: str
    base_modeled_ns: float = 0.0
    cur_modeled_ns: float = 0.0
    modeled_delta_frac: float = 0.0
    attribution: list[FamilyDelta] = field(default_factory=list)
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
        if self.attribution:
            d["attribution"] = [a.as_dict() for a in self.attribution]
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

    def top_family(self) -> str | None:
        """The family accounting for the most added exclusive time across
        every failing scenario — the report's one-line culprit."""
        totals: dict[str, float] = {}
        for v in self.regressions:
            for a in v.attribution:
                if a.delta_ns > 0:
                    totals[a.family] = totals.get(a.family, 0.0) + a.delta_ns
        if not totals:
            return None
        return max(sorted(totals), key=lambda f: totals[f])

    def top_critpath_family(self) -> str | None:
        """The family with the most *critical-path* time added across the
        failing scenarios — the doctor's culprit (may disagree with
        :meth:`top_family` when the slowdown is off the path)."""
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
            "top_family": self.top_family(),
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
            if v.failed and v.attribution:
                lines.append("      slowdown attribution "
                             "(exclusive-time delta by span family):")
                for a in v.attribution[:5]:
                    if a.delta_ns <= 0:
                        continue
                    lines.append(
                        f"        {a.family:<18} "
                        f"+{_fmt_quantity(a.delta_ns, 'ns'):<16} "
                        f"({a.share * 100:5.1f}% of the regression)"
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
        top = self.top_family()
        if top:
            lines.append(f"  TOP ATTRIBUTED FAMILY: {top}")
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
        # jittery scenarios (replayed lock-queueing order) widen their own
        # gate; declared in the scenario registry and snapshotted in both
        # the baseline and the run record — take whichever is recorded
        tol = max(
            float(base.get("modeled_tolerance_frac") or 0.0),
            float(m.modeled_tolerance_frac or 0.0),
        )
        gate_frac = max(MODELED_GATE_FRAC, tol)
        if delta_frac > gate_frac:
            status = "modeled-regression"
        elif delta_frac < -gate_frac:
            status = "improved"
        else:
            status = "ok"
        attribution = attribute_families(
            base.get("families", {}), m.families
        ) if status != "ok" else []
        culprits: list[dict] = []
        narrative = ""
        if status in FAILING and base.get("critpath") and m.critpath:
            from ..telemetry.critpath import (
                critpath_culprits,
                narrate_culprits,
            )

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
            attribution=attribution,
            critpath_culprits=culprits,
            narrative=narrative,
        ))
    missing = sorted(set(base_scenarios) - seen)
    return CompareReport(verdicts=verdicts, missing=missing)
