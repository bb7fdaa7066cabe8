"""Result summarization: phase/bucket breakdowns and tabular rendering."""

from __future__ import annotations

from dataclasses import dataclass, field

from ..units import fmt_time
from .fluid import FluidResult


@dataclass
class PhaseBreakdown:
    """Aggregated view of a :class:`FluidResult`."""

    makespan_ns: float
    #: phase -> critical-path ns (max over ranks of that rank's time in phase)
    phases: dict[str, float] = field(default_factory=dict)
    #: (phase, bucket) -> mean-over-ranks ns
    detail: dict[tuple[str, str], float] = field(default_factory=dict)

    def to_rows(self) -> list[tuple[str, str, str]]:
        rows = []
        for phase in sorted(self.phases, key=lambda p: -self.phases[p]):
            pct = 100.0 * self.phases[phase] / self.makespan_ns if self.makespan_ns else 0
            rows.append((phase or "(untagged)", fmt_time(self.phases[phase]), f"{pct:.1f}%"))
        return rows

    def render(self, title: str = "phase breakdown") -> str:
        lines = [f"== {title} (makespan {fmt_time(self.makespan_ns)}) =="]
        for name, t, pct in self.to_rows():
            lines.append(f"  {name:<24} {t:>12} {pct:>7}")
        return "\n".join(lines)


def summarize(result: FluidResult) -> PhaseBreakdown:
    nranks = len(result.finish_ns) or 1
    detail: dict[tuple[str, str], float] = {}
    for (_rank, phase, bucket), ns in result.breakdown.items():
        key = (phase, bucket)
        detail[key] = detail.get(key, 0.0) + ns / nranks
    return PhaseBreakdown(
        makespan_ns=result.makespan_ns,
        phases=result.phase_totals(),
        detail=detail,
    )
