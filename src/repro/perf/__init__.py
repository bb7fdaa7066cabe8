"""The performance-regression observatory (``python -m repro.perf``).

Turns the repo's one-shot benchmarks into a tracked, gated time series:

- :mod:`.scenarios` — declarative registry of perf scenarios (fig6/fig7
  per driver × proc count, pmdk micros, metadata-lock contention, the
  memcpy/persist hot path), each yielding exact modeled-ns plus span
  families;
- :mod:`.measure` — one ``REPRO_TRACE=full`` run per scenario;
- :mod:`.baseline` — the committed ``results/perf_baseline.json``
  snapshot;
- :mod:`.compare` — the modeled gate (±1% hard, or a scenario's declared
  tolerance) with **span-diff attribution**: a failing gate ranks the
  span families (``meta.lock``, ``store.persist``, ``pmdk.tx``, ...)
  responsible for the slowdown;
- :mod:`.report` — history sparklines over prior ``BENCH_PERF.json``
  artifacts.

Every figure here is on the modeled clock; host wall time belongs to
``bench/``.  See DESIGN.md §10 for the measurement rules and baseline
update policy.
"""

from __future__ import annotations

from .baseline import (
    DEFAULT_BASELINE_PATH,
    baseline_from_runs,
    load_baseline,
    save_baseline,
)
from .compare import (
    MODELED_GATE_FRAC,
    CompareReport,
    FamilyDelta,
    ScenarioVerdict,
    attribute_families,
    compare_runs,
)
from .measure import Measurement, measure_all, measure_scenario
from .report import load_history, render_perf_report, sparkline
from .scenarios import Scenario, all_scenarios, get, select

__all__ = [
    "Scenario", "all_scenarios", "get", "select",
    "Measurement", "measure_scenario", "measure_all",
    "baseline_from_runs", "save_baseline", "load_baseline",
    "DEFAULT_BASELINE_PATH",
    "compare_runs", "attribute_families", "CompareReport",
    "ScenarioVerdict", "FamilyDelta", "MODELED_GATE_FRAC",
    "load_history", "render_perf_report", "sparkline",
]
