"""The performance-regression observatory (``python -m repro.perf``).

Turns the repo's one-shot benchmarks into a tracked, gated series of
modeled-clock records, one per scenario:
``{scenario, group, modeled_ns, critpath}``.

- :mod:`.scenarios` — declarative registry of perf scenarios (fig6/fig7
  per driver × proc count, pmdk micros, metadata-lock contention, the
  memcpy/persist hot path, kv ops, partial reads, service RPCs), each
  yielding its exact modeled ns and critical-path summary;
- :mod:`.measure` — one run per scenario;
- :mod:`.baseline` — the committed ``results/perf_baseline.json``
  snapshot;
- :mod:`.compare` — the modeled gate (±1% hard, for every scenario) with
  **critical-path attribution**: a failing gate diffs
  baseline and current critical paths and ranks the span families
  (``meta.lock``, ``store.persist``, ``pmdk.tx``, ...) whose path time
  grew.

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
    ScenarioVerdict,
    compare_runs,
)
from .measure import Measurement, measure_all, measure_scenario
from .scenarios import Scenario, all_scenarios, get, select

__all__ = [
    "Scenario", "all_scenarios", "get", "select",
    "Measurement", "measure_scenario", "measure_all",
    "baseline_from_runs", "save_baseline", "load_baseline",
    "DEFAULT_BASELINE_PATH",
    "compare_runs", "CompareReport", "ScenarioVerdict", "MODELED_GATE_FRAC",
]
