"""The committed perf baseline (``results/perf_baseline.json``).

The baseline is a snapshot of every scenario's tracked figures, written
by ``python -m repro.perf update-baseline`` and committed to the repo.
``compare`` gates the current run against it:

**modeled_ns** is exact (deterministic simulator clock, one rank
schedule), so any drift is a real code change — the gate is a hard ±1%
for every scenario.  The baseline holds
no host figures: they would only be comparable on the machine that
produced them, and ``bench/`` owns that clock.

Update policy (DESIGN.md §10): refresh the baseline in the same PR as an
*intentional* perf change, with the compare report (whose critical-path
diff names the responsible span families) quoted with the change.
"""

from __future__ import annotations

import json
import os

from .measure import Measurement

BASELINE_SCHEMA = "repro-perf-baseline/3"
DEFAULT_BASELINE_PATH = os.path.join("results", "perf_baseline.json")


def baseline_from_runs(runs: list[dict]) -> dict:
    """Assemble a baseline document from ``runs[]`` records."""
    scenarios = {}
    for r in runs:
        m = Measurement.from_run(r)
        entry = {"group": m.group, "modeled_ns": m.modeled_ns}
        if m.critpath is not None:
            entry["critpath"] = m.critpath
        scenarios[m.scenario] = entry
    return {"schema": BASELINE_SCHEMA, "scenarios": scenarios}


def save_baseline(path: str, doc: dict) -> str:
    if doc.get("schema") != BASELINE_SCHEMA or "scenarios" not in doc:
        raise ValueError("not a perf baseline document")
    d = os.path.dirname(path)
    if d:
        os.makedirs(d, exist_ok=True)
    with open(path, "w") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")
    return path


def load_baseline(path: str) -> dict:
    if not os.path.exists(path):
        raise FileNotFoundError(
            f"no perf baseline at {path} — generate one with "
            f"`python -m repro.perf update-baseline`"
        )
    with open(path) as f:
        doc = json.load(f)
    if doc.get("schema") != BASELINE_SCHEMA:
        raise ValueError(
            f"{path}: schema {doc.get('schema')!r} is not {BASELINE_SCHEMA!r}"
        )
    if not isinstance(doc.get("scenarios"), dict) or not doc["scenarios"]:
        raise ValueError(f"{path}: baseline has no scenarios")
    return doc

