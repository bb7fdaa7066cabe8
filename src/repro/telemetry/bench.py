"""The unified bench-artifact schema (``BENCH_*.json``).

The benchmark artifact the repo emits — ``BENCH_PERF.json`` from
``python -m repro.perf run`` — has one top-level shape, so the bench
trajectory reads it without per-emitter parsing::

    {
      "schema": "repro-bench/1",
      "bench":  "<suite name>",          # e.g. "perf_scenarios"
      "env":    {python, platform, machine, cpus, ...},
      "runs":   [ {<one record per measured unit>}, ... ]
    }

``runs`` records are suite-specific but must be JSON objects; the ``env``
block records the host that produced the artifact.
"""

from __future__ import annotations

import json
import os
import platform

BENCH_SCHEMA = "repro-bench/1"


def bench_env() -> dict:
    """The host fingerprint recorded in every bench artifact."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpus": os.cpu_count() or 1,
    }


def bench_doc(bench: str, runs: list[dict], *,
              env: dict | None = None, **extra) -> dict:
    """Assemble a schema-conforming bench document."""
    doc = {
        "schema": BENCH_SCHEMA,
        "bench": bench,
        "env": env if env is not None else bench_env(),
        "runs": list(runs),
    }
    doc.update(extra)
    return doc


def validate_bench(doc) -> list[str]:
    """Shape check; returns a list of violations (empty = valid)."""
    errors: list[str] = []
    if not isinstance(doc, dict):
        return ["document is not a JSON object"]
    if doc.get("schema") != BENCH_SCHEMA:
        errors.append(f"schema is {doc.get('schema')!r}, "
                      f"expected {BENCH_SCHEMA!r}")
    if not isinstance(doc.get("bench"), str) or not doc.get("bench"):
        errors.append("'bench' must be a non-empty string")
    if not isinstance(doc.get("env"), dict):
        errors.append("'env' must be an object")
    runs = doc.get("runs")
    if not isinstance(runs, list):
        errors.append("'runs' must be an array")
    else:
        for i, r in enumerate(runs):
            if not isinstance(r, dict):
                errors.append(f"runs[{i}] is not an object")
    return errors


def write_bench(path: str, doc: dict) -> str:
    """Validate and write a bench document; returns the path."""
    errors = validate_bench(doc)
    if errors:
        raise ValueError(f"invalid bench document: {errors[:3]}")
    d = os.path.dirname(path)
    if d:
        os.makedirs(d, exist_ok=True)
    with open(path, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")
    return path


def load_bench(path: str) -> dict:
    with open(path) as f:
        doc = json.load(f)
    errors = validate_bench(doc)
    if errors:
        raise ValueError(f"{path}: invalid bench document: {errors[:3]}")
    return doc
