"""The performance-regression observatory (``repro.perf``).

Covers registry integrity, exact modeled-ns reproducibility of
single-rank and multi-rank scenarios, regression detection on a synthetic
slowdown, critical-path attribution of that slowdown, the unified bench
schema, and the baseline round-trip.  Real-measurement tests stick to
the cheap micro scenarios so the suite stays tier-1 sized; the
LOCK_OVERHEAD_NS selftest (which needs the 8-rank meta scenarios) is
exercised through the same code path the CI job runs.
"""

import json

import pytest

from repro.perf import (
    DEFAULT_BASELINE_PATH,
    MODELED_GATE_FRAC,
    Measurement,
    all_scenarios,
    baseline_from_runs,
    compare_runs,
    get,
    load_baseline,
    measure_scenario,
    save_baseline,
    select,
)
from repro.perf.__main__ import main as perf_main
from repro.perf.scenarios import FIG_PROCS, GROUPS
from repro.telemetry.bench import (
    BENCH_SCHEMA,
    bench_doc,
    bench_env,
    load_bench,
    validate_bench,
    write_bench,
)

# ---------------------------------------------------------------------------
# registry integrity
# ---------------------------------------------------------------------------


def test_registry_names_unique_and_grouped():
    scenarios = all_scenarios()
    names = [s.name for s in scenarios]
    assert len(names) == len(set(names))
    assert all(s.group in GROUPS for s in scenarios)
    # every group is populated
    assert {s.group for s in scenarios} == set(GROUPS)


def test_registry_covers_paper_sweep():
    from repro.harness.experiment import PAPER_LIBRARIES

    names = {s.name for s in all_scenarios()}
    for lib in PAPER_LIBRARIES:
        for p in FIG_PROCS:
            assert f"fig6.{lib}.{p}p" in names
            assert f"fig7.{lib}.{p}p" in names
    for micro in ("pmdk.alloc_churn", "pmdk.tx_commit", "meta.lock_striped",
                  "meta.lock_single", "mem.memcpy_persist"):
        assert micro in names


def test_quick_selection_is_proper_subset():
    quick = select(quick=True)
    assert quick
    assert len(quick) < len(all_scenarios())
    assert all(s.quick for s in quick)
    # every group still represented in the quick budget
    assert {s.group for s in quick} == set(GROUPS)


def test_select_by_name_and_group():
    assert [s.name for s in select(names=["pmdk.tx_commit"])] == \
        ["pmdk.tx_commit"]
    assert all(s.group == "mem" for s in select(groups=("mem",)))
    with pytest.raises(KeyError, match="unknown scenario"):
        get("no.such.scenario")
    with pytest.raises(ValueError, match="no scenarios"):
        select(groups=("nope",))


# ---------------------------------------------------------------------------
# measurement: exact modeled-ns reproducibility
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", ["pmdk.tx_commit", "mem.memcpy_persist",
                                  "meta.lock_striped", "meta.lock_single"])
def test_deterministic_scenarios_reproduce_exactly(name):
    s = get(name)
    a = measure_scenario(s)
    b = measure_scenario(s)
    assert a.modeled_ns == b.modeled_ns
    assert a.critpath == b.critpath
    assert a.modeled_ns > 0
    assert a.critpath["families"], "critical-path families must be recorded"


def test_measurement_run_record_round_trips():
    m = measure_scenario(get("pmdk.tx_commit"))
    rec = m.as_run()
    assert set(rec) == {"scenario", "group", "modeled_ns", "critpath"}
    back = Measurement.from_run(json.loads(json.dumps(rec)))
    assert back == m
    # tx scenario's critical path runs through the pmdk transaction spans
    assert "pmdk.tx" in m.critpath["families"]


# ---------------------------------------------------------------------------
# regression gating (synthetic records — no measurement needed)
# ---------------------------------------------------------------------------


def _critpath(families: dict) -> dict:
    """A critpath summary whose path is exactly ``families``."""
    total = sum(families.values())
    return {
        "total_ns": total,
        "families": {f: {"ns": ns, "share": ns / total}
                     for f, ns in sorted(families.items())},
        "source": "replay",
    }


def _run_record(name="mem.memcpy_persist", modeled=1_000_000.0,
                families=None, group="mem"):
    return {
        "scenario": name,
        "group": group,
        "modeled_ns": modeled,
        "critpath": _critpath(families or {"memcpy": modeled * 0.6,
                                           "store.persist": modeled * 0.4}),
    }


def test_compare_passes_on_identical_runs():
    runs = [_run_record()]
    baseline = baseline_from_runs(runs)
    rep = compare_runs(baseline, runs)
    assert rep.ok
    assert rep.verdicts[0].status == "ok"
    assert not rep.missing


def test_compare_flags_modeled_regression_with_attribution():
    base = [_run_record(modeled=1_000_000.0)]
    slow = [_run_record(
        modeled=1_060_000.0,
        families={"memcpy": 600_000.0, "store.persist": 460_000.0},
    )]
    rep = compare_runs(baseline_from_runs(base), slow)
    assert not rep.ok
    v = rep.regressions[0]
    assert v.status == "modeled-regression"
    assert v.modeled_delta_frac == pytest.approx(0.06)
    # all of the +60us of critical path landed in store.persist
    assert [c["family"] for c in v.critpath_culprits] == ["store.persist"]
    assert v.critpath_culprits[0]["delta_ns"] == 60_000.0
    assert rep.top_critpath_family() == "store.persist"
    text = rep.render()
    assert "TOP CRITICAL-PATH FAMILY: store.persist" in text
    assert "RESULT: FAIL" in text


def test_parent_format_records_load_and_gate_identically():
    """Records that still carry the exclusive-time ``families`` and
    ``latency`` maps, the ``deterministic`` flag or a declared
    ``modeled_tolerance_frac`` load as if those keys were absent, and the
    gate reaches the same verdicts and culprits."""
    def with_legacy(rec):
        return {**rec, "families": {"memcpy": 1.0, "pmdk.tx": 2.0},
                "latency": {"memcpy": {"p50": 1.0, "p95": 2.0, "p99": 3.0}},
                "deterministic": False, "modeled_tolerance_frac": 0.03}

    base = [_run_record(), _run_record(name="meta.lock_single",
                                       group="meta")]
    cur = [_run_record(modeled=1_060_000.0,
                       families={"memcpy": 600_000.0,
                                 "store.persist": 460_000.0}),
           _run_record(name="meta.lock_single", group="meta",
                       modeled=1_020_000.0)]
    legacy_base = {"schema": baseline_from_runs(base)["schema"],
                   "scenarios": {r["scenario"]: with_legacy(r)
                                 for r in base}}
    assert Measurement.from_run(with_legacy(cur[0])) == \
        Measurement.from_run(cur[0])
    assert (compare_runs(legacy_base, [with_legacy(r) for r in cur])
            .as_dict() ==
            compare_runs(baseline_from_runs(base), cur).as_dict())
    # and a legacy run snapshots to the slim baseline entry
    assert baseline_from_runs([with_legacy(r) for r in base]) == \
        baseline_from_runs(base)


def test_compare_reports_improvement_not_failure():
    base = [_run_record(modeled=1_000_000.0)]
    fast = [_run_record(modeled=900_000.0)]
    rep = compare_runs(baseline_from_runs(base), fast)
    assert rep.ok
    assert rep.verdicts[0].status == "improved"


def test_one_gate_for_every_scenario():
    """±MODELED_GATE_FRAC is the only gate: the multi-rank meta scenarios
    get no wider band than a single-rank one."""
    for name, group in (("mem.memcpy_persist", "mem"),
                        ("meta.lock_single", "meta")):
        base = [_run_record(name=name, group=group)]
        half = 1_000_000.0 * (1 + MODELED_GATE_FRAC / 2)
        inside = [_run_record(name=name, group=group, modeled=half)]
        assert compare_runs(baseline_from_runs(base), inside).ok, name
        wobbly = [_run_record(name=name, group=group,
                              modeled=1_020_000.0)]  # +2%
        rep = compare_runs(baseline_from_runs(base), wobbly)
        assert not rep.ok, name
        assert rep.verdicts[0].status == "modeled-regression"


def test_compare_tracks_new_and_missing_scenarios():
    baseline = baseline_from_runs(
        [_run_record(), _run_record(name="pmdk.tx_commit", group="pmdk")]
    )
    rep = compare_runs(
        baseline,
        [_run_record(), _run_record(name="fig6.X.8p", group="fig6")],
    )
    assert rep.ok  # new/missing are informational, not failures
    assert {v.status for v in rep.verdicts} == {"ok", "new"}
    assert rep.missing == ["pmdk.tx_commit"]


# ---------------------------------------------------------------------------
# the gate's own gate: inflated LOCK_OVERHEAD_NS -> meta.lock top-ranked
# ---------------------------------------------------------------------------


def test_selftest_inflated_lock_overhead_fails_with_meta_lock_top(capsys):
    assert perf_main(["selftest", "--factor", "400"]) == 0
    out = capsys.readouterr().out
    assert "TOP CRITICAL-PATH FAMILY: meta.lock" in out
    assert "RESULT: FAIL" in out  # the synthetic regression must fail


# ---------------------------------------------------------------------------
# baseline + bench artifacts
# ---------------------------------------------------------------------------


def test_baseline_round_trip(tmp_path):
    runs = [_run_record()]
    doc = baseline_from_runs(runs)
    path = save_baseline(str(tmp_path / "results" / "b.json"), doc)
    back = load_baseline(path)
    entry = back["scenarios"]["mem.memcpy_persist"]
    assert entry["modeled_ns"] == 1_000_000.0
    assert set(entry) == {"group", "modeled_ns", "critpath"}
    with pytest.raises(FileNotFoundError, match="update-baseline"):
        load_baseline(str(tmp_path / "missing.json"))
    with pytest.raises(ValueError, match="not a perf baseline"):
        save_baseline(str(tmp_path / "x.json"), {"schema": "nope"})


def test_bench_schema_validation(tmp_path):
    doc = bench_doc("perf_scenarios", [_run_record()], quick=True)
    assert validate_bench(doc) == []
    assert doc["schema"] == BENCH_SCHEMA
    path = write_bench(str(tmp_path / "BENCH_PERF.json"), doc)
    back = load_bench(path)
    assert back["bench"] == "perf_scenarios"
    assert back["runs"][0]["scenario"] == "mem.memcpy_persist"
    assert back["env"] == bench_env()

    bad = dict(doc, schema="other/9", runs="nope")
    errs = validate_bench(bad)
    assert any("schema" in e for e in errs)
    assert any("runs" in e for e in errs)
    with pytest.raises(ValueError, match="invalid bench"):
        write_bench(str(tmp_path / "bad.json"), bad)


def test_committed_baseline_matches_registry():
    """The checked-in baseline must cover exactly the current registry, so
    compare never reports spurious new/missing scenarios.  It holds modeled
    figures only: no host fingerprint, no wall columns."""
    doc = load_baseline(DEFAULT_BASELINE_PATH)
    assert set(doc["scenarios"]) == {s.name for s in all_scenarios()}
    assert "env" not in doc
    for name, entry in doc["scenarios"].items():
        assert entry["modeled_ns"] > 0, name
        assert entry["critpath"]["families"], name
        assert set(entry) == {"group", "modeled_ns", "critpath"}, name


# ---------------------------------------------------------------------------
# CLI end-to-end (cheap scenario only)
# ---------------------------------------------------------------------------


def test_cli_run_compare_update_baseline_cycle(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    bench = str(tmp_path / "BENCH_PERF.json")
    base = str(tmp_path / "results" / "perf_baseline.json")
    args = ["--scenario", "pmdk.tx_commit"]

    assert perf_main(["run", "--out", bench] + args) == 0
    # no baseline yet -> exit 2 with a pointer at update-baseline
    assert perf_main(["compare", "--bench", bench, "--baseline", base]) == 2
    assert perf_main(["update-baseline", "--bench", bench,
                      "--baseline", base]) == 0
    assert perf_main(["compare", "--bench", bench, "--baseline", base,
                      "--json", str(tmp_path / "v.json"),
                      "--report", str(tmp_path / "r.txt")]) == 0
    verdicts = json.loads((tmp_path / "v.json").read_text())
    assert verdicts["ok"] is True
    assert verdicts["scenarios"][0]["scenario"] == "pmdk.tx_commit"
    assert "RESULT: PASS" in (tmp_path / "r.txt").read_text()
    out = capsys.readouterr().out
    assert "pmdk.tx_commit" in out


def test_pre_v3_baselines_are_rejected(tmp_path):
    """Only /3 baselines load: an older schema is refused by name."""
    from repro.perf.baseline import BASELINE_SCHEMA

    doc = json.loads(json.dumps(baseline_from_runs([_run_record()])))
    path = tmp_path / "results" / "b.json"
    path.parent.mkdir(parents=True)
    for old in ("repro-perf-baseline/1", "repro-perf-baseline/2"):
        doc["schema"] = old
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=f"schema {old!r} is not "
                                             f"{BASELINE_SCHEMA!r}"):
            load_baseline(str(path))
