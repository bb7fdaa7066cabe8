"""The observability subsystem: typed metric families, structured spans,
exporters, and the trace-mode knob.

Covers the acceptance bar for the tracing PR: one ``pmem.store()`` on each
layout yields a rooted span tree whose named children cover >= 90% of the
modeled time; the Chrome trace export round-trips through JSON and passes
the schema validator; per-rank metric registries aggregate across ranks;
and driver phase accounting stays correct on error paths.
"""

import json
import sys
import warnings
from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.cluster import Cluster
from repro.mpi import Communicator
from repro.pmemcpy import PMEM
from repro.telemetry import (
    LANE_BOUNDS,
    LOG2_BOUNDS,
    Counter,
    Gauge,
    Histogram,
    MetricRegistry,
    merged_metrics,
    metrics_for,
    span,
    spans_of,
    tracer_for,
)
from repro.telemetry.spans import LeafBatch
from repro.telemetry.export import (
    chrome_trace,
    darshan_records,
    render_report,
    span_breakdown,
    spans_from_chrome,
    spans_from_dicts,
    spans_to_dicts,
    validate_chrome_trace,
)
from repro.units import MiB

from .test_row_batch import restart_span_ids

LAYOUTS = ["hashtable", "hierarchical"]


def cluster(**kw):
    kw.setdefault("pmem_capacity", 64 * MiB)
    return Cluster(**kw)


def store_run(layout, nprocs=2, n=512):
    """One SPMD store (plus a load on rank paths) under ``layout``."""
    cl = cluster()

    def fn(ctx):
        comm = Communicator.world(ctx)
        pmem = PMEM(layout=layout)
        pmem.mmap("/pmem/t", comm)
        data = np.arange(n, dtype=np.float64) + comm.rank
        pmem.alloc("A", (comm.size, n), np.float64)
        pmem.store("A", data.reshape(1, n), offsets=(comm.rank, 0))
        comm.barrier()
        pmem.load("A", offsets=(comm.rank, 0), dims=(1, n))
        pmem.munmap()

    return cl.run(nprocs, fn)


# ---------------------------------------------------------------------------
# typed metric families
# ---------------------------------------------------------------------------

class TestMetricPrimitives:
    def test_counter_sums(self):
        c = Counter("x")
        c.add()
        c.add(2.5)
        assert c.value == 3.5
        with pytest.raises(ValueError):
            c.add(-1)

    def test_gauge_merge_takes_max(self):
        a, b = Gauge("g"), Gauge("g")
        a.set(3)
        b.set(7)
        a.merge(b)
        assert a.value == 7

    def test_log2_bucketing_matches_edges(self):
        h = Histogram("h")
        # bucket i covers (2^(i-1), 2^i]: exact powers land on their edge
        for value, edge in [(0.5, 1.0), (1.0, 1.0), (2.0, 2.0), (3.0, 4.0),
                            (4.0, 4.0), (1000.0, 1024.0)]:
            h2 = Histogram("h2")
            h2.observe(value)
            assert h2.nonzero_buckets() == [(edge, 1)], value
        h.observe(2.0 ** 70)  # beyond the last bound -> +Inf bucket
        assert h.nonzero_buckets() == [(float("inf"), 1)]

    def test_log2_fast_path_agrees_with_bisect(self):
        fast = Histogram("f")                       # identity -> fast path
        slow = Histogram("s", tuple(LOG2_BOUNDS))   # copy -> bisect path
        for v in [0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 7.9, 8.0, 8.1,
                  255.0, 256.0, 257.0, 1e18]:
            fast.observe(v)
            slow.observe(v)
        assert fast.buckets == slow.buckets

    def test_lane_bounds_exact_per_lane(self):
        h = Histogram("stripe", LANE_BOUNDS)
        for lane in (0, 1, 17, 63):
            h.observe(float(lane))
        h.observe(64.0)  # overflow lane
        edges = dict(h.nonzero_buckets())
        assert edges == {0.0: 1, 1.0: 1, 17.0: 1, 63.0: 1, float("inf"): 1}

    def test_histogram_stats_and_quantiles(self):
        h = Histogram("h")
        for v in (1, 2, 4, 8, 16, 32, 64, 128):
            h.observe(v)
        assert h.count == 8
        assert h.sum == 255
        assert h.mean == pytest.approx(255 / 8)
        assert h.quantile(0.5) == 8
        assert h.quantile(1.0) == 128
        assert h.min == 1 and h.max == 128

    @pytest.mark.parametrize("bounds", [LOG2_BOUNDS, LANE_BOUNDS])
    def test_observe_many_equals_observe_each(self, bounds):
        # 0.1 added n times is not n * 0.1: sum must keep the float order
        for values in ([0.1] * 1000, [0.1, 3.0, 0.1, 1e18, 2.5, 0.1], [7.0], []):
            one, many = Histogram("h", bounds), Histogram("h", bounds)
            for h in (one, many):
                h.observe(0.3)
            for v in values:
                one.observe(v)
            many.observe_many(values)
            assert many.buckets == one.buckets
            assert (many.count, many.sum, many.min, many.max) == \
                (one.count, one.sum, one.min, one.max)

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from([LOG2_BOUNDS, LANE_BOUNDS, (0.5, 3.0, 1e6)]),
           st.lists(st.one_of(
               st.floats(allow_nan=False, width=64),
               st.sampled_from([0.0, -0.0, 1.0, 2.0, 3.0, 4.0, 2.0 ** 63,
                                2.0 ** 63 + 2.0 ** 11, 2.0 ** 70, 0.5, 1e-300,
                                float("inf"), float("-inf")]),
               st.integers(1, 2 ** 20).map(float)), max_size=60),
           st.floats(min_value=0.0, max_value=1e6))
    # finite draws summing past float max, and inf + -inf
    @example(LOG2_BOUNDS, [1.7e308, 1.7e308], 0.0)
    @example(LANE_BOUNDS, [1.7e308, 1.7e308], 1.0)
    @example(LOG2_BOUNDS, [float("inf"), float("-inf")], 0.0)
    def test_observe_many_of_an_ndarray_equals_observe_each(self, bounds,
                                                            values, first):
        """An ndarray goes through the columnar path (frexp or searchsorted
        buckets, an add.accumulate sum): state ``==`` N ``observe`` calls,
        and no warning where the scalar path gives none."""
        one, many = Histogram("h", bounds), Histogram("h", bounds)
        for h in (one, many):
            h.observe(first)
        try:
            for v in values:
                one.observe(v)
        except (OverflowError, ValueError) as exc:
            with pytest.raises(type(exc)):
                many.observe_many(np.array(values))
            return
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            many.observe_many(np.array(values))
        assert many.buckets == one.buckets
        for a, b in zip((many.count, many.sum, many.min, many.max),
                        (one.count, one.sum, one.min, one.max)):
            assert a == b or (a != a and b != b)     # nan: inf + -inf

    def test_merge_requires_matching_bounds(self):
        a = Histogram("a")
        b = Histogram("a", LANE_BOUNDS)
        with pytest.raises(ValueError):
            a.merge(b)

    def test_registry_type_conflict(self):
        reg = MetricRegistry()
        reg.counter("x")
        with pytest.raises(TypeError):
            reg.histogram("x")

    def test_round_trip_dict(self):
        reg = MetricRegistry()
        reg.counter("ops").add(5)
        reg.gauge("depth").set(3)
        reg.histogram("lat.ns").observe(100.0)
        reg.histogram("meta.stripe.acquires", LANE_BOUNDS).observe(9.0)
        doc = json.loads(json.dumps(reg.as_dict()))
        back = MetricRegistry.from_dict(doc)
        assert back.as_dict() == reg.as_dict()
        assert back.get("meta.stripe.acquires").bounds == LANE_BOUNDS

    def test_cross_rank_aggregation(self):
        res = store_run("hashtable", nprocs=4)
        per_rank = [t.metrics for t in res.traces]
        assert all(r is not None for r in per_rank)
        merged = merged_metrics(res.traces)
        h = merged.get("pmemcpy.store.ns")
        assert h.count == sum(r.get("pmemcpy.store.ns").count
                              for r in per_rank) == 4
        assert h.sum == pytest.approx(
            sum(r.get("pmemcpy.store.ns").sum for r in per_rank))


# ---------------------------------------------------------------------------
# span-tree integrity and coverage
# ---------------------------------------------------------------------------

def _index(spans):
    return {s.span_id: s for s in spans}


@pytest.mark.parametrize("layout", LAYOUTS)
class TestSpanTree:
    def test_rooted_trees_with_sane_nesting(self, layout):
        res = store_run(layout)
        spans = spans_of(res.traces)
        assert spans
        by_id = _index(spans)
        for s in spans:
            assert s.end_ns >= s.start_ns
            assert s.status == "ok"
            if s.parent_id is not None:
                parent = by_id[s.parent_id]       # parent link resolves
                assert parent.rank == s.rank      # trees never cross ranks
                assert parent.start_ns <= s.start_ns
                assert s.end_ns <= parent.end_ns  # child within parent

    def test_store_children_cover_modeled_time(self, layout):
        res = store_run(layout)
        spans = spans_of(res.traces)
        roots = [s for s in spans if s.name == "pmemcpy.store"]
        assert len(roots) == 2  # one per rank
        for root in roots:
            kids = [s for s in spans if s.parent_id == root.span_id]
            names = {k.name for k in kids}
            assert {"store.reserve", "store.alloc", "store.serialize",
                    "store.persist", "store.publish"} <= names
            covered = sum(k.duration_ns for k in kids)
            assert covered >= 0.9 * root.duration_ns
        # the deeper taxonomy is present somewhere in the run
        all_names = {s.name for s in spans}
        assert {"meta-lock", "memcpy", "pmemcpy.load", "load.read"} \
            <= all_names

    def test_load_root_reports_bytes(self, layout):
        res = store_run(layout)
        loads = [s for s in spans_of(res.traces) if s.name == "pmemcpy.load"]
        assert loads and all(s.attrs["bytes"] == 512 * 8 for s in loads)


class TestSpanErrorPath:
    def test_span_closes_with_error_status(self):
        cl = cluster()

        def fn(ctx):
            with pytest.raises(ValueError):
                with span(ctx, "outer"):
                    with span(ctx, "inner"):
                        raise ValueError("boom")

        res = cl.run(1, fn)
        spans = spans_of(res.traces)
        # both modeled-zero-length at the same instant: ordered by span id
        assert [s.name for s in spans] == ["outer", "inner"]
        assert all(s.status == "error:ValueError" for s in spans)
        # latency family still observed for the errored spans
        reg = merged_metrics(res.traces)
        assert reg.get("span.outer.ns").count == 1


# ---------------------------------------------------------------------------
# trace modes
# ---------------------------------------------------------------------------

class TestTraceModes:
    def test_off_disables_spans_keeps_metrics(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE", "off")
        res = store_run("hashtable")
        assert spans_of(res.traces) == []
        reg = merged_metrics(res.traces)
        # always-on families survive with tracing off
        assert reg.get("pmemcpy.store.ns").count == 2
        assert reg.get("meta.stripe.acquires").count > 0

    @pytest.mark.parametrize("nested", [False, True])
    @pytest.mark.parametrize("mode", ["off", "sampled", "full"])
    def test_leaves_equal_begin_end_pairs(self, monkeypatch, mode, nested):
        """``Tracer.leaves`` records what one ``span`` per leaf records:
        same spans, same ``span.<name>.ns`` samples, same sampling."""
        monkeypatch.setenv("REPRO_TRACE", mode)

        def fn(ctx, bulk):
            restart_span_ids()
            for rnd in range(3):
                outer = span(ctx, "outer") if nested else nullcontext()
                with outer:
                    starts, ends = [], []
                    for i in range(50):
                        if bulk:
                            starts.append(ctx.lb_ns)
                            ctx.delay(0.1 * (i % 7 + 1))
                            ends.append(ctx.lb_ns)
                        else:
                            with span(ctx, "leaf", bytes=i):
                                ctx.delay(0.1 * (i % 7 + 1))
                    if bulk:
                        tracer_for(ctx).leaves(
                            ctx, "leaf", np.array(starts), np.array(ends),
                            np.arange(50))
            h = metrics_for(ctx).get("span.leaf.ns")
            return (
                [(s.span_id, s.parent_id, s.name, s.start_ns, s.end_ns,
                  s.attrs, s.status) for s in ctx.trace.spans],
                h and (h.buckets, h.count, h.sum, h.min, h.max),
                tracer_for(ctx)._roots_seen,
            )

        one = cluster().run(1, lambda ctx: fn(ctx, False)).returns[0]
        many = cluster().run(1, lambda ctx: fn(ctx, True)).returns[0]
        assert many == one
        kept = {"off": 0, "full": 150}.get(mode, 3 if not nested else 50)
        assert sum(s[2] == "leaf" for s in one[0]) == kept

    def test_span_ids_stay_unique_across_rank_threads(self):
        """Rank threads mint span ids from one counter while others take
        whole blocks for leaf batches: no id is handed out twice and every
        batch's block is consecutive (switch interval shortened so threads
        interleave mid-block if they can)."""
        def job(ctx):
            for _ in range(60):
                with span(ctx, "single"):
                    ctx.delay(1.0)
                tracer_for(ctx).leaves(
                    ctx, "leaf", np.arange(97.0), np.arange(1.0, 98.0),
                    np.ones(97, dtype=np.int64))

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            res = cluster().run(6, job)
        finally:
            sys.setswitchinterval(old)
        batches = [s for t in res.traces for s in t.span_entries
                   if isinstance(s, LeafBatch)]
        assert len(batches) == 6 * 60
        ids = [s.span_id for s in spans_of(res.traces)]
        assert len(ids) == len(set(ids)) == 6 * 60 * 98
        for batch in batches:
            assert [s.span_id for s in batch.spans()] == list(
                range(batch.first_id, batch.first_id + 97))

    def test_sampled_keeps_one_in_n_roots(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE", "sampled")
        cl = cluster()

        def fn(ctx):
            for _ in range(130):
                with span(ctx, "root"):
                    with span(ctx, "child"):
                        pass

        res = cl.run(1, fn)
        spans = spans_of(res.traces)
        # roots 0, 64, 128 sampled; each keeps its complete subtree
        assert sum(s.name == "root" for s in spans) == 3
        assert sum(s.name == "child" for s in spans) == 3

    def test_unknown_mode_falls_back_to_full(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE", "everything-please")
        cl = cluster()

        def fn(ctx):
            with span(ctx, "root"):
                pass
            assert tracer_for(ctx).mode == "full"

        res = cl.run(1, fn)
        assert len(spans_of(res.traces)) == 1


# ---------------------------------------------------------------------------
# exporters
# ---------------------------------------------------------------------------

class TestChromeTrace:
    def test_schema_valid_and_json_round_trip(self):
        res = store_run("hashtable")
        doc = json.loads(json.dumps(chrome_trace(res.traces)))
        assert validate_chrome_trace(doc) == []
        xs = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert len(xs) == len(spans_of(res.traces))
        assert {e["tid"] for e in xs} == {0, 1}
        names = {e["name"] for e in doc["traceEvents"] if e["ph"] == "M"}
        assert names == {"process_name", "thread_name"}

    def test_chrome_round_trip_preserves_tree(self):
        spans = spans_of(store_run("hashtable").traces)
        back = spans_from_chrome(json.loads(json.dumps(chrome_trace(spans))))
        assert len(back) == len(spans)
        for a, b in zip(spans, back):
            assert (a.span_id, a.parent_id, a.name, a.rank) == \
                (b.span_id, b.parent_id, b.name, b.rank)
            assert b.start_ns == pytest.approx(a.start_ns)
            assert b.duration_ns == pytest.approx(a.duration_ns, abs=1e-3)

    def test_validator_flags_malformed_events(self):
        doc = {"traceEvents": [
            {"ph": "X", "pid": 0, "tid": 0},            # no name/ts/dur
            {"name": "n", "ph": "X", "pid": 0, "tid": 0,
             "ts": 1.0, "dur": -5.0},                   # negative duration
            {"name": "m", "ph": "M", "pid": 0, "tid": 0},  # M without args
        ]}
        errors = validate_chrome_trace(doc)
        assert len(errors) >= 4
        assert validate_chrome_trace({"nope": 1})
        assert validate_chrome_trace({"traceEvents": "x"})

    def test_span_dicts_round_trip(self):
        spans = spans_of(store_run("hierarchical").traces)
        back = spans_from_dicts(json.loads(json.dumps(spans_to_dicts(spans))))
        assert [s.as_dict() for s in back] == [s.as_dict() for s in spans]


class TestDarshanAndReport:
    def test_records_per_rank_and_var(self):
        res = store_run("hashtable", nprocs=2)
        recs = darshan_records(res.traces)
        assert [(r["rank"], r["var"]) for r in recs] == [(0, "A"), (1, "A")]
        for r in recs:
            assert r["writes"] == 1 and r["reads"] == 1
            assert r["write_bytes"] == r["read_bytes"] == 512 * 8
            assert r["errors"] == 0
            assert r["slowest_ns"] > 0

    def test_nested_driver_and_store_spans_not_double_counted(self):
        from repro.baselines import get_driver

        cl = cluster()

        def fn(ctx):
            comm = Communicator.world(ctx)
            drv = get_driver("pmemcpy")
            drv.open(ctx, comm, "/pmem/d", "w")
            drv.def_var(ctx, "v", (comm.size, 64), np.float64)
            drv.write(ctx, "v", np.zeros((1, 64)), (comm.rank, 0))
            drv.close(ctx)

        res = cl.run(1, fn)
        recs = darshan_records(res.traces)
        (rec,) = recs
        assert rec["writes"] == 1            # driver.write only, not the
        assert rec["write_bytes"] == 64 * 8  # nested pmemcpy.store too

    def test_breakdown_self_time_excludes_children(self):
        res = store_run("hashtable")
        bd = span_breakdown(res.traces)
        root = bd["pmemcpy.store"]
        assert root["count"] == 2
        # children carry (almost) all of the modeled time
        assert root["self_ns"] <= 0.1 * root["total_ns"] + 1e-9
        total_self = sum(b["self_ns"] for b in bd.values())
        total_root = sum(
            s.duration_ns for s in spans_of(res.traces)
            if s.parent_id is None
        )
        assert total_self == pytest.approx(total_root)

    def test_render_report_mentions_phases(self):
        res = store_run("hashtable")
        text = render_report(merged_metrics(res.traces), res.traces,
                             title="unit")
        assert "per-phase breakdown" in text
        assert "pmemcpy.store" in text
        assert "span.memcpy.ns" in text
        assert "per-rank/per-variable I/O records" in text


# ---------------------------------------------------------------------------
# PMEM.stats() isolation (regression: used to return live dicts)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("layout", LAYOUTS)
def test_stats_returns_deep_copies(layout):
    cl = cluster()

    def fn(ctx):
        comm = Communicator.world(ctx)
        pmem = PMEM(layout=layout)
        pmem.mmap("/pmem/s", comm)
        pmem.store("A", np.ones(64))
        st = pmem.stats()
        st["variables"]["A"]["nchunks"] = 999     # vandalize the snapshot
        st["metrics"]["pmemcpy_store_ops"]["value"] = -1.0
        st["metrics"].clear()
        st["variables"].clear()
        fresh = pmem.stats()
        assert fresh["variables"]["A"]["nchunks"] != 999
        assert fresh["metrics"]["pmemcpy_store_ops"]["value"] == 1
        # the live registry was never touched
        assert metrics_for(ctx).get("pmemcpy.store.ns").count == 1
        pmem.munmap()

    cl.run(1, fn)


# ---------------------------------------------------------------------------
# driver accounting is exception-safe
# ---------------------------------------------------------------------------

class TestDriverErrorAccounting:
    def test_failed_write_charges_error_not_success(self):
        from repro.baselines.base import PIODriver

        class Exploding(PIODriver):
            name = "exploding"

            def open(self, ctx, comm, path, mode):
                pass

            def def_var(self, ctx, name, global_dims, dtype):
                pass

            def write(self, ctx, name, array, offsets):
                with self.write_op(ctx, name, array):
                    raise OSError("device gone")

            def read(self, ctx, name, offsets, dims):
                with self.read_op(ctx, name) as op:
                    raise OSError("device gone")
                    op.done(None)

            def close(self, ctx):
                pass

        cl = cluster()

        def fn(ctx):
            drv = Exploding()
            with pytest.raises(OSError):
                drv.write(ctx, "v", np.zeros(8), (0,))
            with pytest.raises(OSError):
                drv.read(ctx, "v", (0,), (8,))
            reg = metrics_for(ctx)
            assert reg.get("driver_write_errors").value == 1
            assert reg.get("driver_read_errors").value == 1
            assert "driver_write_ops" not in reg
            assert "driver_read_ops" not in reg

        res = cl.run(1, fn)
        statuses = {s.name: s.status for s in spans_of(res.traces)}
        assert statuses == {"driver.write": "error:OSError",
                            "driver.read": "error:OSError"}
        recs = darshan_records(res.traces)
        assert recs[0]["errors"] == 2

    def test_successful_ops_still_charge_once(self):
        cl = cluster()

        def fn(ctx):
            from repro.baselines import get_driver

            comm = Communicator.world(ctx)
            drv = get_driver("posix")
            drv.open(ctx, comm, "/pmem/ok", "w")
            drv.def_var(ctx, "v", (16,), np.float64)
            drv.write(ctx, "v", np.arange(16.0), (0,))
            drv.close(ctx)
            drv = get_driver("posix")
            drv.open(ctx, comm, "/pmem/ok", "r")
            out = drv.read(ctx, "v", (0,), (16,))
            drv.close(ctx)
            np.testing.assert_array_equal(out, np.arange(16.0))
            reg = metrics_for(ctx)
            assert reg.get("driver_write_ops").value == 1
            assert reg.get("driver_write_bytes").value == 128
            assert reg.get("driver_read_ops").value == 1
            assert reg.get("driver_read_bytes").value == 128
            assert "driver_write_errors" not in reg

        cl.run(1, fn)


# ---------------------------------------------------------------------------
# harness integration
# ---------------------------------------------------------------------------

def test_job_result_carries_metrics_and_spans():
    from repro.harness.experiment import run_io_experiment
    from repro.workloads import Domain3D

    w = Domain3D(nvars=1, model_dims=(40, 40, 40), axis_scale=5)
    (r,) = run_io_experiment(
        "PMCPY-B", 2, w, directions=("write",),
        driver_override=("pmemcpy", {"map_sync": True, "meta_stripes": 64,
                                     "meta_rw": True}),
    )
    assert r.job_id() == "PMCPY-B_write_2p"
    # typed registry serialized per job
    reg = MetricRegistry.from_dict(r.metrics)
    assert reg.get("pmemcpy.store.ns").count >= 2
    # stripe occupancy and the device's persistence counters ride along
    assert reg.get("meta.stripe.acquires").nonzero_buckets()
    assert reg.get("device_stores").kind == "gauge"
    assert reg.get("device_stores").value > 0
    # spans exported as dicts, chrome-trace ready
    spans = spans_from_dicts(r.spans)
    assert any(s.name == "pmemcpy.store" for s in spans)
    assert validate_chrome_trace(chrome_trace(spans)) == []


def test_telemetry_cli_report(tmp_path, capsys):
    from repro.telemetry.__main__ import main

    res = store_run("hashtable")
    trace_path = tmp_path / "run.trace.json"
    trace_path.write_text(json.dumps(chrome_trace(res.traces)))
    metrics_path = tmp_path / "metrics.json"
    metrics_path.write_text(json.dumps(
        {"job": merged_metrics(res.traces).as_dict()}))
    rc = main(["report", "--trace", str(trace_path),
               "--metrics", str(metrics_path), "--job", "job"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "per-phase breakdown" in out
    assert "pmemcpy.store" in out
    assert "latency families" in out
