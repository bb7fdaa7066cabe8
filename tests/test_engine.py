"""Tests for the SPMD functional-pass engine."""

import numpy as np
import pytest

from repro.config import DEFAULT_MACHINE
from repro.errors import CollectiveAbortedError, DeadlockError, RankFailedError
from repro.sim import run_spmd
from repro.sim.engine import select_root_failure
from repro.sim.resources import Resource, ResourceSet
from repro.sim.trace import Barrier, Delay, Rows, Transfer


class TestRunSpmd:
    def test_returns_collected_in_rank_order(self):
        res = run_spmd(4, lambda ctx: ctx.rank * 10)
        assert res.returns == [0, 10, 20, 30]

    def test_traces_one_per_rank(self):
        res = run_spmd(3, lambda ctx: ctx.delay(5.0))
        assert [t.rank for t in res.traces] == [0, 1, 2]
        assert all(len(t.ops) == 1 for t in res.traces)

    def test_nprocs_validation(self):
        with pytest.raises(ValueError):
            run_spmd(0, lambda ctx: None)

    def test_rank_exception_propagates(self):
        def fn(ctx):
            if ctx.rank == 2:
                raise ValueError("boom")
            ctx.barrier()

        with pytest.raises(RankFailedError) as ei:
            run_spmd(4, fn)
        assert ei.value.rank == 2
        assert isinstance(ei.value.original, ValueError)

    def test_single_rank(self):
        res = run_spmd(1, lambda ctx: ctx.nprocs)
        assert res.returns == [1]


class TestSchedule:
    """Ranks take turns: one baton, handed on in rank order where a rank
    blocks, so a run's interleaving is a function of the program."""

    def test_ranks_start_in_rank_order_and_hand_on_at_blocks(self):
        order = []

        def fn(ctx):
            order.append(("a", ctx.rank))
            ctx.barrier()
            order.append(("b", ctx.rank))

        run_spmd(3, fn)
        # the last rank into the barrier goes on; the others follow it
        # round-robin from the rank that blocked last
        assert order == [("a", 0), ("a", 1), ("a", 2),
                         ("b", 2), ("b", 0), ("b", 1)]

    def test_lock_order_cycle_raises_naming_the_blocked_ranks(self):
        from repro.mem.device import PMEMDevice
        from repro.pmdk import PmemMutex, PmemPool, RawRegion
        from repro.units import MiB

        size = 2 * MiB
        region = RawRegion(PMEMDevice(size), 0, size)

        def fn(ctx):
            if ctx.rank == 0:
                pool = PmemPool.create(ctx, region, size=size, nlanes=4)
                ctx.board.put("mutexes", (PmemMutex.alloc(ctx, pool),
                                          PmemMutex.alloc(ctx, pool)))
            ctx.barrier()
            first, second = ctx.board.get("mutexes")
            if ctx.rank == 1:
                first, second = second, first
            with first.guard(ctx):
                ctx.barrier()
                with second.guard(ctx):
                    pass

        with pytest.raises(DeadlockError) as ei:
            run_spmd(2, fn)
        assert sorted(ei.value.blocked) == [0, 1]
        assert all("mutex" in what for what in ei.value.blocked.values())
        assert "rank 0 waits for mutex" in str(ei.value)

    def test_a_wait_no_rank_can_satisfy_raises(self):
        def fn(ctx):
            if ctx.rank == 0:
                ctx.board.wait_get("never")

        with pytest.raises(DeadlockError) as ei:
            run_spmd(3, fn)
        assert ei.value.blocked == {0: "board key 'never'"}

    def test_paper_cells_record_equal_traces_twice(self):
        """Two runs of four Fig. 6/7 libraries at 8p, write and read,
        record ``==`` traces, makespans and critical paths."""
        from repro.harness.experiment import (
            PAPER_LIBRARIES,
            _cluster_for,
            _job_result,
        )
        from repro.telemetry.critpath import critpath_dumps
        from repro.workloads import Domain3D, read_job, write_job

        workload = Domain3D(nvars=2, model_dims=(160,) * 3, axis_scale=10)

        def cell(library):
            driver, kw = PAPER_LIBRARIES[library]
            cl = _cluster_for(workload, DEFAULT_MACHINE)
            out = []
            for direction, job in (("write", write_job), ("read", read_job)):
                res = cl.run(8, lambda ctx: job(ctx, workload, driver,
                                                "/pmem/eval", kw))
                result = _job_result(library, 8, direction, res, cl)
                out.append(([t.entries for t in res.traces], result.seconds,
                            critpath_dumps(result.critpath)))
            return out

        for library in ("PMCPY-A", "PMCPY-B", "ADIOS", "NetCDF"):
            first, second = cell(library), cell(library)
            for (ea, sa, ca), (eb, sb, cb) in zip(first, second):
                assert ea == eb, library
                assert sa == sb, library
                assert ca == cb, library


class TestRootCauseSelection:
    """Barrier-casualty unwinding surfaces the real failure."""

    def test_casualties_skipped(self):
        failures = [
            (0, CollectiveAbortedError("peer died")),
            (2, ValueError("root cause")),
            (1, CollectiveAbortedError("peer died")),
        ]
        rank, exc = select_root_failure(failures)
        assert rank == 2
        assert isinstance(exc, ValueError)

    def test_all_casualties_lowest_rank_wins(self):
        failures = [
            (3, CollectiveAbortedError("a")),
            (1, CollectiveAbortedError("b")),
        ]
        rank, exc = select_root_failure(failures)
        assert rank == 1

    def test_threads_rank_failure_is_root_cause(self):
        def fn(ctx):
            if ctx.rank == 1:
                raise RuntimeError("rank 1 exploded")
            ctx.barrier()  # peers block, then unwind as casualties

        with pytest.raises(RankFailedError) as ei:
            run_spmd(3, fn)
        assert ei.value.rank == 1
        assert isinstance(ei.value.__cause__, RuntimeError)
        assert "exploded" in str(ei.value.__cause__)


class TestContext:
    def test_model_bytes_scales(self):
        res = run_spmd(1, lambda ctx: ctx.model_bytes(100), scale=1024)
        assert res.returns[0] == 102400.0

    def test_phase_labels_ops(self):
        def fn(ctx):
            with ctx.phase("alpha"):
                ctx.delay(1.0)
                with ctx.phase("beta"):
                    ctx.transfer("pmem_write", 10.0, 1.0)
            ctx.delay(2.0)

        res = run_spmd(1, fn)
        ops = res.traces[0].ops
        assert ops[0].phase == "alpha"
        assert ops[1].phase == "beta"
        assert ops[2].phase == ""

    def test_zero_cost_ops_not_recorded(self):
        def fn(ctx):
            ctx.delay(0.0)
            ctx.transfer("pmem_write", 0.0, 1.0)

        res = run_spmd(1, fn)
        assert res.traces[0].ops == []

    @pytest.mark.parametrize("tail", ["none", "delay", "transfer",
                                      "other-note", "other-phase"])
    @pytest.mark.parametrize("after", ["delay", "transfer"])
    def test_append_ops_equals_one_by_one(self, tail, after):
        """``append_rows`` leaves the trace and the lb clock exactly where
        the delay()/transfer() calls of its expansion leave them: the
        merge rule applies at the head (``tail``, the op before the batch)
        and at the end (``after``, the op after it: a transfer merges into
        the batch's last one, a delay never does)."""
        n = 40
        model_bytes = np.array([0.1, 0.2] * (n // 2))
        fault = np.zeros(n)
        fault[[3, 4, 17, n - 1]] = [0.05, 1.5, 0.05, 2.0]
        commit = np.zeros(n)
        commit[[4, 9]] = 0.25
        lead = (("fault", fault), ("commit", commit))

        def fn(ctx, bulk):
            with ctx.phase("p"):
                if tail == "delay":
                    ctx.delay(0.1, note="n")
                elif tail == "transfer":
                    ctx.transfer("pmem_read", 0.7, 3.0, note="n")
                elif tail == "other-note":
                    ctx.delay(0.1, note="m")
                elif tail == "other-phase":
                    with ctx.phase("setup"):
                        ctx.delay(0.1, note="n")
                if not bulk:
                    starts, ends = [], []
                    for i in range(n):
                        for note, ns in lead:
                            ctx.delay(float(ns[i]), note=note)
                        starts.append(ctx.lb_ns)
                        ctx.delay(0.3, note="n")
                        ctx.transfer("pmem_read", float(model_bytes[i]), 3.0,
                                     note="n")
                        ends.append(ctx.lb_ns)
                else:
                    starts, ends = ctx.append_rows(Rows(
                        "p", 0.3, "pmem_read", 3.0, "n", model_bytes, lead))
                    starts, ends = starts.tolist(), ends.tolist()
                    assert sum(type(e) is Rows
                               for e in ctx.trace.entries) == 1
                if after == "delay":
                    ctx.delay(0.5, note="n")
                else:
                    ctx.transfer("pmem_read", 0.7, 3.0, note="n")
            return starts, ends, ctx.lb_ns

        one = run_spmd(1, lambda ctx: fn(ctx, False))
        many = run_spmd(1, lambda ctx: fn(ctx, True))
        assert many.returns == one.returns
        assert many.traces[0].ops == one.traces[0].ops
        assert many.time().breakdown == one.time().breakdown
        assert many.makespan_ns == one.makespan_ns
        merged = (tail == "delay") + (after == "transfer")
        assert len(one.traces[0].ops) == len(many.traces[0].ops) == (
            (tail != "none") + 2 * n + 6 + 1 - merged)

    def test_append_ops_rejects_a_stale_phase(self):
        def fn(ctx):
            with pytest.raises(ValueError):
                ctx.append_rows(Rows("elsewhere", 0.3, "pmem_read", 3.0, "",
                                     np.ones(4)))
            return ctx.lb_ns

        res = run_spmd(1, fn)
        assert res.returns == [0.0] and res.traces[0].ops == []

    def test_append_ops_shared_instances_stand_for_their_ops(self):
        """A Rows entry (a view into a larger clock or column) stands for
        the same ops as the calls it replaces."""
        def fn(ctx):
            ctx.transfer("cpu", 1.0, 1.0)
            ctx.append_rows(Rows("", 0.3, "pmem_read", 3.0, "n",
                                 np.full(200, 0.1)[::2]))

        fresh = [Transfer("cpu", 1.0, 1.0)]
        for _ in range(100):
            fresh += [Delay(0.3, "", "n"),
                      Transfer("pmem_read", 0.1, 3.0, "", "n")]
        res = run_spmd(1, fn)
        assert res.traces[0].ops == fresh
        assert len(res.traces[0].ops) == len(fresh)
        assert [type(e) for e in res.traces[0].entries] == (
            [Transfer, Delay, Transfer, Rows, Delay, Transfer])

    def test_barrier_records_matching_ids(self):
        def fn(ctx):
            ctx.barrier()
            ctx.barrier()

        res = run_spmd(3, fn)
        for t in res.traces:
            ids = [op.barrier_id for op in t.ops if isinstance(op, Barrier)]
            assert ids == [0, 1]
            assert all(op.participants == (0, 1, 2) for op in t.ops)

    def test_subset_barrier(self):
        def fn(ctx):
            if ctx.rank < 2:
                ctx.barrier(participants=(0, 1))

        res = run_spmd(4, fn)
        assert len(res.traces[0].ops) == 1
        assert len(res.traces[3].ops) == 0

    def test_barrier_functionally_synchronizes(self):
        # Rank 0 publishes before the barrier; others must observe it after.
        def fn(ctx):
            if ctx.rank == 0:
                ctx.board.put("x", 42)
            ctx.barrier()
            return ctx.board.get("x")

        res = run_spmd(8, fn)
        assert res.returns == [42] * 8


class TestTiming:
    def test_time_runs_fluid_on_traces(self):
        def fn(ctx):
            ctx.transfer(
                "pmem_write", 1e9, DEFAULT_MACHINE.pmem.stream_write_bw
            )

        res = run_spmd(2, fn)
        t = res.time()
        # 2 streams * 0.55 GB/s, 1 GB each -> 1/0.55 s
        assert t.makespan_ns == pytest.approx(1e9 / 0.55, rel=1e-6)
        assert res.makespan_s == pytest.approx(t.makespan_ns / 1e9)

    def test_time_is_cached(self):
        res = run_spmd(1, lambda ctx: ctx.delay(10.0))
        assert res.time() is res.time()

    def test_custom_resources_are_a_what_if_not_the_cached_timing(self):
        res = run_spmd(2, lambda ctx: ctx.transfer("pmem_write", 1e6, 1.0))
        slow = ResourceSet([Resource("pmem_write", lambda n: 0.5)])
        what_if = res.time(slow)               # nothing cached yet
        assert what_if.makespan_ns == pytest.approx(4e6)
        standard = res.time()
        assert standard.makespan_ns == pytest.approx(1e6)
        assert res.time(slow).makespan_ns == what_if.makespan_ns
        # the what-if never became "the" timing of the result
        assert res.time() is standard
        assert res.makespan_ns == standard.makespan_ns

    @pytest.mark.parametrize("nprocs", [1, 3])
    def test_causal_timing_supersedes_plain_and_is_cached(self, nprocs):
        def fn(ctx):
            ctx.delay(5.0 * (ctx.rank + 1))
            ctx.lock_acquired("L")
            ctx.transfer("pmem_write", 4096.0, 1.0)
            ctx.lock_released("L")

        res = run_spmd(nprocs, fn)
        plain = res.time()
        assert plain.causal is None
        causal = res.time(record_causal=True)
        assert causal.causal is not None and causal.causal.segments
        assert causal.finish_ns == plain.finish_ns
        assert causal.breakdown == plain.breakdown
        # everyone after gets the causal result, plain callers included
        assert res.time() is causal
        assert res.time(record_causal=True) is causal

    def test_determinism_across_runs(self):
        def fn(ctx):
            with ctx.phase("p"):
                ctx.transfer("dram", 1000.0 * (ctx.rank + 1), 1.0)
            ctx.barrier()
            ctx.delay(3.0)

        a = run_spmd(6, fn).time()
        b = run_spmd(6, fn).time()
        assert a.finish_ns == b.finish_ns
        assert a.breakdown == b.breakdown
