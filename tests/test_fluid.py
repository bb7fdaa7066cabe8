"""Tests for the max-min fluid replay simulator."""


import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import DEFAULT_MACHINE
from repro.sim.fluid import FluidSimulator, waterfill
from repro.sim.resources import Resource, ResourceSet, build_standard_resources
from repro.sim.trace import (
    Acquire,
    Barrier,
    Delay,
    RankTrace,
    Release,
    Rows,
    Transfer,
)


def const_resources(**caps):
    return ResourceSet([Resource(n, (lambda c: (lambda _n: c))(c)) for n, c in caps.items()])


class TestWaterfill:
    def test_under_capacity_gives_caps(self):
        assert waterfill([1.0, 2.0], 10.0) == [1.0, 2.0]

    def test_equal_split_when_saturated(self):
        assert waterfill([5.0, 5.0], 6.0) == [3.0, 3.0]

    def test_small_stream_keeps_cap(self):
        # 1 is below fair share (5), so it keeps its cap and the big
        # streams split the rest.
        rates = waterfill([1.0, 100.0, 100.0], 15.0)
        assert rates[0] == pytest.approx(1.0)
        assert rates[1] == pytest.approx(7.0)
        assert rates[2] == pytest.approx(7.0)

    def test_empty(self):
        assert waterfill([], 5.0) == []

    @given(
        st.lists(st.floats(min_value=0.01, max_value=100.0), min_size=1, max_size=20),
        st.floats(min_value=0.01, max_value=500.0),
    )
    def test_properties(self, caps, capacity):
        rates = waterfill(caps, capacity)
        assert len(rates) == len(caps)
        # feasibility
        for r, c in zip(rates, caps):
            assert 0 <= r <= c + 1e-9
        assert sum(rates) <= capacity + 1e-6
        # work conservation: either all streams capped, or capacity is used
        if any(r < c - 1e-9 for r, c in zip(rates, caps)):
            assert sum(rates) == pytest.approx(capacity, rel=1e-6)
        # max-min: any stream below its cap gets at least as much as any
        # other stream's floor (no one below-cap is starved relative to peers)
        uncapped = [r for r, c in zip(rates, caps) if r < c - 1e-9]
        if uncapped:
            assert min(uncapped) >= max(min(rates) - 1e-9, 0)


class TestFluidBasics:
    def test_single_delay(self):
        trace = RankTrace(0, [Delay(100.0)])
        res = FluidSimulator(const_resources()).run([trace])
        assert res.finish_ns[0] == pytest.approx(100.0)

    def test_single_transfer_stream_capped(self):
        trace = RankTrace(0, [Transfer("dev", 1000.0, stream_cap=2.0)])
        res = FluidSimulator(const_resources(dev=100.0)).run([trace])
        assert res.finish_ns[0] == pytest.approx(500.0)

    def test_single_transfer_capacity_capped(self):
        trace = RankTrace(0, [Transfer("dev", 1000.0, stream_cap=50.0)])
        res = FluidSimulator(const_resources(dev=10.0)).run([trace])
        assert res.finish_ns[0] == pytest.approx(100.0)

    def test_two_streams_share_fairly(self):
        traces = [
            RankTrace(0, [Transfer("dev", 100.0, stream_cap=10.0)]),
            RankTrace(1, [Transfer("dev", 100.0, stream_cap=10.0)]),
        ]
        res = FluidSimulator(const_resources(dev=10.0)).run(traces)
        # each gets 5 units/ns -> 20ns
        assert res.finish_ns[0] == pytest.approx(20.0)
        assert res.finish_ns[1] == pytest.approx(20.0)

    def test_short_stream_releases_bandwidth(self):
        traces = [
            RankTrace(0, [Transfer("dev", 50.0, stream_cap=10.0)]),
            RankTrace(1, [Transfer("dev", 150.0, stream_cap=10.0)]),
        ]
        res = FluidSimulator(const_resources(dev=10.0)).run(traces)
        # both at 5 until t=10 (rank0 done, 50 units each);
        # rank1 then runs at its cap 10 for remaining 100 -> t=20.
        assert res.finish_ns[0] == pytest.approx(10.0)
        assert res.finish_ns[1] == pytest.approx(20.0)

    def test_sequential_ops_accumulate(self):
        trace = RankTrace(0, [Delay(10.0), Transfer("dev", 20.0, 2.0), Delay(5.0)])
        res = FluidSimulator(const_resources(dev=100.0)).run([trace])
        assert res.finish_ns[0] == pytest.approx(25.0)

    def test_zero_amount_ops_skipped(self):
        trace = RankTrace(0, [Transfer("dev", 0.0, 1.0), Delay(0.0), Delay(7.0)])
        res = FluidSimulator(const_resources(dev=1.0)).run([trace])
        assert res.finish_ns[0] == pytest.approx(7.0)

    def test_empty_trace(self):
        res = FluidSimulator(const_resources()).run([RankTrace(0, [])])
        assert res.finish_ns[0] == 0.0

    def test_unknown_resource_raises(self):
        trace = RankTrace(0, [Transfer("nope", 10.0, 1.0)])
        with pytest.raises(KeyError):
            FluidSimulator(const_resources(dev=1.0)).run([trace])

    def test_duplicate_rank_rejected(self):
        with pytest.raises(ValueError):
            FluidSimulator(const_resources()).run([RankTrace(0), RankTrace(0)])


class TestBarriers:
    def test_barrier_synchronizes(self):
        b = Barrier(0, (0, 1))
        traces = [
            RankTrace(0, [Delay(100.0), b, Delay(10.0)]),
            RankTrace(1, [Delay(5.0), b, Delay(10.0)]),
        ]
        res = FluidSimulator(const_resources()).run(traces)
        assert res.finish_ns[0] == pytest.approx(110.0)
        assert res.finish_ns[1] == pytest.approx(110.0)

    def test_subset_barrier_ignores_others(self):
        b = Barrier(0, (0, 1))
        traces = [
            RankTrace(0, [b]),
            RankTrace(1, [Delay(50.0), b]),
            RankTrace(2, [Delay(3.0)]),
        ]
        res = FluidSimulator(const_resources()).run(traces)
        assert res.finish_ns[2] == pytest.approx(3.0)
        assert res.finish_ns[0] == pytest.approx(50.0)

    def test_two_sequential_barriers(self):
        b0, b1 = Barrier(0, (0, 1)), Barrier(1, (0, 1))
        traces = [
            RankTrace(0, [b0, Delay(10.0), b1]),
            RankTrace(1, [Delay(20.0), b0, b1]),
        ]
        res = FluidSimulator(const_resources()).run(traces)
        assert res.finish_ns[0] == pytest.approx(30.0)
        assert res.finish_ns[1] == pytest.approx(30.0)

    def test_unmatched_barrier_deadlocks(self):
        traces = [
            RankTrace(0, [Barrier(0, (0, 1))]),
            RankTrace(1, [Delay(1.0)]),
        ]
        with pytest.raises(RuntimeError, match="deadlock"):
            FluidSimulator(const_resources()).run(traces)


class TestBreakdown:
    def test_phase_accounting_sums_to_finish(self):
        traces = [
            RankTrace(0, [
                Transfer("dev", 100.0, 10.0, phase="write"),
                Delay(50.0, phase="sync"),
            ]),
        ]
        res = FluidSimulator(const_resources(dev=100.0)).run(traces)
        total = sum(ns for (r, _p, _b), ns in res.breakdown.items() if r == 0)
        assert total == pytest.approx(res.finish_ns[0])
        assert res.breakdown[(0, "write", "dev")] == pytest.approx(10.0)
        assert res.breakdown[(0, "sync", "delay")] == pytest.approx(50.0)

    def test_phase_totals_max_over_ranks(self):
        traces = [
            RankTrace(0, [Delay(10.0, phase="a")]),
            RankTrace(1, [Delay(30.0, phase="a")]),
        ]
        res = FluidSimulator(const_resources()).run(traces)
        assert res.phase_totals()["a"] == pytest.approx(30.0)


class TestAgainstAnalytic:
    """Cross-check the simulator against closed-form results."""

    @given(
        st.integers(min_value=1, max_value=32),
        st.floats(min_value=1.0, max_value=1e6),
        st.floats(min_value=0.1, max_value=10.0),
        st.floats(min_value=0.5, max_value=100.0),
    )
    def test_symmetric_streams(self, n, amount, cap, capacity):
        traces = [
            RankTrace(r, [Transfer("dev", amount, cap)]) for r in range(n)
        ]
        res = FluidSimulator(const_resources(dev=capacity)).run(traces)
        rate = min(cap, capacity / n)
        expected = amount / rate
        assert res.makespan_ns == pytest.approx(expected, rel=1e-6)

    def test_standard_resources_40gb_write(self):
        machine = DEFAULT_MACHINE
        rs = build_standard_resources(machine)
        n = 24
        per_rank = 40e9 / n
        traces = [
            RankTrace(
                r, [Transfer("pmem_write", per_rank, machine.pmem.stream_write_bw)]
            )
            for r in range(n)
        ]
        res = FluidSimulator(rs).run(traces)
        # 24 * 0.55 GB/s > 8 GB/s aggregate -> device-bound: 5.0s
        assert res.makespan_ns == pytest.approx(5.0e9, rel=1e-3)

    def test_cpu_smt_capacity(self):
        machine = DEFAULT_MACHINE
        rs = build_standard_resources(machine)
        # 48 single-core streams of 1e6 core-ns each on a 24c/48t machine
        traces = [
            RankTrace(r, [Transfer("cpu", 1e6, 1.0)]) for r in range(48)
        ]
        res = FluidSimulator(rs).run(traces)
        cores = machine.cores_available(48)
        assert res.makespan_ns == pytest.approx(48 * 1e6 / cores, rel=1e-6)

    @given(st.data())
    def test_makespan_at_least_lower_bound(self, data):
        n = data.draw(st.integers(min_value=1, max_value=8))
        traces = []
        for r in range(n):
            ops = []
            for _ in range(data.draw(st.integers(0, 5))):
                kind = data.draw(st.sampled_from(["delay", "xfer"]))
                if kind == "delay":
                    ops.append(Delay(data.draw(st.floats(0.0, 100.0))))
                else:
                    ops.append(
                        Transfer(
                            "dev",
                            data.draw(st.floats(0.0, 1000.0)),
                            data.draw(st.floats(0.5, 10.0)),
                        )
                    )
            traces.append(RankTrace(r, ops))
        res = FluidSimulator(const_resources(dev=5.0)).run(traces)
        for t in traces:
            # absolute slack: ops below the simulator's 1e-9 ns epsilon are
            # legitimately skipped
            n_ops = len(t.ops)
            assert res.finish_ns[t.rank] >= t.lower_bound_ns() * (1 - 1e-9) - 1e-6 * (n_ops + 1)


# ---------------------------------------------------------------------------
# closed-form single-rank replay == the general event loop
# ---------------------------------------------------------------------------

STANDARD = build_standard_resources(DEFAULT_MACHINE)
_EPS = 1e-9


def general_loop(sim, trace, record_causal):
    """The event loop on a one-rank trace, past the closed form."""
    return sim._run_events([trace], record_causal)


def assert_same_replay(trace, resources=STANDARD):
    sim = FluidSimulator(resources)
    for record_causal in (False, True):
        fast = sim.run([trace], record_causal=record_causal)
        ref = general_loop(sim, trace, record_causal)
        assert fast.finish_ns == ref.finish_ns
        assert fast.makespan_ns == ref.makespan_ns
        # keys, insertion order and values
        assert list(fast.breakdown.items()) == list(ref.breakdown.items())
        if not record_causal:
            assert fast.causal is None and ref.causal is None
            continue
        assert fast.causal.segments == ref.causal.segments
        assert list(fast.causal.locks.items()) == list(ref.causal.locks.items())


@st.composite
def single_rank_traces(draw):
    rank = draw(st.sampled_from([0, 0, 3, 17]))
    phases = st.sampled_from(["", "write", "read", "meta"])
    delay_ns = st.one_of(
        st.sampled_from([0.0, 5e-10, _EPS, 2e-9, 1.0, 137.25]),
        st.floats(min_value=0.0, max_value=1e7),
        # far larger than the running clock: expiry - now is inexact
        st.floats(min_value=1e12, max_value=1e19),
    )
    amounts = st.one_of(
        st.sampled_from([0.0, 5e-10, _EPS, 3e-9, 1.0, 4096.0]),
        st.floats(min_value=0.0, max_value=1e10),
    )
    held: dict[str, bool] = {}                 # lock_id -> held shared
    ops = []
    for _ in range(draw(st.integers(0, 30))):
        kind = draw(st.sampled_from(
            ["delay", "delay", "xfer", "xfer", "xfer", "acquire", "release",
             "barrier"]
        ))
        if kind == "delay":
            ops.append(Delay(draw(delay_ns), phase=draw(phases)))
        elif kind == "xfer":
            name = draw(st.sampled_from(STANDARD.names()))
            capacity = STANDARD[name].capacity(1)
            stream_cap = draw(st.one_of(
                # below, at, within _EPS above, just past _EPS, far above
                st.sampled_from([0.3 * capacity, capacity, capacity + 5e-10,
                                 capacity + 2e-9, 7.0 * capacity]),
                st.floats(min_value=1e-3, max_value=100.0),
            ))
            ops.append(Transfer(name, draw(amounts), stream_cap,
                                phase=draw(phases)))
        elif kind == "acquire":
            lock_id = draw(st.sampled_from(["L", "M", "N"]))
            shared = draw(st.booleans())
            # re-entering is legal only shared-on-shared (and one Release
            # then frees the lock); anything else is a self-deadlock,
            # covered by the error cases below
            if lock_id in held and not (held[lock_id] and shared):
                continue
            held[lock_id] = shared
            ops.append(Acquire(lock_id, shared=shared, phase=draw(phases)))
        elif kind == "release":
            if held:  # else skip: a lock still held at trace end stays likely
                lock_id = draw(st.sampled_from(sorted(held)))
                del held[lock_id]
                ops.append(Release(lock_id, phase=draw(phases)))
        else:
            ops.append(Barrier(draw(st.integers(0, 3)), (rank,),
                               phase=draw(phases)))
    return RankTrace(rank, ops)


class UnknownOp:
    phase = ""

    def __repr__(self):
        return "UnknownOp()"


class TestSingleRankClosedForm:
    @settings(max_examples=150, deadline=None)
    @given(single_rank_traces())
    def test_equals_general_loop(self, trace):
        assert_same_replay(trace)

    def test_nested_shared_acquire_and_held_at_end(self):
        # the second shared Acquire re-stamps the grant; one Release frees
        # the lock; "r" is re-taken and still held when the trace ends
        trace = RankTrace(2, [
            Acquire("r", shared=True), Delay(10.0),
            Acquire("r", shared=True), Delay(5.0), Release("r"),
            Acquire("w"), Transfer("dram", 4096.0, 1.0), Release("w"),
            Acquire("r", shared=True), Delay(7.0),
        ])
        assert_same_replay(trace)
        causal = FluidSimulator(STANDARD).run([trace], record_causal=True).causal
        assert causal.locks["r"]["acquires"] == 3
        assert causal.locks["r"]["holds"] == 2
        assert causal.locks["r"]["hold_ns"] == 5.0 + 7.0

    def test_delay_dwarfing_the_clock(self):
        trace = RankTrace(0, [Delay(0.1), Delay(1e17), Delay(3.0),
                              Transfer("cpu", 1e6, 1.0)])
        assert_same_replay(trace)

    def test_cap_within_eps_of_capacity_keeps_the_cap(self):
        rs = const_resources(dev=2.0)
        for cap in (2.0, 2.0 + 5e-10, 2.0 + 2e-9, 1.5, 64.0):
            assert_same_replay(RankTrace(0, [Transfer("dev", 1e6, cap)]), rs)
        res = FluidSimulator(rs).run([RankTrace(0, [Transfer("dev", 1e6, 2.0 + 5e-10)])])
        assert res.makespan_ns == 1e6 / (2.0 + 5e-10)

    def test_subclassed_op_takes_the_general_loop(self):
        class SlowDelay(Delay):
            pass

        trace = RankTrace(0, [SlowDelay(5.0, phase="p"), Delay(1.0)])
        assert_same_replay(trace)
        assert FluidSimulator(STANDARD).run([trace]).makespan_ns == 6.0

    @pytest.mark.parametrize("ops, exc, match", [
        ([Delay(1.0), Release("L")], ValueError, "does not hold"),
        ([Acquire("L"), Release("L"), Release("L")], ValueError,
         "does not hold"),
        ([Delay(1.0), Barrier(0, (1, 2))], ValueError, "not participate"),
        ([Delay(1.0), Barrier(0, (0, 1)), Delay(1.0)], RuntimeError,
         "deadlock"),
        ([Acquire("L"), Delay(1.0), Acquire("L")], RuntimeError, "deadlock"),
        ([Acquire("L", shared=True), Acquire("L")], RuntimeError, "deadlock"),
        ([Acquire("L"), Acquire("L", shared=True)], RuntimeError, "deadlock"),
        ([Delay(1.0), Transfer("nope", 10.0, 1.0)], KeyError, "nope"),
        ([Delay(1.0), UnknownOp()], TypeError, "unknown op"),
        ([Delay(float("inf"))], RuntimeError, "no progress"),
        ([Transfer("dram", float("nan"), 1.0)], RuntimeError, "no progress"),
    ], ids=["release-unheld", "release-twice", "foreign-barrier",
            "multi-party-barrier", "self-reacquire", "shared-then-exclusive",
            "exclusive-then-shared", "unknown-resource", "unknown-op",
            "infinite-delay", "nan-amount"])
    @pytest.mark.parametrize("record_causal", [False, True])
    def test_same_error_as_general_loop(self, ops, exc, match, record_causal):
        sim = FluidSimulator(STANDARD)
        trace = RankTrace(0, ops)
        with pytest.raises(exc, match=match) as ref:
            general_loop(sim, trace, record_causal)
        with pytest.raises(exc) as fast:
            sim.run([trace], record_causal=record_causal)
        assert type(fast.value) is type(ref.value)
        assert str(fast.value) == str(ref.value)


# ---------------------------------------------------------------------------
# a Rows entry replays as the ops it stands for
# ---------------------------------------------------------------------------

class SpySimulator(FluidSimulator):
    """Counts how :meth:`_replay_rows` ends: in closed form or declined
    (the entry then replays op by op)."""

    def __init__(self, resources):
        super().__init__(resources)
        self.closed = self.declined = 0

    def _replay_rows(self, *args):
        after = super()._replay_rows(*args)
        if after is None:
            self.declined += 1
        else:
            self.closed += 1
        return after


@st.composite
def rows_entries(draw, phases, huge):
    n = draw(st.integers(1, 12))
    name = draw(st.sampled_from(STANDARD.names()))
    capacity = STANDARD[name].capacity(1)
    positive = st.one_of(st.sampled_from([5e-10, _EPS, 3e-9, 1.0, 4096.0]),
                         st.floats(min_value=1e-3, max_value=1e10))
    # with the clock at 1e20 these read delays vanish into its rounding
    read_ns = draw(st.sampled_from([1.0, 137.25]) if huge else positive)
    lead = tuple(
        (note, np.array(draw(st.lists(
            st.one_of(st.just(0.0), st.sampled_from([5e-10, 2e-9, 250.0]),
                      st.floats(min_value=0.0, max_value=1e6)),
            min_size=n, max_size=n))))
        for note in draw(st.lists(st.sampled_from(["page-fault", "commit"]),
                                  max_size=2, unique=True)))
    return Rows(
        draw(phases), read_ns, name,
        draw(st.sampled_from([0.3 * capacity, capacity, capacity + 5e-10,
                              7.0 * capacity])),
        "pmem-deserialize",
        np.array(draw(st.lists(positive, min_size=n, max_size=n))), lead)


@st.composite
def traces_with_rows(draw, rank=0):
    """Scalar delays/transfers mixed with Rows entries; ``huge`` puts the
    clock at 1e20 first, where ``now + ns == now`` for a small delay."""
    phases = st.sampled_from(["", "read", "meta"])
    huge = draw(st.booleans())
    entries = [Delay(1e20)] if huge else []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["rows", "rows", "delay", "xfer"]))
        if kind == "rows":
            entries.append(draw(rows_entries(phases, huge)))
        elif kind == "delay":
            entries.append(Delay(draw(st.floats(0.0, 1e6)),
                                 phase=draw(phases)))
        else:
            entries.append(Transfer("pmem_read", draw(st.floats(0.0, 1e9)),
                                    draw(st.floats(0.5, 20.0)),
                                    phase=draw(phases)))
    return RankTrace(rank, entries), huge


def expanded(trace):
    return RankTrace(trace.rank, list(trace.ops))


def assert_same_result(got, want):
    assert got.finish_ns == want.finish_ns
    assert list(got.breakdown.items()) == list(want.breakdown.items())
    if want.causal is None:
        assert got.causal is None
        return
    assert got.causal.segments == want.causal.segments
    assert list(got.causal.locks.items()) == list(want.causal.locks.items())


class TestRowsEntries:
    @settings(max_examples=200, deadline=None)
    @given(traces_with_rows())
    def test_replays_as_its_ops(self, drawn):
        trace, huge = drawn
        flat = expanded(trace)
        assert len(trace.ops) == len(flat.ops)
        for record_causal in (False, True):
            spy = SpySimulator(STANDARD)
            want = spy._run_single(flat, record_causal)
            assert spy.closed == spy.declined == 0
            got = spy._run_single(trace, record_causal)
            if want is None:
                assert got is None
            else:
                assert_same_result(got, want)
            if huge and any(type(e) is Rows for e in trace.entries):
                assert spy.declined        # the check saw the rounding
            assert_same_result(
                spy._run_events([trace], record_causal),
                spy._run_events([flat], record_causal))

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_several_ranks_replay_as_their_ops(self, data):
        traces = [data.draw(traces_with_rows(rank))[0]
                  for rank in range(data.draw(st.integers(2, 4)))]
        sim = FluidSimulator(STANDARD)
        for record_causal in (False, True):
            assert_same_result(
                sim.run(traces, record_causal=record_causal),
                sim.run([expanded(t) for t in traces],
                        record_causal=record_causal))

    def test_a_row_batch_replays_in_closed_form(self):
        """The partial-read shape — faults on a few rows, equal row sizes —
        takes the closed form, never the op-by-op walk."""
        fault = np.zeros(1024)
        fault[::97] = 180.0
        trace = RankTrace(0, [
            Transfer("cpu", 1e6, 1.0),
            Rows("read", 140.0, "pmem_read", 3.1, "pmem-deserialize",
                 np.full(1024, 2048.0), (("map-sync-commit", fault),)),
            Delay(10.0)])
        for record_causal in (False, True):
            spy = SpySimulator(STANDARD)
            got = spy.run([trace], record_causal=record_causal)
            assert (spy.closed, spy.declined) == (1, 0)
            assert_same_result(
                got, spy._run_single(expanded(trace), record_causal))
