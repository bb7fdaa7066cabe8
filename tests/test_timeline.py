"""Tests for the fluid simulator's per-rank timeline: the causal record's
segments, read as Gantt rows (rank, phase, bucket, start_ns, end_ns)."""

import pytest

from repro.sim.fluid import FluidSimulator
from repro.sim.resources import Resource, ResourceSet
from repro.sim.trace import Barrier, Delay, RankTrace, Transfer


def rs(**caps):
    return ResourceSet(
        [Resource(n, (lambda c: (lambda _n: c))(c)) for n, c in caps.items()]
    )


def timeline(sim, traces):
    """Gantt rows of a causal replay: each segment minus op index and waker."""
    res = sim.run(traces, record_causal=True)
    rows = [(r, p, b, s, e) for r, _i, p, b, s, e, _w in res.causal.segments]
    return res, rows


class TestTimeline:
    def test_off_by_default(self):
        res = FluidSimulator(rs(dev=10.0)).run(
            [RankTrace(0, [Transfer("dev", 100.0, 5.0)])]
        )
        assert res.causal is None

    def test_intervals_cover_rank_activity(self):
        traces = [RankTrace(0, [
            Delay(10.0, phase="a"),
            Transfer("dev", 100.0, 5.0, phase="b"),
            Delay(5.0, phase="c"),
        ])]
        _res, rows = timeline(FluidSimulator(rs(dev=10.0)), traces)
        assert len(rows) == 3
        (r0, p0, b0, s0, e0), (r1, p1, b1, s1, e1), (r2, p2, b2, s2, e2) = rows
        assert (p0, b0, s0, e0) == ("a", "delay", 0.0, 10.0)
        assert (p1, b1) == ("b", "dev")
        assert (s1, e1) == (10.0, 30.0)  # 100 units at cap 5
        assert (p2, b2, s2, e2) == ("c", "delay", 30.0, 35.0)

    def test_barrier_wait_interval(self):
        b = Barrier(0, (0, 1))
        traces = [
            RankTrace(0, [b]),
            RankTrace(1, [Delay(50.0), b]),
        ]
        _res, rows = timeline(FluidSimulator(rs()), traces)
        waits = [t for t in rows if t[2] == "barrier"]
        assert len(waits) == 1  # rank 1 arrives last: no measurable wait
        assert waits[0][0] == 0
        assert waits[0][3:] == (0.0, 50.0)

    def test_intervals_disjoint_per_rank(self):
        traces = [
            RankTrace(r, [
                Transfer("dev", 50.0 * (r + 1), 5.0, phase="x"),
                Delay(7.0, phase="y"),
                Transfer("dev", 30.0, 5.0, phase="z"),
            ])
            for r in range(3)
        ]
        res, rows = timeline(FluidSimulator(rs(dev=8.0)), traces)
        for r in range(3):
            mine = sorted((t for t in rows if t[0] == r), key=lambda t: t[3])
            assert len(mine) == 3
            for (a, b) in zip(mine, mine[1:]):
                assert a[4] <= b[3] + 1e-9
            # last interval ends at the rank's finish time
            assert mine[-1][4] == pytest.approx(res.finish_ns[r])

    def test_timeline_sums_match_breakdown(self):
        traces = [RankTrace(0, [
            Transfer("dev", 100.0, 5.0, phase="w"),
            Delay(4.0, phase="w"),
        ])]
        res, rows = timeline(FluidSimulator(rs(dev=10.0)), traces)
        total = sum(e - s for (_r, _p, _b, s, e) in rows)
        assert total == pytest.approx(sum(res.breakdown.values()))
