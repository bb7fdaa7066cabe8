"""Causal observability (ISSUE 10): critical-path extraction on
hand-built span forests with the exact expected path asserted, the
repro-critpath/1 schema + validator, what-if estimators, flamegraph
folding, and the per-shard span-id spaces that keep merged
flight-recorder dumps collision-free."""

import numpy as np
import pytest

from repro.service import wire
from repro.service.shard import ShardExecutor
from repro.service.wire import Request
from repro.sim.trace import (
    Acquire,
    Barrier,
    Delay,
    RankTrace,
    Release,
    Transfer,
)
from repro.telemetry.critpath import (
    UNTRACED,
    critical_path_replay,
    critical_path_spans,
    critpath_culprits,
    critpath_doc,
    critpath_dumps,
    critpath_summary,
    narrate_culprits,
    validate_critpath,
    whatif_report,
)
from repro.telemetry.flame import (
    ORPHAN_FRAME,
    folded_stacks,
    render_folded,
    validate_folded,
)
from repro.telemetry.spans import Span


def mk_span(sid, parent, name, rank, start, end):
    s = Span(sid, parent, name, rank, start, None)
    s.end_ns = end
    return s


def steps_of(cp):
    """(rank, start, end) triples of the extracted path, time order."""
    return [(s["rank"], s["start_ns"], s["end_ns"]) for s in cp.steps]


# ---------------------------------------------------------------------------
# replay critical path: hand-built forests, exact expected paths
# ---------------------------------------------------------------------------


def test_serial_chain_exact_path():
    tr = RankTrace(rank=0, ops=[Delay(60.0, phase="io"),
                                Delay(40.0, phase="io")])
    tr.spans.extend([
        mk_span(1, None, "alpha", 0, 0.0, 60.0),
        mk_span(2, None, "beta", 0, 60.0, 100.0),
    ])
    cp = critical_path_replay([tr])
    assert cp.total_ns == 100.0
    assert steps_of(cp) == [(0, 0.0, 100.0)]
    assert cp.families == {"alpha": 60.0, "beta": 40.0}
    assert cp.handoffs == {}


def test_fork_join_blames_the_straggler():
    # rank 1 is the straggler into the join barrier; rank 0's 30 ns of
    # pre-barrier work is fully hidden and must NOT appear on the path
    bar = Barrier(barrier_id=7, participants=(0, 1))
    t0 = RankTrace(rank=0, ops=[Delay(30.0), bar, Delay(20.0)])
    t1 = RankTrace(rank=1, ops=[Delay(80.0), bar])
    t0.spans.append(mk_span(1, None, "fast-fork", 0, 0.0, 30.0))
    t0.spans.append(mk_span(2, None, "tail", 0, 30.0, 50.0))
    t1.spans.append(mk_span(3, None, "slow-fork", 1, 0.0, 80.0))
    cp = critical_path_replay([t0, t1])
    assert cp.total_ns == 100.0
    assert steps_of(cp) == [(1, 0.0, 80.0), (0, 80.0, 100.0)]
    assert cp.families == {"slow.fork": 80.0, "tail": 20.0}
    assert "fast.fork" not in cp.families


def test_barrier_straggler_exact_path():
    bar = Barrier(barrier_id=1, participants=(0, 1))
    t0 = RankTrace(rank=0, ops=[Delay(10.0), bar, Delay(5.0)])
    t1 = RankTrace(rank=1, ops=[Delay(100.0), bar])
    cp = critical_path_replay([t0, t1])
    assert cp.total_ns == 105.0
    assert steps_of(cp) == [(1, 0.0, 100.0), (0, 100.0, 105.0)]
    # no spans at all -> the whole path is untraced, still summing to total
    assert cp.families == {UNTRACED: 105.0}


def test_lock_handoff_across_ranks_exact_path():
    # The fluid engine starts the highest idle rank first, so rank 1 wins
    # the uncontended acquire at t=0 and holds for 50 ns; rank 0 queues,
    # is granted at t=50 by rank 1's release, and holds for 100 ns.
    t0 = RankTrace(rank=0, ops=[Acquire("L"), Delay(100.0), Release("L")])
    t1 = RankTrace(rank=1, ops=[Acquire("L"), Delay(50.0), Release("L")])
    t0.spans.append(mk_span(1, None, "crit-sec", 0, 0.0, 100.0))
    t1.spans.append(mk_span(2, None, "spin-hold", 1, 0.0, 50.0))
    cp = critical_path_replay([t0, t1])
    assert cp.total_ns == 150.0
    assert steps_of(cp) == [(1, 0.0, 50.0), (0, 50.0, 150.0)]
    assert cp.families == {"spin.hold": 50.0, "crit.sec": 100.0}
    # the jumped wait is recorded as a hand-off against the waiter's family
    assert cp.handoffs == {"crit.sec": {"count": 1, "wait_ns": 50.0}}
    # contention analyzer: one contended acquire, wait-for edge 0 -> 1
    st = cp.locks["L"]
    assert st["acquires"] == 2 and st["contended"] == 1
    assert st["holds"] == 2 and st["max_queue"] == 1
    assert st["wait_ns"] == 50.0 and st["hold_ns"] == 150.0
    assert st["edges"] == {"0->1": 1}


def test_path_families_always_sum_to_total():
    # partial span coverage: the uncovered remainder goes to `untraced`
    # and the family sum still tiles the full makespan
    tr = RankTrace(rank=0, ops=[Delay(100.0)])
    tr.spans.append(mk_span(1, None, "head", 0, 0.0, 25.0))
    cp = critical_path_replay([tr])
    assert cp.total_ns == 100.0
    assert cp.families == {"head": 25.0, UNTRACED: 75.0}
    doc = critpath_doc(cp)
    assert validate_critpath(doc) == []
    assert abs(sum(f["share"] for f in doc["families"].values()) - 1.0) < 1e-3


def test_sub_eps_segments_on_a_long_run_are_walked_not_untraced():
    # 4.9 s makespan -> the walk's eps is 4.9 ns, larger than every 4 ns
    # segment below; looking segments up by time re-selected one forever
    # and blamed [0, t] on a synthetic `untraced` step
    tiny = [Delay(4.0, phase="meta"),
            Transfer("pmem_read", 4.0, 1.0, phase="read")] * 40
    bar = Barrier(0, (0, 1, 2))
    traces = [
        RankTrace(0, [Delay(2.5e9, phase="w"), Acquire("L"), *tiny,
                      Release("L"), Delay(1.0e9, phase="w"), bar]),
        RankTrace(1, [Delay(2.5e9 + 10.0, phase="w"), Acquire("L"), *tiny,
                      Release("L"), Delay(2.4e9, phase="w"), bar]),
        RankTrace(2, [Delay(2.5e9 + 20.0, phase="w"), Acquire("L"), *tiny,
                      Release("L"), Delay(2.3e9, phase="w"), bar, *tiny]),
    ]
    cp = critical_path_replay(traces)
    assert cp.total_ns == 2.5e9 + 2 * 320.0 + 2.4e9 + 320.0
    assert all(s["bucket"] != UNTRACED for s in cp.steps)
    # the steps tile [0, makespan]: rank 0's lock section, then rank 1's,
    # rank 1's long tail into the barrier, rank 2's tiny ops after it
    t = 0.0
    for s in cp.steps:
        assert s["start_ns"] == t
        t = s["end_ns"]
    assert t == cp.total_ns
    assert [s["rank"] for s in cp.steps[:1] + cp.steps[-1:]] == [0, 2]
    assert sum(s["ns"] for s in cp.steps) == cp.total_ns
    # rank 1 waited 310 ns for rank 0's release; rank 2 reached the barrier
    # 0.1 s (less its own later lock section) before rank 1 did
    assert cp.handoffs == {
        "wait.lock": {"count": 1, "wait_ns": 310.0},
        "wait.barrier": {"count": 1, "wait_ns": 1e8 - 320.0},
    }


def test_walk_raises_on_an_inconsistent_causal_record():
    # two waits that name each other as waker, both ending at the makespan:
    # the walk can only bounce between them, and says so instead of blaming
    # the run on `untraced`
    from repro.sim.fluid import CausalRecord, FluidResult
    from repro.telemetry.critpath import _critical_path

    causal = CausalRecord(segments=[
        (0, 0, "", "lock", 0.0, 10.0, 1),
        (1, 0, "", "lock", 0.0, 10.0, 0),
    ])
    result = FluidResult(finish_ns={0: 10.0, 1: 10.0}, breakdown={},
                         causal=causal)
    with pytest.raises(RuntimeError, match="did not terminate"):
        _critical_path(result, [RankTrace(0), RankTrace(1)])


# ---------------------------------------------------------------------------
# one replay per SPMD result
# ---------------------------------------------------------------------------


@pytest.fixture
def replay_calls(monkeypatch):
    """Every FluidSimulator.run call as (n_traces, record_causal)."""
    from repro.sim.fluid import FluidSimulator

    calls = []
    run = FluidSimulator.run

    def counted(self, traces, **kw):
        calls.append((len(traces), kw.get("record_causal", False)))
        return run(self, traces, **kw)

    monkeypatch.setattr(FluidSimulator, "run", counted)
    return calls


def test_run_io_experiment_replays_each_result_once(replay_calls):
    from repro.harness.experiment import run_io_experiment
    from repro.workloads import Domain3D

    w = Domain3D(nvars=1, model_dims=(40, 40, 40), axis_scale=5)
    out = run_io_experiment("PMCPY-A", 2, w)
    assert [r.direction for r in out] == ["write", "read"]
    assert all(r.critpath["total_ns"] == round(r.seconds * 1e9, 3)
               for r in out)
    assert replay_calls == [(2, True), (2, True)]


def test_record_from_spmd_replays_once_and_matches_a_fresh_replay(
        replay_calls):
    from repro.perf.scenarios import record_from_spmd
    from repro.sim.engine import run_spmd
    from repro.telemetry.critpath import critical_path_spmd

    def fn(ctx):
        with ctx.phase("p"):
            ctx.delay(10.0 * (ctx.rank + 1))
            ctx.lock_acquired("L")
            ctx.transfer("pmem_write", 4096.0, 1.0)
            ctx.lock_released("L")
            ctx.barrier()

    for nprocs in (1, 3):
        res = run_spmd(nprocs, fn)
        del replay_calls[:]
        rec = record_from_spmd(res)
        cp = critical_path_spmd(res)           # the doctor's second look
        assert res.makespan_ns == rec["modeled_ns"]
        assert replay_calls == [(nprocs, True)]
        assert rec["critpath"] == critpath_summary(cp)
        # byte-identical to replaying the traces afresh
        fresh = critical_path_replay(res.traces, machine=res.machine)
        assert critpath_dumps(critpath_doc(cp)) == \
            critpath_dumps(critpath_doc(fresh))


# ---------------------------------------------------------------------------
# spans-source path (service requests / trace dumps)
# ---------------------------------------------------------------------------


def test_spans_source_clips_and_normalizes():
    spans = [
        mk_span(1, None, "outer", 0, 0.0, 100.0),
        mk_span(2, 1, "inner", 0, 20.0, 60.0),
    ]
    cp = critical_path_spans(spans, 0.0, 120.0)
    assert cp.source == "spans"
    assert cp.total_ns == 120.0
    # outer self-time = 60, inner = 40, window residue = 20
    assert cp.families == {"outer": 60.0, "inner": 40.0, UNTRACED: 20.0}
    assert validate_critpath(critpath_doc(cp)) == []


# ---------------------------------------------------------------------------
# what-if estimators
# ---------------------------------------------------------------------------


def test_whatif_lock_zero_strips_lock_overhead():
    tr = RankTrace(rank=0, ops=[
        Acquire("L", note="pmem-lock"),
        Delay(10.0, note="pmem-lock"),   # the shim's overhead delay
        Delay(90.0),
        Release("L"),
    ])
    rows = whatif_report([tr], 100.0)
    by_name = {r["name"]: r for r in rows}
    assert by_name["lock_zero"]["modeled_ns"] == 90.0
    assert by_name["lock_zero"]["delta_ns"] == 10.0
    assert by_name["stripes_x2"]["modeled_ns"] == 100.0
    # ranked by time saved
    assert rows[0]["name"] == "lock_zero"


# ---------------------------------------------------------------------------
# schema, byte stability, culprit diff
# ---------------------------------------------------------------------------


def _lock_case_doc():
    t0 = RankTrace(rank=0, ops=[Acquire("L"), Delay(100.0), Release("L")])
    t1 = RankTrace(rank=1, ops=[Acquire("L"), Delay(50.0), Release("L")])
    t0.spans.append(mk_span(1, None, "crit-sec", 0, 0.0, 100.0))
    t1.spans.append(mk_span(2, None, "spin-hold", 1, 0.0, 50.0))
    return critpath_doc(critical_path_replay([t0, t1]))


def test_critpath_doc_is_byte_stable():
    assert critpath_dumps(_lock_case_doc()) == critpath_dumps(_lock_case_doc())


def test_validator_rejects_broken_docs():
    doc = _lock_case_doc()
    assert validate_critpath(doc) == []
    bad = dict(doc, schema="repro-critpath/0")
    assert any("schema" in e for e in validate_critpath(bad))
    bad = dict(doc, total_ns=doc["total_ns"] * 2)
    assert any("sum" in e for e in validate_critpath(bad))


def test_culprit_diff_empty_on_self_and_ranked_on_growth():
    base = critpath_summary(critical_path_replay([
        RankTrace(rank=0, ops=[Delay(100.0)])]))
    assert critpath_culprits(base, base) == []
    cur = {
        "total_ns": 200.0,
        "families": {
            "meta.lock": {"ns": 120.0, "share": 0.6},
            "memcpy": {"ns": 80.0, "share": 0.4},
        },
        "source": "replay",
    }
    base2 = {
        "total_ns": 100.0,
        "families": {
            "meta.lock": {"ns": 20.0, "share": 0.2},
            "memcpy": {"ns": 80.0, "share": 0.8},
        },
        "source": "replay",
    }
    culprits = critpath_culprits(base2, cur)
    assert [c["family"] for c in culprits] == ["meta.lock"]
    assert culprits[0]["delta_ns"] == 100.0
    text = narrate_culprits("meta.lock_single", culprits, total_delta_ns=100.0)
    assert "meta.lock" in text and "meta.lock_single" in text


# ---------------------------------------------------------------------------
# flamegraph folding
# ---------------------------------------------------------------------------


def test_folded_stacks_nest_and_orphan():
    spans = [
        mk_span(1, None, "store", 0, 0.0, 100.0),
        mk_span(2, 1, "memcpy", 0, 10.0, 40.0),
        mk_span(3, 999, "lost-child", 1, 0.0, 5.0),  # sampled-out parent
    ]
    folded = folded_stacks(spans)
    assert folded["rank 0;store"] == 70
    assert folded["rank 0;store;memcpy"] == 30
    assert folded[f"rank 1;{ORPHAN_FRAME};lost-child"] == 5
    text = render_folded(folded)
    assert validate_folded(text) == []
    # sorted, one "stack weight" line each -> byte-stable
    assert text == render_folded(folded_stacks(list(reversed(spans))))


# ---------------------------------------------------------------------------
# per-shard span-id spaces (merged flight dumps can never collide)
# ---------------------------------------------------------------------------


def test_service_top_shows_critpath_dominant_family(monkeypatch):
    monkeypatch.setenv("REPRO_TRACE", "full")
    from repro.service.console import render_top
    from repro.service.core import ServiceConfig, ServiceCore

    core = ServiceCore(ServiceConfig(nshards=1, flight_sample_every=1))
    a = np.arange(64, dtype=np.float64)
    resp = core.handle_payload(wire.encode_store(1, "v", a, trace_id=7)[4:])
    assert wire.decode_frame(resp[4:]).kind == wire.RESP_OK
    st = core.stats()
    # the dominant family comes from walking the kept flight records'
    # span trees over each request's own service window
    assert st["critpath"].get("store")
    screen = render_top(st)
    assert "crit-path" in screen
    assert st["critpath"]["store"] in screen


def _run_batch(ex, seq0=1):
    a = np.arange(16, dtype=np.float64)
    batch = [Request(wire.OP_STORE, seq0, "v", array=a, trace_id=seq0),
             Request(wire.OP_LOAD, seq0 + 1, "v", trace_id=seq0 + 1)]
    return ex.apply(batch)


def test_shard_span_ids_disjoint_across_shards_and_batches(monkeypatch):
    monkeypatch.setenv("REPRO_TRACE", "full")
    ex0 = ShardExecutor(0)
    ex1 = ShardExecutor(1)
    b0 = _run_batch(ex0)
    b1 = _run_batch(ex1)
    b0b = _run_batch(ex0, seq0=3)
    ids0 = {s.span_id for s in b0.spans}
    ids1 = {s.span_id for s in b1.spans}
    ids0b = {s.span_id for s in b0b.spans}
    assert b0.spans and b1.spans and b0b.spans
    # different shards and successive batches of one shard never overlap
    assert not ids0 & ids1
    assert not ids0 & ids0b
    # parent/child links survive the remap: every in-batch parent resolves
    for b in (b0, b1, b0b):
        ids = {s.span_id for s in b.spans}
        roots = [s for s in b.spans if s.parent_id is None]
        assert roots
        for s in b.spans:
            if s.parent_id is not None:
                assert s.parent_id in ids
