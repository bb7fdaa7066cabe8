"""Cross-rank critical-path extraction and contention analysis.

The observatory answers "where did this job's time go" with the time that
actually *gated* the end-to-end result, not the time summed over ranks:
a family can burn 80% of the summed rank-seconds yet sit entirely off the
critical path (perfectly parallel), while a short serialized section (a
metadata lock, a barrier straggler) dominates the makespan.  The perf
gate, ``perf doctor`` and ``telemetry report`` all read this module's
``repro-critpath/1`` document, and :func:`render_critpath` is its one
human-readable view.

Two sources, one schema (``repro-critpath/1``):

``source="replay"``
    The honest one.  The fluid timing pass runs with
    ``record_causal=True`` (once per result: an ``SpmdResult`` keeps the
    pass it was timed with) and emits per-op timed segments plus *wake
    edges* — which rank's Release granted a blocked lock waiter, which
    arriving rank triggered a barrier.  The critical path is extracted by
    walking backwards from the makespan: a work segment is appended and the
    walk continues at its start; a lock/barrier wait is *jumped* (the wait
    is recorded as a hand-off, and the walk continues on the waking rank at
    the grant instant, blaming the holder's work instead of the wait).
    Work segments therefore tile ``[0, makespan]`` exactly, so per-family
    shares sum to 100% of modeled time by construction.  Replay segments
    are then attributed to span families by aligning each op's interval on
    the rank's lower-bound clock (the clock spans are stamped with)
    against the rank's innermost-span coverage.

``source="spans"``
    The single-clock fallback for span forests without replayable ops —
    service requests and their flight records.  Innermost
    span self-intervals are clipped to the analysis window; uncovered time
    is ``untraced``; overlapping coverage (parallel shards absorbed into
    one service clock) is normalized so shares still sum to 100%.

On top of the path sit the contention analyzer (per-lock wait-for edges,
queue depth, hold/wait totals from the same causal replay) and two what-if
estimators that *re-run the replay* on a transformed trace: ``lock_zero``
(drop every Acquire/Release and zero the lock-overhead delays) and
``stripes_x2`` (split every lock id into two hash-picked stripes).  Both
are exact within the fluid model and honest about nothing else.
"""

from __future__ import annotations

import contextlib
import json
from bisect import bisect_right
from dataclasses import dataclass, field

from ..config import DEFAULT_MACHINE
from ..sim.fluid import FluidSimulator
from ..sim.resources import build_standard_resources
from ..sim.trace import Acquire, Delay, RankTrace, Release, Transfer
from .metrics import _fmt_quantity
from .spans import as_span_list, family_of

CRITPATH_SCHEMA = "repro-critpath/1"

#: bucket label for modeled time not covered by any span
UNTRACED = "untraced"

#: notes the pmdk lock shims stamp on their overhead delays; the
#: ``lock_zero`` what-if removes these along with the Acquire/Release ops
LOCK_NOTES = frozenset({"pmem-lock", "map-lock", "ns-lock"})


# ---------------------------------------------------------------------------
# span-family coverage of the per-rank lower-bound clock
# ---------------------------------------------------------------------------


def _self_intervals(spans) -> dict[int, list[tuple[float, float, str]]]:
    """Per rank: disjoint, sorted ``(start, end, family)`` innermost-span
    coverage of the lb clock (each span's interval minus its children)."""
    spans = as_span_list(spans)
    children: dict[int, list] = {}
    for s in spans:
        if s.parent_id is not None:
            children.setdefault(s.parent_id, []).append(s)
    out: dict[int, list[tuple[float, float, str]]] = {}
    for s in spans:
        fam = family_of(s.name)
        rows = out.setdefault(s.rank, [])
        cur = s.start_ns
        for c in sorted(children.get(s.span_id, ()),
                        key=lambda c: (c.start_ns, c.span_id)):
            lo, hi = cur, min(c.start_ns, s.end_ns)
            if hi - lo > 1e-9:
                rows.append((lo, hi, fam))
            cur = max(cur, c.end_ns)
        if s.end_ns - cur > 1e-9:
            rows.append((cur, s.end_ns, fam))
    for rows in out.values():
        rows.sort()
    return out


def _attribute(rows: list[tuple[float, float, str]], lb0: float, lb1: float,
               ns: float, into: dict[str, float]) -> None:
    """Split ``ns`` replay time across the families covering lb window
    ``[lb0, lb1]`` proportionally to overlap; uncovered lb -> untraced."""
    width = lb1 - lb0
    if width <= 1e-12:
        fam = _family_at(rows, lb0)
        into[fam] = into.get(fam, 0.0) + ns
        return
    scale = ns / width
    covered = 0.0
    i = bisect_right(rows, (lb0, float("inf"), "")) - 1
    i = max(i, 0)
    while i < len(rows):
        a, b, fam = rows[i]
        if a >= lb1:
            break
        ov = min(b, lb1) - max(a, lb0)
        if ov > 0:
            into[fam] = into.get(fam, 0.0) + ov * scale
            covered += ov
        i += 1
    gap = width - covered
    if gap > 1e-9 * max(width, 1.0):
        into[UNTRACED] = into.get(UNTRACED, 0.0) + gap * scale


def _family_at(rows: list[tuple[float, float, str]], lb: float) -> str:
    """Innermost family covering lb point ``lb`` (untraced when none)."""
    i = bisect_right(rows, (lb, float("inf"), "")) - 1
    for j in (i, i + 1):
        if 0 <= j < len(rows):
            a, b, fam = rows[j]
            if a - 1e-9 <= lb <= b + 1e-9:
                return fam
    return UNTRACED


def _op_lb_intervals(trace: RankTrace) -> list[tuple[float, float]]:
    """Each op's interval on the rank's lower-bound clock (prefix sums of
    op lb durations — exactly how ``ctx.lb_ns`` advanced while recording,
    so span timestamps and op intervals share one axis)."""
    t = 0.0
    out: list[tuple[float, float]] = []
    for op in trace.ops:
        d = 0.0
        if isinstance(op, Delay):
            d = op.ns
        elif isinstance(op, Transfer):
            d = op.amount / op.stream_cap
        out.append((t, t + d))
        t += d
    return out


# ---------------------------------------------------------------------------
# replay-based critical path
# ---------------------------------------------------------------------------


@dataclass
class CriticalPath:
    """One extracted critical path, ready to serialize as repro-critpath/1."""

    total_ns: float
    #: family -> ns on the critical path (sums to total_ns)
    families: dict[str, float]
    #: coalesced path steps in time order:
    #: {"rank", "phase", "bucket", "start_ns", "end_ns", "ns"}
    steps: list[dict] = field(default_factory=list)
    #: waits the walk jumped through: family -> {"count", "wait_ns"}
    handoffs: dict[str, dict] = field(default_factory=dict)
    source: str = "replay"
    #: per-lock replay stats (replay source only)
    locks: dict[str, dict] = field(default_factory=dict)


def critical_path_replay(traces: list[RankTrace], resources=None,
                         machine=None) -> CriticalPath:
    """Extract the critical path by causal replay of ``traces``."""
    rs = resources or build_standard_resources(machine or DEFAULT_MACHINE)
    traces = list(traces)
    result = FluidSimulator(rs).run(traces, record_causal=True)
    return _critical_path(result, traces)


def _critical_path(result, traces: list[RankTrace]) -> CriticalPath:
    """Walk the causal record of ``result`` (a replay of ``traces`` run
    with ``record_causal=True``) backwards from the makespan."""
    causal = result.causal
    makespan = result.makespan_ns
    eps = 1e-9 * max(1.0, makespan)

    by_rank: dict[int, list] = {}
    ends: dict[int, list[float]] = {}
    for seg in causal.segments:
        by_rank.setdefault(seg[0], []).append(seg)
    for r, segs in by_rank.items():
        ends[r] = [s[5] for s in segs]

    # deterministic start: lowest rank achieving the makespan
    rank = min(
        (r for r, f in result.finish_ns.items() if f >= makespan - eps),
        default=0,
    )
    # Within a rank the walk steps by segment index — segments tile the
    # rank's timeline, and a segment shorter than ``eps`` (a 4 ns read on a
    # 5 s run) is then just one more step; looking it up by time would find
    # it again forever.  Time is bisected only to land on a waker's rank.
    segs = by_rank.get(rank, [])
    i = len(segs) - 1
    t = makespan
    path: list[tuple] = []          # work segments, reverse time order
    waits: list[tuple] = []         # jumped wait segments
    fuel = 2 * len(causal.segments) + 16 * (len(by_rank) + 1)
    while t > eps:
        fuel -= 1
        if fuel < 0:
            raise RuntimeError(
                f"critical-path walk did not terminate (rank {rank}, "
                f"t={t!r} of {makespan!r} ns): causal record is inconsistent"
            )
        if i < 0:
            path.append((rank, -1, "", UNTRACED, 0.0, t, None))
            break
        seg = segs[i]
        _r, _op, _phase, bucket, start, end, waker = seg
        if end < t - eps:
            # hole (should not happen): blame the gap, keep walking here
            path.append((rank, -1, "", UNTRACED, end, t, None))
            t = end
            continue
        if bucket in ("lock", "barrier") and waker is not None:
            # the waker's Release/arrival happened at exactly ``end`` (same
            # replay instant), so its last segment ending <= end is the work
            # that gated the grant
            waits.append(seg)
            rank = waker
            segs = by_rank.get(rank, [])
            i = bisect_right(ends.get(rank, []), end) - 1
            continue
        hi = min(end, t)
        path.append((rank, _op, _phase, bucket, start, hi, None))
        t = start
        i -= 1
    path.reverse()

    # family attribution along the lb clock
    lb = {tr.rank: _op_lb_intervals(tr) for tr in traces}
    cover = _self_intervals([s for tr in traces
                             for s in getattr(tr, "spans", ())])
    families: dict[str, float] = {}
    steps: list[dict] = []
    for r, opi, phase, bucket, start, end, _w in path:
        ns = end - start
        if ns <= 0:
            continue
        rows = cover.get(r, [])
        if opi < 0 or opi >= len(lb.get(r, [])):
            families[UNTRACED] = families.get(UNTRACED, 0.0) + ns
        else:
            lb0, lb1 = lb[r][opi]
            _attribute(rows, lb0, lb1, ns, families)
        if steps and steps[-1]["rank"] == r \
                and steps[-1]["phase"] == phase \
                and steps[-1]["bucket"] == bucket \
                and abs(steps[-1]["end_ns"] - start) <= eps:
            steps[-1]["end_ns"] = end
            steps[-1]["ns"] = steps[-1]["end_ns"] - steps[-1]["start_ns"]
        else:
            steps.append({"rank": r, "phase": phase, "bucket": bucket,
                          "start_ns": start, "end_ns": end, "ns": ns})

    handoffs: dict[str, dict] = {}
    for r, opi, _phase, bucket, start, end, _w in waits:
        rows = cover.get(r, [])
        if 0 <= opi < len(lb.get(r, [])):
            fam = _family_at(rows, lb[r][opi][0])
        else:
            fam = UNTRACED
        if fam == UNTRACED:
            fam = f"wait.{bucket}"
        h = handoffs.setdefault(fam, {"count": 0, "wait_ns": 0.0})
        h["count"] += 1
        h["wait_ns"] += end - start

    locks = {
        lock_id: {
            "acquires": st["acquires"],
            "contended": st["contended"],
            "holds": st["holds"],
            "hold_ns": st["hold_ns"],
            "wait_ns": st["wait_ns"],
            "max_queue": st["max_queue"],
            "edges": {f"{w}->{h}": n
                      for (w, h), n in sorted(st["edges"].items())},
        }
        for lock_id, st in sorted(causal.locks.items())
    }
    return CriticalPath(total_ns=makespan, families=families, steps=steps,
                        handoffs=handoffs, source="replay", locks=locks)


def critical_path_spmd(res) -> CriticalPath:
    """Critical path of a finished SPMD run.  Reads the result's own
    cached timing pass, so a run is replayed once however many consumers
    ask."""
    return _critical_path(res.time(record_causal=True), res.traces)


# ---------------------------------------------------------------------------
# span-based critical path (single clock: service requests, trace dumps)
# ---------------------------------------------------------------------------


def critical_path_spans(spans, t0: float | None = None,
                        t1: float | None = None) -> CriticalPath:
    """Single-clock coverage path over a span forest.

    All spans are assumed to share one clock (the service clock after
    ``_absorb_engine_spans``, or one rank's lb clock).  Innermost span
    self-time clipped to ``[t0, t1]`` is attributed per family; uncovered
    window time is ``untraced``; over-coverage (genuinely parallel spans
    on one clock) normalizes down so shares still sum to 100%.
    """
    spans = as_span_list(spans)
    if t0 is None:
        t0 = min((s.start_ns for s in spans), default=0.0)
    if t1 is None:
        t1 = max((s.end_ns for s in spans), default=0.0)
    window = max(t1 - t0, 0.0)
    families: dict[str, float] = {}
    for rows in _self_intervals(spans).values():
        for a, b, fam in rows:
            ov = min(b, t1) - max(a, t0)
            if ov > 0:
                families[fam] = families.get(fam, 0.0) + ov
    covered = sum(families.values())
    if window <= 0:
        return CriticalPath(total_ns=0.0, families={}, source="spans")
    if covered > window:
        scale = window / covered
        families = {f: v * scale for f, v in families.items()}
    elif window - covered > 1e-9 * window:
        families[UNTRACED] = families.get(UNTRACED, 0.0) + (window - covered)
    return CriticalPath(total_ns=window, families=families, source="spans")


# ---------------------------------------------------------------------------
# what-if estimators (replay-exact on transformed traces)
# ---------------------------------------------------------------------------


def _fnv1a64(s: str) -> int:
    h = 0xCBF29CE484222325
    for b in s.encode():
        h = ((h ^ b) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


def _strip_lock_cost(traces: list[RankTrace]) -> list[RankTrace]:
    out = []
    for tr in traces:
        ops = [op for op in tr.ops
               if not isinstance(op, (Acquire, Release))
               and not (isinstance(op, Delay) and op.note in LOCK_NOTES)]
        out.append(RankTrace(rank=tr.rank, ops=ops))
    return out


def _double_stripes(traces: list[RankTrace]) -> list[RankTrace]:
    out = []
    for tr in traces:
        ops = []
        for op in tr.ops:
            if isinstance(op, (Acquire, Release)):
                way = _fnv1a64(f"{op.lock_id}:{tr.rank}") & 1
                lock_id = f"{op.lock_id}#w{way}"
                if isinstance(op, Acquire):
                    op = Acquire(lock_id=lock_id, shared=op.shared,
                                 phase=op.phase, note=op.note)
                else:
                    op = Release(lock_id=lock_id, phase=op.phase)
            ops.append(op)
        out.append(RankTrace(rank=tr.rank, ops=ops))
    return out


def whatif_report(traces: list[RankTrace], baseline_ns: float,
                  resources=None, machine=None) -> list[dict]:
    """Re-run the replay under each counterfactual; rank by time saved.

    ``stripes_x2`` keeps each (lock, rank) pinned to one of two stripes —
    an upper bound on real striping, which would split by *key*, not rank.
    ``lock_zero`` removes mutual exclusion *and* the lock-overhead delays,
    so it bounds every conceivable locking optimization from below.
    """
    rs = resources or build_standard_resources(machine or DEFAULT_MACHINE)
    rows = []
    for name, transform in (("lock_zero", _strip_lock_cost),
                            ("stripes_x2", _double_stripes)):
        ns = FluidSimulator(rs).run(transform(traces)).makespan_ns
        delta = baseline_ns - ns
        rows.append({
            "name": name,
            "modeled_ns": round(ns, 3),
            "delta_ns": round(delta, 3),
            "speedup": round(baseline_ns / ns, 4) if ns > 0 else 0.0,
        })
    rows.sort(key=lambda r: (-r["delta_ns"], r["name"]))
    return rows


# ---------------------------------------------------------------------------
# the repro-critpath/1 document
# ---------------------------------------------------------------------------


def critpath_summary(cp: CriticalPath) -> dict:
    """Compact per-run record (stored in perf runs/baselines): total,
    per-family ns + share, source.  Rounded for byte-stable JSON."""
    total = cp.total_ns
    fams = {
        fam: {
            "ns": round(ns, 3),
            "share": round(ns / total, 6) if total > 0 else 0.0,
        }
        for fam, ns in sorted(cp.families.items())
    }
    return {"total_ns": round(total, 3), "families": fams,
            "source": cp.source}


def critpath_doc(cp: CriticalPath, *, contention: bool = True,
                 whatif: list[dict] | None = None, **extra) -> dict:
    """The full repro-critpath/1 document for one analysis."""
    doc = {"schema": CRITPATH_SCHEMA}
    doc.update(critpath_summary(cp))
    if cp.handoffs:
        doc["handoffs"] = {
            fam: {"count": h["count"], "wait_ns": round(h["wait_ns"], 3)}
            for fam, h in sorted(cp.handoffs.items())
        }
    if cp.steps:
        doc["steps"] = [
            {"rank": s["rank"], "phase": s["phase"], "bucket": s["bucket"],
             "start_ns": round(s["start_ns"], 3),
             "end_ns": round(s["end_ns"], 3), "ns": round(s["ns"], 3)}
            for s in cp.steps
        ]
    if contention and cp.locks:
        doc["contention"] = {
            lock_id: {
                "acquires": st["acquires"],
                "contended": st["contended"],
                "holds": st["holds"],
                "hold_ns": round(st["hold_ns"], 3),
                "wait_ns": round(st["wait_ns"], 3),
                "mean_hold_ns": round(st["hold_ns"] / st["holds"], 3)
                if st["holds"] else 0.0,
                "max_queue": st["max_queue"],
                "edges": st["edges"],
            }
            for lock_id, st in cp.locks.items()
        }
    if whatif:
        doc["whatif"] = whatif
    doc.update(extra)
    return doc


def render_critpath(doc: dict, title: str) -> str:
    """The one human-readable view of a repro-critpath/1 document: path
    total, share by span family, jumped waits, lock contention and
    what-ifs (each section only when the document carries it)."""
    lines = [
        f"== {title} ==",
        f"  critical path {_fmt_quantity(doc['total_ns'], 'ns')} "
        f"(source: {doc['source']})",
    ]
    fams = doc.get("families", {})
    if fams:
        lines.append("  critical-path share by span family:")
        ranked = sorted(fams.items(), key=lambda kv: (-kv[1]["ns"], kv[0]))
        for fam, row in ranked[:12]:
            lines.append(
                f"    {fam:<22} {_fmt_quantity(row['ns'], 'ns'):<16} "
                f"{row['share'] * 100:6.2f}%"
            )
        if len(ranked) > 12:
            lines.append(f"    ... and {len(ranked) - 12} smaller families")
    handoffs = doc.get("handoffs", {})
    if handoffs:
        lines.append("  waits jumped on the path (blame stays with the "
                     "holder's work):")
        for fam, h in sorted(handoffs.items(),
                             key=lambda kv: -kv[1]["wait_ns"]):
            lines.append(
                f"    {fam:<22} {h['count']:>4} hand-offs, "
                f"{_fmt_quantity(h['wait_ns'], 'ns')} waited"
            )
    contention = doc.get("contention", {})
    if contention:
        lines.append("  lock contention (wait-for graph):")
        ranked = sorted(contention.items(),
                        key=lambda kv: (-kv[1]["wait_ns"], kv[0]))
        for lock_id, st in ranked[:8]:
            lines.append(
                f"    {lock_id:<28} {st['acquires']:>5} acq "
                f"({st['contended']} contended, queue<={st['max_queue']})  "
                f"wait {_fmt_quantity(st['wait_ns'], 'ns')}  "
                f"hold mean {_fmt_quantity(st['mean_hold_ns'], 'ns')}"
            )
        if len(ranked) > 8:
            lines.append(f"    ... and {len(ranked) - 8} quieter locks")
    whatif = doc.get("whatif")
    if whatif:
        lines.append("  what-if (replayed counterfactuals, ranked by "
                     "time saved):")
        for row in whatif:
            lines.append(
                f"    {row['name']:<12} -> "
                f"{_fmt_quantity(row['modeled_ns'], 'ns'):<16} "
                f"saves {_fmt_quantity(row['delta_ns'], 'ns'):<16} "
                f"({row['speedup']:.2f}x)"
            )
    return "\n".join(lines)


def validate_critpath(doc: dict) -> list[str]:
    """Schema-check one repro-critpath/1 document; [] when valid."""
    errs: list[str] = []
    if not isinstance(doc, dict):
        return ["document is not an object"]
    if doc.get("schema") != CRITPATH_SCHEMA:
        errs.append(f"schema is {doc.get('schema')!r}, "
                    f"expected {CRITPATH_SCHEMA!r}")
    if doc.get("source") not in ("replay", "spans"):
        errs.append(f"source is {doc.get('source')!r}, "
                    f"expected 'replay' or 'spans'")
    total = doc.get("total_ns")
    if not isinstance(total, (int, float)) or total < 0:
        errs.append(f"total_ns is {total!r}, expected a non-negative number")
        return errs
    fams = doc.get("families")
    if not isinstance(fams, dict):
        errs.append("families missing or not an object")
        return errs
    ns_sum = share_sum = 0.0
    for fam, row in fams.items():
        if not isinstance(row, dict) or "ns" not in row or "share" not in row:
            errs.append(f"family {fam!r} lacks ns/share")
            continue
        ns_sum += row["ns"]
        share_sum += row["share"]
    if fams and total > 0:
        if abs(share_sum - 1.0) > 1e-3:
            errs.append(f"family shares sum to {share_sum:.6f}, expected 1.0")
        if abs(ns_sum - total) > max(1e-3 * total, 1.0):
            errs.append(f"family ns sum to {ns_sum:.3f}, "
                        f"total_ns is {total:.3f}")
    for step in doc.get("steps", []):
        if step.get("end_ns", 0) < step.get("start_ns", 0):
            errs.append(f"step ends before it starts: {step}")
    return errs


def critpath_dumps(doc: dict) -> str:
    """The canonical (byte-stable) serialization of a critpath doc."""
    return json.dumps(doc, indent=1, sort_keys=True, default=float)


# ---------------------------------------------------------------------------
# baseline-vs-current diff (regression root-causing)
# ---------------------------------------------------------------------------


def _fam_ns(summary: dict | None) -> dict[str, float]:
    if not summary:
        return {}
    return {fam: row["ns"] for fam, row in summary.get("families", {}).items()}


def critpath_culprits(base: dict | None, cur: dict | None,
                      *, rel_floor: float = 0.002) -> list[dict]:
    """Per-family critical-path deltas, worst regression first.

    Only families whose path time *grew* by more than ``rel_floor`` of the
    baseline total make the list — an identical run diffs to exactly [].
    """
    b, c = _fam_ns(base), _fam_ns(cur)
    total = (base or {}).get("total_ns", 0.0) or 1.0
    floor = rel_floor * total
    rows = []
    for fam in sorted(set(b) | set(c)):
        delta = c.get(fam, 0.0) - b.get(fam, 0.0)
        if delta > floor:
            rows.append({"family": fam,
                         "base_ns": round(b.get(fam, 0.0), 3),
                         "cur_ns": round(c.get(fam, 0.0), 3),
                         "delta_ns": round(delta, 3)})
    rows.sort(key=lambda r: (-r["delta_ns"], r["family"]))
    return rows


def narrate_culprits(scenario: str, culprits: list[dict],
                     total_delta_ns: float | None = None) -> str:
    """One-paragraph root-cause narrative for a failed scenario."""
    if not culprits:
        return (f"{scenario}: no span family grew on the critical path; "
                f"the regression is outside the modeled path "
                f"(or below the reporting floor).")
    top = culprits[0]
    lead = (f"{scenario}: critical path grew mostly in "
            f"{top['family']} (+{top['delta_ns'] / 1e3:.1f}us, "
            f"{top['base_ns'] / 1e3:.1f}us -> {top['cur_ns'] / 1e3:.1f}us)")
    rest = ", ".join(f"{c['family']} +{c['delta_ns'] / 1e3:.1f}us"
                     for c in culprits[1:4])
    if rest:
        lead += f"; also {rest}"
    if total_delta_ns is not None:
        lead += f" — end-to-end +{total_delta_ns / 1e3:.1f}us"
    return lead + "."


# ---------------------------------------------------------------------------
# capture hooks (how the doctor reaches live run objects)
# ---------------------------------------------------------------------------

_CAPTURE: list | None = None


@contextlib.contextmanager
def capture_analysis():
    """Collect ``(kind, payload)`` offers made while the block runs.

    The perf doctor wraps a scenario run in this to get at the live
    ``SpmdResult`` (kind ``"spmd"``) or service core (kind ``"service"``)
    instead of re-deriving them from serialized records.
    """
    global _CAPTURE
    prev = _CAPTURE
    _CAPTURE = captured = []
    try:
        yield captured
    finally:
        _CAPTURE = prev


def offer_capture(kind: str, payload) -> None:
    """No-op unless a :func:`capture_analysis` block is active."""
    if _CAPTURE is not None:
        _CAPTURE.append((kind, payload))
