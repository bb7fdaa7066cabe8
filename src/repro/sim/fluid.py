"""Event-driven fluid-flow replay of rank traces.

Transfers active on the same resource share its capacity *max-min fairly*
(progressive filling / water-filling), each additionally bounded by its own
per-stream cap.  Rates only change when the active set changes — when an op
completes, a delay expires, a barrier releases, or a lock is granted — so the
simulation advances event-by-event: compute rates, find the earliest
completion, advance the clock, repeat.

Critical sections (:class:`~repro.sim.trace.Acquire` /
:class:`~repro.sim.trace.Release`) are replayed with mutual exclusion:
exclusive holders serialize, shared holders coexist, and waiters are granted
FIFO (consecutive shared waiters batched), so metadata-lock contention is
part of the modeled wall-clock.  Time spent waiting is charged to the
``lock`` bucket of the breakdown.

A one-rank replay has no sharing, no waiting and no wake edges, so
:meth:`FluidSimulator.run` walks it once in closed form — repeating the event
loop's float arithmetic op for op, so the result is ``==`` the loop's, not
merely close to it; a row batch (:class:`~repro.sim.trace.Rows`) is walked
as numpy columns by the same arithmetic.  Replay cost then follows
contention, not trace length.

The result carries per-rank finish times and a per-(rank, phase, resource)
time breakdown that the copy-path-decomposition benchmark (E7) reports.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field

import numpy as np

from .resources import ResourceSet
from .trace import Acquire, Barrier, Delay, RankTrace, Release, Rows, Transfer

_EPS = 1e-9
_INF = float("inf")


def waterfill(caps: list[float], capacity: float) -> list[float]:
    """Max-min fair allocation of ``capacity`` among streams with per-stream
    caps ``caps``.  Returns one rate per stream, order-preserving.

    Properties (tested): 0 <= rate_i <= caps_i, sum(rates) <= capacity + eps,
    and the allocation is max-min fair (no stream can gain without a stream
    of smaller-or-equal rate losing).
    """
    n = len(caps)
    if n == 0:
        return []
    if sum(caps) <= capacity + _EPS:
        return list(caps)
    order = sorted(range(n), key=lambda i: caps[i])
    rates = [0.0] * n
    remaining = capacity
    left = n
    for idx, i in enumerate(order):
        share = remaining / left
        give = min(caps[i], share)
        rates[i] = give
        remaining -= give
        left -= 1
    return rates


@dataclass
class _ActiveTransfer:
    rank: int
    op: Transfer
    remaining: float
    rate: float = 0.0


@dataclass
class _BarrierState:
    participants: frozenset[int]
    arrived: set[int] = field(default_factory=set)


@dataclass
class _LockState:
    """Replay state of one named lock: current holders plus a FIFO queue."""

    holders: set[int] = field(default_factory=set)
    exclusive: bool = False
    queue: list[tuple[int, bool]] = field(default_factory=list)  # (rank, shared)

    def grantable(self, shared: bool) -> bool:
        """Can a *newly arriving* request enter immediately?  Only when no
        one is queued (FIFO fairness) and the modes are compatible."""
        if self.queue:
            return False
        if not self.holders:
            return True
        return shared and not self.exclusive

    def grant(self, rank: int, shared: bool) -> None:
        self.holders.add(rank)
        self.exclusive = not shared

    def release(self, rank: int) -> list[int]:
        """Drop ``rank`` from the holders; return the ranks now granted."""
        self.holders.discard(rank)
        granted: list[int] = []
        if self.holders:
            return granted
        self.exclusive = False
        while self.queue:
            r, shared = self.queue[0]
            if self.holders and (self.exclusive or not shared):
                break
            self.queue.pop(0)
            self.grant(r, shared)
            granted.append(r)
            if not shared:
                break
        return granted


@dataclass
class CausalRecord:
    """Happens-before evidence from one replay (``record_causal=True``).

    Segments carry the *op index* so callers can align replay time back to
    the rank's lower-bound clock (and from there to span families); wait
    segments carry the rank whose release/arrival ended them, which is the
    wake edge the critical-path walk follows.
    """

    #: (rank, op_index, phase, bucket, start_ns, end_ns, waker) — ``waker``
    #: is the rank whose Release/arrival ended a "lock"/"barrier" wait,
    #: None for work (delay/transfer) segments.  Zero-length intervals are
    #: suppressed; per rank the segments tile [0, finish] exactly.
    segments: list[tuple[int, int, str, str, float, float, int | None]] = (
        field(default_factory=list)
    )
    #: lock_id -> {"acquires", "contended", "holds", "hold_ns", "wait_ns",
    #: "max_queue", "edges": {(waiter, holder): count}}
    locks: dict[str, dict] = field(default_factory=dict)

    def lock_stats(self, lock_id: str) -> dict:
        """The stats row of ``lock_id``, created zeroed on first use."""
        st = self.locks.get(lock_id)
        if st is None:
            st = self.locks[lock_id] = {
                "acquires": 0, "contended": 0, "holds": 0,
                "hold_ns": 0.0, "wait_ns": 0.0, "max_queue": 0,
                "edges": {},
            }
        return st


@dataclass
class FluidResult:
    """Outcome of one replay."""

    finish_ns: dict[int, float]
    #: (rank, phase, resource-or-"delay"/"barrier") -> ns spent
    breakdown: dict[tuple[int, str, str], float]
    makespan_ns: float = 0.0
    #: filled when the replay ran with record_causal=True
    causal: CausalRecord | None = None

    def __post_init__(self):
        if self.finish_ns:
            self.makespan_ns = max(self.finish_ns.values())

    def phase_totals(self) -> dict[str, float]:
        """Max-over-ranks time per phase (critical-path style view)."""
        per_rank: dict[tuple[int, str], float] = {}
        for (rank, phase, _res), ns in self.breakdown.items():
            per_rank[(rank, phase)] = per_rank.get((rank, phase), 0.0) + ns
        out: dict[str, float] = {}
        for (_rank, phase), ns in per_rank.items():
            out[phase] = max(out.get(phase, 0.0), ns)
        return out


class FluidSimulator:
    """Replays a set of :class:`RankTrace` against a :class:`ResourceSet`."""

    def __init__(self, resources: ResourceSet):
        self.resources = resources

    def run(
        self,
        traces: list[RankTrace],
        *,
        record_causal: bool = False,
    ) -> FluidResult:
        if len(traces) == 1:
            result = self._run_single(traces[0], record_causal)
            if result is not None:
                return result
        return self._run_events(traces, record_causal)

    def _run_single(
        self, trace: RankTrace, record_causal: bool
    ) -> FluidResult | None:
        """Closed-form replay of a lone rank: one pass over the op list.

        With one rank every share is the stream's own, nothing waits and no
        wake edge exists, so :meth:`_run_events`'s ``waterfill``, timer heap,
        completion scan and per-event ``charge`` sweep compute nothing.  What
        remains is its clock arithmetic, repeated here operation for
        operation — ``sum(ns) + sum(amount / rate)`` would associate the
        additions differently and move ``makespan_ns`` in its last digits.

        Returns None — the caller then runs the event loop — for a trace
        the loop would reject, so every error is the loop's own, and for an
        op the loop would not finish in one step (non-finite sizes; rounding
        that leaves a timer unexpired).  A resource's ``capacity(1)`` is
        read once per run.  A :class:`~repro.sim.trace.Rows` entry goes
        through :meth:`_replay_rows` in numpy, or op by op where its check
        fails.
        """
        rank = trace.rank
        resources = self.resources
        now = 0.0
        breakdown: dict[tuple[int, str, str], float] = {}
        capacity: dict[str, float] = {}
        held: dict[str, bool] = {}             # lock_id -> held exclusively
        causal = CausalRecord() if record_causal else None
        grant_at: dict[str, float] = {}        # causal only

        pending = iter(trace.entries)
        index = 0
        while True:
            for index, op in enumerate(pending, index):
                kind = type(op)
                if kind is Delay:
                    if op.ns <= _EPS:
                        continue
                    bucket = "delay"
                    key = (rank, op.phase, bucket)
                    start = now
                    expiry = now + op.ns
                    dt = expiry - now
                    if dt > 0:
                        now += dt
                        breakdown[key] = breakdown.get(key, 0.0) + dt
                    # the loop re-checks the timer after its step; rounding has
                    # never been seen to leave it unexpired, but only the loop
                    # knows what to do then
                    if not (dt < _INF and expiry <= now + _EPS):
                        return None
                elif kind is Transfer:
                    amount = op.amount
                    if amount <= _EPS:
                        continue
                    bucket = op.resource
                    cap = capacity.get(bucket)
                    if cap is None:
                        cap = capacity[bucket] = resources[bucket].capacity(1)
                    # waterfill([stream_cap], cap): a cap within _EPS above the
                    # capacity keeps the cap
                    rate = op.stream_cap
                    if not rate <= cap + _EPS:
                        rate = min(rate, cap)
                    key = (rank, op.phase, bucket)
                    start = now
                    dt = amount / rate
                    if not 0.0 < dt < _INF:
                        return None
                    now += dt
                    breakdown[key] = breakdown.get(key, 0.0) + dt
                    if not amount - rate * dt <= _EPS * max(1.0, amount):
                        return None                # the loop would step again
                elif kind is Acquire:
                    exclusive = held.get(op.lock_id)
                    if exclusive is not None and (exclusive or not op.shared):
                        return None                # waits on itself: deadlock
                    held[op.lock_id] = not op.shared
                    if record_causal:
                        causal.lock_stats(op.lock_id)["acquires"] += 1
                        grant_at[op.lock_id] = now
                    continue
                elif kind is Release:
                    if held.pop(op.lock_id, None) is None:
                        return None                # not held
                    if record_causal:
                        stats = causal.locks[op.lock_id]
                        stats["holds"] += 1
                        stats["hold_ns"] += now - grant_at.pop(op.lock_id)
                    continue
                elif kind is Barrier and frozenset(op.participants) == {rank}:
                    continue                       # joins itself, at once
                elif kind is Rows:
                    after = self._replay_rows(
                        op, rank, now, breakdown, capacity,
                        causal.segments if record_causal else None, index)
                    if after is None:          # replay its ops one by one
                        pending = itertools.chain(op, pending)
                    else:
                        now = after
                        index += op.n_ops
                    break                      # resume at the new index
                else:
                    return None
                if record_causal and now - start > _EPS:
                    causal.segments.append(
                        (rank, index, op.phase, bucket, start, now, None)
                    )
            else:
                break

        if record_causal:
            # a lock still held at trace end closes its hold interval here
            for lock_id, t0 in grant_at.items():
                stats = causal.locks[lock_id]
                stats["holds"] += 1
                stats["hold_ns"] += now - t0
        return FluidResult(
            finish_ns={rank: now}, breakdown=breakdown, causal=causal
        )

    def _replay_rows(
        self, rows: Rows, rank: int, now: float, breakdown: dict,
        capacity: dict, segments: list | None, index: int,
    ) -> float | None:
        """:meth:`_run_single`'s pass over the ops of ``rows`` (expanded
        index ``index`` on), in numpy: returns the clock after them, or
        None — having changed nothing — when a check fails and the ops must
        be replayed one by one.

        The clock is ``np.add.accumulate`` over the increments, the same
        left fold as ``now += dt``.  That equals the loop for a delay only
        when ``now + (expiry - now) == expiry``, which is checked for every
        delay along with ``dt > 0`` (``now`` far above ``ns`` breaks it);
        an op the loop would skip (size <= eps), a non-finite clock or a
        transfer the loop would not finish in one step fails too.  Each
        breakdown key then folds its ``dt``s in op order from its current
        value, the delay key first, as the loop inserts them."""
        n, width = len(rows), len(rows.lead) + 2
        bucket = rows.resource
        cap = capacity.get(bucket)
        if cap is None:
            cap = capacity[bucket] = self.resources[bucket].capacity(1)
        rate = rows.stream_cap
        if not rate <= cap + _EPS:
            rate = min(rate, cap)
        amount = rows.model_bytes
        steps = rows.steps(now, rate)
        grid = steps[1:].reshape(n, width)
        transfer_dt = grid[:, -1]
        clock = np.add.accumulate(steps)
        prev = clock[:-1].reshape(n, width)
        cur = clock[1:].reshape(n, width)
        delay = grid[:, :-1] > 0               # the delays that are ops
        delay_dt = cur[:, :-1] - prev[:, :-1]
        if not (
            np.isfinite(clock[-1])
            and amount.min() > _EPS
            and not (delay & (grid[:, :-1] <= _EPS)).any()
            and (~delay | ((delay_dt > 0)
                           & (prev[:, :-1] + delay_dt == cur[:, :-1]))).all()
            and transfer_dt.min() > 0
            and (amount - rate * transfer_dt
                 <= _EPS * np.maximum(1.0, amount)).all()
        ):
            return None
        for key, dts in (((rank, rows.phase, "delay"), delay_dt[delay]),
                         ((rank, rows.phase, bucket), transfer_dt)):
            breakdown[key] = float(np.add.accumulate(
                np.concatenate(([breakdown.get(key, 0.0)], dts)))[-1])
        if segments is not None:
            is_op = np.ones((n, width), dtype=bool)
            is_op[:, :-1] = delay
            is_op = is_op.ravel()
            number = np.cumsum(is_op) + (index - 1)
            keep = np.flatnonzero(is_op & ((cur - prev).ravel() > _EPS))
            segments.extend(zip(
                itertools.repeat(rank), number[keep].tolist(),
                itertools.repeat(rows.phase),
                ["delay" if c < width - 1 else bucket
                 for c in (keep % width).tolist()],
                prev.ravel()[keep].tolist(), cur.ravel()[keep].tolist(),
                itertools.repeat(None),
            ))
        return float(clock[-1])

    def _run_events(
        self,
        traces: list[RankTrace],
        record_causal: bool,
    ) -> FluidResult:
        """The general event loop: any number of ranks."""
        ranks = {t.rank for t in traces}
        if len(ranks) != len(traces):
            raise ValueError("duplicate rank in traces")
        by_rank = {t.rank: t.op_list() for t in traces}
        pos = {r: 0 for r in ranks}            # next op index
        finish = {r: 0.0 for r in ranks}
        rank_time = dict(finish)               # rank-local clock
        now = 0.0

        timers: list[tuple[float, int]] = []   # (expiry, rank) for Delays
        active: dict[str, list[_ActiveTransfer]] = {}
        barriers: dict[tuple[int, frozenset[int]], _BarrierState] = {}
        blocked: dict[int, tuple[int, frozenset[int]]] = {}  # rank -> barrier key
        locks: dict[str, _LockState] = {}
        lock_blocked: dict[int, str] = {}      # rank -> lock_id it waits on
        idle: list[int] = sorted(ranks)
        current_phase: dict[int, str] = {r: "" for r in ranks}
        breakdown: dict[tuple[int, str, str], float] = {}
        # what each busy rank is accounted against: (phase, bucket)
        accounting: dict[int, tuple[str, str]] = {}
        causal = CausalRecord() if record_causal else None
        causal_since: dict[int, tuple[float, int]] = {}
        lock_wait_since: dict[int, float] = {}
        lock_grant_at: dict[tuple[str, int], float] = {}

        def begin(rank: int) -> None:
            if record_causal:
                causal_since[rank] = (now, pos[rank])

        def finish_interval(rank: int, waker: int | None = None) -> None:
            if record_causal:
                entry = causal_since.pop(rank, None)
                if entry is not None and now - entry[0] > _EPS:
                    phase, bucket = accounting.get(rank, ("", "idle"))
                    causal.segments.append(
                        (rank, entry[1], phase, bucket, entry[0], now, waker)
                    )

        def charge(rank: int, ns: float) -> None:
            if ns <= 0:
                return
            phase, bucket = accounting.get(rank, ("", "idle"))
            key = (rank, phase, bucket)
            breakdown[key] = breakdown.get(key, 0.0) + ns

        def start_next(rank: int) -> None:
            """Activate ops for `rank` until it blocks or its trace ends."""
            ops = by_rank[rank]
            while pos[rank] < len(ops):
                op = ops[pos[rank]]
                current_phase[rank] = op.phase
                if isinstance(op, Delay):
                    if op.ns <= _EPS:
                        pos[rank] += 1
                        continue
                    accounting[rank] = (op.phase, "delay")
                    begin(rank)
                    heapq.heappush(timers, (now + op.ns, rank))
                    return
                if isinstance(op, Transfer):
                    if op.amount <= _EPS:
                        pos[rank] += 1
                        continue
                    accounting[rank] = (op.phase, op.resource)
                    begin(rank)
                    active.setdefault(op.resource, []).append(
                        _ActiveTransfer(rank, op, op.amount)
                    )
                    return
                if isinstance(op, Acquire):
                    st = locks.setdefault(op.lock_id, _LockState())
                    if record_causal:
                        causal.lock_stats(op.lock_id)["acquires"] += 1
                    if st.grantable(op.shared):
                        st.grant(rank, op.shared)
                        if record_causal:
                            lock_grant_at[(op.lock_id, rank)] = now
                        pos[rank] += 1
                        continue
                    if record_causal:
                        ls = causal.lock_stats(op.lock_id)
                        ls["contended"] += 1
                        waited_on = st.holders or {st.queue[0][0]}
                        for h in waited_on:
                            edge = (rank, h)
                            ls["edges"][edge] = ls["edges"].get(edge, 0) + 1
                        lock_wait_since[rank] = now
                    st.queue.append((rank, op.shared))
                    if record_causal:
                        ls["max_queue"] = max(ls["max_queue"], len(st.queue))
                    lock_blocked[rank] = op.lock_id
                    accounting[rank] = (op.phase, "lock")
                    begin(rank)
                    return
                if isinstance(op, Release):
                    st = locks.get(op.lock_id)
                    if st is None or rank not in st.holders:
                        raise ValueError(
                            f"rank {rank} releasing lock {op.lock_id!r} it "
                            f"does not hold"
                        )
                    pos[rank] += 1
                    if record_causal:
                        ls = causal.lock_stats(op.lock_id)
                        ls["holds"] += 1
                        ls["hold_ns"] += now - lock_grant_at.pop(
                            (op.lock_id, rank), now
                        )
                    for r in st.release(rank):
                        finish_interval(r, waker=rank)
                        if record_causal:
                            ls = causal.lock_stats(op.lock_id)
                            ls["wait_ns"] += now - lock_wait_since.pop(r, now)
                            lock_grant_at[(op.lock_id, r)] = now
                        del lock_blocked[r]
                        pos[r] += 1
                        rank_time[r] = now
                        idle.append(r)
                    continue
                if isinstance(op, Barrier):
                    key = (op.barrier_id, frozenset(op.participants))
                    if rank not in key[1]:
                        raise ValueError(
                            f"rank {rank} hit barrier {op.barrier_id} it does "
                            f"not participate in"
                        )
                    st = barriers.setdefault(key, _BarrierState(key[1]))
                    st.arrived.add(rank)
                    accounting[rank] = (op.phase, "barrier")
                    begin(rank)
                    blocked[rank] = key
                    if st.arrived == st.participants:
                        release = [r for r in st.participants if blocked.get(r) == key]
                        del barriers[key]
                        for r in release:
                            finish_interval(r, waker=rank)
                            del blocked[r]
                            pos[r] += 1
                            rank_time[r] = now
                            idle.append(r)
                        # `rank` itself is among release; it re-enters via idle
                        return
                    return
                raise TypeError(f"unknown op {op!r}")
            finish[rank] = now  # trace exhausted

        while True:
            # Activate all idle ranks (may cascade through barrier releases).
            while idle:
                start_next(idle.pop())

            n_transfers = sum(len(v) for v in active.values())
            if n_transfers == 0 and not timers:
                if blocked or lock_blocked:
                    stuck = sorted(set(blocked) | set(lock_blocked))
                    raise RuntimeError(
                        f"deadlock: ranks {stuck} blocked on barriers/locks "
                        f"that will never complete"
                    )
                break

            # Compute max-min rates on each resource.
            for res_name, streams in active.items():
                res = self.resources[res_name]
                rates = waterfill(
                    [s.op.stream_cap for s in streams],
                    res.capacity(len(streams)),
                )
                for s, r in zip(streams, rates):
                    s.rate = r

            # Earliest next event.
            dt = float("inf")
            if timers:
                dt = timers[0][0] - now
            for streams in active.values():
                for s in streams:
                    if s.rate > 0:
                        dt = min(dt, s.remaining / s.rate)
            if not (dt < float("inf")):
                raise RuntimeError("no progress possible (all rates zero)")
            dt = max(dt, 0.0)

            # Advance clocks and charge accounting.
            now += dt
            for streams in active.values():
                for s in streams:
                    charge(s.rank, dt)
                    s.remaining -= s.rate * dt
            for _expiry, rank in timers:
                charge(rank, dt)
            for rank in blocked:
                charge(rank, dt)
            for rank in lock_blocked:
                charge(rank, dt)

            # Complete transfers.
            for res_name in list(active):
                streams = active[res_name]
                done = [s for s in streams if s.remaining <= _EPS * max(1.0, s.op.amount)]
                if done:
                    active[res_name] = [s for s in streams if s not in done]
                    if not active[res_name]:
                        del active[res_name]
                    for s in done:
                        finish_interval(s.rank)
                        pos[s.rank] += 1
                        rank_time[s.rank] = now
                        idle.append(s.rank)

            # Expire timers.
            while timers and timers[0][0] <= now + _EPS:
                _, rank = heapq.heappop(timers)
                finish_interval(rank)
                pos[rank] += 1
                rank_time[rank] = now
                idle.append(rank)

        if record_causal:
            # a lock still held at trace end closes its hold interval here
            for (lock_id, rank), t0 in lock_grant_at.items():
                ls = causal.lock_stats(lock_id)
                ls["holds"] += 1
                ls["hold_ns"] += now - t0
            causal.segments.sort(key=lambda s: (s[0], s[4], s[1]))
        return FluidResult(
            finish_ns=finish, breakdown=breakdown, causal=causal
        )
