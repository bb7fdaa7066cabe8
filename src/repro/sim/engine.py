"""SPMD functional-pass engine.

``run_spmd(nprocs, fn)`` executes ``fn(ctx)`` on every rank against real
(scaled-down) buffers.  :class:`ThreadEngine` runs each rank as one OS
thread, but the ranks take turns: one :class:`Schedule` baton per run, and
only the rank holding it runs.  A rank gives the baton up only where it
blocks (:func:`wait_until`), to the next runnable rank in rank order, so a
run's interleaving — and with it every trace — is a function of the
program alone.  The ranks' host-side concurrency is not the model's — the
timing pass charges what the recorded traces say.

The :class:`Context` is the single funnel through which every substrate
records costs:

- ``ctx.delay(ns)`` / ``ctx.transfer(resource, amount, cap)`` append trace ops
  (``ctx.append_rows(rows)`` records a partial read's row batch in columns);
- ``ctx.model_bytes(n)`` converts functional-pass byte counts to paper-scale
  modeled bytes;
- ``ctx.barrier()`` both synchronizes the ranks *and* records a Barrier op;
- ``ctx.phase(name)`` labels subsequent ops for breakdown reporting;
- ``ctx.board`` is a shared rendezvous board the MPI layer builds
  collectives on.

Determinism: each rank appends only to its own trace, and the schedule
fixes which rank reaches shared functional state first (a shared page's
fault, a hashtable chain's insertion order), so two runs of one program
record ``==`` traces and the timing pass reproduces exactly.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from ..config import DEFAULT_MACHINE, MachineSpec
from ..errors import CollectiveAbortedError, DeadlockError, RankFailedError
from .fluid import FluidResult, FluidSimulator
from .resources import ResourceSet, build_standard_resources
from .trace import Acquire, Barrier, Delay, RankTrace, Release, Rows, Transfer


#: the running thread's schedule (set while a rank thread runs)
_current = threading.local()


def wait_until(ready: Callable[[], bool], what: str) -> None:
    """The one wait every rank-visible block goes through.

    Returns at once when ``ready()`` holds.  Otherwise the calling rank
    hands its run's baton on and resumes once ``ready()`` holds and the
    baton is back.  Raises :class:`~repro.errors.DeadlockError` when no
    rank can run, and at once outside a run, where nothing else could
    make ``ready()`` hold.
    """
    if ready():
        return
    schedule = getattr(_current, "schedule", None)
    if schedule is None:
        raise DeadlockError({0: f"{what}, outside any SPMD run"})
    schedule.block(ready, what)


class Schedule:
    """One run's baton.  Only its holder runs; it passes the baton only
    where it blocks, to the first runnable rank after it in rank order.

    A rank is runnable when it has not finished and is not waiting, or its
    wait's condition holds.  Conditions are evaluated by the holder, so
    they read shared state no other rank is changing.  When no rank is
    runnable the run is deadlocked: every wait raises
    :class:`~repro.errors.DeadlockError`, and the ranks unwind one at a
    time in the same rank order.
    """

    def __init__(self, nprocs: int):
        self._gates = [threading.Lock() for _ in range(nprocs)]
        for gate in self._gates[1:]:
            gate.acquire()
        #: per rank: the (ready, what) of the wait it is blocked in, or None
        self._waits: list = [None] * nprocs
        self._done = [False] * nprocs
        self._holder = 0
        self._deadlock: dict[int, str] | None = None

    def enter(self, rank: int) -> None:
        """Wait for rank ``rank``'s first turn (rank 0 starts with it)."""
        _current.schedule = self
        self._gates[rank].acquire()

    def block(self, ready: Callable[[], bool], what: str) -> None:
        me = self._holder
        if self._deadlock is None:
            self._waits[me] = (ready, what)
            self._pass(me)
            self._gates[me].acquire()
            self._waits[me] = None
        if self._deadlock is not None:
            raise DeadlockError(self._deadlock)

    def finish(self, rank: int) -> None:
        """Rank ``rank`` returned or raised: hand the baton on for good."""
        self._done[rank] = True
        self._waits[rank] = None
        self._pass(rank)

    def _runnable(self, rank: int) -> bool:
        if self._done[rank]:
            return False
        wait = self._waits[rank]
        return wait is None or self._deadlock is not None or wait[0]()

    def _pass(self, me: int) -> None:
        n = len(self._gates)
        for step in range(1, n + 1):
            rank = (me + step) % n
            if self._runnable(rank):
                self._holder = rank
                self._gates[rank].release()
                return
        blocked = {r: w[1] for r, w in enumerate(self._waits) if w}
        if blocked:
            self._deadlock = blocked
            self._pass(me)


class SharedBoard:
    """A blackboard shared by all ranks of a run.

    The MPI layer uses it to exchange object references for collectives; the
    engine uses it for functional barriers.  Keys are arbitrary hashables.
    Ranks touch it only while holding the run's baton, so it needs no lock;
    its waits go through :func:`wait_until`.
    """

    def __init__(self):
        self.data: dict[Any, Any] = {}
        self._aborted = False

    def abort(self) -> None:
        """A rank failed: every wait on the board gives up."""
        self._aborted = True

    def functional_barrier(self, participants: tuple[int, ...], seq: int,
                           rank: int) -> None:
        """Rendezvous ``participants`` for their ``seq``-th barrier."""
        self.exchange(("barrier", participants, seq), rank,
                      len(participants), None)

    # -- collective exchange (thread ranks share references) -------------------

    def exchange(self, key, rank: int, nparties: int, value) -> dict:
        """Deposit ``value`` as ``rank``; block until all ``nparties``
        deposited; return {rank: value}.  The last reader cleans up."""
        slot = self.data.setdefault(key, {"vals": {}, "taken": 0})
        vals = slot["vals"]
        vals[rank] = value
        wait_until(lambda: len(vals) == nparties or self._aborted,
                   f"collective {key!r}")
        if len(vals) != nparties:
            raise CollectiveAbortedError(
                f"collective {key!r} aborted: a peer rank failed"
            )
        slot["taken"] += 1
        if slot["taken"] == nparties:
            del self.data[key]
        return vals

    # -- point-to-point --------------------------------------------------------

    def p2p_put(self, key, value) -> None:
        self.data.setdefault(("q", key), []).append(value)

    def p2p_take(self, key):
        qkey = ("q", key)
        wait_until(lambda: self.data.get(qkey) or self._aborted,
                   f"recv {key!r}")
        if not self.data.get(qkey):
            raise CollectiveAbortedError("recv aborted: peer rank failed")
        q = self.data[qkey]
        value = q.pop(0)
        if not q:
            del self.data[qkey]
        return value

    # -- plain KV --------------------------------------------------------------

    def put(self, key, value) -> None:
        self.data[("kv", key)] = value

    def get(self, key, default=None):
        return self.data.get(("kv", key), default)

    def wait_get(self, key):
        kv = ("kv", key)
        wait_until(lambda: kv in self.data or self._aborted,
                   f"board key {key!r}")
        if kv not in self.data:
            raise CollectiveAbortedError(
                f"wait for {key!r} aborted: a peer rank failed"
            )
        return self.data[kv]


class Context:
    """Per-rank handle passed to the SPMD function."""

    def __init__(
        self,
        rank: int,
        nprocs: int,
        *,
        machine: MachineSpec,
        scale: int,
        board,
        trace: RankTrace,
        env=None,
    ):
        self.rank = rank
        self.nprocs = nprocs
        self.machine = machine
        self.scale = scale
        self.board = board
        self.trace = trace
        #: experiment environment (e.g. a repro.cluster.Cluster) giving the
        #: rank access to the node's devices and filesystems
        self.env = env
        self._phase_stack: list[str] = [""]
        self._barrier_counts: dict[tuple[int, ...], int] = {}
        #: running uncontended lower bound of this rank's modeled time — a
        #: cheap monotonic clock telemetry uses to meter held intervals
        #: (e.g. meta-lock hold time) without rescanning the trace
        self.lb_ns = 0.0

    # -- cost recording -------------------------------------------------------

    @property
    def current_phase(self) -> str:
        return self._phase_stack[-1]

    @contextmanager
    def phase(self, name: str):
        self._phase_stack.append(name)
        try:
            yield
        finally:
            self._phase_stack.pop()

    def model_bytes(self, real_bytes: int | float) -> float:
        """Scale a functional-pass byte count up to paper scale."""
        return float(real_bytes) * self.scale

    def delay(self, ns: float, note: str = "") -> None:
        """Record a fixed latency.  Adjacent same-phase delays are merged —
        sequential delays sum, so this is semantically exact and keeps
        metadata-heavy traces small."""
        if ns <= 0:
            return
        self.lb_ns += ns
        phase = self._phase_stack[-1]
        ops = self.trace.entries
        if ops:
            last = ops[-1]
            if (
                isinstance(last, Delay)
                and last.phase == phase
                and last.note == note
            ):
                ops[-1] = Delay(ns=last.ns + ns, phase=phase, note=note)
                return
        ops.append(Delay(ns=ns, phase=phase, note=note))

    def transfer(
        self, resource: str, amount: float, stream_cap: float, note: str = ""
    ) -> None:
        """Record a resource transfer.  Adjacent same-phase transfers with the
        same resource and stream cap are merged — a stream's max-min rate
        depends only on the concurrently active set, so back-to-back
        transfers of the same stream are exactly equivalent to their sum."""
        if amount <= 0:
            return
        self.lb_ns += amount / stream_cap
        phase = self._phase_stack[-1]
        ops = self.trace.entries
        if ops:
            last = ops[-1]
            if (
                isinstance(last, Transfer)
                and last.phase == phase
                and last.resource == resource
                and last.stream_cap == stream_cap
                and last.note == note
            ):
                ops[-1] = Transfer(
                    resource=resource,
                    amount=last.amount + amount,
                    stream_cap=stream_cap,
                    phase=phase,
                    note=note,
                )
                return
        ops.append(
            Transfer(
                resource=resource,
                amount=amount,
                stream_cap=stream_cap,
                phase=phase,
                note=note,
            )
        )

    def append_rows(self, rows: Rows) -> tuple[np.ndarray, np.ndarray]:
        """Record a :class:`Rows` entry built for the current phase — what
        the :meth:`delay`/:meth:`transfer` calls of its expansion record one
        by one.  The first and last rows go in as those ops, so the
        adjacent-op merge rule applies at both ends exactly as it does to
        the one-by-one calls, and the rows between stay one entry.  Returns
        the :attr:`lb_ns` clocks ``(starts, ends)`` bracketing each row's
        read ops (its lead delays before ``starts``), advanced by the same
        left fold of float additions the one-by-one calls make."""
        if rows.phase != self.current_phase:
            raise ValueError(
                f"rows built for phase {rows.phase!r}, "
                f"current is {self.current_phase!r}"
            )
        n, width = len(rows), len(rows.lead) + 2
        clock = np.add.accumulate(rows.steps(self.lb_ns, rows.stream_cap))
        head = list(rows[:1])
        self.delay(head[0].ns, note=head[0].note)   # may merge with the tail
        ops = self.trace.entries
        ops.extend(head[1:])
        if n > 2:
            ops.append(rows[1:-1])
        if n > 1:
            ops.extend(rows[-1:])
        self.lb_ns = float(clock[-1])
        return clock[width - 2:-1:width], clock[width::width]

    # -- lock discipline -------------------------------------------------------

    def lock_acquired(self, lock_id: str, *, shared: bool = False,
                      note: str = "", replay: bool = True) -> None:
        """Record entering the critical section ``lock_id``.

        Appends an :class:`~repro.sim.trace.Acquire` op (so the timing pass
        serializes the section against other ranks) and logs the event for
        the post-run lock-discipline checker.  Callers invoke this *after*
        their functional acquisition succeeds, so the ops charged inside the
        critical section sit between the Acquire and Release in the trace.

        ``replay=False`` skips the trace op — the section still serializes
        functionally and still feeds the checker, but the timing pass treats
        it as free of mutual exclusion (the original modeling of the global
        namespace mutex; see ``repro.pmdk.locks``).
        """
        if replay:
            self.trace.append(
                Acquire(lock_id=lock_id, shared=shared,
                        phase=self.current_phase, note=note)
            )
        self.trace.lock_events.append(
            ("acquire", lock_id, "r" if shared else "w")
        )

    def lock_released(self, lock_id: str, *, replay: bool = True) -> None:
        """Record leaving the critical section ``lock_id`` (call *before*
        the functional release).  ``replay`` must match the acquire."""
        if replay:
            self.trace.append(Release(lock_id=lock_id, phase=self.current_phase))
        self.trace.lock_events.append(("release", lock_id, ""))

    def record_guarded_write(self, scope: str) -> None:
        """Declare a metadata write that must happen under the exclusive
        guard named ``scope`` — the lock-discipline checker flags the write
        as a lost-update hazard if that guard is not currently held."""
        self.trace.lock_events.append(("write", scope, ""))

    # -- synchronization -------------------------------------------------------

    def barrier(self, participants: tuple[int, ...] | None = None) -> None:
        """Rendezvous functionally and record a Barrier op.

        The barrier id is the rank-local count of barriers on this
        participant set: SPMD determinism guarantees matching ids match
        matching rendezvous.
        """
        if participants is None:
            participants = tuple(range(self.nprocs))
        seq = self._barrier_counts.get(participants, 0)
        self._barrier_counts[participants] = seq + 1
        self.trace.append(
            Barrier(
                barrier_id=seq,
                participants=participants,
                phase=self.current_phase,
            )
        )
        self.board.functional_barrier(participants, seq, self.rank)


@dataclass
class SpmdResult:
    """Everything a finished functional pass produced."""

    nprocs: int
    machine: MachineSpec
    scale: int
    traces: list[RankTrace]
    returns: list[Any]
    _timing: FluidResult | None = field(default=None, repr=False)

    def time(self, resources: ResourceSet | None = None, *,
             record_causal: bool = False) -> FluidResult:
        """Run (and cache) the timing pass over the recorded traces.

        One replay per result: a consumer that will want the causal record
        (critical path, contention) asks with ``record_causal=True`` first,
        and everyone after it gets that same :class:`FluidResult` — its
        ``finish_ns``/``breakdown`` are ``==`` the plain pass's.  A plain
        result already cached is superseded the first time the causal record
        is asked for.  An explicit ``resources`` is a what-if: it is
        returned, never cached.
        """
        if resources is not None:
            return FluidSimulator(resources).run(
                self.traces, record_causal=record_causal
            )
        if self._timing is None or (
            record_causal and self._timing.causal is None
        ):
            rs = build_standard_resources(self.machine)
            self._timing = FluidSimulator(rs).run(
                self.traces, record_causal=record_causal
            )
        return self._timing

    @property
    def makespan_ns(self) -> float:
        return self.time().makespan_ns

    @property
    def makespan_s(self) -> float:
        return self.time().makespan_ns / 1e9


#: exception classes that are *secondary casualties* of another rank's
#: failure — never the root cause a RankFailedError should surface
_CASUALTY_TYPES = (CollectiveAbortedError, DeadlockError)


def select_root_failure(
    failures: list[tuple[int, BaseException]],
) -> tuple[int, BaseException]:
    """Pick the failure to surface from a multi-rank pile-up.

    When one rank fails, every peer blocked on a barrier or collective
    unwinds with a casualty exception
    (:class:`~repro.errors.CollectiveAbortedError`, or
    :class:`~repro.errors.DeadlockError` when it waited on something the
    failed rank never gave) — regardless of rank order, the surfaced
    exception must be the lowest-ranked *non-casualty*.  Only if every
    failure is a casualty (a deadlock, or an engine bug) does the
    lowest-ranked one surface.
    """
    ordered = sorted(failures, key=lambda f: f[0])
    for rank, exc in ordered:
        if not isinstance(exc, _CASUALTY_TYPES):
            return rank, exc
    return ordered[0]


class ThreadEngine:
    """One OS thread per rank, taking turns under one :class:`Schedule` —
    deterministic, crash-sim capable."""

    def run(self, nprocs, fn, *, machine, scale, thread_name, env) -> SpmdResult:
        """Execute ``fn`` on every rank; return traces and values."""
        schedule = Schedule(nprocs)
        board = SharedBoard()
        traces = [RankTrace(rank=r) for r in range(nprocs)]
        returns: list[Any] = [None] * nprocs
        failures: list[tuple[int, BaseException]] = []

        def runner(r: int) -> None:
            schedule.enter(r)
            try:
                ctx = Context(
                    r, nprocs, machine=machine, scale=scale, board=board,
                    trace=traces[r], env=env,
                )
                returns[r] = fn(ctx)
            except BaseException as exc:  # noqa: BLE001 - must unblock peers
                failures.append((r, exc))
                board.abort()
            finally:
                schedule.finish(r)

        threads = [
            threading.Thread(target=runner, args=(r,), name=f"{thread_name}-{r}")
            for r in range(nprocs)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        if failures:
            rank, exc = select_root_failure(failures)
            if isinstance(exc, DeadlockError):
                raise exc
            raise RankFailedError(rank, exc) from exc

        return SpmdResult(
            nprocs=nprocs, machine=machine, scale=scale,
            traces=traces, returns=returns,
        )


def run_spmd(
    nprocs: int,
    fn: Callable[[Context], Any],
    *,
    machine: MachineSpec = DEFAULT_MACHINE,
    scale: int = 1,
    thread_name: str = "rank",
    env=None,
) -> SpmdResult:
    """Run ``fn`` on ``nprocs`` ranks; gather traces and return values.

    Any rank exception aborts every board wait (so peers unblock) and
    re-raises as :class:`RankFailedError` carrying the root-cause original;
    a run in which no rank can go on raises
    :class:`~repro.errors.DeadlockError` naming the blocked ranks.
    """
    if nprocs < 1:
        raise ValueError("nprocs must be >= 1")
    result = ThreadEngine().run(
        nprocs, fn, machine=machine, scale=scale,
        thread_name=thread_name, env=env,
    )

    if os.environ.get("REPRO_LOCKCHECK"):
        # fail loudly under the checker-enabled test subset (CI job)
        from .lockcheck import check_lock_discipline

        check_lock_discipline(result.traces).raise_if_violations()

    return result
