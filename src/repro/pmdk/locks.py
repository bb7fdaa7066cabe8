"""Persistent (robust) locks: mutexes, reader-writer locks, striped tables.

A PMEM-resident lock is an 8-byte owner word.  Like PMDK's
``pmemobj_mutex``/``pmemobj_rwlock``, the persistent state exists so a
*crashed* holder can be detected and the lock recovered at pool open:
re-instantiating with ``recover=True`` (what the ``open`` classmethods do)
clears the owner word.  Intra-process arbitration is delegated to volatile
state — also PMDK's strategy: the persistent word is never used for runtime
arbitration.

All locks here are **non-reentrant**, mirroring the modeled
``pmemobj_mutex`` semantics: a thread re-acquiring a lock it already holds
raises :class:`~repro.errors.PmdkError` instead of silently succeeding.

Every acquire/release pair is charged :data:`LOCK_OVERHEAD_NS` and reported
to the rank's :class:`~repro.sim.engine.Context` via
``lock_acquired``/``lock_released``, so critical sections serialize in the
*timing pass* (not just functionally) and feed the post-run lock-discipline
checker (:mod:`repro.sim.lockcheck`).

The RW/striped locks take a ``replay`` flag.  With ``replay=False`` the
lock keeps functional mutual exclusion, the overhead charge, and the
checker events, but emits no Acquire/Release trace ops — the timing pass
then models the section exactly as the original global namespace mutex
did (functional serialization only).  The legacy single-exclusive-lane
configuration (``meta_stripes=1, meta_rw=False`` — PMCPY-A) uses this so
its published figure timings stay stable; every striped or RW
configuration replays full mutual exclusion.

:class:`PmemStripedLocks` is the metadata-concurrency building block: a
persistent table of ``nstripes`` owner words, keys hashed onto stripes with
the same FNV-1a the namespace hashtable uses, so independent variables land
on independent lock lanes.
"""

from __future__ import annotations

import threading

from ..errors import PmdkError
from ..sim.engine import wait_until
from ..telemetry import metrics_for

#: modeled cost of an uncontended persistent-lock acquire/release pair
LOCK_OVERHEAD_NS = 60.0


# -- volatile lock cores -------------------------------------------------------
#
# The lock classes below keep their persistent owner words for recovery
# only; runtime arbitration is delegated to an in-process core.  A pool's
# CoreRegistry hands out one core per lock identity (pool offset), so every
# handle to the same lock — each rank's PmemMutex, PmemRWLock or hashmap
# built over that offset — arbitrates on the same core.  A core that is
# held waits through the run's schedule (repro.sim.engine.wait_until), so
# a blocked acquire hands the baton on and a lock-order cycle raises
# DeadlockError instead of hanging.


class _ThreadMutexCore:
    """In-process mutex core; ``acquire`` returns the contended flag."""

    __slots__ = ("label", "_holder", "_depth", "reentrant")

    def __init__(self, label: str, *, reentrant: bool = False):
        self.label = label
        self._holder = None
        self._depth = 0
        self.reentrant = reentrant

    def acquire(self) -> bool:
        me = threading.current_thread()
        if self._holder is me:
            if self.reentrant:
                self._depth += 1
                return False
            raise PmdkError(
                "non-reentrant lock acquired again by its holder"
            )
        contended = self._holder is not None
        if contended:
            wait_until(lambda: self._holder is None, f"mutex {self.label}")
        self._holder = me
        self._depth = 1
        return contended

    def release(self) -> None:
        if self._holder is not threading.current_thread():
            raise PmdkError("releasing a mutex this thread holds not")
        self._depth -= 1
        if self._depth == 0:
            self._holder = None


class _ThreadRWCore:
    """Volatile reader-writer arbitration: writer-preferring, non-reentrant.

    ``acquire_*`` return True when the caller had to wait (someone held
    or was queued for the lock in an incompatible mode at entry) — the
    signal behind the ``meta.lock.contended`` telemetry counter.  Ranks
    take turns, so that happens only where a holder handed the baton on
    while holding the lock.
    """

    __slots__ = ("label", "_readers", "_writer", "_waiting_writers")

    def __init__(self, label: str):
        self.label = label
        self._readers: set = set()
        self._writer = None
        self._waiting_writers = 0

    def _check_reentry(self, me) -> None:
        if me is self._writer or me in self._readers:
            raise PmdkError(
                "non-reentrant lock acquired again by its holding thread"
            )

    def _readable(self) -> bool:
        return self._writer is None and not self._waiting_writers

    def _writable(self) -> bool:
        return self._writer is None and not self._readers

    def acquire_read(self) -> bool:
        me = threading.current_thread()
        self._check_reentry(me)
        contended = not self._readable()
        if contended:
            wait_until(self._readable, f"read lock {self.label}")
        self._readers.add(me)
        return contended

    def acquire_write(self) -> bool:
        me = threading.current_thread()
        self._check_reentry(me)
        contended = not self._writable()
        if contended:
            self._waiting_writers += 1
            try:
                wait_until(self._writable, f"write lock {self.label}")
            finally:
                self._waiting_writers -= 1
        self._writer = me
        return contended

    def release_read(self) -> None:
        me = threading.current_thread()
        if me not in self._readers:
            raise PmdkError("releasing a read lock this thread holds not")
        self._readers.discard(me)

    def release_write(self) -> None:
        if threading.current_thread() is not self._writer:
            raise PmdkError("releasing a write lock this thread holds not")
        self._writer = None


class CoreLock:
    """Context-manager adapter turning a mutex core into a drop-in
    replacement for ``threading.(R)Lock`` usage sites."""

    __slots__ = ("_core",)

    def __init__(self, core):
        self._core = core

    def __enter__(self):
        self._core.acquire()
        return self

    def __exit__(self, *exc):
        self._core.release()
        return False


class CoreRegistry:
    """A pool's volatile lock cores, memoized by key so every handle to the
    same lock identity arbitrates together.  Ranks reach it only while
    holding their run's baton, so it takes no lock of its own."""

    def __init__(self):
        self._mutexes: dict = {}
        self._rws: dict = {}

    def mutex_core(self, key, *, reentrant: bool = False) -> _ThreadMutexCore:
        core = self._mutexes.get(key)
        if core is None:
            core = self._mutexes[key] = _ThreadMutexCore(
                repr(key), reentrant=reentrant
            )
        return core

    def rw_core(self, key) -> _ThreadRWCore:
        core = self._rws.get(key)
        if core is None:
            core = self._rws[key] = _ThreadRWCore(repr(key))
        return core


def _note_acquire(ctx, contended: bool) -> None:
    """Typed lock telemetry shared by every lock flavour."""
    reg = metrics_for(ctx)
    reg.counter("pmdk.lock.acquires").add()
    if contended:
        reg.counter("pmdk.lock.contended").add()


def _note_held(ctx, t0: float) -> None:
    metrics_for(ctx).histogram("pmdk.lock.held.ns").observe(ctx.lb_ns - t0)


def fnv1a64(data: bytes) -> int:
    """FNV-1a: stable across runs (unlike Python's salted ``hash``)."""
    h = 0xCBF29CE484222325
    for b in data:
        h ^= b
        h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


class PmemMutex:
    """Robust persistent mutex (``pmemobj_mutex``-style, non-reentrant)."""

    def __init__(self, pool, off: int, *, name: str | None = None,
                 recover: bool = False, ctx=None):
        self.pool = pool
        self.off = off
        self.name = name or f"pmem-mutex@{id(pool):x}+{off}"
        self._core = pool.locks.mutex_core(("mutex", off))
        if recover:
            if ctx is None:
                raise PmdkError("recover requires a ctx to charge the store")
            pool.write_u64(ctx, off, 0)

    @classmethod
    def alloc(cls, ctx, pool, *, name: str | None = None) -> "PmemMutex":
        """Allocate the owner word from the pool heap and return the mutex."""
        off = pool.malloc(ctx, 8)
        pool.write_u64(ctx, off, 0)
        return cls(pool, off, name=name)

    @classmethod
    def open(cls, ctx, pool, off: int, *, name: str | None = None) -> "PmemMutex":
        """Attach to an existing lock word, clearing any dead owner."""
        return cls(pool, off, name=name, recover=True, ctx=ctx)

    def acquire(self, ctx) -> bool:
        """Blocking acquire; returns True when the lock was contended.

        Re-acquiring from the holding thread raises :class:`PmdkError` —
        the modeled ``pmemobj_mutex`` is non-reentrant.
        """
        contended = self._core.acquire()
        self.pool.write_u64(ctx, self.off, ctx.rank + 1)
        ctx.delay(LOCK_OVERHEAD_NS, note="pmem-lock")
        ctx.lock_acquired(self.name)
        _note_acquire(ctx, contended)
        return contended

    def release(self, ctx) -> None:
        owner = self.pool.read_u64(ctx, self.off)
        if owner != ctx.rank + 1:
            raise PmdkError(
                f"rank {ctx.rank} releasing lock owned by "
                f"{owner - 1 if owner else 'nobody'}"
            )
        self.pool.write_u64(ctx, self.off, 0)
        ctx.lock_released(self.name)
        self._core.release()

    def holder(self, ctx) -> int | None:
        owner = self.pool.read_u64(ctx, self.off)
        return owner - 1 if owner else None

    class _Guard:
        def __init__(self, mutex, ctx):
            self.mutex, self.ctx = mutex, ctx
            self.contended = False
            self._t0 = 0.0

        def __enter__(self):
            self.contended = self.mutex.acquire(self.ctx)
            self._t0 = self.ctx.lb_ns
            return self

        def __exit__(self, *exc):
            _note_held(self.ctx, self._t0)
            self.mutex.release(self.ctx)
            return False

    def guard(self, ctx) -> "_Guard":
        """``with mutex.guard(ctx): ...``"""
        return PmemMutex._Guard(self, ctx)


class PmemRWLock:
    """Robust persistent reader-writer lock (``pmemobj_rwlock``-style).

    The owner word tracks only the *exclusive* holder (readers never touch
    persistent state — recovery has nothing to clean up after a crashed
    reader, exactly as with pthread rwlocks in PMDK).  Shared acquisitions
    therefore skip the owner-word store, making the read path cheaper than
    the write path.
    """

    def __init__(self, pool, off: int, *, name: str | None = None,
                 recover: bool = False, ctx=None, replay: bool = True):
        self.pool = pool
        self.off = off
        self.name = name or f"pmem-rwlock@{id(pool):x}+{off}"
        self.replay = replay
        self._core = pool.locks.rw_core(("rw", off))
        if recover:
            if ctx is None:
                raise PmdkError("recover requires a ctx to charge the store")
            pool.write_u64(ctx, off, 0)

    @classmethod
    def alloc(cls, ctx, pool, *, name: str | None = None,
              replay: bool = True) -> "PmemRWLock":
        off = pool.malloc(ctx, 8)
        pool.write_u64(ctx, off, 0)
        return cls(pool, off, name=name, replay=replay)

    @classmethod
    def open(cls, ctx, pool, off: int, *, name: str | None = None,
             replay: bool = True) -> "PmemRWLock":
        return cls(pool, off, name=name, recover=True, ctx=ctx, replay=replay)

    def acquire_read(self, ctx) -> bool:
        contended = self._core.acquire_read()
        ctx.delay(LOCK_OVERHEAD_NS, note="pmem-lock")
        ctx.lock_acquired(self.name, shared=True, replay=self.replay)
        _note_acquire(ctx, contended)
        return contended

    def release_read(self, ctx) -> None:
        ctx.lock_released(self.name, replay=self.replay)
        self._core.release_read()

    def acquire_write(self, ctx) -> bool:
        contended = self._core.acquire_write()
        self.pool.write_u64(ctx, self.off, ctx.rank + 1)
        ctx.delay(LOCK_OVERHEAD_NS, note="pmem-lock")
        ctx.lock_acquired(self.name, replay=self.replay)
        _note_acquire(ctx, contended)
        return contended

    def release_write(self, ctx) -> None:
        owner = self.pool.read_u64(ctx, self.off)
        if owner != ctx.rank + 1:
            raise PmdkError(
                f"rank {ctx.rank} releasing rwlock owned by "
                f"{owner - 1 if owner else 'nobody'}"
            )
        self.pool.write_u64(ctx, self.off, 0)
        ctx.lock_released(self.name, replay=self.replay)
        self._core.release_write()

    def holder(self, ctx) -> int | None:
        """The exclusive holder's rank, or None (readers are not tracked)."""
        owner = self.pool.read_u64(ctx, self.off)
        return owner - 1 if owner else None

    class _Guard:
        def __init__(self, lock, ctx, shared: bool):
            self.lock, self.ctx, self.shared = lock, ctx, shared
            self.contended = False
            self._t0 = 0.0

        def __enter__(self):
            if self.shared:
                self.contended = self.lock.acquire_read(self.ctx)
            else:
                self.contended = self.lock.acquire_write(self.ctx)
            self._t0 = self.ctx.lb_ns
            return self

        def __exit__(self, *exc):
            _note_held(self.ctx, self._t0)
            if self.shared:
                self.lock.release_read(self.ctx)
            else:
                self.lock.release_write(self.ctx)
            return False

    def read_guard(self, ctx) -> "_Guard":
        return PmemRWLock._Guard(self, ctx, shared=True)

    def write_guard(self, ctx) -> "_Guard":
        return PmemRWLock._Guard(self, ctx, shared=False)


class VolatileRWLock:
    """A named DRAM reader-writer lock charged like a persistent one.

    Used where the backing store is a filesystem rather than a pool (the
    hierarchical layout's flock-style per-variable metadata locks): there
    is no owner word to recover, but the modeled cost, the timing-pass
    serialization, and the discipline-checker events are identical.
    """

    def __init__(self, name: str, *, replay: bool = True):
        self.name = name
        self.replay = replay
        self._core = _ThreadRWCore(name)

    def acquire_read(self, ctx) -> bool:
        contended = self._core.acquire_read()
        ctx.delay(LOCK_OVERHEAD_NS, note="ns-lock")
        ctx.lock_acquired(self.name, shared=True, replay=self.replay)
        _note_acquire(ctx, contended)
        return contended

    def release_read(self, ctx) -> None:
        ctx.lock_released(self.name, replay=self.replay)
        self._core.release_read()

    def acquire_write(self, ctx) -> bool:
        contended = self._core.acquire_write()
        ctx.delay(LOCK_OVERHEAD_NS, note="ns-lock")
        ctx.lock_acquired(self.name, replay=self.replay)
        _note_acquire(ctx, contended)
        return contended

    def release_write(self, ctx) -> None:
        ctx.lock_released(self.name, replay=self.replay)
        self._core.release_write()


class PmemStripedLocks:
    """A persistent table of ``nstripes`` reader-writer lock words.

    Keys hash onto stripes with FNV-1a — the same function the namespace
    hashtable buckets with — so a key's stripe is stable across runs and
    across ranks, and distinct keys spread across independent lock lanes.
    Recovery at pool open clears every stripe's owner word, preserving the
    robust-mutex semantics per lane.

    A *whole-table* guard (``all_guard``) acquires every stripe in
    ascending index order — the canonical lock order the discipline checker
    verifies — giving namespace-wide operations (listing, teardown)
    exclusivity against every per-key critical section.
    """

    def __init__(self, pool, off: int, nstripes: int, *,
                 name: str = "striped", recover: bool = False, ctx=None,
                 replay: bool = True):
        if nstripes < 1:
            raise PmdkError("nstripes must be >= 1")
        self.pool = pool
        self.off = off
        self.nstripes = nstripes
        self.name = name
        self.replay = replay
        self.stripes = [
            PmemRWLock(pool, off + 8 * i, name=f"{name}/s{i}",
                       recover=recover, ctx=ctx, replay=replay)
            for i in range(nstripes)
        ]

    @classmethod
    def alloc(cls, ctx, pool, nstripes: int, *, name: str = "striped",
              replay: bool = True) -> "PmemStripedLocks":
        """Allocate and zero ``nstripes`` owner words from the pool heap."""
        if nstripes < 1:
            raise PmdkError("nstripes must be >= 1")
        off = pool.malloc(ctx, 8 * nstripes)
        pool.write(ctx, off, bytes(8 * nstripes))
        pool.persist(ctx, off, 8 * nstripes)
        return cls(pool, off, nstripes, name=name, replay=replay)

    @classmethod
    def open(cls, ctx, pool, off: int, nstripes: int, *, name: str = "striped",
             replay: bool = True) -> "PmemStripedLocks":
        """Attach to an existing table, clearing any dead owners."""
        return cls(pool, off, nstripes, name=name, recover=True, ctx=ctx,
                   replay=replay)

    def stripe_index(self, key: bytes) -> int:
        return fnv1a64(key) % self.nstripes

    def lock(self, index: int) -> PmemRWLock:
        return self.stripes[index]

    def lock_for(self, key: bytes) -> PmemRWLock:
        return self.stripes[self.stripe_index(key)]

    class _AllGuard:
        def __init__(self, table, ctx):
            self.table, self.ctx = table, ctx
            self.contended = False
            self._held = 0
            self._t0 = 0.0

        def __enter__(self):
            for lock in self.table.stripes:
                if lock.acquire_write(self.ctx):
                    self.contended = True
                self._held += 1
            self._t0 = self.ctx.lb_ns
            return self

        def __exit__(self, *exc):
            _note_held(self.ctx, self._t0)
            for lock in reversed(self.table.stripes[: self._held]):
                lock.release_write(self.ctx)
            self._held = 0
            return False

    def all_guard(self, ctx) -> "_AllGuard":
        """Exclusive hold of every stripe, acquired in ascending order."""
        return PmemStripedLocks._AllGuard(self, ctx)
