"""Tests for the persistent lock primitives (mutex, RW lock, striped table)."""

import gc
import weakref

import pytest

from repro.errors import PmdkError
from repro.mem import PMEMDevice
from repro.pmdk import (
    PmemMutex,
    PmemPool,
    PmemRWLock,
    PmemStripedLocks,
    VolatileRWLock,
    fnv1a64,
)
from repro.pmdk.locks import CoreLock, CoreRegistry
from repro.pmdk.pool import RawRegion
from repro.sim import run_spmd
from repro.units import MiB


def one_rank(fn, **kw):
    return run_spmd(1, fn, **kw).returns[0]


def make_pool(size=2 * MiB, crash_sim=False):
    device = PMEMDevice(size, crash_sim=crash_sim)
    region = RawRegion(device, 0, size)

    def fn(ctx):
        return PmemPool.create(
            ctx, region, size=size, nlanes=4, lane_log_size=16 * 1024
        )

    return device, region, one_rank(fn)


class TestMutexNonReentrant:
    def test_reacquire_same_thread_raises(self):
        _d, _r, pool = make_pool()

        def fn(ctx):
            m = PmemMutex.alloc(ctx, pool)
            m.acquire(ctx)
            with pytest.raises(PmdkError):
                m.acquire(ctx)
            m.release(ctx)

        one_rank(fn)

    def test_guard_then_reacquire_is_fine(self):
        _d, _r, pool = make_pool()

        def fn(ctx):
            m = PmemMutex.alloc(ctx, pool)
            with m.guard(ctx):
                pass
            with m.guard(ctx):
                pass
            return m.holder(ctx)

        assert one_rank(fn) is None


class TestRWLock:
    def test_write_guard_sets_and_clears_owner(self):
        _d, _r, pool = make_pool()

        def fn(ctx):
            lk = PmemRWLock.alloc(ctx, pool)
            with lk.write_guard(ctx):
                assert lk.holder(ctx) == ctx.rank
            return lk.holder(ctx)

        assert one_rank(fn) is None

    def test_read_guard_leaves_owner_word_clear(self):
        _d, _r, pool = make_pool()

        def fn(ctx):
            lk = PmemRWLock.alloc(ctx, pool)
            with lk.read_guard(ctx):
                return lk.holder(ctx)

        assert one_rank(fn) is None

    def test_reentry_raises(self):
        _d, _r, pool = make_pool()

        def fn(ctx):
            lk = PmemRWLock.alloc(ctx, pool)
            lk.acquire_read(ctx)
            with pytest.raises(PmdkError):
                lk.acquire_read(ctx)
            with pytest.raises(PmdkError):
                lk.acquire_write(ctx)
            lk.release_read(ctx)

        one_rank(fn)

    def test_release_unheld_write_raises(self):
        _d, _r, pool = make_pool()

        def fn(ctx):
            lk = PmemRWLock.alloc(ctx, pool)
            with pytest.raises(PmdkError):
                lk.release_write(ctx)

        one_rank(fn)

    def test_open_recovers_dead_writer(self):
        device, region, pool = make_pool(crash_sim=True)

        def fn(ctx):
            lk = PmemRWLock.alloc(ctx, pool)
            lk.acquire_write(ctx)
            pool.persist(ctx, lk.off, 8)
            return lk.off

        off = one_rank(fn)
        device.crash()

        def reopen(ctx):
            p2 = PmemPool.open(ctx, region, size=pool.size)
            return PmemRWLock.open(ctx, p2, off).holder(ctx)

        assert one_rank(reopen) is None

    def test_shared_readers_coexist_functionally(self):
        _d, _r, pool = make_pool()
        peak = {"readers": 0, "cur": 0}
        import threading
        mu = threading.Lock()

        def fn(ctx):
            if ctx.rank == 0:
                lk = PmemRWLock.alloc(ctx, pool)
                ctx.board.put("rw", lk)
            ctx.barrier()
            lk = ctx.board.get("rw")
            ctx.barrier()
            lk.acquire_read(ctx)
            with mu:
                peak["cur"] += 1
                peak["readers"] = max(peak["readers"], peak["cur"])
            ctx.barrier()  # all four hold the read lock here at once
            with mu:
                peak["cur"] -= 1
            lk.release_read(ctx)

        run_spmd(4, fn)
        assert peak["readers"] == 4

    def test_writers_mutually_exclude(self):
        _d, _r, pool = make_pool()
        counter = {"v": 0}

        def fn(ctx):
            if ctx.rank == 0:
                lk = PmemRWLock.alloc(ctx, pool)
                ctx.board.put("rw", lk)
            ctx.barrier()
            lk = ctx.board.get("rw")
            for _ in range(25):
                with lk.write_guard(ctx):
                    v = counter["v"]
                    counter["v"] = v + 1

        run_spmd(4, fn)
        assert counter["v"] == 100


class TestVolatileRWLock:
    def test_named_and_nonreentrant(self):
        def fn(ctx):
            lk = VolatileRWLock("meta:/store/x")
            lk.acquire_write(ctx)
            with pytest.raises(PmdkError):
                lk.acquire_write(ctx)
            lk.release_write(ctx)
            return lk.name

        assert one_rank(fn) == "meta:/store/x"


class TestCoreRegistry:
    def test_memoizes_by_key(self):
        reg = CoreRegistry()
        assert reg.mutex_core("a") is reg.mutex_core("a")
        assert reg.mutex_core("a") is not reg.mutex_core("b")
        assert reg.rw_core("r") is reg.rw_core("r")
        # every handle to one pool offset arbitrates on one core
        _, _, pool = make_pool()
        assert PmemMutex(pool, 64)._core is PmemMutex(pool, 64)._core
        assert PmemRWLock(pool, 64)._core is PmemRWLock(pool, 64)._core

    def test_core_lock_context_manager(self):
        reg = CoreRegistry()
        lock = CoreLock(reg.mutex_core("c", reentrant=True))
        with lock:
            with lock:
                pass


class TestStripedLocks:
    def test_alloc_and_stripe_mapping(self):
        _d, _r, pool = make_pool()

        def fn(ctx):
            table = PmemStripedLocks.alloc(ctx, pool, 8, name="meta:/p")
            keys = [f"var{i}#dims".encode() for i in range(32)]
            idx = [table.stripe_index(k) for k in keys]
            assert all(0 <= i < 8 for i in idx)
            assert idx == [fnv1a64(k) % 8 for k in keys]
            assert table.lock(3).name == "meta:/p/s3"
            assert table.lock_for(keys[0]) is table.lock(idx[0])

        one_rank(fn)

    def test_zero_stripes_rejected(self):
        _d, _r, pool = make_pool()

        def fn(ctx):
            with pytest.raises(PmdkError):
                PmemStripedLocks.alloc(ctx, pool, 0)

        one_rank(fn)

    def test_open_recovers_all_stripes(self):
        device, region, pool = make_pool(crash_sim=True)

        def fn(ctx):
            table = PmemStripedLocks.alloc(ctx, pool, 4, name="t")
            table.lock(1).acquire_write(ctx)
            table.lock(3).acquire_write(ctx)
            for i in (1, 3):
                pool.persist(ctx, table.lock(i).off, 8)
            return table.off

        off = one_rank(fn)
        device.crash()

        def reopen(ctx):
            p2 = PmemPool.open(ctx, region, size=pool.size)
            table = PmemStripedLocks.open(ctx, p2, off, 4, name="t")
            return [table.lock(i).holder(ctx) for i in range(4)]

        assert one_rank(reopen) == [None] * 4

    def test_all_guard_holds_every_stripe(self):
        _d, _r, pool = make_pool()

        def fn(ctx):
            table = PmemStripedLocks.alloc(ctx, pool, 4, name="t")
            with table.all_guard(ctx):
                assert [table.lock(i).holder(ctx) for i in range(4)] == [0] * 4
            return [table.lock(i).holder(ctx) for i in range(4)]

        assert one_rank(fn) == [None] * 4


class TestLockLifetime:
    def test_remapping_does_not_pin_old_lock_tables(self):
        """Every mmap opens a fresh 64-lane table on the same pool; once
        unmapped, the pool must not keep the old lanes alive."""
        from repro.cluster import Cluster
        from repro.mpi import Communicator
        from repro.pmemcpy import PMEM

        cycles, nstripes = 50, 64

        def fn(ctx):
            comm = Communicator.world(ctx)
            pmem = PMEM(meta_stripes=nstripes, meta_rw=True)
            refs = []
            for _ in range(cycles):
                pmem.mmap("/pmem/relock", comm)
                refs.extend(weakref.ref(s) for s in pmem.layout.table.stripes)
                pmem.munmap()
            return refs

        cl = Cluster(pmem_capacity=16 * MiB)  # keeps the pool open
        refs = cl.run(1, fn).returns[0]
        assert len(refs) == cycles * nstripes
        gc.collect()
        assert sum(r() is not None for r in refs) <= nstripes
