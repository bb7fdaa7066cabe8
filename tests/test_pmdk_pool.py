"""Tests for the PMDK pool, allocator, and transactions."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import (
    AllocationError,
    PmdkError,
    PoolCorruptError,
    TransactionAborted,
)
from repro.mem import PMEMDevice
from repro.mem.device import CrashInjected
from repro.pmdk import PmemPool, PmemMutex, Transaction
from repro.pmdk.pool import RawRegion
from repro.sim import run_spmd
from repro.units import MiB


def one_rank(fn, **kw):
    return run_spmd(1, fn, **kw).returns[0]


def make_pool(size=2 * MiB, crash_sim=False, nlanes=4, lane_log_size=16 * 1024):
    device = PMEMDevice(size, crash_sim=crash_sim)
    region = RawRegion(device, 0, size)

    def fn(ctx):
        return PmemPool.create(
            ctx, region, size=size, nlanes=nlanes, lane_log_size=lane_log_size
        )

    return device, region, one_rank(fn)


class TestPoolLifecycle:
    def test_create_open_roundtrip(self):
        device, region, pool = make_pool()

        def reopen(ctx):
            return PmemPool.open(ctx, region, size=pool.size)

        p2 = one_rank(reopen)
        assert p2.heap_off == pool.heap_off
        assert p2.heap_size == pool.heap_size
        assert p2.nlanes == pool.nlanes

    def test_open_garbage_raises(self):
        device = PMEMDevice(1 * MiB)
        region = RawRegion(device, 0, 1 * MiB)

        def fn(ctx):
            with pytest.raises(PoolCorruptError):
                PmemPool.open(ctx, region, size=1 * MiB)

        one_rank(fn)

    def test_open_wrong_size_raises(self):
        device, region, pool = make_pool()

        def fn(ctx):
            bad = RawRegion(device, 0, pool.size // 2)
            with pytest.raises(PoolCorruptError):
                PmemPool.open(ctx, bad, size=pool.size // 2)

        one_rank(fn)

    def test_too_small_pool_rejected(self):
        device = PMEMDevice(4096)
        region = RawRegion(device, 0, 4096)

        def fn(ctx):
            with pytest.raises(PoolCorruptError):
                PmemPool.create(ctx, region, size=4096, nlanes=64,
                                lane_log_size=64 * 1024)

        one_rank(fn)

    def test_root_object_persists(self):
        device, region, pool = make_pool()

        def set_root(ctx):
            off = pool.malloc(ctx, 100)
            pool.set_root(ctx, off)
            return off

        off = one_rank(set_root)

        def reopen(ctx):
            return PmemPool.open(ctx, region, size=pool.size).root()

        assert one_rank(reopen) == off


class TestAllocator:
    def test_malloc_returns_nonoverlapping(self):
        _d, _r, pool = make_pool()

        def fn(ctx):
            offs = [(pool.malloc(ctx, 100), 100) for _ in range(20)]
            ivs = sorted((o, o + s) for o, s in offs)
            for (a0, a1), (b0, b1) in zip(ivs, ivs[1:]):
                assert a1 <= b0
            pool.heap.check_invariants()

        one_rank(fn)

    def test_usable_size_at_least_requested(self):
        _d, _r, pool = make_pool()

        def fn(ctx):
            off = pool.malloc(ctx, 1000)
            assert pool.usable_size(off) >= 1000

        one_rank(fn)

    def test_free_reuses_space(self):
        _d, _r, pool = make_pool()

        def fn(ctx):
            a = pool.malloc(ctx, 64 * 1024)
            pool.free(ctx, a)
            b = pool.malloc(ctx, 64 * 1024)
            assert b == a  # first fit lands on the same block
            pool.heap.check_invariants()

        one_rank(fn)

    def test_coalescing(self):
        _d, _r, pool = make_pool()

        def fn(ctx):
            offs = [pool.malloc(ctx, 4096) for _ in range(4)]
            for off in offs:
                pool.free(ctx, off)
            pool.heap.check_invariants()
            assert pool.heap.n_free_blocks() == 1

        one_rank(fn)

    def test_double_free_raises(self):
        _d, _r, pool = make_pool()

        def fn(ctx):
            off = pool.malloc(ctx, 64)
            pool.free(ctx, off)
            with pytest.raises(AllocationError):
                pool.free(ctx, off)

        one_rank(fn)

    def test_exhaustion_raises(self):
        _d, _r, pool = make_pool(size=256 * 1024)

        def fn(ctx):
            with pytest.raises(AllocationError):
                pool.malloc(ctx, 10 * MiB)

        one_rank(fn)

    def test_invalid_size_raises(self):
        _d, _r, pool = make_pool()

        def fn(ctx):
            with pytest.raises(AllocationError):
                pool.malloc(ctx, 0)

        one_rank(fn)

    def test_rebuild_after_reopen_preserves_allocations(self):
        device, region, pool = make_pool()

        def alloc(ctx):
            offs = [pool.malloc(ctx, 256) for _ in range(5)]
            pool.free(ctx, offs[2])
            for off in (offs[0], offs[1], offs[3], offs[4]):
                pool.write(ctx, off, b"DATA")
                pool.persist(ctx, off, 4)
            return offs

        offs = one_rank(alloc)

        def reopen(ctx):
            p2 = PmemPool.open(ctx, region, size=pool.size)
            p2.heap.check_invariants()
            assert p2.heap.used_bytes() == pool.heap.used_bytes()
            # data still readable, and the freed block is reusable
            for off in (offs[0], offs[1], offs[3], offs[4]):
                assert bytes(p2.read(ctx, off, 4)) == b"DATA"
            off2 = p2.malloc(ctx, 100)
            assert off2 is not None

        one_rank(reopen)

    @given(
        ops=st.lists(
            st.tuples(st.booleans(), st.integers(0, 10**6), st.integers(1, 8192)),
            min_size=1,
            max_size=40,
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_allocator_random_ops_keep_invariants(self, ops):
        # draws happen here, in the test thread — rank threads must not draw
        _d, _r, pool = make_pool(size=1 * MiB)

        def fn(ctx):
            live = []
            for do_free, pick, size in ops:
                if live and do_free:
                    pool.free(ctx, live.pop(pick % len(live)))
                else:
                    try:
                        live.append(pool.malloc(ctx, size))
                    except AllocationError:
                        pass
                pool.heap.check_invariants()

        one_rank(fn)


class TestTransactions:
    def test_commit_applies_changes(self):
        _d, _r, pool = make_pool()

        def fn(ctx):
            off = pool.malloc(ctx, 64)
            pool.write(ctx, off, b"AAAA")
            pool.persist(ctx, off, 4)
            with Transaction(pool, ctx) as tx:
                tx.write(off, b"BBBB")
            return bytes(pool.read(ctx, off, 4))

        assert one_rank(fn) == b"BBBB"

    def test_abort_rolls_back(self):
        _d, _r, pool = make_pool()

        def fn(ctx):
            off = pool.malloc(ctx, 64)
            pool.write(ctx, off, b"AAAA")
            pool.persist(ctx, off, 4)
            with Transaction(pool, ctx) as tx:
                tx.write(off, b"BBBB")
                raise TransactionAborted()
            # TransactionAborted is swallowed by __exit__; execution resumes
            return bytes(pool.read(ctx, off, 4))

        assert one_rank(fn) == b"AAAA"

    def test_abort_restores_data(self):
        _d, _r, pool = make_pool()

        def fn(ctx):
            off = pool.malloc(ctx, 64)
            pool.write(ctx, off, b"AAAA")
            pool.persist(ctx, off, 4)
            with Transaction(pool, ctx) as tx:
                tx.write(off, b"BBBB")
                tx.abort2 = True
                raise TransactionAborted()

        one_rank(fn)

        def check(ctx):
            off = pool.heap_off + 16  # first allocation's user offset
            return bytes(pool.read(ctx, off, 4))

        assert one_rank(check) == b"AAAA"

    def test_real_exception_propagates_and_aborts(self):
        _d, _r, pool = make_pool()
        state = {}

        def fn(ctx):
            off = pool.malloc(ctx, 64)
            state["off"] = off
            pool.write(ctx, off, b"AAAA")
            pool.persist(ctx, off, 4)
            try:
                with Transaction(pool, ctx) as tx:
                    tx.write(off, b"BBBB")
                    raise ValueError("boom")
            except ValueError:
                pass
            return bytes(pool.read(ctx, off, 4))

        assert one_rank(fn) == b"AAAA"

    def test_multiple_ranges_rollback_in_reverse(self):
        _d, _r, pool = make_pool()

        def fn(ctx):
            a = pool.malloc(ctx, 64)
            b = pool.malloc(ctx, 64)
            pool.write(ctx, a, b"1111")
            pool.write(ctx, b, b"2222")
            pool.persist(ctx, a, 4)
            pool.persist(ctx, b, 4)
            with Transaction(pool, ctx) as tx:
                tx.write(a, b"3333")
                tx.write(a, b"4444", snapshot=False)
                tx.write(b, b"5555")
                raise TransactionAborted()
            return None

        one_rank(fn)

        def check(ctx):
            vals = []
            # first two user allocations
            heap = pool.heap
            offs = sorted(heap._used)
            for block in offs:
                vals.append(bytes(pool.read(ctx, block + 16, 4)))
            return vals

        assert one_rank(check) == [b"1111", b"2222"]

    def test_log_overflow_raises(self):
        _d, _r, pool = make_pool(lane_log_size=1024)

        def fn(ctx):
            off = pool.malloc(ctx, 4096)
            with pytest.raises(PmdkError, match="overflow"):
                with Transaction(pool, ctx) as tx:
                    tx.add_range(off, 2048)
                    raise AssertionError("should not get here")

        one_rank(fn)

    def test_tx_alloc_rolls_back_on_abort(self):
        _d, _r, pool = make_pool()

        def fn(ctx):
            before_free = pool.heap.free_bytes()
            with Transaction(pool, ctx) as tx:
                pool.malloc(ctx, 1000, tx=tx)
                raise TransactionAborted()
            return before_free

        before = one_rank(fn)
        assert pool.heap.free_bytes() == before
        pool.heap.check_invariants()

    def test_concurrent_transactions_use_distinct_lanes(self):
        _d, _r, pool = make_pool(nlanes=8)

        def fn(ctx):
            off = pool.malloc(ctx, 64) if False else None
            ctx.barrier()
            with Transaction(pool, ctx) as tx:
                my = pool.malloc(ctx, 128, tx=tx)
                pool.write(ctx, my, bytes([ctx.rank]) * 8)
                pool.persist(ctx, my, 8)
                lane = tx.lane
            ctx.barrier()
            return lane

        res = run_spmd(4, fn)
        # lanes may be reused after release, but during overlap they were
        # exclusive; at minimum the pool survived and invariants hold
        pool.heap.check_invariants()
        assert all(l is not None for l in res.returns)


class TestCrashRecovery:
    def test_crash_before_commit_rolls_back_on_open(self):
        device, region, pool = make_pool(crash_sim=True)

        def prepare(ctx):
            off = pool.malloc(ctx, 64)
            pool.write(ctx, off, b"OLD!")
            pool.persist(ctx, off, 4)
            pool.set_root(ctx, off)
            return off

        off = one_rank(prepare)

        def mutate(ctx):
            # modify inside a tx but never commit (simulate by hand calls)
            tx = Transaction(pool, ctx)
            tx.__enter__()
            tx.add_range(off, 4)
            pool.write(ctx, off, b"NEW!")
            pool.persist(ctx, off, 4)
            # crash before commit: just stop here

        one_rank(mutate)
        device.crash()

        def reopen(ctx):
            p2 = PmemPool.open(ctx, region, size=pool.size)
            return bytes(p2.read(ctx, p2.root(), 4))

        assert one_rank(reopen) == b"OLD!"

    def test_crash_after_commit_keeps_changes(self):
        device, region, pool = make_pool(crash_sim=True)

        def mutate(ctx):
            off = pool.malloc(ctx, 64)
            pool.write(ctx, off, b"OLD!")
            pool.persist(ctx, off, 4)
            pool.set_root(ctx, off)
            with Transaction(pool, ctx) as tx:
                tx.write(off, b"NEW!")
            return off

        one_rank(mutate)
        device.crash()

        def reopen(ctx):
            p2 = PmemPool.open(ctx, region, size=pool.size)
            return bytes(p2.read(ctx, p2.root(), 4))

        assert one_rank(reopen) == b"NEW!"

    @given(crash_at=st.integers(min_value=0, max_value=60))
    @settings(max_examples=40, deadline=None)
    def test_tx_atomic_at_any_crash_point(self, crash_at):
        """Power-fail after N device stores, mid-transaction: on re-open the
        value is either fully OLD or fully NEW — never torn."""
        device, region, pool = make_pool(crash_sim=True)

        def prepare(ctx):
            off = pool.malloc(ctx, 64)
            pool.write(ctx, off, b"OLDDATA!")
            pool.persist(ctx, off, 8)
            pool.set_root(ctx, off)
            return off

        off = one_rank(prepare)
        device.inject_crash_after(crash_at)

        def mutate(ctx):
            try:
                with Transaction(pool, ctx) as tx:
                    tx.write(off, b"NEWDATA!")
            except CrashInjected:
                pass

        one_rank(mutate)
        device.inject_crash_after(None)
        device.crash()

        def reopen(ctx):
            p2 = PmemPool.open(ctx, region, size=pool.size)
            return bytes(p2.read(ctx, p2.root(), 8))

        assert one_rank(reopen) in (b"OLDDATA!", b"NEWDATA!")


class TestPmemMutex:
    def test_guard_sets_and_clears_owner(self):
        _d, _r, pool = make_pool()

        def fn(ctx):
            m = PmemMutex.alloc(ctx, pool)
            with m.guard(ctx):
                assert m.holder(ctx) == ctx.rank
            return m.holder(ctx)

        assert one_rank(fn) is None

    def test_wrong_owner_release_raises(self):
        _d, _r, pool = make_pool()

        def fn(ctx):
            m = PmemMutex.alloc(ctx, pool)
            with pytest.raises(PmdkError):
                m.release(ctx)

        one_rank(fn)

    def test_open_recovers_dead_owner(self):
        device, region, pool = make_pool(crash_sim=True)

        def fn(ctx):
            m = PmemMutex.alloc(ctx, pool)
            m.acquire(ctx)
            pool.persist(ctx, m.off, 8)
            return m.off

        off = one_rank(fn)
        device.crash()

        def reopen(ctx):
            p2 = PmemPool.open(ctx, region, size=pool.size)
            m = PmemMutex.open(ctx, p2, off)
            return m.holder(ctx)

        assert one_rank(reopen) is None

    def test_mutual_exclusion_functional(self):
        _d, _r, pool = make_pool()
        counter = {"v": 0}

        def fn(ctx):
            if ctx.rank == 0:
                mtx = PmemMutex.alloc(ctx, pool)
                ctx.board.put("mtx", mtx)
            ctx.barrier()
            mtx = ctx.board.get("mtx")
            for _ in range(50):
                with mtx.guard(ctx):
                    v = counter["v"]
                    counter["v"] = v + 1
            ctx.barrier()

        run_spmd(4, fn)
        assert counter["v"] == 200


class TestCrashCampaignCoverage:
    """Systematic crash-state sweeps via repro.crash — the successor to the
    random inject_crash_after probes above (which stay as the fast path)."""

    def test_tx_workload_survives_enumerated_crash_states(self):
        from repro.cluster import Cluster
        from repro.crash import TxWorkload, run_campaign

        report = run_campaign(
            TxWorkload(),
            cluster=Cluster(crash_sim=True, pmem_capacity=8 * MiB),
            budget=40, seed=11,
        )
        assert report.ok, report.render()
        # the sweep must cover reordered-retirement states, not just the
        # epoch boundaries the legacy random probes could reach
        assert report.states_by_tier.get(1), "no post-completion states"
        assert any(
            report.states_by_tier.get(t) for t in (3, 4, 5)
        ), "no reordered/torn retirement states"

    def test_lock_recovery_mid_acquire_release(self):
        from repro.cluster import Cluster
        from repro.crash import LockWorkload, run_campaign

        report = run_campaign(
            LockWorkload(),
            cluster=Cluster(crash_sim=True, pmem_capacity=8 * MiB),
            budget=30, seed=5,
        )
        assert report.ok, report.render()


class TestLaneAllocator:
    """Per-rank allocation lanes: SPMD formats pre-partition the heap so
    concurrent mallocs get deterministic addresses, whatever order the
    ranks arrive in (DESIGN.md §11)."""

    NPROCS = 4

    def spmd_offsets(self, order=None):
        """Each rank's offsets from six mallocs.  ``order`` lists the
        ranks in the order they enter malloc, each waiting on the board
        for the one before it to finish; None leaves the order to the
        schedule."""
        size = 2 * MiB
        device = PMEMDevice(size)
        region = RawRegion(device, 0, size)
        holder = {}

        def fn(ctx):
            if ctx.rank == 0:
                holder["pool"] = PmemPool.create(
                    ctx, region, size=size, nlanes=4
                )
            ctx.barrier()
            pool = holder["pool"]
            turn = None if order is None else order.index(ctx.rank)
            if turn:
                ctx.board.wait_get(("turn", turn))
            offs = [pool.malloc(ctx, 64 + 64 * i) for i in range(6)]
            if turn is not None:
                ctx.board.put(("turn", turn + 1), True)
            ctx.barrier()
            return offs

        res = run_spmd(self.NPROCS, fn)
        return holder["pool"], res.returns

    def test_addresses_deterministic_across_runs(self):
        _, a = self.spmd_offsets()
        _, b = self.spmd_offsets()
        assert a == b
        # ranks arriving in rank order or in reverse get the same offsets
        forward = list(range(self.NPROCS))
        _, fwd = self.spmd_offsets(order=forward)
        _, rev = self.spmd_offsets(order=forward[::-1])
        assert fwd == rev == a

    def test_each_rank_allocates_inside_its_lane(self):
        pool, offsets = self.spmd_offsets()
        spans = pool.heap._lane_spans(self.NPROCS)
        for rank, offs in enumerate(offsets):
            lo, hi = spans[rank]
            for off in offs:
                assert lo <= off < hi, (rank, off, spans)

    def test_ranks_get_disjoint_blocks(self):
        _, offsets = self.spmd_offsets()
        flat = [off for offs in offsets for off in offs]
        assert len(set(flat)) == len(flat)

    def test_spmd_formatted_pool_passes_check(self):
        from repro.pmdk.check import check_pool

        size = 2 * MiB
        device = PMEMDevice(size)
        region = RawRegion(device, 0, size)
        holder = {}

        def fn(ctx):
            if ctx.rank == 0:
                holder["pool"] = PmemPool.create(
                    ctx, region, size=size, nlanes=4
                )
            ctx.barrier()
            holder["pool"].malloc(ctx, 256)
            ctx.barrier()
            if ctx.rank == 0:
                return check_pool(ctx, holder["pool"])

        rep = run_spmd(self.NPROCS, fn).returns[0]
        assert rep.ok, rep.problems

    def test_lane_exhaustion_falls_back_to_whole_heap(self):
        size = 2 * MiB
        device = PMEMDevice(size)
        region = RawRegion(device, 0, size)
        holder = {}

        def fn(ctx):
            if ctx.rank == 0:
                holder["pool"] = PmemPool.create(
                    ctx, region, size=size, nlanes=4
                )
            ctx.barrier()
            pool = holder["pool"]
            if ctx.rank == 1:
                # allocate well past one lane's capacity (~heap/4): the
                # overflow must spill into other lanes' free space via
                # the whole-heap fallback rather than fail
                return [pool.malloc(ctx, 128 * 1024) for _ in range(8)]

        res = run_spmd(self.NPROCS, fn)
        offs = res.returns[1]
        pool = holder["pool"]
        lo, hi = pool.heap._lane_spans(self.NPROCS)[1]
        assert len(offs) == 8
        assert any(not (lo <= off < hi) for off in offs), offs

    def test_single_rank_keeps_classic_layout(self):
        _d, _r, pool = make_pool()
        spans = pool.heap._lane_spans(1)
        assert len(spans) == 1
