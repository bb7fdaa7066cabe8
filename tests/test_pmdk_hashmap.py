"""Tests for the persistent hashtable with chaining."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.mem import PMEMDevice
from repro.mem.device import CrashInjected
from repro.pmdk import PmemHashmap, PmemPool, RawRegion
from repro.pmdk.hashmap import fnv1a64
from repro.sim import run_spmd
from repro.units import MiB


def one_rank(fn, **kw):
    return run_spmd(1, fn, **kw).returns[0]


def make_map(size=4 * MiB, crash_sim=False, nbuckets=8):
    device = PMEMDevice(size, crash_sim=crash_sim)
    region = RawRegion(device, 0, size)
    holder = {}

    def fn(ctx):
        pool = PmemPool.create(ctx, region, size=size, nlanes=4,
                               lane_log_size=64 * 1024)
        m = PmemHashmap.create(ctx, pool, nbuckets=nbuckets)
        pool.set_root(ctx, m.hdr_off)
        holder["pool"] = pool
        return m

    m = one_rank(fn)
    return device, region, holder["pool"], m


class TestFnv:
    def test_stable_known_value(self):
        # FNV-1a 64 of empty string is the offset basis
        assert fnv1a64(b"") == 0xCBF29CE484222325

    def test_distinct_keys_differ(self):
        assert fnv1a64(b"a") != fnv1a64(b"b")


class TestBasics:
    def test_put_get(self):
        _d, _r, _p, m = make_map()

        def fn(ctx):
            m.put(ctx, b"key", b"value")
            return m.get(ctx, b"key")

        assert one_rank(fn) == b"value"

    def test_get_missing_returns_none(self):
        _d, _r, _p, m = make_map()
        assert one_rank(lambda ctx: m.get(ctx, b"nope")) is None

    def test_replace_value(self):
        _d, _r, _p, m = make_map()

        def fn(ctx):
            m.put(ctx, b"k", b"v1")
            m.put(ctx, b"k", b"v2-longer-than-before")
            return m.get(ctx, b"k"), m.count(ctx)

        val, count = one_rank(fn)
        assert val == b"v2-longer-than-before"
        assert count == 1

    def test_empty_value_allowed(self):
        _d, _r, _p, m = make_map()

        def fn(ctx):
            m.put(ctx, b"k", b"")
            return m.get(ctx, b"k")

        assert one_rank(fn) == b""

    def test_empty_key_rejected(self):
        from repro.errors import PmdkError
        _d, _r, _p, m = make_map()

        def fn(ctx):
            with pytest.raises(PmdkError):
                m.put(ctx, b"", b"v")

        one_rank(fn)

    def test_delete(self):
        _d, _r, _p, m = make_map()

        def fn(ctx):
            m.put(ctx, b"a", b"1")
            m.put(ctx, b"b", b"2")
            assert m.delete(ctx, b"a")
            assert not m.delete(ctx, b"a")
            return m.get(ctx, b"a"), m.get(ctx, b"b"), m.count(ctx)

        a, b, count = one_rank(fn)
        assert a is None
        assert b == b"2"
        assert count == 1

    def test_chaining_collisions(self):
        # tiny bucket count forces chains
        _d, _r, _p, m = make_map(nbuckets=1)

        def fn(ctx):
            for i in range(10):
                m.put(ctx, f"key{i}".encode(), f"val{i}".encode())
            return [m.get(ctx, f"key{i}".encode()) for i in range(10)]

        assert one_rank(fn) == [f"val{i}".encode() for i in range(10)]

    def test_delete_middle_of_chain(self):
        _d, _r, _p, m = make_map(nbuckets=1)

        def fn(ctx):
            for k in (b"x", b"y", b"z"):
                m.put(ctx, k, k.upper())
            m.delete(ctx, b"y")
            return m.items(ctx)

        assert one_rank(fn) == [(b"x", b"X"), (b"z", b"Z")]

    def test_get_ref_zero_copy(self):
        _d, _r, pool, m = make_map()

        def fn(ctx):
            m.put(ctx, b"k", b"hello")
            off, length = m.get_ref(ctx, b"k")
            return bytes(pool.view(off, length))

        assert one_rank(fn) == b"hello"

    def test_items_sorted(self):
        _d, _r, _p, m = make_map()

        def fn(ctx):
            for k in (b"c", b"a", b"b"):
                m.put(ctx, k, k)
            return m.items(ctx)

        assert one_rank(fn) == [(b"a", b"a"), (b"b", b"b"), (b"c", b"c")]

    def test_len_is_disallowed(self):
        _d, _r, _p, m = make_map()
        with pytest.raises(TypeError):
            len(m)


class TestResize:
    def test_resize_preserves_contents(self):
        _d, _r, _p, m = make_map(nbuckets=2)

        def fn(ctx):
            items = {f"key-{i}".encode(): f"value-{i}".encode() for i in range(50)}
            for k, v in items.items():
                m.put(ctx, k, v)
            assert m.nbuckets(ctx) > 2  # must have grown
            assert m.count(ctx) == 50
            return all(m.get(ctx, k) == v for k, v in items.items())

        assert one_rank(fn)

    def test_reopen_after_resize(self):
        device, region, pool, m = make_map(nbuckets=2)

        def fill(ctx):
            for i in range(40):
                m.put(ctx, f"k{i}".encode(), f"v{i}".encode())

        one_rank(fill)

        def reopen(ctx):
            p2 = PmemPool.open(ctx, region, size=pool.size)
            m2 = PmemHashmap.open(p2, p2.root())
            return [m2.get(ctx, f"k{i}".encode()) for i in range(40)]

        assert one_rank(reopen) == [f"v{i}".encode() for i in range(40)]


class TestPersistence:
    def test_survives_crash_after_puts(self):
        device, region, pool, m = make_map(crash_sim=True)

        def fill(ctx):
            m.put(ctx, b"alpha", b"1")
            m.put(ctx, b"beta", b"2")

        one_rank(fill)
        device.crash()

        def reopen(ctx):
            p2 = PmemPool.open(ctx, region, size=pool.size)
            m2 = PmemHashmap.open(p2, p2.root())
            return m2.items(ctx)

        assert one_rank(reopen) == [(b"alpha", b"1"), (b"beta", b"2")]

    @given(crash_at=st.integers(min_value=0, max_value=120))
    @settings(max_examples=30, deadline=None)
    def test_puts_atomic_under_crash(self, crash_at):
        """Crash at an arbitrary store during a sequence of puts: recovery
        must yield the map after some *prefix* of the puts (each put is
        atomic), with the possible benign variation of a replaced value."""
        device, region, pool, m = make_map(crash_sim=True)
        puts = [(f"key{i}".encode(), f"val{i}".encode()) for i in range(6)]

        def prepare(ctx):
            pass

        device.inject_crash_after(crash_at)

        def mutate(ctx):
            try:
                for k, v in puts:
                    m.put(ctx, k, v)
            except CrashInjected:
                pass

        one_rank(mutate)
        device.inject_crash_after(None)
        device.crash()

        def reopen(ctx):
            p2 = PmemPool.open(ctx, region, size=pool.size)
            p2.heap.check_invariants()
            m2 = PmemHashmap.open(p2, p2.root())
            return m2.items(ctx)

        result = one_rank(reopen)
        prefixes = [sorted(puts[:j]) for j in range(len(puts) + 1)]
        assert result in prefixes


class TestConcurrency:
    def test_parallel_puts_from_ranks(self):
        _d, _r, _p, m = make_map(size=8 * MiB)

        def fn(ctx):
            for i in range(10):
                m.put(ctx, f"r{ctx.rank}-k{i}".encode(), bytes([ctx.rank, i]))
            ctx.barrier()
            # every rank sees every entry
            return m.count(ctx)

        res = run_spmd(4, fn)
        assert res.returns == [40] * 4


class TestModelBased:
    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(["put", "delete", "get"]),
                st.integers(0, 7),          # key index
                st.binary(min_size=0, max_size=20),
            ),
            min_size=1,
            max_size=60,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_behaves_like_dict(self, ops):
        _d, _r, _p, m = make_map(nbuckets=2)
        keys = [f"key-{i}".encode() for i in range(8)]

        def fn(ctx):
            model: dict[bytes, bytes] = {}
            for op, ki, val in ops:
                k = keys[ki]
                if op == "put":
                    m.put(ctx, k, val)
                    model[k] = val
                elif op == "delete":
                    assert m.delete(ctx, k) == (k in model)
                    model.pop(k, None)
                else:
                    assert m.get(ctx, k) == model.get(k)
            assert m.items(ctx) == sorted(model.items())
            assert m.count(ctx) == len(model)

        one_rank(fn)


class TestStableValueBlobs:
    """In-place value replacement + the ``reserve`` hint: overwrites that
    fit the existing blob keep its address (arrival-order-independent metadata
    layout — DESIGN.md §11)."""

    def test_equal_size_overwrite_is_in_place(self):
        _d, _r, _p, m = make_map()

        def fn(ctx):
            m.put(ctx, b"k", b"A" * 64)
            before = m.get_ref(ctx, b"k")
            m.put(ctx, b"k", b"B" * 64)
            after = m.get_ref(ctx, b"k")
            assert after == before
            assert m.get(ctx, b"k") == b"B" * 64

        one_rank(fn)

    def test_shrinking_overwrite_keeps_address(self):
        _d, _r, _p, m = make_map()

        def fn(ctx):
            m.put(ctx, b"k", b"A" * 128)
            off0 = m.get_ref(ctx, b"k")[0]
            m.put(ctx, b"k", b"B" * 16)
            off1, vlen = m.get_ref(ctx, b"k")
            assert off1 == off0
            assert vlen == 16
            assert m.get(ctx, b"k") == b"B" * 16

        one_rank(fn)

    def test_reserve_allows_in_place_growth(self):
        _d, _r, _p, m = make_map()

        def fn(ctx):
            m.put(ctx, b"k", b"A" * 16, reserve=512)
            off0 = m.get_ref(ctx, b"k")[0]
            m.put(ctx, b"k", b"B" * 500)  # fits the reserved blob
            off1, vlen = m.get_ref(ctx, b"k")
            assert off1 == off0
            assert vlen == 500
            assert m.get(ctx, b"k") == b"B" * 500

        one_rank(fn)

    def test_growth_beyond_usable_size_moves(self):
        _d, _r, pool, m = make_map()

        def fn(ctx):
            m.put(ctx, b"k", b"A" * 16)
            off0 = m.get_ref(ctx, b"k")[0]
            big = b"B" * (pool.usable_size(off0) + 1)
            m.put(ctx, b"k", big)
            assert m.get(ctx, b"k") == big

        one_rank(fn)
