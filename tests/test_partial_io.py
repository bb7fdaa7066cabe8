"""Partial I/O through PMEM: chunked variable layouts, selection loads and
stores, the zero-staging ranged-read path, the decoded-chunk cache, and
metadata format back-compat (v1 blobs unpack forever)."""

import struct

import numpy as np
import pytest

from repro.cluster import Cluster
from repro.errors import DimensionMismatchError
from repro.mpi import Communicator
from repro.pmemcpy import PMEM, Hyperslab, PointSelection
from repro.pmemcpy.dataset import (
    MAGIC,
    MAGIC_V2,
    Chunk,
    VariableMeta,
    split_at_chunk_grid,
)
from repro.units import MiB

LAYOUTS = ("hashtable", "hierarchical")
SERIALIZERS = ("raw", "bp4")

GDIMS = (40, 40, 40)
CHUNK = (10, 10, 10)
ONE_PCT = Hyperslab((18, 18, 18), (9, 9, 9))  # 729/64000 elems ~ 1.1%


def run1(fn, *, nprocs=1):
    return Cluster(pmem_capacity=128 * MiB).run(nprocs, fn)


def make_pmem(ctx, layout, serializer="bp4", filters=()):
    pmem = PMEM(serializer=serializer, layout=layout, filters=filters)
    pmem.mmap("/pmem/partial", Communicator.world(ctx))
    return pmem


def counters(st) -> dict[str, float]:
    """The counter values of a ``PMEM.stats()`` metrics view."""
    return {k: m["value"] for k, m in st["metrics"].items()
            if m["kind"] == "counter"}


def domain_data():
    from repro.workloads import Domain3D

    w = Domain3D(nvars=1, axis_scale=20)  # functional dims = (40, 40, 40)
    assert w.functional_dims == GDIMS
    return w.generate(0, (0, 0, 0), GDIMS)


# ---------------------------------------------------------------------------
# chunked store/load
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("serializer", SERIALIZERS)
@pytest.mark.parametrize("layout", LAYOUTS)
def test_chunked_roundtrip_matrix(layout, serializer):
    data = np.arange(24 * 20, dtype=np.float64).reshape(24, 20)

    def job(ctx):
        pmem = make_pmem(ctx, layout, serializer)
        pmem.alloc("grid", data.shape, np.float64, chunk_shape=(8, 8))
        pmem.store("grid", data, (0, 0))
        assert np.array_equal(pmem.load("grid"), data)
        # partial block load crosses chunk boundaries
        assert np.array_equal(
            pmem.load("grid", (5, 5), (12, 10)), data[5:17, 5:15]
        )
        st = pmem.stats()
        pmem.munmap()
        return st

    st = run1(job).returns[0]
    v = st["variables"]["grid"]
    assert v["chunk_shape"] == (8, 8)
    assert v["nchunks"] == len(split_at_chunk_grid((8, 8), (0, 0), (24, 20)))
    assert v["logical_bytes"] == data.nbytes


@pytest.mark.parametrize("layout", LAYOUTS)
def test_chunked_multirank_store(layout):
    data = np.arange(16 * 16, dtype=np.float64).reshape(16, 16)

    def job(ctx):
        comm = Communicator.world(ctx)
        pmem = make_pmem(ctx, layout)
        pmem.alloc("f", data.shape, np.float64, chunk_shape=(8, 8))
        rows = data.shape[0] // comm.size
        r0 = comm.rank * rows
        pmem.store("f", data[r0:r0 + rows], (r0, 0))
        comm.barrier()
        got = pmem.load("f")
        pmem.munmap()
        return got

    for got in run1(job, nprocs=4).returns:
        assert np.array_equal(got, data)


def test_chunk_shape_conflict_and_validation():
    def job(ctx):
        pmem = make_pmem(ctx, "hashtable")
        pmem.alloc("a", (8, 8), chunk_shape=(4, 4))
        pmem.alloc("a", (8, 8), chunk_shape=(4, 4))  # idempotent
        with pytest.raises(DimensionMismatchError):
            pmem.alloc("a", (8, 8), chunk_shape=(2, 2))  # conflicting grid
        with pytest.raises(DimensionMismatchError):
            pmem.alloc("b", (8, 8), chunk_shape=(4,))  # rank mismatch
        with pytest.raises(DimensionMismatchError):
            pmem.alloc("c", (8, 8), chunk_shape=(0, 4))  # non-positive
        pmem.munmap()

    run1(job)


# ---------------------------------------------------------------------------
# the acceptance criterion: a ~1% read touches < 5% of stored bytes
# ---------------------------------------------------------------------------

def test_one_percent_read_is_under_five_percent_of_stored_bytes():
    data = domain_data()

    def job(ctx):
        pmem = make_pmem(ctx, "hashtable", serializer="raw")
        pmem.alloc("rect00", GDIMS, data.dtype, chunk_shape=CHUNK)
        pmem.store("rect00", data, (0, 0, 0))
        got = pmem.load("rect00", selection=ONE_PCT)
        st = pmem.stats()
        pmem.munmap()
        return got, st

    got, st = run1(job).returns[0]
    assert np.array_equal(got, data[18:27, 18:27, 18:27])
    tel = counters(st)
    stored = tel["pmemcpy_stored_write_bytes"]
    read = tel["pmemcpy_stored_read_bytes"]
    assert read < 0.05 * stored, (read, stored)
    # and the result accounting stays logical
    assert tel["pmemcpy_logical_load_bytes"] == ONE_PCT.nelems * data.itemsize


def test_staged_serializer_reads_only_intersecting_chunks():
    data = domain_data()

    def job(ctx):
        pmem = make_pmem(ctx, "hashtable", serializer="bp4")
        pmem.alloc("rect00", GDIMS, data.dtype, chunk_shape=CHUNK)
        pmem.store("rect00", data, (0, 0, 0))
        got = pmem.load("rect00", selection=ONE_PCT)
        st = pmem.stats()
        pmem.munmap()
        return got, st

    got, st = run1(job).returns[0]
    assert np.array_equal(got, data[18:27, 18:27, 18:27])
    tel = counters(st)
    # bp4 has no ranged unpack: it stages whole chunks — but only the 8
    # (of 64) grid cells the selection intersects
    assert tel["pmemcpy_stored_read_bytes"] < 0.15 * tel["pmemcpy_stored_write_bytes"]


# ---------------------------------------------------------------------------
# selections: strided loads/stores, points, out=, require_full, 0-d
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("serializer", SERIALIZERS)
@pytest.mark.parametrize("layout", LAYOUTS)
def test_selection_load_matrix(layout, serializer):
    data = np.arange(20 * 18, dtype=np.float64).reshape(20, 18)
    hs = Hyperslab((1, 0), (5, 4), stride=(4, 5), block=(2, 2))
    pts = PointSelection([(0, 0), (19, 17), (7, 11), (7, 12)])

    def job(ctx):
        pmem = make_pmem(ctx, layout, serializer)
        pmem.alloc("v", data.shape, np.float64, chunk_shape=(7, 9))
        pmem.store("v", data, (0, 0))
        a = pmem.load("v", selection=hs)
        b = pmem.load("v", selection=pts)
        pmem.munmap()
        return a, b

    a, b = run1(job).returns[0]
    want = np.empty(hs.out_shape)
    hs.scatter_into(want, data, (0, 0))
    assert np.array_equal(a, want)
    assert np.array_equal(b, [data[tuple(p)] for p in pts.points])


@pytest.mark.parametrize("serializer", SERIALIZERS)
def test_strided_out_buffer(serializer):
    data = np.arange(12 * 12, dtype=np.float64).reshape(12, 12)
    hs = Hyperslab((0, 0), (4, 4), stride=(3, 3))

    def job(ctx):
        pmem = make_pmem(ctx, "hashtable", serializer)
        pmem.alloc("v", data.shape, np.float64, chunk_shape=(6, 6))
        pmem.store("v", data, (0, 0))
        backing = np.full((8, 8), -1.0)
        view = backing[::2, ::2]  # non-contiguous destination
        got = pmem.load("v", out=view, selection=hs)
        pmem.munmap()
        return got is view, backing

    aliased, backing = run1(job).returns[0]
    assert aliased
    want = np.empty(hs.out_shape)
    hs.scatter_into(want, data, (0, 0))
    assert np.array_equal(backing[::2, ::2], want)
    assert (backing[1::2, :] == -1.0).all()  # gaps untouched


def test_selection_store_roundtrip():
    base = np.zeros((16, 16))
    hs = Hyperslab((1, 2), (5, 4), stride=(3, 3), block=(1, 2))
    patch = np.arange(np.prod(hs.out_shape), dtype=np.float64).reshape(hs.out_shape)

    def job(ctx):
        pmem = make_pmem(ctx, "hashtable")
        pmem.alloc("v", base.shape, np.float64, chunk_shape=(8, 8))
        pmem.store("v", base, (0, 0))
        pmem.store("v", patch, selection=hs)
        got = pmem.load("v")
        pmem.munmap()
        return got

    got = run1(job).returns[0]
    want = base.copy()
    hs.gather_from(patch, want, (0, 0))
    assert np.array_equal(got, want)


@pytest.mark.parametrize("layout", LAYOUTS)
def test_require_full_partial_coverage(layout):
    sub = np.arange(4 * 4, dtype=np.float64).reshape(4, 4)

    def job(ctx):
        pmem = make_pmem(ctx, layout)
        pmem.alloc("sparse", (12, 12), np.float64, chunk_shape=(4, 4))
        pmem.store("sparse", sub, (4, 4))  # only the center cell stored
        with pytest.raises(DimensionMismatchError):
            pmem.load("sparse")  # require_full=True is the default
        got = pmem.load("sparse", require_full=False)
        part = pmem.load("sparse", (4, 4), (4, 4))  # fully covered: fine
        pmem.munmap()
        return got, part

    got, part = run1(job).returns[0]
    want = np.zeros((12, 12))
    want[4:8, 4:8] = sub
    assert np.array_equal(got, want)
    assert np.array_equal(part, sub)


def test_scalar_0d():
    def job(ctx):
        pmem = make_pmem(ctx, "hashtable")
        pmem.store("pi", 3.25)
        a = pmem.load("pi")
        b = pmem.load("pi", selection=Hyperslab((), ()))
        pmem.munmap()
        return a, b

    a, b = run1(job).returns[0]
    assert a == 3.25 and b == 3.25
    assert np.isscalar(a) and np.isscalar(b)


# ---------------------------------------------------------------------------
# decoded-chunk cache
# ---------------------------------------------------------------------------

def test_chunk_cache_pays_decode_once():
    data = np.arange(16 * 16, dtype=np.float64).reshape(16, 16)
    sel = Hyperslab((2, 2), (3, 3))  # inside one (8, 8) grid cell

    def job(ctx):
        pmem = make_pmem(ctx, "hashtable", "bp4", filters=("deflate",))
        pmem.alloc("z", data.shape, np.float64, chunk_shape=(8, 8))
        pmem.store("z", data, (0, 0))
        for _ in range(5):
            got = pmem.load("z", selection=sel)
            assert np.array_equal(got, data[2:5, 2:5])
        st = pmem.stats()
        pmem.munmap()
        return st

    tel = counters(run1(job).returns[0])
    assert tel["pmemcpy_chunk_cache_misses"] == 1
    assert tel["pmemcpy_chunk_cache_hits"] == 4
    # the stored blob was read (and inflated) exactly once
    assert tel["pmemcpy_stored_read_bytes"] < 2 * tel["pmemcpy_stored_write_bytes"]


def test_chunk_cache_lru_bound_across_variables():
    """Eviction is LRU in decoded bytes over ALL variables — one greedy
    variable's chunks push out another's, and the byte bound holds at
    every step."""
    from repro.pmemcpy.cache import ChunkCache

    chunk = np.ones(64, dtype=np.float64)  # 512 decoded bytes
    cache = ChunkCache(capacity_bytes=2 * chunk.nbytes)

    cache.put(("a", 0, 100), chunk)
    cache.put(("b", 0, 100), chunk * 2)
    assert len(cache) == 2 and cache.nbytes == 2 * chunk.nbytes
    # touch a: b becomes LRU, so c's arrival evicts b, not a
    assert cache.get(("a", 0, 100)) is not None
    cache.put(("c", 0, 100), chunk * 3)
    assert cache.nbytes <= cache.capacity_bytes
    assert cache.get(("b", 0, 100)) is None
    assert cache.get(("a", 0, 100)) is not None
    assert cache.get(("c", 0, 100)) is not None
    # invalidating one variable never touches the others
    assert cache.invalidate("a") == 1
    assert cache.nbytes == chunk.nbytes
    assert cache.get(("c", 0, 100)) is not None


def test_chunk_cache_eviction_interleaved_partial_reads():
    """Interleaved partial reads of three filtered variables through a
    two-chunk cache: hit/miss counters follow LRU order exactly, and the
    decoded-byte bound holds across variables."""
    data = np.arange(64, dtype=np.float64).reshape(8, 8)
    sel = Hyperslab((1, 1), (3, 3))
    cap = 2 * data.nbytes  # room for exactly two decoded (8, 8) chunks

    def job(ctx):
        pmem = PMEM(serializer="bp4", layout="hashtable",
                    filters=("deflate",), chunk_cache_bytes=cap)
        pmem.mmap("/pmem/partial_evict", Communicator.world(ctx))
        for name, k in (("a", 1), ("b", 2), ("c", 3)):
            pmem.alloc(name, data.shape, np.float64, chunk_shape=(8, 8))
            pmem.store(name, data * k, (0, 0))
        for name, k in (("a", 1), ("b", 2)):       # 2 misses
            assert np.array_equal(pmem.load(name, selection=sel),
                                  data[1:4, 1:4] * k)
        for name, k in (("a", 1), ("b", 2)):       # 2 hits
            assert np.array_equal(pmem.load(name, selection=sel),
                                  data[1:4, 1:4] * k)
        pmem.load("c", selection=sel)              # miss; evicts LRU = a
        pmem.load("b", selection=sel)              # hit (still resident)
        pmem.load("a", selection=sel)              # miss again: was evicted
        assert pmem._chunk_cache.nbytes <= cap
        assert len(pmem._chunk_cache) == 2
        st = pmem.stats()
        pmem.munmap()
        return st

    tel = counters(run1(job).returns[0])
    assert tel["pmemcpy_chunk_cache_misses"] == 4
    assert tel["pmemcpy_chunk_cache_hits"] == 3


def test_chunk_cache_invalidated_on_overwrite():
    data = np.ones((8, 8))

    def job(ctx):
        pmem = make_pmem(ctx, "hashtable", "bp4", filters=("deflate",))
        pmem.alloc("z", data.shape, np.float64, chunk_shape=(8, 8))
        pmem.store("z", data, (0, 0))
        assert pmem.load("z", (0, 0), (2, 2)).sum() == 4
        pmem.store("z", data * 3, (0, 0))  # republish drops cached chunk
        got = pmem.load("z", (0, 0), (2, 2))
        pmem.munmap()
        return got

    assert run1(job).returns[0].sum() == 12


# ---------------------------------------------------------------------------
# metadata back-compat
# ---------------------------------------------------------------------------

def _golden_v1_blob() -> bytes:
    """A v1 metadata record built by hand from the documented wire format
    (dataset.py docstring) — what a pre-chunking build wrote to pmem."""
    dt, ser, flt = b'"<f8"', b"bp4", b"shuffle,rle"
    hdr = struct.pack("<IHHHHHI", MAGIC, 2, 1, len(dt), len(ser), len(flt), 1)
    gdims = struct.pack("<2Q", 6, 40)
    chunk = struct.pack("<2Q", 0, 0) + struct.pack("<2Q", 6, 40) + \
        struct.pack("<QQ", 4096, 1920)
    return hdr + gdims + dt + ser + flt + chunk


def test_v1_golden_blob_unpacks():
    meta = VariableMeta.unpack("grid/t0", _golden_v1_blob())
    assert meta.dtype == np.dtype(np.float64)
    assert tuple(meta.global_dims) == (6, 40)
    assert meta.serializer == "bp4"
    assert meta.filters == "shuffle,rle"
    assert meta.chunk_shape is None
    assert meta.next_index == 1
    assert meta.chunks == [Chunk((0, 0), (6, 40), 4096, 1920)]


def test_unchunked_pack_is_byte_identical_v1():
    meta = VariableMeta.unpack("grid/t0", _golden_v1_blob())
    assert meta.pack() == _golden_v1_blob()
    assert meta.pack()[:4] == struct.pack("<I", MAGIC)


def test_v2_roundtrip():
    meta = VariableMeta(
        name="v", dtype=np.dtype(np.float32), global_dims=(9, 9),
        serializer="raw", chunks=[Chunk((0, 0), (4, 9), 128, 144)],
        filters="", next_index=3, chunk_shape=(4, 9),
    )
    raw = meta.pack()
    assert raw[:4] == struct.pack("<I", MAGIC_V2)
    back = VariableMeta.unpack("v", raw)
    assert tuple(back.chunk_shape) == (4, 9)
    assert back.next_index == 3
    assert back.chunks == meta.chunks


def test_split_at_chunk_grid():
    cells = split_at_chunk_grid((4, 4), (2, 3), (6, 5))
    # pieces tile the block, each inside one grid cell
    seen = np.zeros((12, 12), dtype=int)
    for off, dims in cells:
        assert all(o // c == (o + max(d, 1) - 1) // c
                   for o, d, c in zip(off, dims, (4, 4)) if d)
        seen[off[0]:off[0] + dims[0], off[1]:off[1] + dims[1]] += 1
    assert (seen[2:8, 3:8] == 1).all()
    assert seen.sum() == 30
