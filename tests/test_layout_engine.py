"""The shared Layout-engine contract matrix.

Both layouts must behave identically through the unified store/load path:
store / sub-store / load / delete / stats, across serializers and with the
filter pipeline on or off — plus the telemetry invariants (logical bytes
stored == logical bytes loaded) and the bug regressions the engine
refactor fixed (whole-store revalidation, partial-delete tolerance).
"""

import numpy as np
import pytest

from repro.cluster import Cluster
from repro.errors import DimensionMismatchError, KeyNotFoundError
from repro.mpi import Communicator
from repro.pmemcpy import PMEM
from repro.units import MiB

LAYOUTS = ("hashtable", "hierarchical")
CONFIGS = [
    pytest.param("raw", (), id="raw"),
    pytest.param("bp4", (), id="bp4"),
    pytest.param("raw", ("shuffle", "rle"), id="raw+filters"),
    pytest.param("bp4", ("deflate",), id="bp4+filters"),
]


def run1(fn, *, nprocs=1):
    cl = Cluster(pmem_capacity=64 * MiB)
    return cl.run(nprocs, fn)


def make_pmem(ctx, layout, serializer="bp4", filters=(), comm=None):
    pmem = PMEM(serializer=serializer, layout=layout, filters=filters)
    pmem.mmap("/pmem/store" if layout == "hashtable" else "/pmem/tree",
              comm if comm is not None else Communicator.world(ctx))
    return pmem


@pytest.mark.parametrize("serializer,filters", CONFIGS)
@pytest.mark.parametrize("layout", LAYOUTS)
def test_store_load_roundtrip_matrix(layout, serializer, filters):
    data = np.arange(240, dtype=np.float64).reshape(6, 40)

    def job(ctx):
        pmem = make_pmem(ctx, layout, serializer, filters)
        pmem.store("grid/t0", data)
        back = pmem.load("grid/t0")
        assert np.array_equal(back, data)
        st = pmem.stats()
        pmem.munmap()
        return st

    st = run1(job).returns[0]
    v = st["variables"]["grid/t0"]
    assert v["nchunks"] == 1
    assert v["logical_bytes"] == data.nbytes
    if filters:
        # transformed chunks record their *stored* size, not the logical one
        assert v["stored_bytes"] != 0
    tel = {k: m["value"] for k, m in st["metrics"].items()
           if m["kind"] == "counter"}
    assert tel["pmemcpy_store_ops"] == 1
    assert tel["pmemcpy_load_ops"] == 1
    # counter balance: every logical byte stored came back out
    assert tel["pmemcpy_logical_store_bytes"] == data.nbytes
    assert tel["pmemcpy_logical_load_bytes"] == data.nbytes
    assert tel["pmemcpy_stored_write_bytes"] == tel["pmemcpy_stored_read_bytes"]
    # staging happens exactly when a filter pipeline is configured
    assert ("pmemcpy_staging_passes" in tel) == bool(filters)


@pytest.mark.parametrize("serializer,filters", CONFIGS)
@pytest.mark.parametrize("layout", LAYOUTS)
def test_substore_matrix(layout, serializer, filters):
    gdims = (8, 8)

    def job(ctx):
        comm = Communicator.world(ctx)
        pmem = make_pmem(ctx, layout, serializer, filters, comm=comm)
        pmem.alloc("field", gdims, np.float32)
        # each rank owns a row band
        rows = gdims[0] // comm.size
        lo = comm.rank * rows
        block = np.full((rows, gdims[1]), float(comm.rank + 1), dtype=np.float32)
        pmem.store("field", block, offsets=(lo, 0))
        comm.barrier()
        whole = pmem.load("field")
        mine = pmem.load("field", offsets=(lo, 0), dims=(rows, gdims[1]))
        assert np.array_equal(mine, block)
        pmem.munmap()
        return whole

    res = run1(job, nprocs=4)
    whole = res.returns[0]
    for r in range(4):
        assert (whole[r * 2 : (r + 1) * 2] == r + 1).all()


@pytest.mark.parametrize("layout", LAYOUTS)
def test_delete_then_missing(layout):
    def job(ctx):
        pmem = make_pmem(ctx, layout)
        pmem.store("a/b/c", np.ones(16))
        assert pmem.list_variables() == ["a/b/c"]
        pmem.delete("a/b/c")
        assert pmem.list_variables() == []
        try:
            pmem.load("a/b/c")
        except KeyNotFoundError:
            ok = True
        else:
            ok = False
        pmem.munmap()
        return ok

    assert run1(job).returns[0]


@pytest.mark.parametrize("layout", LAYOUTS)
def test_whole_store_revalidates_alloc_contract(layout):
    """Whole-storing a mismatched shape into an alloc'd-but-empty variable
    must fail instead of silently replacing the declared dims."""

    def job(ctx):
        pmem = make_pmem(ctx, layout)
        pmem.alloc("v", (8, 8), np.float64)
        try:
            pmem.store("v", np.zeros((3, 3), dtype=np.float32))
        except DimensionMismatchError:
            raised = True
        else:
            raised = False
        # the declared contract survives the rejected store
        dims = pmem.load_dims("v")
        # matching whole-store is fine
        pmem.store("v", np.ones((8, 8)))
        # and once data exists, replacement with a NEW shape is allowed
        pmem.store("v", np.zeros((2, 2)))
        dims2 = pmem.load_dims("v")
        pmem.munmap()
        return raised, dims, dims2

    raised, dims, dims2 = run1(job).returns[0]
    assert raised
    assert dims == (8, 8)
    assert dims2 == (2, 2)


def test_hierarchical_delete_tolerates_missing_chunk_file():
    """A chunk file that vanished (partial failure) must not wedge delete:
    remaining chunk files AND the #dims entry still get cleaned up."""

    def job(ctx):
        pmem = make_pmem(ctx, "hierarchical")
        pmem.alloc("v", (8,), np.float64)
        pmem.store("v", np.arange(4, dtype=np.float64), offsets=(0,))
        pmem.store("v", np.arange(4, dtype=np.float64), offsets=(4,))
        # simulate a lost chunk file
        ctx.env.vfs.unlink(ctx, pmem.layout.chunk_path(ctx, "v", 0))
        pmem.delete("v")
        names = pmem.list_variables()
        occ = pmem.layout.occupancy(ctx)
        pmem.munmap()
        return names, occ

    names, occ = run1(job).returns[0]
    assert names == []
    assert occ["fs"]["files"] == 0


@pytest.mark.parametrize("layout", LAYOUTS)
def test_stats_occupancy_by_layout(layout):
    def job(ctx):
        pmem = make_pmem(ctx, layout)
        pmem.store("x", np.ones((64, 64)))
        st = pmem.stats()
        pmem.munmap()
        return st

    st = run1(job).returns[0]
    assert st["layout"] == layout
    if layout == "hashtable":
        assert "heap" in st and "fs" not in st
        assert st["heap"]["used_bytes"] > 0
    else:
        assert "fs" in st and "heap" not in st
        assert st["fs"]["used_bytes"] > 0
        assert st["fs"]["files"] >= 2  # #dims + #chunk0
        assert st["fs"]["free_bytes"] > 0


@pytest.mark.parametrize("layout", LAYOUTS)
def test_free_extent_reclaims_space(layout):
    """Store → delete → occupancy returns to its post-setup baseline; the
    engine's free_extent must actually release chunk storage."""

    def job(ctx):
        pmem = make_pmem(ctx, layout)
        base = pmem.layout.occupancy(ctx)
        pmem.store("big", np.ones((128, 128)))
        mid = pmem.layout.occupancy(ctx)
        pmem.delete("big")
        end = pmem.layout.occupancy(ctx)
        pmem.munmap()
        return base, mid, end

    base, mid, end = run1(job).returns[0]
    kind = "heap" if layout == "hashtable" else "fs"
    assert mid[kind]["used_bytes"] > base[kind]["used_bytes"]
    assert end[kind]["used_bytes"] == base[kind]["used_bytes"]


@pytest.mark.parametrize("layout", LAYOUTS)
def test_meta_lock_telemetry_present(layout):
    def job(ctx):
        pmem = make_pmem(ctx, layout)
        pmem.store("x", np.ones(8))
        metrics = pmem.stats()["metrics"]
        pmem.munmap()
        return metrics

    metrics = run1(job).returns[0]
    assert metrics["meta.lock.acquires"]["value"] >= 1
    assert metrics["meta.lock.ns"]["sum"] > 0
    assert metrics["access.persist.bytes"]["count"] >= 1
