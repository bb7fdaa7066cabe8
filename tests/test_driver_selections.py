"""The shared selection contract across every baseline driver.

All six drivers must serve the same block / strided / blocked / point
selections through ``read_selection`` with identical results, and accept a
hyperslab ``write_selection`` — whatever path they take internally (native
sub-block addressing vs. bounding-box staging)."""

import functools

import numpy as np
import pytest

from repro.baselines import get_driver
from repro.cluster import Cluster
from repro.errors import BaselineError, DimensionMismatchError
from repro.mpi import Communicator
from repro.pmemcpy.selection import Hyperslab, PointSelection
from repro.units import MiB

GDIMS = (16, 12)

DRIVER_CONFIGS = [
    pytest.param("posix", {}, id="posix"),
    pytest.param("adios", {}, id="adios"),
    pytest.param("hdf5", {}, id="hdf5"),
    pytest.param("netcdf4", {}, id="netcdf4"),
    pytest.param("pnetcdf", {}, id="pnetcdf"),
    pytest.param("pmemcpy", {}, id="pmemcpy"),
    pytest.param("pmemcpy", {"chunk_shape": (5, 5)}, id="pmemcpy-chunked"),
]

SELECTIONS = {
    "block": Hyperslab((2, 3), (5, 4)),
    "strided": Hyperslab((1, 0), (5, 6), stride=(3, 2)),
    "blocked": Hyperslab((0, 1), (4, 3), stride=(4, 3), block=(2, 2)),
    "points": PointSelection([(0, 0), (3, 7), (15, 11), (8, 2)]),
}


def full_data() -> np.ndarray:
    return np.arange(np.prod(GDIMS), dtype=np.float64).reshape(GDIMS)


def _write(ctx, driver_name, path, kw):
    comm = Communicator.world(ctx)
    d = get_driver(driver_name, **kw)
    d.open(ctx, comm, path, "w")
    d.def_var(ctx, "A", GDIMS, np.float64)
    rows = GDIMS[0] // comm.size
    r0 = comm.rank * rows
    d.write(ctx, "A", full_data()[r0:r0 + rows], (r0, 0))
    d.close(ctx)


def _read_sels(ctx, driver_name, path, kw):
    comm = Communicator.world(ctx)
    d = get_driver(driver_name, **kw)
    d.open(ctx, comm, path, "r")
    out = {k: np.asarray(d.read_selection(ctx, "A", sel))
           for k, sel in SELECTIONS.items()}
    d.close(ctx)
    return out


@pytest.mark.parametrize("driver_name,kw", DRIVER_CONFIGS)
def test_read_selection_matrix(driver_name, kw):
    cl = Cluster(pmem_capacity=128 * MiB)
    path = "/pmem/dsel"
    cl.run(4, functools.partial(_write, driver_name=driver_name,
                                path=path, kw=kw))
    res = cl.run(4, functools.partial(_read_sels, driver_name=driver_name,
                                      path=path, kw=kw))
    full = full_data()
    for got in res.returns:
        for label, sel in SELECTIONS.items():
            want = np.zeros(sel.out_shape, full.dtype)
            sel.scatter_into(want, full, (0, 0))
            assert np.array_equal(got[label], want), (driver_name, label)


@pytest.mark.parametrize("driver_name,kw", DRIVER_CONFIGS)
def test_write_selection_roundtrip(driver_name, kw):
    sel = Hyperslab((1, 1), (4, 3), stride=(3, 4))
    patch = np.arange(sel.nelems, dtype=np.float64).reshape(sel.out_shape) + 100

    def job(ctx):
        comm = Communicator.world(ctx)
        d = get_driver(driver_name, **kw)
        d.open(ctx, comm, "/pmem/dselw", "w")
        d.def_var(ctx, "B", GDIMS, np.float64)
        d.write(ctx, "B", np.zeros(GDIMS), (0, 0))
        d.write_selection(ctx, "B", patch, sel)
        d.close(ctx)
        d2 = get_driver(driver_name, **kw)
        d2.open(ctx, comm, "/pmem/dselw", "r")
        got = d2.read(ctx, "B", (0, 0), GDIMS)
        d2.close(ctx)
        return np.asarray(got)

    got = Cluster(pmem_capacity=128 * MiB).run(1, job).returns[0]
    want = np.zeros(GDIMS)
    sel.gather_from(patch, want, (0, 0))
    assert np.array_equal(got, want), driver_name


@pytest.mark.parametrize("driver_name,kw", DRIVER_CONFIGS)
def test_write_selection_rejects_bad_shapes(driver_name, kw):
    def job(ctx):
        comm = Communicator.world(ctx)
        d = get_driver(driver_name, **kw)
        d.open(ctx, comm, "/pmem/dselbad", "w")
        d.def_var(ctx, "C", GDIMS, np.float64)
        sel = Hyperslab((0, 0), (2, 2), stride=(3, 3))
        # staged default raises BaselineError; pmemcpy's native path
        # surfaces its own DimensionMismatchError
        with pytest.raises((BaselineError, DimensionMismatchError)):
            d.write_selection(ctx, "C", np.zeros((5, 5)), sel)
        d.close(ctx)

    Cluster(pmem_capacity=128 * MiB).run(1, job)


def test_staged_default_accounts_staging_bytes():
    """posix has no sub-block addressing: the default read_selection stages
    the bounding box and records the staged-vs-delivered gap."""
    from repro.telemetry import merged_metrics

    def job(ctx):
        comm = Communicator.world(ctx)
        d = get_driver("posix")
        d.open(ctx, comm, "/pmem/dstage", "w")
        d.def_var(ctx, "A", GDIMS, np.float64)
        d.write(ctx, "A", full_data(), (0, 0))
        d.close(ctx)
        d2 = get_driver("posix")
        d2.open(ctx, comm, "/pmem/dstage", "r")
        sel = SELECTIONS["strided"]
        out = d2.read_selection(ctx, "A", sel)
        d2.close(ctx)
        return np.asarray(out).nbytes

    cl = Cluster(pmem_capacity=128 * MiB)
    res = cl.run(1, job)
    delivered = res.returns[0]
    staged = merged_metrics(res.traces).get(
        "driver_selection_staged_bytes").value
    sel = SELECTIONS["strided"]
    _off, dims = sel.bbox()
    assert staged == int(np.prod(dims)) * 8
    assert staged > delivered
