"""Partial reads — the selection path across every library (DESIGN.md §12).

A ~1% strided scientific query (a dense sub-cube, a single plane, a point
cloud) against the trimmed 40^3 domain: pMEMCPY restricts the load to the
intersecting stored chunks — and, raw-serialized, to the selected row
segments inside each chunk — while the file libraries either use their
native sub-block machinery (HDF5/NetCDF dataspaces, pNetCDF ``get_vars``)
or stage the bounding box (POSIX blocks, ADIOS process groups).

Also renders the storage-efficiency table behind the 5% acceptance gate:
stored bytes touched by the 1% read per pMEMCPY configuration.
"""

import numpy as np
from conftest import emit

from repro.cluster import Cluster
from repro.harness.figures import ascii_chart, render_table, write_csv
from repro.mpi import Communicator
from repro.perf.scenarios import get as get_scenario
from repro.pmemcpy import PMEM, Hyperslab
from repro.units import MiB
from repro.workloads import Domain3D

LIBRARIES = ("ADIOS", "NetCDF", "pNetCDF", "PMCPY-A", "PMCPY-B")
KINDS = ("1pct", "plane", "points")


def run_partial_sweep():
    """{library: {kind: modeled seconds}} via the perf-observatory
    scenarios (same plumbing the regression gate tracks)."""
    series = {}
    for lib in LIBRARIES:
        series[lib] = {}
        for kind in KINDS:
            rec = get_scenario(f"partial.{kind}.{lib}").run()
            series[lib][kind] = rec["modeled_ns"] / 1e9
    return series


def run_read_bytes():
    """Stored bytes touched by the 1% read, per pMEMCPY configuration."""
    w = Domain3D(nvars=1, axis_scale=20)
    data = w.generate(0, (0, 0, 0), w.functional_dims)
    sel = Hyperslab((18, 18, 18), (9, 9, 9))
    configs = [
        ("raw, chunked 10^3", "raw", (10, 10, 10)),
        ("bp4, chunked 10^3", "bp4", (10, 10, 10)),
        ("bp4, unchunked", "bp4", None),
    ]
    rows = []
    for label, serializer, chunk_shape in configs:
        def job(ctx, serializer=serializer, chunk_shape=chunk_shape):
            pmem = PMEM(serializer=serializer)
            pmem.mmap("/pmem/bench_partial", Communicator.world(ctx))
            pmem.alloc("rect00", w.functional_dims, data.dtype,
                       chunk_shape=chunk_shape)
            pmem.store("rect00", data, (0, 0, 0))
            got = pmem.load("rect00", selection=sel)
            assert np.array_equal(got, data[18:27, 18:27, 18:27])
            metrics = pmem.stats()["metrics"]
            pmem.munmap()
            return metrics

        cl = Cluster(pmem_capacity=128 * MiB)
        metrics = cl.run(1, job).returns[0]
        stored = metrics["pmemcpy_stored_write_bytes"]["value"]
        read = metrics["pmemcpy_stored_read_bytes"]["value"]
        rows.append((label, int(read), int(stored),
                     round(100.0 * read / stored, 2)))
    return rows


def test_partial_reads(once):
    series, rows = once(lambda: (run_partial_sweep(), run_read_bytes()))
    text = ascii_chart(
        "Partial reads: ~1% selections of the 40^3 domain, 8 ranks "
        "(modeled seconds)",
        series,
    )
    text += "\n\n" + render_table(
        "Stored bytes touched by the 1% read (pMEMCPY configurations)",
        ["config", "stored_read_bytes", "stored_bytes", "percent"],
        rows,
    )
    emit("partial_reads", text)
    chart_rows = [
        (lib, kind, round(v, 4))
        for lib, vals in series.items() for kind, v in sorted(vals.items())
    ]
    write_csv("results/partial_reads.csv",
              ["library", "kind", "seconds"], chart_rows)

    # pMEMCPY's native selection path beats every staged/file library on
    # the dense 1% query
    for lib in ("ADIOS", "NetCDF", "pNetCDF"):
        assert series["PMCPY-A"]["1pct"] < series[lib]["1pct"]
    # the acceptance gate: ranged raw reads touch < 5% of stored bytes;
    # staged bp4 still skips ~7/8 of the chunks; unchunked reads it all
    by_label = {r[0]: r for r in rows}
    assert by_label["raw, chunked 10^3"][3] < 5.0
    assert by_label["bp4, chunked 10^3"][3] < 15.0
    assert by_label["bp4, unchunked"][3] > 95.0
