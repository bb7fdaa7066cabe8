"""Every paper and ablation artifact under ``results/``, and the checks it
must pass.

Each generator takes the workload and the figure sweep (empty when the
command runs no sweep) and returns :class:`Artifact` objects: a rendered
``.txt`` body, the ``.csv`` rows, and ``(claim, holds)`` pairs.  A generator
that needs Fig. 6/7 jobs gets them from :func:`~.experiment.cells`, which
reads them from the sweep and runs only the cells it lacks.  ``python -m
repro.harness`` writes the artifacts and exits non-zero when any claim
fails.
"""

from __future__ import annotations

import dataclasses
import os
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from ..baselines import Dataspace, H5File
from ..cluster import Cluster
from ..mpi import Communicator
from ..pmemcpy import PMEM, Hyperslab
from ..units import MiB
from ..workloads import Domain3D
from .claims import READ_CLAIMS, WRITE_CLAIMS, check, deviation_rows, ratio_rows
from .experiment import PAPER_LIBRARIES, JobResult, cells, series_from
from .figures import ascii_chart, render_table, series_to_rows, write_csv
from .tokens import count_file_metrics

#: results/ stem -> the harness command that writes it as .csv and .txt
ARTIFACTS = {
    "fig6_writes": "fig6",
    "fig7_reads": "fig7",
    "api_complexity": "api",
    "copy_breakdown": "breakdown",
    "aggregation": "aggregation",
    "collective_io": "collective_io",
    "compression": "compression",
    "fill_ablation": "fill_ablation",
    "layout_ablation": "layouts",
    "mapsync_ablation": "mapsync",
    "partial_reads": "partial_reads",
    "serializer_ablation": "serializers",
}

@dataclass
class Artifact:
    name: str                 # results/<name>.{csv,txt}
    text: str
    header: list[str]
    rows: list[tuple]
    checks: list[tuple[str, bool]] = field(default_factory=list)

    @property
    def failed(self) -> list[str]:
        return [claim for claim, ok in self.checks if not ok]

    def render(self) -> str:
        parts = [self.text]
        if self.checks:
            parts.append(render_table(
                f"{self.name}: claims checked", ["claim", "verdict"],
                [(claim, "holds" if ok else "VIOLATED")
                 for claim, ok in self.checks]))
        return "\n\n".join(parts)

    def write(self, out: str) -> None:
        write_csv(os.path.join(out, f"{self.name}.csv"), self.header,
                  self.rows)
        with open(os.path.join(out, f"{self.name}.txt"), "w") as f:
            f.write(self.render() + "\n")


def _secs(text: str) -> float:
    """``"6.92s"`` / ``"2.64ms"`` / ``"41%"`` -> the number."""
    return float(text.rstrip("ms%"))


# --------------------------------------------------------------- Figs. 6/7

def figures(workload: Domain3D, sweep: Sequence[JobResult]) -> list[Artifact]:
    """E1/E2: both figures from one sweep."""
    gb = f"{workload.model_total_bytes / 1e9:.0f} GB"
    out = []
    for direction, stem, fig, what, claims in (
        ("write", "fig6_writes", "Fig. 6", f"writing a {gb} 3-D domain to PMEM",
         WRITE_CLAIMS),
        ("read", "fig7_reads", "Fig. 7", f"reading a {gb} 3-D domain from PMEM",
         READ_CLAIMS),
    ):
        series = series_from(sweep, direction)
        rows = series_to_rows(series)
        parts = [
            ascii_chart(f"{fig}: {what} (modeled seconds)", series),
            render_table(f"{fig} data", ["library", "nprocs", "seconds"], rows),
        ]
        ratios = ratio_rows(direction, series)
        if ratios:
            parts.append(render_table("ours vs paper @24 procs",
                                      ["ratio", "ours", "paper"], ratios))
        parts.append(render_table(
            "deviations from the paper (reported, not gated)",
            ["observation", "ours", "paper"],
            deviation_rows(direction, series)))
        checks = check(claims, series)
        if not checks:
            parts.append("claims not checked: each names some of 16, 24, "
                         "32 and 48 procs, which this sweep lacks")
        out.append(Artifact(stem, "\n\n".join(parts),
                            ["library", "nprocs", "seconds"], rows, checks))
    return out


# ------------------------------------------------------------ §3 and E7

#: the paper's own counts for the equivalent C/C++ programs (§3)
PAPER_API_COUNTS = {"pmemcpy": (16, 132), "adios": (24, 164),
                    "hdf5": (42, 253)}

API_DIR = os.path.normpath(os.path.join(
    os.path.dirname(__file__), "..", "..", "..", "examples", "api_complexity"))


def api(workload: Domain3D, sweep: Sequence[JobResult]) -> Artifact:
    """E3: lines/tokens of equivalent parallel-write programs."""
    rows = []
    for lib in ("pmemcpy", "adios", "hdf5", "pnetcdf"):
        m = count_file_metrics(os.path.join(API_DIR, f"write_{lib}.py"))
        rows.append((lib, m["lines"], m["tokens"],
                     *PAPER_API_COUNTS.get(lib, ("-", "-"))))
    by = {r[0]: r for r in rows}
    text = render_table(
        "E3: API complexity — equivalent parallel 1-D array write",
        ["library", "lines (ours)", "tokens (ours)",
         "lines (paper)", "tokens (paper)"],
        rows,
    )
    return Artifact(
        "api_complexity", text,
        ["library", "lines_ours", "tokens_ours", "lines_paper",
         "tokens_paper"], rows,
        [("lines: pmemcpy < adios < hdf5",
          by["pmemcpy"][1] < by["adios"][1] < by["hdf5"][1]),
         ("tokens: pmemcpy < adios < hdf5",
          by["pmemcpy"][2] < by["adios"][2] < by["hdf5"][2])],
    )


BUCKET_LABELS = {
    "cpu": "serialize/convert (CPU)",
    "dram": "DRAM staging copies",
    "net": "rearrangement (MPI)",
    "pmem_write": "PMEM writes",
    "pmem_read": "PMEM reads",
    "delay": "latencies (syscalls/faults/MAP_SYNC)",
    "barrier": "synchronization wait",
}


DIRECTIONS = ("write", "read")


def breakdown(workload: Domain3D, sweep: Sequence[JobResult]) -> Artifact:
    """E7: where each library's time goes at 24 procs."""
    rows = []
    wanted = [(lib, {}, 24, d) for lib in PAPER_LIBRARIES for d in DIRECTIONS]
    for r in cells(workload, sweep, wanted):
        for bucket, s in sorted(r.buckets.items(), key=lambda kv: -kv[1]):
            if s >= 0.05:
                rows.append((r.library, r.direction,
                             BUCKET_LABELS.get(bucket, bucket),
                             f"{s:.2f}s", f"{100 * s / r.seconds:.0f}%"))

    def has(lib, direction, bucket):
        return any(r[:3] == (lib, direction, bucket) for r in rows)

    return Artifact(
        "copy_breakdown",
        render_table("E7: copy-path decomposition @24 procs (mean "
                     "rank-seconds per bucket)",
                     ["library", "dir", "cost bucket", "seconds",
                      "of makespan"], rows),
        ["library", "direction", "bucket", "seconds", "pct"], rows,
        [("NetCDF writes rearrange over MPI",
          has("NetCDF", "write", "rearrangement (MPI)")),
         ("ADIOS writes do not rearrange",
          not has("ADIOS", "write", "rearrangement (MPI)")),
         ("ADIOS writes stage in DRAM",
          has("ADIOS", "write", "DRAM staging copies")),
         ("PMCPY-A writes do not stage in DRAM",
          not has("PMCPY-A", "write", "DRAM staging copies")),
         ("PMCPY-B writes pay MAP_SYNC latencies",
          has("PMCPY-B", "write", "latencies (syscalls/faults/MAP_SYNC)"))],
    )


# ----------------------------------------------------- ablations (E4-E9)

def mapsync(workload: Domain3D, sweep: Sequence[JobResult]) -> Artifact:
    """E4: MAP_SYNC's penalty, PMCPY-A (off) vs PMCPY-B (on)."""
    got = iter(cells(workload, sweep, [(lib, {}, p, d) for p in (8, 24, 48)
                                       for d in DIRECTIONS
                                       for lib in ("PMCPY-A", "PMCPY-B")]))
    rows, penalty = [], {}
    for p in (8, 24, 48):
        for d in DIRECTIONS:
            a, b = next(got).seconds, next(got).seconds
            rows.append((p, d, f"{a:.2f}s", f"{b:.2f}s",
                         f"{(b / a - 1) * 100:.0f}%"))
            penalty[(p, d)] = _secs(rows[-1][4])
    return Artifact(
        "mapsync_ablation",
        render_table("E4: MAP_SYNC ablation — PMCPY-A (off) vs PMCPY-B (on)",
                     ["nprocs", "direction", "MAP_SYNC off", "MAP_SYNC on",
                      "penalty"], rows),
        ["nprocs", "direction", "off_s", "on_s", "penalty_pct"], rows,
        [*((f"MAP_SYNC penalty > 0 @{p}p {d}", pen > 0)
           for (p, d), pen in penalty.items()),
         *((f"{d} penalty shrinks 8p -> 48p",
            penalty[(48, d)] < penalty[(8, d)]) for d in ("write", "read"))],
    )


#: serializer -> PMCPY-A driver overrides; bp4 is the driver's default, so
#: its row is the figures' PMCPY-A cell
SERIALIZERS = {"bp4": {}, "cproto": {"serializer": "cproto"},
               "cereal": {"serializer": "cereal"}, "raw": {"serializer": "raw"}}


def serializers(workload: Domain3D, sweep: Sequence[JobResult]) -> Artifact:
    """E5: pMEMCPY's serializers at the 24-proc sweet spot."""
    got = iter(cells(workload, sweep, [("PMCPY-A", kw, 24, d)
                                       for kw in SERIALIZERS.values()
                                       for d in DIRECTIONS]))
    rows = [(ser, f"{next(got).seconds:.2f}s", f"{next(got).seconds:.2f}s")
            for ser in SERIALIZERS]
    by = {r[0]: (_secs(r[1]), _secs(r[2])) for r in rows}
    return Artifact(
        "serializer_ablation",
        render_table("E5: serializer ablation — pMEMCPY @24 procs, 40 GB "
                     "domain", ["serializer", "write", "read"], rows),
        ["serializer", "write_s", "read_s"], rows,
        [("writes: raw <= cproto <= bp4",
          by["raw"][0] <= by["cproto"][0] <= by["bp4"][0]),
         ("reads: raw <= bp4", by["raw"][1] <= by["bp4"][1])],
    )


def _layout_job(ctx, layout, nvars, elems):
    comm = Communicator.world(ctx)
    pmem = PMEM(layout=layout)
    pmem.mmap(f"/pmem/{layout}{nvars}", comm)
    data = np.zeros(elems)
    for i in range(nvars):
        if i % comm.size == comm.rank:
            pmem.store(f"grp{i % 7}/var{i:05d}", data)
    comm.barrier()
    # metadata-heavy read side: list + load a sample
    names = pmem.list_variables()
    assert len(names) == nvars
    pmem.load(names[0])
    pmem.munmap()


def layouts(workload: Domain3D, sweep: Sequence[JobResult]) -> Artifact:
    """E6: hashtable vs hierarchical layout across variable counts.  Tiny
    variables at scale 1 make the metadata path dominate, which is where
    the layouts differ."""
    rows = []
    for nvars in (10, 100, 500):
        for layout in ("hashtable", "hierarchical"):
            res = Cluster(scale=1, pmem_capacity=128 * MiB).run(
                8, lambda ctx: _layout_job(ctx, layout, nvars, 64))
            rows.append((nvars, layout, f"{res.makespan_s * 1e3:.2f}ms"))
    t = {(r[0], r[1]): _secs(r[2]) for r in rows}
    return Artifact(
        "layout_ablation",
        render_table("E6: layout ablation — metadata-bound "
                     "store+list+load, 8 procs",
                     ["nvars", "layout", "modeled time"], rows),
        ["nvars", "layout", "ms"], rows,
        [*((f"{lay}: 500 vars cost more than 10",
            t[(500, lay)] > t[(10, lay)])
           for lay in ("hashtable", "hierarchical")),
         ("layouts differ @500 vars",
          t[(500, "hashtable")] != t[(500, "hierarchical")])],
    )


CIO_ROWS, CIO_COLS = 1024, 768


def _cio_job(ctx, collective):
    comm = Communicator.world(ctx)
    f = H5File.create(ctx, comm, f"/pmem/cio{int(collective)}")
    ds = f.create_dataset("v", np.float64, Dataspace((CIO_ROWS, CIO_COLS)))
    width = CIO_COLS // comm.size
    dims = (CIO_ROWS, width)
    fs = Dataspace((CIO_ROWS, CIO_COLS)).select_hyperslab(
        (0, comm.rank * width), dims)
    ds.write(ctx, np.ones(dims), fs, collective=collective)
    f.close()


def collective_io(workload: Domain3D, sweep: Sequence[JobResult]) -> Artifact:
    """E9: two-phase collective vs independent strided MPI-IO writes, at
    scale 1 so per-run costs are exact: a column decomposition gives every
    rank one strided run per row."""
    rows = []
    for p in (8, 24):
        for collective in (True, False):
            res = Cluster(scale=1, pmem_capacity=64 * MiB).run(
                p, lambda ctx: _cio_job(ctx, collective))
            rows.append((p, "collective" if collective else "independent",
                         f"{res.makespan_s * 1e3:.2f}ms"))
    t = {(r[0], r[1]): _secs(r[2]) for r in rows}
    return Artifact(
        "collective_io",
        render_table("E9: two-phase collective vs independent strided "
                     f"writes ({CIO_ROWS}x{CIO_COLS} doubles, "
                     f"column-decomposed; {CIO_ROWS} runs/rank)",
                     ["nprocs", "transfer mode", "time"], rows),
        ["nprocs", "mode", "ms"], rows,
        [(f"collective beats independent @{p}p",
          t[(p, "collective")] < t[(p, "independent")]) for p in (24, 8)],
    )


def fill_ablation(workload: Domain3D, sweep: Sequence[JobResult]) -> Artifact:
    """E-fill: NetCDF-4's default fill vs NC_NOFILL (§4.1's footnote), on
    4 variables so the doubled write volume stays tractable.  The sweep's
    cells are of the full workload, so none of them applies."""
    got = iter(cells(dataclasses.replace(workload, nvars=4), (),
                     [("NetCDF", {"fill_mode": mode}, p, "write")
                      for p in (8, 24) for mode in ("nofill", "fill")]))
    rows = []
    for p in (8, 24):
        nofill, fill = next(got).seconds, next(got).seconds
        rows.append((p, f"{nofill:.2f}s", f"{fill:.2f}s",
                     f"{(fill / nofill - 1) * 100:.0f}%"))
    return Artifact(
        "fill_ablation",
        render_table("E-fill: NetCDF-4 default fill vs NC_NOFILL "
                     "(write-only)",
                     ["nprocs", "NC_NOFILL", "NC_FILL (default)",
                      "overhead"], rows),
        ["nprocs", "nofill_s", "fill_s", "overhead_pct"], rows,
        [(f"fill overhead > 25% @{r[0]}p", _secs(r[3]) > 25) for r in rows],
    )


COMPRESSION_CASES = {
    "sparse (zeros)": lambda n, rank: np.zeros(n),
    "smooth field": lambda n, rank: np.linspace(rank, rank + 1, n),
    "random": lambda n, rank: np.random.default_rng(rank).random(n),
}
PIPELINES = {"none": (), "rle": ("rle",),
             "shuffle+deflate": ("shuffle:8", "deflate:1")}


def _compress_job(ctx, filters, gen):
    comm = Communicator.world(ctx)
    pmem = PMEM(filters=filters)
    pmem.mmap("/pmem/cmp", comm)
    n = 16384
    pmem.alloc("v", (n * comm.size,))
    pmem.store("v", gen(n, comm.rank), offsets=(n * comm.rank,))
    comm.barrier()
    pmem.load("v", offsets=(0,), dims=(n,))
    pmem.munmap()


def compression(workload: Domain3D, sweep: Sequence[JobResult]) -> Artifact:
    """E-compress: filtered vs raw pMEMCPY stores.  Compression trades the
    direct-to-PMEM pack for a DRAM staging pass plus encoder CPU, in
    exchange for fewer PMEM bytes."""
    rows = []
    for case, gen in COMPRESSION_CASES.items():
        for pname, filters in PIPELINES.items():
            res = Cluster(scale=2000, pmem_capacity=64 * MiB).run(
                24, lambda ctx: _compress_job(ctx, filters, gen))
            rows.append((case, pname, f"{res.makespan_s:.2f}s"))
    t = {(r[0], r[1]): _secs(r[2]) for r in rows}
    return Artifact(
        "compression",
        render_table("E-compress: filtered vs raw pMEMCPY stores (24 procs, "
                     "~63 GB modeled)",
                     ["data", "pipeline", "modeled store+load"], rows),
        ["data", "pipeline", "seconds"], rows,
        [("zeros: rle < 0.8x raw",
          t[("sparse (zeros)", "rle")] < 0.8 * t[("sparse (zeros)", "none")]),
         ("random: shuffle+deflate costs more than raw",
          t[("random", "shuffle+deflate")] > t[("random", "none")])],
    )


#: transport -> ADIOS driver overrides; per-process is the driver's
#: default, so its rows are the figures' ADIOS cells
TRANSPORTS = {"per-process": {}, "8 aggregators": {"aggregation": 8},
              "4 aggregators": {"aggregation": 4}}


def aggregation(workload: Domain3D, sweep: Sequence[JobResult]) -> Artifact:
    """E-aggr: ADIOS's N:M aggregated transport serializes device access
    through few writers, wasting PMEM's parallelism."""
    got = iter(cells(workload, sweep, [("ADIOS", kw, p, "write")
                                       for p in (24, 48)
                                       for kw in TRANSPORTS.values()]))
    rows = [(p, transport, f"{next(got).seconds:.2f}s")
            for p in (24, 48) for transport in TRANSPORTS]
    t = {(r[0], r[1]): _secs(r[2]) for r in rows}
    return Artifact(
        "aggregation",
        render_table("E-aggr: ADIOS per-process vs aggregated writes to "
                     "PMEM (40 GB)", ["nprocs", "transport", "write time"],
                     rows),
        ["nprocs", "transport", "seconds"], rows,
        [(f"{x} beats 4 aggregators @48p",
          t[(48, x)] < t[(48, "4 aggregators")])
         for x in ("per-process", "8 aggregators")],
    )


def _read_bytes_rows() -> list[tuple]:
    """Stored bytes touched by a 1% read, per pMEMCPY configuration."""
    w = Domain3D(nvars=1, axis_scale=20)
    data = w.generate(0, (0, 0, 0), w.functional_dims)
    sel = Hyperslab((18, 18, 18), (9, 9, 9))
    rows = []
    for label, serializer, chunk_shape in (
        ("raw, chunked 10^3", "raw", (10, 10, 10)),
        ("bp4, chunked 10^3", "bp4", (10, 10, 10)),
        ("bp4, unchunked", "bp4", None),
    ):
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

        metrics = Cluster(pmem_capacity=128 * MiB).run(1, job).returns[0]
        stored = metrics["pmemcpy_stored_write_bytes"]["value"]
        read = metrics["pmemcpy_stored_read_bytes"]["value"]
        rows.append((label, int(read), int(stored),
                     round(100.0 * read / stored, 2)))
    return rows


def partial_reads(workload: Domain3D, sweep: Sequence[JobResult]) -> Artifact:
    """~1% strided selections (dense sub-cube, plane, point cloud) of the
    trimmed 40^3 domain across every library, via the perf scenarios the
    regression gate tracks; plus the stored bytes the 1% read touches."""
    from ..perf.scenarios import get as get_scenario

    series = {lib: {kind: get_scenario(f"partial.{kind}.{lib}").run()
                    ["modeled_ns"] / 1e9
                    for kind in ("1pct", "plane", "points")}
              for lib in PAPER_LIBRARIES}
    rows = _read_bytes_rows()
    pct = {r[0]: r[3] for r in rows}
    text = ascii_chart("Partial reads: ~1% selections of the 40^3 domain, "
                       "8 ranks (modeled seconds)", series)
    text += "\n\n" + render_table(
        "Stored bytes touched by the 1% read (pMEMCPY configurations)",
        ["config", "stored_read_bytes", "stored_bytes", "percent"], rows)
    return Artifact(
        "partial_reads", text, ["library", "kind", "seconds"],
        [(lib, kind, round(v, 4))
         for lib, vals in series.items() for kind, v in sorted(vals.items())],
        [*((f"PMCPY-A beats {lib} on the 1% read",
            series["PMCPY-A"]["1pct"] < series[lib]["1pct"])
           for lib in ("ADIOS", "NetCDF", "pNetCDF")),
         ("raw chunked read touches < 5% of stored bytes",
          pct["raw, chunked 10^3"] < 5.0),
         ("bp4 chunked read touches < 15%", pct["bp4, chunked 10^3"] < 15.0),
         ("bp4 unchunked read touches > 95%", pct["bp4, unchunked"] > 95.0)],
    )


#: command -> generator, for every command but the figure sweep
GENERATORS = {
    "api": api,
    "breakdown": breakdown,
    "aggregation": aggregation,
    "collective_io": collective_io,
    "compression": compression,
    "fill_ablation": fill_ablation,
    "layouts": layouts,
    "mapsync": mapsync,
    "partial_reads": partial_reads,
    "serializers": serializers,
}
