"""Experiment runner for the paper's evaluation section."""

from __future__ import annotations

from dataclasses import dataclass, field

from ..cluster import Cluster
from ..config import DEFAULT_MACHINE, MachineSpec
from ..sim.stats import summarize
from ..telemetry import merged_metrics, spans_of
from ..telemetry.export import spans_to_dicts
from ..units import MiB
from ..workloads import Domain3D, read_job, write_job

#: the paper's series (Figs. 6-7) -> (driver name, driver kwargs)
PAPER_LIBRARIES: dict[str, tuple[str, dict]] = {
    "ADIOS": ("adios", {}),
    "NetCDF": ("netcdf4", {}),
    "pNetCDF": ("pnetcdf", {}),
    # PMCPY-A keeps the single-lane (global-mutex-equivalent) metadata
    # path; PMCPY-B runs the striped reader-writer metadata layer
    "PMCPY-A": ("pmemcpy", {"map_sync": False, "meta_stripes": 1,
                            "meta_rw": False}),
    "PMCPY-B": ("pmemcpy", {"map_sync": True, "meta_stripes": 64,
                            "meta_rw": True}),
}

#: Fig. 6/7 x-axis
PAPER_PROC_COUNTS = (8, 16, 24, 32, 48)


@dataclass
class JobResult:
    library: str
    nprocs: int
    direction: str           # "write" | "read"
    seconds: float
    phases: dict[str, float] = field(default_factory=dict)  # seconds
    metrics: dict = field(default_factory=dict)   # MetricRegistry.as_dict()
    spans: list = field(default_factory=list)     # span dicts (trace export)
    #: full repro-critpath/1 document of the run's causal replay (path
    #: steps, lock hand-offs, contention stats) — written by --critpath-out
    critpath: dict | None = None

    def row(self) -> tuple:
        return (self.library, self.nprocs, self.direction, round(self.seconds, 3))

    def job_id(self) -> str:
        return f"{self.library}_{self.direction}_{self.nprocs}p"

    def perf_record(self) -> dict:
        """The perf-scenario view of this job (:mod:`repro.perf`): exact
        modeled time, exclusive time per span family for regression
        attribution, the per-family latency percentiles, and the compact
        critical-path summary the compare gate diffs on failure."""
        from ..telemetry.export import span_latency_percentiles, spans_from_dicts
        from ..telemetry.metrics import MetricRegistry
        from ..telemetry.spans import exclusive_ns_by_family

        reg = MetricRegistry.from_dict(self.metrics)
        rec = {
            "modeled_ns": self.seconds * 1e9,
            "families": exclusive_ns_by_family(spans_from_dicts(self.spans)),
            "latency": span_latency_percentiles(reg),
        }
        if self.critpath is not None:
            rec["critpath"] = {
                "total_ns": self.critpath["total_ns"],
                "families": self.critpath["families"],
                "source": self.critpath["source"],
            }
        return rec


def _cluster_for(workload: Domain3D, machine: MachineSpec) -> Cluster:
    capacity = max(64 * MiB, 8 * workload.functional_total_bytes)
    return Cluster(machine=machine, scale=workload.scale, pmem_capacity=capacity)


def _job_result(library: str, nprocs: int, direction: str, res, cl) -> JobResult:
    """Fold one SPMD run into a JobResult: makespan + phase seconds, the
    cross-rank :class:`MetricRegistry` (with the device's persistence
    counters as ``device_*`` gauges), and the span dicts for trace
    export."""
    from ..telemetry.critpath import (
        critical_path_spmd,
        critpath_doc,
        offer_capture,
    )

    offer_capture("spmd", res)
    # the causal record first, so critical_path_spmd below reuses this replay
    timing = res.time(record_causal=True)
    reg = merged_metrics(res.traces)
    for name, value in cl.device.persistence_counters().items():
        reg.gauge(name).set(value)
    return JobResult(
        library, nprocs, direction, timing.makespan_ns / 1e9,
        {k: v / 1e9 for k, v in timing.phase_totals().items()},
        reg.as_dict(),
        spans_to_dicts(spans_of(res.traces)),
        critpath=critpath_doc(critical_path_spmd(res)),
    )


def run_io_experiment(
    library: str,
    nprocs: int,
    workload: Domain3D | None = None,
    *,
    machine: MachineSpec = DEFAULT_MACHINE,
    directions: tuple[str, ...] = ("write", "read"),
    driver_override: tuple[str, dict] | None = None,
) -> list[JobResult]:
    """One cell of Fig. 6/7: write the 40 GB domain with ``library`` on
    ``nprocs`` ranks, then read it back symmetrically.  Returns one
    JobResult per direction."""
    workload = workload or Domain3D()
    driver_name, driver_kw = (
        driver_override if driver_override else PAPER_LIBRARIES[library]
    )
    cl = _cluster_for(workload, machine)
    path = "/pmem/eval"
    out: list[JobResult] = []

    res_w = cl.run(
        nprocs,
        lambda ctx: write_job(ctx, workload, driver_name, path, driver_kw),
    )
    if "write" in directions:
        out.append(_job_result(library, nprocs, "write", res_w, cl))
    if "read" in directions:
        res_r = cl.run(
            nprocs,
            lambda ctx: read_job(ctx, workload, driver_name, path, driver_kw),
        )
        out.append(_job_result(library, nprocs, "read", res_r, cl))
    return out


def run_sweep(
    *,
    libraries: dict[str, tuple[str, dict]] | None = None,
    proc_counts: tuple[int, ...] = PAPER_PROC_COUNTS,
    workload: Domain3D | None = None,
    machine: MachineSpec = DEFAULT_MACHINE,
    directions: tuple[str, ...] = ("write", "read"),
) -> list[JobResult]:
    """The full Fig. 6 + Fig. 7 sweep."""
    libraries = libraries or PAPER_LIBRARIES
    workload = workload or Domain3D()
    results: list[JobResult] = []
    for label, (driver, kw) in libraries.items():
        for p in proc_counts:
            results.extend(
                run_io_experiment(
                    label, p, workload, machine=machine,
                    directions=directions,
                    driver_override=(driver, kw),
                )
            )
    return results


def series_from(results: list[JobResult], direction: str) -> dict[str, dict[int, float]]:
    """{library: {nprocs: seconds}} for one direction."""
    out: dict[str, dict[int, float]] = {}
    for r in results:
        if r.direction == direction:
            out.setdefault(r.library, {})[r.nprocs] = r.seconds
    return out


def breakdown_experiment(
    nprocs: int = 24,
    workload: Domain3D | None = None,
    *,
    machine: MachineSpec = DEFAULT_MACHINE,
) -> dict[str, dict]:
    """E7: per-phase / per-resource decomposition of each library's write
    and read at the paper's 24-core sweet spot."""
    workload = workload or Domain3D()
    out: dict[str, dict] = {}
    for label, (driver, kw) in PAPER_LIBRARIES.items():
        cl = _cluster_for(workload, machine)
        path = "/pmem/bd"
        res_w = cl.run(
            nprocs, lambda ctx: write_job(ctx, workload, driver, path, kw)
        )
        res_r = cl.run(
            nprocs, lambda ctx: read_job(ctx, workload, driver, path, kw)
        )
        out[label] = {
            "write": summarize(res_w.time()),
            "read": summarize(res_r.time()),
        }
    return out
