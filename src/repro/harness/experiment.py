"""Experiment runner for the paper's evaluation section."""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from ..cluster import Cluster
from ..config import DEFAULT_MACHINE, MachineSpec
from ..sim.fluid import FluidResult
from ..telemetry import merged_metrics, spans_of
from ..telemetry.spans import Span
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
    phases: dict[str, float]     # phase -> max-over-ranks seconds
    #: cost bucket (resource, "delay" or "barrier") -> mean rank-seconds
    buckets: dict[str, float]
    metrics: dict                # MetricRegistry.as_dict()
    spans: list[Span]
    #: full repro-critpath/1 document of the run's causal replay (path
    #: steps, lock hand-offs, contention stats) — written by --telemetry-out
    critpath: dict

    def row(self) -> tuple:
        return (self.library, self.nprocs, self.direction, round(self.seconds, 3))

    def job_id(self) -> str:
        return f"{self.library}_{self.direction}_{self.nprocs}p"

    def perf_record(self) -> dict:
        """The perf-scenario view of this job (:mod:`repro.perf`)."""
        from ..perf.scenarios import perf_record

        return perf_record(
            self.seconds * 1e9,
            {k: self.critpath[k] for k in ("total_ns", "families", "source")},
        )


def _cluster_for(workload: Domain3D, machine: MachineSpec) -> Cluster:
    capacity = max(64 * MiB, 8 * workload.functional_total_bytes)
    return Cluster(machine=machine, scale=workload.scale, pmem_capacity=capacity)


def _bucket_seconds(timing: FluidResult) -> dict[str, float]:
    """Mean rank-seconds per cost bucket: ranks are averaged per (phase,
    bucket), then the phases are summed, the float order behind the
    committed ``results/copy_breakdown`` figures."""
    nranks = len(timing.finish_ns) or 1
    per_phase: dict[tuple[str, str], float] = {}
    for (_rank, phase, bucket), ns in timing.breakdown.items():
        key = (phase, bucket)
        per_phase[key] = per_phase.get(key, 0.0) + ns / nranks
    out: dict[str, float] = {}
    for (_phase, bucket), ns in per_phase.items():
        out[bucket] = out.get(bucket, 0.0) + ns / 1e9
    return out


def _job_result(library: str, nprocs: int, direction: str, res, cl) -> JobResult:
    """Fold one SPMD run into a JobResult: makespan, phase and bucket
    seconds, the cross-rank :class:`MetricRegistry` (with the device's
    persistence counters as ``device_*`` gauges), and the spans."""
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
        _bucket_seconds(timing),
        reg.as_dict(),
        spans_of(res.traces),
        critpath_doc(critical_path_spmd(res)),
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


def cells(
    workload: Domain3D,
    sweep: Sequence[JobResult],
    wanted: Iterable[tuple[str, dict, int, str]],
) -> list[JobResult]:
    """The JobResult of each wanted ``(library, overrides, nprocs,
    direction)`` cell, in order.  ``overrides`` are driver kwargs laid over
    the library's :data:`PAPER_LIBRARIES` entry.  A cell without overrides
    is taken from ``sweep`` (a :func:`run_sweep` of ``workload``) when the
    sweep holds it; every other cell is run, one job pair per (library,
    overrides, nprocs), the read only when it is wanted."""
    wanted = [(lib, tuple(sorted(kw.items())), p, d)
              for lib, kw, p, d in wanted]
    found = {(r.library, (), r.nprocs, r.direction): r for r in sweep}
    missing: dict[tuple, list[str]] = {}
    for lib, kw, p, d in wanted:
        if (lib, kw, p, d) not in found:
            missing.setdefault((lib, kw, p), []).append(d)
    for (lib, kw, p), dirs in missing.items():
        driver, base = PAPER_LIBRARIES[lib]
        for r in run_io_experiment(
                lib, p, workload, directions=tuple(dirs),
                driver_override=(driver, {**base, **dict(kw)})):
            found[(lib, kw, p, r.direction)] = r
    return [found[cell] for cell in wanted]


def series_from(results: list[JobResult], direction: str) -> dict[str, dict[int, float]]:
    """{library: {nprocs: seconds}} for one direction."""
    out: dict[str, dict[int, float]] = {}
    for r in results:
        if r.direction == direction:
            out.setdefault(r.library, {})[r.nprocs] = r.seconds
    return out
