"""Declarative registry of tracked perf scenarios.

Every scenario is one named, self-contained measurement job: calling
:attr:`Scenario.run` executes the workload end to end and returns the
perf record the observatory tracks::

    {"modeled_ns": float,   # exact makespan, modeled clock
     "critpath":   {...}}     # critical-path summary, the gate's diff input

Scenario classes (ISSUE 5):

- ``fig6.*`` / ``fig7.*`` — the paper's write/read sweep per driver at
  8/24/48 procs, on a trimmed Fig. 6 workload (4 vars of the 800^3
  domain, functional buffers shrunk 20x) so a full registry pass stays
  CI-sized while modeled numbers keep the paper's shape;
- ``pmdk.*`` — allocator-churn and transaction-commit micros;
- ``meta.*`` — striped vs. single-lane metadata locking under 8 ranks;
- ``mem.*`` — the single-rank memcpy/persist hot path;
- ``kv.*`` — single-rank overwrite/load/delete of small variables through
  the scalar pool path, with MAP_SYNC off and on.

Every scenario's modeled_ns reproduces *exactly* across runs: ranks take
turns in one fixed schedule (:mod:`repro.sim.engine`), so multi-rank
traces are as repeatable as single-rank ones and one gate, ±1%, covers
them all (DESIGN.md §10).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..units import MiB

#: the trimmed Fig. 6/7 workload every fig scenario shares
PERF_NVARS = 4
PERF_AXIS_SCALE = 20

#: the paper's x-axis, trimmed to the three interesting operating points
FIG_PROCS = (8, 24, 48)
#: the --quick budget keeps only the 8-proc cells
QUICK_FIG_PROCS = (8,)

GROUPS = ("fig6", "fig7", "pmdk", "meta", "mem", "kv", "partial", "service")


@dataclass(frozen=True)
class Scenario:
    """One tracked perf scenario."""

    name: str            # e.g. "fig6.PMCPY-A.8p"
    group: str           # one of GROUPS
    quick: bool          # included in the --quick budget
    run: Callable[[], dict]


_REGISTRY: dict[str, Scenario] = {}


def _register(s: Scenario) -> None:
    if s.name in _REGISTRY:
        raise ValueError(f"duplicate scenario {s.name!r}")
    if s.group not in GROUPS:
        raise ValueError(f"scenario {s.name!r}: unknown group {s.group!r}")
    _REGISTRY[s.name] = s


def all_scenarios() -> tuple[Scenario, ...]:
    return tuple(_REGISTRY.values())


def get(name: str) -> Scenario:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r}; known: {', '.join(sorted(_REGISTRY))}"
        ) from None


def select(*, quick: bool = False, names=None, groups=None) -> list[Scenario]:
    """The scenarios a run covers, in registration order."""
    if names:
        return [get(n) for n in names]
    out = [
        s for s in _REGISTRY.values()
        if (not quick or s.quick) and (not groups or s.group in groups)
    ]
    if not out:
        raise ValueError("selection matched no scenarios")
    return out


# ---------------------------------------------------------------------------
# shared measurement plumbing
# ---------------------------------------------------------------------------

def perf_workload():
    from ..workloads import Domain3D

    return Domain3D(nvars=PERF_NVARS, axis_scale=PERF_AXIS_SCALE)


def perf_record(modeled_ns: float, critpath: dict) -> dict:
    """The scenario perf record: exact modeled time and the compact
    critical-path summary (:func:`~repro.telemetry.critpath.
    critpath_summary`) the compare gate diffs on failure."""
    return {"modeled_ns": modeled_ns, "critpath": critpath}


def record_from_spmd(res) -> dict:
    """Fold a finished :class:`~repro.sim.engine.SpmdResult` into the
    scenario perf record."""
    from ..telemetry.critpath import (
        critical_path_spmd,
        critpath_summary,
        offer_capture,
    )

    offer_capture("spmd", res)
    # the causal record first, so critical_path_spmd reuses this replay
    modeled_ns = res.time(record_causal=True).makespan_ns
    return perf_record(modeled_ns, critpath_summary(critical_path_spmd(res)))


# ---------------------------------------------------------------------------
# fig6 / fig7 sweeps
# ---------------------------------------------------------------------------

def _fig_run(library: str, nprocs: int, direction: str) -> Callable[[], dict]:
    def job() -> dict:
        from ..harness.experiment import run_io_experiment

        r = run_io_experiment(
            library, nprocs, perf_workload(), directions=(direction,)
        )[0]
        return r.perf_record()

    return job


# ---------------------------------------------------------------------------
# pmdk micros
# ---------------------------------------------------------------------------

def _pool_run(body) -> dict:
    """One-rank run over a fresh 16 MiB pool; ``body(ctx, pool)``."""
    from ..mem import PMEMDevice
    from ..pmdk import PmemPool, RawRegion
    from ..sim import run_spmd

    size = 16 * MiB
    device = PMEMDevice(size)
    region = RawRegion(device, 0, size)

    def fn(ctx):
        pool = PmemPool.create(ctx, region, size=size, nlanes=4)
        body(ctx, pool)

    return record_from_spmd(run_spmd(1, fn))


def _pmdk_alloc_churn() -> dict:
    def body(ctx, pool):
        live = []
        for i in range(300):
            live.append(pool.malloc(ctx, 64 + (i % 7) * 512))
            if len(live) > 40:
                pool.free(ctx, live.pop(0))
        for off in live:
            pool.free(ctx, off)

    return _pool_run(body)


def _pmdk_tx_commit() -> dict:
    def body(ctx, pool):
        from ..pmdk import Transaction

        off = pool.malloc(ctx, 4096)
        blob = np.arange(512, dtype=np.uint8)
        for _ in range(50):
            with Transaction(pool, ctx) as tx:
                tx.write(off, blob)

    return _pool_run(body)


# ---------------------------------------------------------------------------
# partial-read scenarios (selections across every driver)
# ---------------------------------------------------------------------------
#
# One variable of the trimmed domain is written with 8 ranks, then every
# rank issues the same :class:`~repro.pmemcpy.selection.Selection` through
# ``driver.read_selection`` — the symmetric partial read-back.  The pMEMCPY
# series store the variable on an aligned 10^3 chunk grid, so their reads
# touch only intersecting chunks (and, for raw-serialized chunks, only the
# selected row segments); libraries without sub-block addressing pay the
# bounding-box staging cost instead.  Three access shapes are tracked:
#
# - ``1pct``   — a dense 9^3 corner block, ~1.1% of the 40^3 domain;
# - ``plane``  — a single k-plane (worst-case row fragmentation);
# - ``points`` — 64 scattered elements (bounding box ~ whole domain).
#
# The paper's pMEMCPY series serialize with bp4 and read whole chunks; the
# ``partial.<kind>.<series>.raw`` twins store raw chunks, so their reads
# take the ranged row path (``PmemSource.read_rows``, one ``Rows`` trace
# entry per chunk) on every rank.

_PARTIAL_NPROCS = 8
_PARTIAL_CHUNK = (10, 10, 10)


def _partial_selection(kind: str):
    from ..pmemcpy.selection import Hyperslab, PointSelection

    n = PERF_AXIS_SCALE * 2  # the trimmed functional axis (40)
    if kind == "1pct":
        return Hyperslab((n // 2, n // 2, n // 2), (9, 9, 9))
    if kind == "plane":
        return Hyperslab((0, 0, n // 2), (n, n, 1))
    if kind == "points":
        return PointSelection(
            [((7 * i) % n, (11 * i) % n, (13 * i) % n) for i in range(64)]
        )
    raise ValueError(f"unknown partial kind {kind!r}")


def _partial_run(library: str, kind: str,
                 serializer: str | None = None) -> Callable[[], dict]:
    def job() -> dict:
        from ..baselines import get_driver
        from ..cluster import Cluster
        from ..errors import BaselineError
        from ..harness.experiment import PAPER_LIBRARIES
        from ..mpi import Communicator
        from ..workloads import Domain3D, write_job

        workload = Domain3D(nvars=1, axis_scale=PERF_AXIS_SCALE)
        driver_name, driver_kw = PAPER_LIBRARIES[library]
        if driver_name == "pmemcpy":
            driver_kw = {**driver_kw, "chunk_shape": _PARTIAL_CHUNK}
        if serializer is not None:
            driver_kw = {**driver_kw, "serializer": serializer}
        cl = Cluster(
            scale=workload.scale,
            pmem_capacity=max(64 * MiB, 8 * workload.functional_total_bytes),
        )
        path = "/pmem/perf_partial"
        cl.run(
            _PARTIAL_NPROCS,
            lambda ctx: write_job(ctx, workload, driver_name, path, driver_kw),
        )

        sel = _partial_selection(kind)
        name = workload.var_name(0)
        want = np.empty(sel.out_shape, workload.dtype)
        sel.scatter_into(
            want,
            workload.generate(0, (0, 0, 0), workload.functional_dims),
            (0, 0, 0),
        )

        def read_fn(ctx):
            comm = Communicator.world(ctx)
            d = get_driver(driver_name, **driver_kw)
            with ctx.phase("open"):
                d.open(ctx, comm, path, "r")
            with ctx.phase("read"):
                out = d.read_selection(ctx, name, sel)
            with ctx.phase("close"):
                d.close(ctx)
            if not np.array_equal(np.asarray(out), want):
                raise BaselineError(
                    f"{driver_name}: rank {comm.rank} read bad partial data"
                )

        return record_from_spmd(cl.run(_PARTIAL_NPROCS, read_fn))

    return job


# ---------------------------------------------------------------------------
# metadata-concurrency scenarios
# ---------------------------------------------------------------------------

_META_PROCS = 8
_META_ROUNDS = 6


def _meta_run(meta_stripes: int, meta_rw: bool) -> Callable[[], dict]:
    def job() -> dict:
        from .. import Cluster, Communicator, PMEM

        cl = Cluster(pmem_capacity=64 * MiB)

        def fn(ctx):
            comm = Communicator.world(ctx)
            pmem = PMEM(layout="hashtable", meta_stripes=meta_stripes,
                        meta_rw=meta_rw)
            pmem.mmap("/pmem/perf_meta", comm)
            # rank 0 creates every variable first, so the shared metadata
            # structures mutate in a fixed order — the parallel phase then
            # only updates rank-disjoint entries (determinism, see module
            # docstring)
            if ctx.rank == 0:
                for r in range(_META_PROCS):
                    pmem.store(f"r{r}", np.zeros(2048))
            comm.barrier()
            data = np.full(2048, float(ctx.rank))
            name = f"r{ctx.rank}"
            for _ in range(_META_ROUNDS):
                pmem.store(name, data)
                pmem.load(name)
            comm.barrier()
            pmem.munmap()

        return record_from_spmd(cl.run(_META_PROCS, fn))

    return job


# ---------------------------------------------------------------------------
# memcpy / persist hot path
# ---------------------------------------------------------------------------

def _mem_hot_path() -> dict:
    from .. import Cluster, Communicator, PMEM

    cl = Cluster(pmem_capacity=64 * MiB)

    def fn(ctx):
        comm = Communicator.world(ctx)
        pmem = PMEM(layout="hashtable", map_sync=True)
        pmem.mmap("/pmem/perf_mem", comm)
        data = np.arange(1 << 19, dtype=np.float64)  # 4 MiB
        for _ in range(4):
            pmem.store("hot", data)
        pmem.load("hot")
        pmem.munmap()

    return record_from_spmd(cl.run(1, fn))


# ---------------------------------------------------------------------------
# small-variable key-value ops (the scalar pool path)
# ---------------------------------------------------------------------------
#
# 64 x 4 KiB variables on one rank with PMEM() defaults (hashtable, bp4),
# MAP_SYNC off (``kv.<op>``) and on (``kv.<op>.sync``): a first run stores
# them, the measured run maps the pool again and overwrites, loads or
# deletes every one.  Each op is a handful of transactions of 8-byte pool
# accesses through ``DaxMapping.write/read/persist``, so these scenarios
# gate the model of the per-access fault and MAP_SYNC commit accounting.

_KV_NVARS = 64
_KV_NELEM = 512


def _kv_run(op: str, map_sync: bool) -> Callable[[], dict]:
    def job() -> dict:
        from .. import Cluster, Communicator, PMEM

        cl = Cluster(pmem_capacity=64 * MiB)
        data = np.arange(_KV_NVARS * _KV_NELEM, dtype=np.float64).reshape(
            _KV_NVARS, _KV_NELEM)
        path = "/pmem/perf_kv"

        def session(body):
            def fn(ctx):
                pmem = PMEM(map_sync=map_sync)
                pmem.mmap(path, Communicator.world(ctx))
                body(pmem)
                pmem.munmap()

            return cl.run(1, fn)

        def store_all(pmem, scale=1.0):
            for k in range(_KV_NVARS):
                pmem.store(f"v{k}", data[k] * scale)

        def load_all(pmem):
            for k in range(_KV_NVARS):
                if not np.array_equal(pmem.load(f"v{k}"), data[k]):
                    raise AssertionError(f"kv.load: v{k} read back wrong")

        def delete_all(pmem):
            for k in range(_KV_NVARS):
                pmem.delete(f"v{k}")

        session(store_all)
        body = {"overwrite": lambda pmem: store_all(pmem, 2.0),
                "load": load_all, "delete": delete_all}[op]
        return record_from_spmd(session(body))

    return job


# ---------------------------------------------------------------------------
# service RPC hot paths
# ---------------------------------------------------------------------------
#
# The service runs on its own modeled clock (wire cost model + engine
# batch makespans — repro.service.core docstring), so the whole RPC
# pipeline is deterministic and gates like every other scenario.
# modeled_ns is the service-clock delta over a fixed request script; the
# critical path walks the lifecycle spans (service.accept/decode/dispatch/
# engine/encode) together with the absorbed engine spans of the shard
# batches, so a regression in either layer moves the attribution.

def _service_record(core, t0: float) -> dict:
    from ..telemetry.critpath import (
        critical_path_spans,
        critpath_summary,
        offer_capture,
    )

    offer_capture("service", (core, t0))
    return perf_record(core.clock_ns - t0, critpath_summary(
        critical_path_spans(core.ctx.trace.spans, t0, core.clock_ns)))


def _service_rpc_store() -> dict:
    from ..service import ServiceConfig, ServiceCore
    from ..service import wire as svc_wire

    core = ServiceCore(ServiceConfig(nshards=2))
    t0 = core.clock_ns
    data = np.arange(1 << 13, dtype=np.float64)  # 64 KiB values
    seq = 0
    for wave in range(2):  # second wave overwrites in place
        for k in range(16):
            seq += 1
            core.handle_payload(
                svc_wire.encode_store(seq, f"svc/v{k}",
                                      data * (wave + 1))[4:])
    return _service_record(core, t0)


def _service_rpc_load_partial() -> dict:
    from ..pmemcpy.selection import Hyperslab
    from ..service import ServiceConfig, ServiceCore
    from ..service import wire as svc_wire

    core = ServiceCore(ServiceConfig(nshards=2))
    grid = np.arange(96 * 96, dtype=np.float64).reshape(96, 96)
    t0 = core.clock_ns
    seq = 0
    for k in range(4):
        seq += 1
        core.handle_payload(
            svc_wire.encode_store(seq, f"svc/grid{k}", grid)[4:])
    slab = Hyperslab(start=(0, 0), count=(12, 12), stride=(8, 8))
    for rnd in range(8):
        for k in range(4):
            seq += 1
            core.handle_payload(svc_wire.encode_load(
                seq, f"svc/grid{k}",
                offsets=(rnd * 8, 16), dims=(24, 48))[4:])
            seq += 1
            core.handle_payload(svc_wire.encode_load(
                seq, f"svc/grid{k}", selection=slab)[4:])
    return _service_record(core, t0)


# ---------------------------------------------------------------------------
# registration
# ---------------------------------------------------------------------------

def _populate() -> None:
    from ..harness.experiment import PAPER_LIBRARIES

    for library in PAPER_LIBRARIES:
        for nprocs in FIG_PROCS:
            quick = nprocs in QUICK_FIG_PROCS
            _register(Scenario(
                f"fig6.{library}.{nprocs}p", "fig6", quick,
                _fig_run(library, nprocs, "write"),
            ))
            _register(Scenario(
                f"fig7.{library}.{nprocs}p", "fig7", quick,
                _fig_run(library, nprocs, "read"),
            ))
    _register(Scenario("pmdk.alloc_churn", "pmdk", True, _pmdk_alloc_churn))
    _register(Scenario("pmdk.tx_commit", "pmdk", True, _pmdk_tx_commit))
    _register(Scenario("meta.lock_striped", "meta", True,
                       _meta_run(64, True)))
    _register(Scenario("meta.lock_single", "meta", True,
                       _meta_run(1, False)))
    _register(Scenario("mem.memcpy_persist", "mem", True, _mem_hot_path))
    for op in ("overwrite", "load", "delete"):
        for map_sync in (False, True):
            _register(Scenario(
                f"kv.{op}.sync" if map_sync else f"kv.{op}", "kv", True,
                _kv_run(op, map_sync),
            ))
    for library in PAPER_LIBRARIES:
        for kind in ("1pct", "plane", "points"):
            _register(Scenario(
                f"partial.{kind}.{library}", "partial", kind == "1pct",
                _partial_run(library, kind),
            ))
    for library in ("PMCPY-A", "PMCPY-B"):
        for kind in ("plane", "points"):
            _register(Scenario(
                f"partial.{kind}.{library}.raw", "partial", False,
                _partial_run(library, kind, serializer="raw"),
            ))
    _register(Scenario("service.rpc_store", "service", True,
                       _service_rpc_store))
    _register(Scenario("service.rpc_load_partial", "service", True,
                       _service_rpc_load_partial))


_populate()
