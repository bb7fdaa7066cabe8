"""The four workloads, driven through the program's public entry points.

All are closed loops fed from one process with the program's default
settings (``REPRO_ENGINE`` / ``REPRO_TRACE`` unset).  Each workload is a
sequence of *units*; a slice of the timed window is a whole number of
units, and everything a unit needs (data, op order) is drawn from the
seeded generator in ``prepare`` before the unit's clock starts.

What each op timer brackets is one public call, with the data compare
outside it:

================  ====================================================
kv_small/kv_grid  ``PMEM.store`` / ``PMEM.load`` on the rank thread
service_loopback  ``await ServiceClient.store`` / ``.load``
fig_sweep         ``run_io_experiment`` — a cell's write job and its
                  read-back cannot be timed apart from outside, so
                  ``store_*`` and ``load_*`` both carry cell wall / 2
================  ====================================================
"""

from __future__ import annotations

import asyncio
import gc
import math
import resource
import statistics
import time
from time import perf_counter

import numpy as np

import repro.harness.experiment as experiment
from repro import Cluster, Communicator, Hyperslab, PMEM
from repro.errors import ReproError
from repro.perf.scenarios import perf_workload
from repro.service import server as svc
from repro.service.core import ServiceConfig
from repro.units import MiB

from layers import set_op

_FAILED = object()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def rss_mb() -> float:
    """Resident set now (the high-water mark cannot show growth below an
    earlier peak); falls back to the peak where /proc is missing."""
    try:
        with open("/proc/self/statm") as fh:
            pages = int(fh.read().split()[1])
    except (OSError, ValueError, IndexError):
        return peak_rss_mb()
    return pages * resource.getpagesize() / MiB


#: seconds :func:`host_kernel` takes on the reference host — this sandbox
#: in its fast state; every host time is reported as on that host
REF_KERNEL_S = 0.008


def host_kernel() -> float:
    """Seconds a fixed piece of interpreter-bound work takes right now.

    It shares nothing with the program: dict/list/float churn, small numpy
    ops and a few MiB of memcpy, the mix the emulation layers are made of.
    """
    t0 = perf_counter()
    table: dict[int, int] = {}
    ring = []
    acc = 0.0
    for i in range(20000):
        key = i & 255
        table[key] = table.get(key, 0) + i
        ring.append((key, acc))
        if len(ring) > 64:
            ring.clear()
        acc += math.sqrt(i) * 0.5
    a = np.zeros(512)
    b = np.ones(512)
    for _ in range(1500):
        a += b
        a[::2].sum()
    blob = bytearray(1 << 20)
    for _ in range(8):
        bytes(blob)
    return perf_counter() - t0


def host_slowdown(samples: int = 1) -> float:
    """How much slower than the reference host this host is right now."""
    return statistics.median(
        host_kernel() for _ in range(samples)) / REF_KERNEL_S


class Rec:
    """What one unit measured.

    The host has fast and slow states that last from 0.1 s to minutes and
    differ by 30-70% (a shared core), far more than any bound.  So time is
    accounted in *granules* — ``open()`` ... ``close()`` around a unit or a
    part of one — with :func:`host_slowdown` sampled at both ends, and every
    host time of a granule is divided by the mean of the two: ``wall``,
    ``cpu`` and the latencies read as on the reference host.
    ``raw_wall``/``raw_cpu`` and the factors stay in the output."""

    def __init__(self, samples: int = 1):
        #: kernel samples at each end of a granule
        self.samples = samples
        self.attempted = 0
        self.failed = 0
        self.begun = 0          # ops that reached their timer
        self.wall = 0.0         # s inside granules, normalised
        self.cpu = 0.0          # process CPU s inside granules, normalised
        self.raw_wall = 0.0
        self.raw_cpu = 0.0
        self.slowdowns: list[float] = []           # per granule
        self.lat: dict[str, list[float]] = {
            "store": [], "load": [], "part": []}
        self.modeled_s = 0.0                       # modeled clock
        self.baseline_modeled_s = 0.0              # fig_sweep
        #: fig_sweep: the (library, procs) behind each store/load entry
        self.cells: list[tuple] = []
        self.notes: list[str] = []

    def open(self, slowdown: float | None = None) -> None:
        self._slow0 = (host_slowdown(self.samples) if slowdown is None
                       else slowdown)
        self._marks = [len(v) for v in self.lat.values()]
        self._c0 = time.process_time()
        self._w0 = perf_counter()

    def close(self) -> float:
        """End the granule; returns the slowdown sampled at its end so the
        next granule can start from it."""
        wall = perf_counter() - self._w0
        cpu = time.process_time() - self._c0
        slow1 = host_slowdown(self.samples)
        slow = (self._slow0 + slow1) / 2
        self.raw_wall += wall
        self.raw_cpu += cpu
        self.wall += wall / slow
        self.cpu += cpu / slow
        self.slowdowns.append(slow)
        for values, start in zip(self.lat.values(), self._marks):
            values[start:] = [x / slow for x in values[start:]]
        return slow1

    def fail(self, why: str, n: int = 1) -> None:
        self.failed += n
        if len(self.notes) < 8:
            self.notes.append(why)

    def timed(self, kind: str, fn, *args, **kwargs):
        """One op under the host timer; a typed error fails the op."""
        self.begun += 1
        set_op(self.begun)
        t0 = perf_counter()
        try:
            out = fn(*args, **kwargs)
        except ReproError as exc:
            self.fail(f"{kind}: {type(exc).__name__}: {exc}")
            return _FAILED
        self.lat[kind].append((perf_counter() - t0) * 1e3)
        return out

    def check(self, what: str, out, expected) -> None:
        if out is not _FAILED and not np.array_equal(out, expected):
            self.fail(f"{what}: wrong data")


class Workload:
    name = ""
    why = ""
    #: slices the timed window is cut into (the quantum `all` interleaves)
    nslices = 5
    #: kernel samples at each end of a granule
    samples = 1
    #: per-op call counts repeat exactly from run to run (one rank, no
    #: timing-dependent batching), so they are taken from one unit
    exact_counts = False

    def __init__(self, seed: int, smoke: bool = False):
        self.rng = np.random.default_rng(seed)
        self.smoke = smoke
        self.units = 0

    def setup(self) -> None:
        """Build the system under test, preload it, warm it up."""

    def prepare(self) -> None:
        """Draw the next unit's inputs; runs outside the unit's clock."""
        self.units += 1

    def unit(self, rec: Rec) -> None:
        raise NotImplementedError

    def run_slice(self, budget_s: float) -> list[Rec]:
        """Whole units while another still fits the budget (always at
        least one), one ``Rec`` each; a unit is one granule unless it
        splits itself."""
        t0 = perf_counter()
        recs = []
        slowdown = None
        while True:
            self.prepare()
            rec = Rec(self.samples)
            u0 = perf_counter()
            rec.open(slowdown)
            self.unit(rec)
            slowdown = rec.close()
            u = perf_counter() - u0
            recs.append(rec)
            if perf_counter() - t0 + u > budget_s:
                return recs

    def unit_percentiles(self, recs: list[Rec], kind: str, q: float
                         ) -> list[float]:
        """The ``q``-th percentile of ``kind`` latencies, per unit."""
        return [float(np.percentile(r.lat[kind], q))
                for r in recs if r.lat[kind]]

    def finish(self, rec: Rec) -> None:
        """Quiescent correctness pass after the window."""

    def close(self) -> None:
        pass

    def peak_rss_mb(self) -> float:
        return peak_rss_mb()

    def stats(self) -> dict:
        """Counters the system under test keeps itself (public stats)."""
        return {}

    def sizes(self) -> dict:
        return {}


class _KvWorkload(Workload):
    """One rank against one cluster; a unit is ``Cluster.run`` of ``body``
    plus ``res.time()``, with the collector paused as
    ``repro.perf.measure`` does."""

    exact_counts = True
    path = "/pmem/bench"
    unit_ops = 0
    pmem_kwargs: dict = {}
    capacity: int | None = None

    def setup(self) -> None:
        self.cluster = Cluster(pmem_capacity=self.capacity)
        self.run_slice(0)

    def prepare(self) -> None:
        super().prepare()
        gc.collect()

    def body(self, pmem: PMEM, rec: Rec) -> None:
        raise NotImplementedError

    def unit(self, rec: Rec) -> None:
        rec.attempted += self.unit_ops
        begun = rec.begun

        def rank(ctx):
            pmem = PMEM(**self.pmem_kwargs)
            pmem.mmap(self.path, Communicator.world(ctx))
            try:
                self.body(pmem, rec)
            finally:
                pmem.munmap()

        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            res = self.cluster.run(1, rank)
            rec.modeled_s = res.time().makespan_ns / 1e9
        except ReproError as exc:
            rec.fail(f"unit: {type(exc).__name__}: {exc}",
                     self.unit_ops - (rec.begun - begun))
        finally:
            if gc_was_enabled:
                gc.enable()


class KvSmall(_KvWorkload):
    name = "kv_small"
    why = ("64 x 4 KiB variables on one rank with PMEM() defaults: fixed "
           "per-op cost (pmdk, layout, trace recording) dominates, the "
           "data path is negligible")
    NVARS, NELEM, NCHURN = 64, 512, 16
    unit_ops = 2 * NVARS + 2 * NCHURN

    def __init__(self, seed, smoke=False):
        super().__init__(seed, smoke)
        self.base = self.rng.random((self.NVARS, self.NELEM))

    def prepare(self) -> None:
        rng = self.rng
        self.data = self.base + (self.units + 1)
        self.plan = (rng.permutation(self.NVARS), rng.permutation(self.NVARS),
                     rng.choice(self.NVARS, self.NCHURN, replace=False))
        super().prepare()

    def body(self, pmem, rec):
        data = self.data
        stores, loads, churn = self.plan
        for k in stores:
            rec.timed("store", pmem.store, f"v{k}", data[k])
        for k in loads:
            rec.check(f"load v{k}",
                      rec.timed("load", pmem.load, f"v{k}"), data[k])
        for k in churn:
            # timed apart from the overwrites above: a delete is not a
            # store, and a store into a fresh name takes another path
            rec.begun += 2
            try:
                pmem.delete(f"v{k}")
                pmem.store(f"v{k}", data[k])
            except ReproError as exc:
                rec.fail(f"churn v{k}: {type(exc).__name__}: {exc}", 2)

    def sizes(self):
        return {"variables": self.NVARS, "bytes_per_variable": self.NELEM * 8,
                "ops_per_unit": self.unit_ops, "ranks": 1,
                "pmem": "PMEM() defaults: hashtable, bp4, MAP_SYNC off"}


class KvGrid(_KvWorkload):
    name = "kv_grid"
    why = ("8 x 2 MiB variables on a 32^3 chunk grid, raw, hierarchical, "
           "MAP_SYNC: data-proportional cost (device, memcpy, selection, "
           "row reads) dominates; stores sit beside whole and partial reads")
    NVARS, N, CHUNK, BOX = 8, 64, 32, 14
    unit_ops = NVARS * 3 + NVARS // 4
    pmem_kwargs = {"layout": "hierarchical", "serializer": "raw",
                   "map_sync": True}
    capacity = 256 * MiB

    def __init__(self, seed, smoke=False):
        super().__init__(seed, smoke)
        self.base = self.rng.random((self.NVARS,) + (self.N,) * 3)

    def prepare(self) -> None:
        rng = self.rng
        self.data = self.base + (self.units + 1)
        self.plan = (rng.integers(0, self.N - self.BOX + 1,
                                  size=(self.NVARS, 3)),
                     rng.integers(0, 4, size=self.NVARS))
        super().prepare()

    def body(self, pmem, rec):
        n, box = self.N, self.BOX
        boxes, planes = self.plan
        names = [f"g{v}" for v in range(self.NVARS)]
        for v, name in enumerate(names):
            if v:
                # a variable is a granule: a 2 s unit is too long for the
                # two samples at its ends to say how fast the host was
                rec.open(rec.close())
            arr = self.data[v]
            pmem.alloc(name, (n, n, n), np.float64,
                       chunk_shape=(self.CHUNK,) * 3)
            rec.timed("store", pmem.store, name, arr, offsets=(0, 0, 0))
            i, j, k = (int(x) for x in boxes[v])
            out = rec.timed("part", pmem.load, name, selection=Hyperslab(
                start=(i, j, k), count=(box, box, box)))
            rec.check(f"box {name}", out,
                      arr[i:i + box, j:j + box, k:k + box])
            p = int(planes[v])
            out = rec.timed("part", pmem.load, name, selection=Hyperslab(
                start=(p, 0, 0), stride=(4, 1, 1), count=(n // 4, n, n)))
            rec.check(f"planes {name}", out, arr[p::4])
            if v % 4 == 0:
                rec.check(f"load {name}",
                          rec.timed("load", pmem.load, name), arr)
        # a block store appends chunks; start every unit from empty
        # variables so the chunk lists do not grow with the window
        for name in names:
            pmem.delete(name)

    def sizes(self):
        return {"variables": self.NVARS, "bytes_per_variable": self.N ** 3 * 8,
                "chunk_grid": f"{self.CHUNK}^3", "device_bytes": self.capacity,
                "ops_per_unit": self.unit_ops, "ranks": 1,
                "part_loads": f"dense {self.BOX}^3 box (~1%) and a stride-4 "
                              "plane set (25%) per variable",
                "pmem": "hierarchical, raw, MAP_SYNC on (PMCPY-B locking)"}


class FigSweep(Workload):
    name = "fig_sweep"
    why = ("the paper's Figs. 6/7 grid, 5 libraries x {8, 24} procs, whole "
           "sweeps: what a researcher waits for, and the only workload "
           "where sim.fluid, telemetry.critpath, baselines and mpi do most "
           "of the work")
    nslices = 4     # a 5 s sweep each, in the default 24 s window
    LIBS = ("PMCPY-A", "PMCPY-B", "ADIOS", "NetCDF", "pNetCDF")
    PROCS = (8, 24)

    def __init__(self, seed, smoke=False):
        super().__init__(seed, smoke)
        self.procs = self.PROCS[:1] if smoke else self.PROCS
        self.domain = perf_workload()

    def setup(self) -> None:
        experiment.run_io_experiment("PMCPY-A", 8, self.domain)

    def prepare(self) -> None:
        super().prepare()
        gc.collect()
        grid = [(lib, p) for lib in self.LIBS for p in self.procs]
        self.grid = [grid[i] for i in self.rng.permutation(len(grid))]

    def unit(self, rec: Rec) -> None:
        modeled: dict[tuple, float] = {}
        for n, (lib, procs) in enumerate(self.grid):
            if n:
                # a cell is a granule: a sweep is too long for two samples.
                # Collecting between cells (not inside: the collector stays
                # on) keeps one cell from paying for the garbage of the
                # 24-rank job before it, which cell that is being random
                slowdown = rec.close()
                gc.collect()
                rec.open(slowdown)
            rec.attempted += 2
            rec.begun += 2
            set_op(rec.begun)
            t0 = perf_counter()
            try:
                jobs = experiment.run_io_experiment(lib, procs, self.domain)
            except ReproError as exc:
                rec.fail(f"{lib} {procs}p: {type(exc).__name__}: {exc}", 2)
                continue
            per_job = (perf_counter() - t0) / 2
            rec.cells.append((lib, procs))
            rec.lat["store"].append(per_job * 1e3)
            rec.lat["load"].append(per_job * 1e3)
            for job in jobs:
                modeled[lib, procs, job.direction] = job.seconds
        rec.modeled_s = sum(
            s for (lib, _, _), s in modeled.items() if lib.startswith("PM"))
        rec.baseline_modeled_s = sum(
            s for (lib, _, _), s in modeled.items()
            if not lib.startswith("PM"))
        # the paper's ordering, as an invariant on the modeled clock
        top = max(self.procs)
        for direction in ("write", "read"):
            a, b, c = (modeled.get((lib, top, direction))
                       for lib in ("PMCPY-A", "ADIOS", "NetCDF"))
            if None not in (a, b, c) and not a < b < c:
                rec.fail(f"{direction} at {top}p: expected PMCPY-A < ADIOS "
                         f"< NetCDF, got {a:.3f} {b:.3f} {c:.3f}")

    def unit_percentiles(self, recs, kind, q):
        """A sweep's ten cells differ 30-fold, and a run holds only three
        or four sweeps: the percentile is taken over the cell kinds, each
        at its median over the sweeps, so that one disturbed cell moves
        that cell's value and not the order of all ten."""
        by_cell: dict[tuple, list[float]] = {}
        for r in recs:
            for cell, ms in zip(r.cells, r.lat[kind]):
                by_cell.setdefault(cell, []).append(ms)
        return [float(np.percentile(
            [statistics.median(v) for v in by_cell.values()], q))]

    def sizes(self):
        return {"domain": repr(self.domain), "libraries": list(self.LIBS),
                "procs": list(self.procs),
                "ops_per_unit": 2 * len(self.LIBS) * len(self.procs),
                "ranks": "8 or 24 ThreadEngine threads under one GIL"}


class ServiceLoopback(Workload):
    name = "service_loopback"
    why = ("asyncio server on loopback as `serve` configures it, 2 shards, "
           "2 connections x 4 calls in flight, Zipf(1.1) over 64 keys, 50% "
           "store: the only path through service.*; hot keys make batching "
           "matter")
    NKEYS, NELEM = 64, 512
    CONNS, OUTSTANDING = 2, 4
    ZIPF, STORE_FRAC = 1.1, 0.5
    WARMUP = 200
    #: a unit is this many seconds of the closed loop; the 8 calls then in
    #: flight complete inside it, so that the host-speed samples at its ends
    #: are taken with the server idle and not fighting its threads for the GIL
    UNIT_S = 1.0
    samples = 3
    #: RSS grows with every request served, so the high-water mark is read
    #: after a fixed number of requests, not at the end of a fixed time
    RSS_AT = 1000
    SCRIPT = 1 << 16

    def __init__(self, seed, smoke=False):
        super().__init__(seed, smoke)
        rng = self.rng
        self.base = rng.random((self.NKEYS, self.NELEM))
        # key/0 is the hottest for every seed: which shard owns the hot
        # keys decides how evenly the two shards are loaded, and that is a
        # property of the workload, not something to redraw per seed
        p = 1.0 / np.arange(1, self.NKEYS + 1) ** self.ZIPF
        self.keys = rng.choice(self.NKEYS, size=self.SCRIPT, p=p / p.sum())
        self.is_store = rng.random(self.SCRIPT) < self.STORE_FRAC
        self.names = [f"key/{k}" for k in range(self.NKEYS)]
        self.version = [0] * self.NKEYS
        self.next = 0
        self.served = 0
        self.rss_at: float | None = None
        self.loop = asyncio.new_event_loop()
        self.server = None
        self.clients: list = []

    # the `serve` CLI builds ServiceConfig(nshards, max_inflight=1024,
    # batch_max=64, collect_engine_spans=False); the other two are defaults
    def config(self) -> ServiceConfig:
        return ServiceConfig(nshards=2, collect_engine_spans=False)

    def setup(self) -> None:
        self.loop.run_until_complete(self._start())
        self.loop.run_until_complete(self._run(Rec(), count=self.WARMUP))
        self.served = 0

    async def _start(self) -> None:
        self.server = await svc.ServiceServer(config=self.config()).start()
        self.clients = [
            await svc.ServiceClient.connect(
                "127.0.0.1", self.server.port, trace_base=i + 1)
            for i in range(self.CONNS)
        ]
        for k, name in enumerate(self.names):
            await self.clients[k % self.CONNS].store(name, self.base[k])

    def unit(self, rec: Rec) -> None:
        self.loop.run_until_complete(self._run(rec, seconds=self.UNIT_S))

    async def _run(self, rec, *, seconds=None, count=None) -> None:
        """8 closed-loop callers walk the script until the deadline (each
        finishes the call it has in flight) or for ``count`` requests."""
        t0 = perf_counter()
        end = None if count is None else self.next + count

        async def caller(client):
            while end is None or self.next < end:
                i = self.next
                self.next = i + 1
                await self._request(client, i, rec)
                if seconds is not None and perf_counter() - t0 >= seconds:
                    return

        await asyncio.gather(*(caller(c) for c in self.clients
                               for _ in range(self.OUTSTANDING)))

    async def _request(self, client, i: int, rec: Rec) -> None:
        k = int(self.keys[i % self.SCRIPT])
        base = self.base[k]
        rec.attempted += 1
        rec.begun += 1
        set_op(i + 1)
        try:
            if self.is_store[i % self.SCRIPT]:
                self.version[k] += 1
                arr = base + self.version[k]
                t0 = perf_counter()
                await client.store(self.names[k], arr)
                rec.lat["store"].append((perf_counter() - t0) * 1e3)
            else:
                t0 = perf_counter()
                out = await client.load(self.names[k])
                rec.lat["load"].append((perf_counter() - t0) * 1e3)
                # stores to one key may be in flight or coalesced: any
                # version issued so far is a value stored to that key
                v = round(float(out[0] - base[0]))
                if not (0 <= v <= self.version[k]
                        and np.array_equal(out, base + v)):
                    rec.fail(f"load {self.names[k]}: not a stored value")
        except (ReproError, ConnectionError) as exc:
            rec.fail(f"request {i}: {type(exc).__name__}: {exc}")
        self.served += 1
        if self.served == self.RSS_AT:
            self.rss_at = peak_rss_mb()

    def finish(self, rec: Rec) -> None:
        self.loop.run_until_complete(self._final_pass(rec))

    async def _final_pass(self, rec: Rec) -> None:
        """Nothing in flight: every key stores and reloads exactly."""
        client = self.clients[0]
        for k, name in enumerate(self.names):
            rec.attempted += 2
            self.version[k] += 1
            arr = self.base[k] + self.version[k]
            try:
                await client.store(name, arr)
                if not np.array_equal(await client.load(name), arr):
                    rec.fail(f"final {name}: reload differs from store")
            except (ReproError, ConnectionError) as exc:
                rec.fail(f"final {name}: {type(exc).__name__}: {exc}", 2)

    def close(self) -> None:
        self.loop.run_until_complete(self._stop())
        self.loop.close()

    async def _stop(self) -> None:
        for client in self.clients:
            await client.close()
        if self.server is not None:
            await self.server.close()
        await self.loop.shutdown_default_executor()

    def peak_rss_mb(self) -> float:
        return self.rss_at if self.rss_at is not None else peak_rss_mb()

    def stats(self) -> dict:
        doc = self.server.core.stats()
        counters = doc["counters"]
        return {
            "batches": sum(s["batches"] for s in doc["shards"]),
            "batch_requests": sum(s["requests"] for s in doc["shards"]),
            "coalesced": counters.get("service.store.coalesced", 0.0),
            "rejects": counters.get("service.rejects", 0.0),
            "clock_ns": doc["clock_ns"],
        }

    def sizes(self):
        return {"keys": self.NKEYS, "bytes_per_value": self.NELEM * 8,
                "shards": 2, "connections": self.CONNS,
                "outstanding_per_connection": self.OUTSTANDING,
                "zipf_s": self.ZIPF, "store_fraction": self.STORE_FRAC,
                "warmup_requests": self.WARMUP,
                "rss_read_after_requests": self.RSS_AT}


WORKLOADS = {w.name: w for w in (FigSweep, KvSmall, KvGrid, ServiceLoopback)}
