"""The layer table and the outside-in tracer of the traced run.

``LAYERS`` is the one table that says which callables mark the boundary of
which layer (layers are this repo's modules).  :class:`Tracer` replaces each
of them with a timing wrapper *from here* — nothing under ``src/`` knows it
is being measured — and keeps, per thread, a stack of open spans:

- a span is (name, layer, wall start/end, CPU ns, id, parent id, thread,
  op id); the first ``span_cap`` spans are kept in memory and written out
  by :meth:`Tracer.dump`, while the per-layer aggregates cover every call;
- a layer's **self time** is its spans' duration minus the part their child
  spans cover, on the calling thread's CPU clock (``time.thread_time_ns``):
  24 rank threads under one GIL then stay additive, and a thread blocked in
  a barrier or a join accrues nothing;
- the wrappers' own cost is calibrated at install time (a wrapped no-op,
  called from a wrapped loop) and reported as ``Tracer.overhead_ns`` so the
  caller can take it out of each layer: per own call what lands inside the
  span, per call of a wrapped child what lands in the parent's self time;
- wall self time is kept beside it for the main-thread *phase split* of a
  harness job (rank execution / replay / analysis / fold / other);
- a *probe* counts work at the same boundary the span is taken (bytes the
  device stored, trace ops the simulator replayed), so ratios are measured
  where the work happens.

Code that is not listed — the telemetry hot path (``record``, ``span``),
numpy, asyncio, the benchmark's own loop — lands in the self time of the
listed callable that called it, or, outside every span, in
``trace.unattributed_frac``.  For a generator or a coroutine a "call" is
one resume, and only the time between resumes is charged.

A callable that no longer exists is skipped and listed in
``Tracer.missing`` so that a rename under ``src/`` degrades one number
instead of breaking the run.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import json
import sys
import threading
from time import perf_counter_ns, thread_time_ns

#: layer -> {"module" or "module:Class": "callable names"}
LAYERS: dict[str, dict[str, str]] = {
    "harness": {
        "repro.harness.experiment": "run_io_experiment",
        "repro.workloads.checkpoint": "write_job read_job",
        "repro.workloads.domain3d:Domain3D": "generate verify block_for",
    },
    "baselines": {
        "repro.baselines.adios:AdiosDriver": "open def_var write read close",
        "repro.baselines.netcdf4:NetCDF4Driver":
            "open def_var write read close",
        "repro.baselines.pnetcdf:PnetcdfDriver":
            "open def_var write read close",
        "repro.baselines.pmemcpy_driver:PmemcpyDriver":
            "open def_var write read close",
    },
    "mpi": {
        "repro.mpi.comm:Communicator":
            "sub barrier bcast scatter gather allgather alltoall allreduce "
            "reduce scan send recv",
        "repro.mpi.io:MPIFile":
            "open close sync set_size write_at read_at write_at_all "
            "read_at_all",
    },
    "sim.engine": {
        "repro.sim.engine": "run_spmd",
        "repro.sim.engine:ThreadEngine": "run",
        "repro.sim.engine:SharedBoard":
            "functional_barrier exchange p2p_put p2p_take put get wait_get",
    },
    "sim.engine.record": {
        "repro.sim.engine:Context":
            "delay transfer lock_acquired lock_released "
            "record_guarded_write barrier",
        "repro.sim.trace:RankTrace": "append",
    },
    "sim.fluid": {
        "repro.sim.fluid:FluidSimulator": "run",
    },
    "telemetry.critpath": {
        "repro.telemetry.critpath":
            "critical_path_spmd critical_path_spans critpath_doc "
            "critpath_summary offer_capture",
    },
    "telemetry.fold": {
        "repro.telemetry": "merged_counters merged_metrics",
        "repro.telemetry.spans": "spans_of",
        "repro.telemetry.export": "spans_to_dicts registry_percentiles",
        "repro.telemetry.metrics:MetricRegistry":
            "legacy_counters as_dict merge",
        "repro.telemetry.counters:Counters": "merge",
    },
    "pmemcpy.api": {
        "repro.pmemcpy.api:PMEM":
            "mmap munmap alloc store load load_dims list_variables delete "
            "stats",
    },
    "pmemcpy.layout": {
        "repro.pmemcpy.layout_hash:HashtableLayout":
            "setup teardown get_meta put_meta drop_meta list_variables "
            "alloc_extent extent_sink extent_source free_extent",
        "repro.pmemcpy.layout_fs:HierarchicalLayout":
            "setup teardown get_meta put_meta drop_meta list_variables "
            "alloc_extent extent_sink extent_source free_extent",
        "repro.pmemcpy.engine:Layout": "delete_variable",
        "repro.pmemcpy.engine:MetaGuard": "__enter__ __exit__",
        "repro.pmemcpy.engine:Extent": "close",
        "repro.pmemcpy.dataset:VariableMeta": "pack unpack",
    },
    "pmemcpy.selection": {
        "repro.pmemcpy.selection": "as_selection",
        "repro.pmemcpy.selection:Hyperslab":
            "normalized overlap_count runs scatter_into gather_from blocks "
            "block_result_slices",
    },
    "serial": {
        "repro.serial.bp4:BP4Serializer": "packed_size pack unpack",
        "repro.serial.raw:RawSerializer":
            "packed_size pack unpack read_header",
        "repro.serial.base:PmemSink": "write persist",
        "repro.serial.base:PmemSource": "read read_at",
    },
    "pmdk.pool": {
        "repro.pmdk.pool:PmemPool":
            "create open attach write read persist touch read_u64 "
            "write_u64 acquire_lane release_lane malloc free",
    },
    "pmdk.hashmap": {
        "repro.pmdk.hashmap:PmemHashmap":
            "create open put get get_ref contains delete keys items",
    },
    "pmdk.alloc": {
        "repro.pmdk.alloc:Heap": "format rebuild malloc free usable_size",
    },
    "pmdk.tx": {
        "repro.pmdk.tx:Transaction":
            "__enter__ __exit__ add_range write commit abort",
    },
    "pmdk.locks": {
        "repro.pmdk.locks:PmemMutex": "acquire release",
        "repro.pmdk.locks:PmemRWLock":
            "acquire_read release_read acquire_write release_write",
        "repro.pmdk.locks:VolatileRWLock":
            "acquire_read release_read acquire_write release_write",
        "repro.pmdk.locks:PmemStripedLocks": "lock_for",
    },
    "kernel.dax": {
        "repro.kernel.dax:DaxMapping":
            "write read touch view persist unmap",
        "repro.kernel.dax:DaxFS":
            "mkdir create lookup listdir unlink rename truncate fallocate "
            "write_file read_file mmap exists",
        "repro.kernel.vfs:VFS":
            "open close pwrite pread write read fsync ftruncate fallocate "
            "fstat mmap mkdir unlink rename listdir exists stat",
    },
    "mem.device": {
        "repro.mem.device:PMEMDevice":
            "store load view persist sync_commit drain",
    },
    "mem.memcpy": {
        "repro.mem.memcpy":
            "charge_pmem_write charge_pmem_read charge_dram_copy charge_cpu "
            "charge_net charge_pfs_write charge_pfs_read "
            "memcpy_dram_to_pmem memcpy_pmem_to_dram",
    },
    "service.wire": {
        "repro.service.wire":
            "encode_store encode_load encode_delete encode_stats "
            "encode_ping encode_ok_empty encode_ok_array encode_ok_json "
            "encode_error decode_frame decode_frame_payload decode_request "
            "decode_ok decode_error",
    },
    "service.core": {
        "repro.service.core:ServiceCore":
            "accept admit release shard_of execute_batch stats "
            "_handle_local",
    },
    "service.shard": {
        "repro.service.shard:ShardExecutor": "apply",
        "repro.service.shard:ShardRing": "shard_of",
    },
    # the server has no synchronous public surface: its work happens in the
    # connection/drain coroutines and in the client's send and receive loops
    "service.server": {
        "repro.service.server": "_read_frame _safe_write",
        "repro.service.server:ServiceServer":
            "start close _on_connection _drain",
        "repro.service.server:ServiceClient":
            "connect close store load delete stats _recv_loop",
    },
}

#: a span directly under a harness span on the main thread is one phase of
#: the job; harness self time is the phase "other"
PHASES = {
    "sim.engine": "exec",
    "sim.fluid": "replay",
    "telemetry.critpath": "analysis",
    "telemetry.fold": "fold",
}


def _nbytes(data) -> int:
    n = getattr(data, "nbytes", None)
    return len(data) if n is None else int(n)


def _probe_device_store(c, args):
    c["device_stores"] = c.get("device_stores", 0) + 1
    c["device_store_bytes"] = c.get("device_store_bytes", 0) + _nbytes(args[2])


def _probe_device_persist(c, args):
    c["device_persists"] = c.get("device_persists", 0) + 1


def _probe_pmem_store(c, args):
    import numpy as np

    c["pmem_stores"] = c.get("pmem_stores", 0) + 1
    c["pmem_user_bytes"] = (c.get("pmem_user_bytes", 0)
                            + int(np.asarray(args[2]).nbytes))


def _probe_alloc_extent(c, args):
    # alloc_extent(self, ctx, name, index, size)
    c["pmem_stored_bytes"] = c.get("pmem_stored_bytes", 0) + int(args[4])


def _probe_fluid_run(c, args):
    c["fluid_runs"] = c.get("fluid_runs", 0) + 1
    c["fluid_trace_ops"] = (c.get("fluid_trace_ops", 0)
                            + sum(len(t.ops) for t in args[1]))


#: "module:Class.name" -> probe(counts, positional args), run before the span
PROBES = {
    "repro.mem.device:PMEMDevice.store": _probe_device_store,
    "repro.mem.device:PMEMDevice.persist": _probe_device_persist,
    "repro.pmemcpy.api:PMEM.store": _probe_pmem_store,
    "repro.pmemcpy.layout_hash:HashtableLayout.alloc_extent":
        _probe_alloc_extent,
    "repro.pmemcpy.layout_fs:HierarchicalLayout.alloc_extent":
        _probe_alloc_extent,
    "repro.sim.fluid:FluidSimulator.run": _probe_fluid_run,
}

#: id of the op a span belongs to.  The context variable follows the
#: issuing thread or asyncio task; threads the program starts for the op
#: (rank threads) see the process-wide fallback, which is only meaningful
#: while one op is in flight at a time — spans on the server side of
#: service_loopback therefore carry the id of the latest request issued.
OP = contextvars.ContextVar("bench_op", default=0)
_latest_op = 0


def set_op(op: int) -> None:
    global _latest_op
    _latest_op = op
    OP.set(op)


class _ThreadState:
    __slots__ = ("thread", "tidx", "stack", "acc", "counts", "nspan",
                 "is_main", "phase_wall", "job_wall")

    def __init__(self, tidx: int, nlayers: int):
        self.thread = threading.current_thread()
        self.tidx = tidx
        self.stack: list = []
        #: per layer: self CPU ns, self wall ns, calls, calls of children
        self.acc = [0] * (4 * nlayers)
        self.counts: dict[str, int] = {}
        self.nspan = 0
        self.is_main = self.thread is threading.main_thread()
        self.phase_wall: dict[str, int] = {}
        self.job_wall = 0


def _resume(it, value, exc):
    return it.send(value) if exc is None else it.throw(exc)


def _stepped(it, step):
    """Drive generator ``it`` one timed ``step`` per resume."""
    value = exc = None
    while True:
        try:
            yielded = step(it, value, exc)
        except StopIteration as stop:
            return stop.value
        try:
            value, exc = (yield yielded), None
        except BaseException as e:  # noqa: BLE001 - forwarded into ``it``
            value, exc = None, e


class _Awaitable:
    __slots__ = ("gen",)

    def __init__(self, gen):
        self.gen = gen

    def __await__(self):
        return self.gen


class Tracer:
    def __init__(self, span_cap: int = 50_000):
        self.layers = list(LAYERS)
        #: (label, layer) of every wrapped callable; spans index into it
        self.names: list[tuple[str, str]] = []
        self.missing: list[str] = []
        self.spans: list[tuple] = []
        self.span_cap = span_cap
        self.recording = span_cap > 0
        self._harness = self.layers.index("harness")
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: list[_ThreadState] = []
        self._nthreads = 0
        self._thread_names: list[str] = []
        self._retired = _ThreadState(-1, len(self.layers) + 2)
        #: CPU ns one wrapped call adds to its own span / to its parent's
        self.overhead_ns = (0.0, 0.0)

    # ------------------------------------------------------------------ wrap

    def _new_state(self) -> _ThreadState:
        with self._lock:
            st = _ThreadState(self._nthreads, len(self.layers) + 2)
            self._nthreads += 1
            self._thread_names.append(st.thread.name)
            if len(self._states) >= 256:
                self._retire_dead()
            self._states.append(st)
        self._local.st = st
        return st

    def _timed(self, fn, layer: int, name: int, probe, phase):
        tr = self
        local = self._local
        spans = self.spans
        base = 4 * layer
        harness = self._harness

        def wrapper(*args, **kwargs):
            try:
                st = local.st
            except AttributeError:
                st = tr._new_state()
            if probe is not None:
                try:
                    probe(st.counts, args)
                except (IndexError, TypeError, AttributeError):
                    pass  # the signature moved: lose the count, not the call
            stack = st.stack
            sid = 0
            if tr.recording:
                st.nspan += 1
                sid = (st.tidx << 32) | st.nspan
            # [child CPU ns, child wall ns, layer, span id]
            frame = [0, 0, layer, sid]
            stack.append(frame)
            w0 = perf_counter_ns()
            c0 = thread_time_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                dc = thread_time_ns() - c0
                w1 = perf_counter_ns()
                dw = w1 - w0
                stack.pop()
                acc = st.acc
                acc[base] += dc - frame[0]
                acc[base + 1] += dw - frame[1]
                acc[base + 2] += 1
                parent = 0
                if stack:
                    up = stack[-1]
                    up[0] += dc
                    up[1] += dw
                    acc[4 * up[2] + 3] += 1
                    parent = up[3]
                    if (phase is not None and up[2] == harness
                            and st.is_main):
                        st.phase_wall[phase] = (
                            st.phase_wall.get(phase, 0) + dw)
                elif layer == harness and st.is_main:
                    st.job_wall += dw
                if sid:
                    spans.append((name, w0, w1, dc, sid, parent, st.tidx,
                                  OP.get() or _latest_op))
                    if len(spans) >= tr.span_cap:
                        tr.recording = False

        return wrapper

    def _wrap(self, fn, layer: int, label: str):
        self.names.append((label, self.layers[layer]))
        name = len(self.names) - 1
        probe = PROBES.get(label)
        phase = PHASES.get(self.layers[layer])
        if inspect.iscoroutinefunction(fn):
            step = self._timed(_resume, layer, name, None, phase)

            @functools.wraps(fn)
            async def co_wrapper(*args, **kwargs):
                return await _Awaitable(
                    _stepped(fn(*args, **kwargs).__await__(), step))

            return co_wrapper
        if inspect.isgeneratorfunction(fn):
            step = self._timed(_resume, layer, name, None, phase)

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                return _stepped(fn(*args, **kwargs), step)

            return gen_wrapper
        return functools.wraps(fn)(
            self._timed(fn, layer, name, probe, phase))

    def install(self) -> None:
        """Wrap every callable of ``LAYERS`` that exists."""
        for layer, (lname, targets) in enumerate(LAYERS.items()):
            for target, names in targets.items():
                modname, _, clsname = target.partition(":")
                try:
                    owner = importlib.import_module(modname)
                    if clsname:
                        owner = getattr(owner, clsname)
                except (ImportError, AttributeError):
                    self.missing.append(target)
                    continue
                for attr in names.split():
                    sep = "." if clsname else ":"
                    label = f"{target}{sep}{attr}"
                    raw = vars(owner).get(attr)
                    if raw is None:
                        self.missing.append(label)
                    elif clsname:
                        self._wrap_method(owner, attr, raw, layer, label)
                    else:
                        self._wrap_function(raw, layer, label)
        self._calibrate()

    def _calibrate(self, n: int = 5000, rounds: int = 5) -> None:
        """Measure what the wrapper itself costs, in two spare accumulator
        slots: ``n`` calls of a wrapped no-op from inside a wrapped loop.
        The no-op's self time is the cost inside a span; what the loop's
        self time gains over looping on the bare no-op is the cost a child
        adds to its parent."""
        def noop():
            pass

        def loop(fn):
            for _ in range(n):
                fn()

        inner_slot, outer_slot = len(self.layers), len(self.layers) + 1
        recording, self.recording = self.recording, False
        inner = self._timed(noop, inner_slot, 0, None, None)
        outer = self._timed(loop, outer_slot, 0, None, None)
        outer(noop)  # creates this thread's state
        acc = self._local.st.acc
        inside, outside = [], []
        for _ in range(rounds):
            marks = []
            for fn in (noop, inner):
                before = acc[4 * outer_slot]
                outer(fn)
                marks.append(acc[4 * outer_slot] - before)
            inside.append(acc[4 * inner_slot] / n)
            outside.append((marks[1] - marks[0]) / n)
            acc[4 * inner_slot] = 0
        self.overhead_ns = (sorted(inside)[rounds // 2],
                            max(0.0, sorted(outside)[rounds // 2]))
        self.recording = recording

    def _wrap_method(self, cls, attr, raw, layer, label) -> None:
        if isinstance(raw, (staticmethod, classmethod)):
            new = type(raw)(self._wrap(raw.__func__, layer, label))
        else:
            new = self._wrap(raw, layer, label)
        setattr(cls, attr, new)

    def _wrap_function(self, fn, layer, label) -> None:
        """Rebind every module-level name of the program that is bound to
        ``fn`` — ``from x import f`` copies the reference, so patching the
        home module alone would miss most callers."""
        new = self._wrap(fn, layer, label)
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "repro"
                                   or modname.startswith("repro.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, key, new)

    # ------------------------------------------------------------------ read

    def _fold(self, into: _ThreadState, st: _ThreadState) -> None:
        acc = into.acc
        for i, v in enumerate(st.acc):
            acc[i] += v
        for k, v in st.counts.items():
            into.counts[k] = into.counts.get(k, 0) + v
        for k, v in st.phase_wall.items():
            into.phase_wall[k] = into.phase_wall.get(k, 0) + v
        into.job_wall += st.job_wall

    def _retire_dead(self) -> None:
        alive = []
        for st in self._states:
            if st.thread.is_alive():
                alive.append(st)
            else:
                self._fold(self._retired, st)
        self._states = alive

    def snapshot(self) -> dict:
        """Totals so far; take it while no traced call is in flight."""
        with self._lock:
            self._retire_dead()
            total = _ThreadState(-1, len(self.layers) + 2)
            self._fold(total, self._retired)
            main_other = 0
            for st in self._states:
                self._fold(total, st)
                if st.is_main:
                    main_other = st.acc[4 * self._harness + 1]
        return {
            "layers": {
                lname: tuple(total.acc[4 * i:4 * i + 4])
                for i, lname in enumerate(self.layers)
            },
            "counts": dict(total.counts),
            "phase_wall": {**total.phase_wall, "other": main_other},
            "job_wall": total.job_wall,
        }

    @staticmethod
    def delta(a: dict, b: dict) -> dict:
        """``b - a`` for two snapshots."""
        return {
            "layers": {
                k: tuple(y - x for x, y in zip(a["layers"][k], v))
                for k, v in b["layers"].items()
            },
            "counts": {k: v - a["counts"].get(k, 0)
                       for k, v in b["counts"].items()},
            "phase_wall": {k: v - a["phase_wall"].get(k, 0)
                           for k, v in b["phase_wall"].items()},
            "job_wall": b["job_wall"] - a["job_wall"],
        }

    def dump(self, path) -> None:
        doc = {
            "schema": "bench-spans/1",
            "clock": "wall ns (perf_counter_ns); cpu_ns is thread CPU",
            "truncated": not self.recording,
            "threads": self._thread_names,
            "missing": self.missing,
            "spans": [
                {"name": self.names[n][0], "layer": self.names[n][1],
                 "start_ns": w0, "end_ns": w1, "cpu_ns": dc, "id": sid,
                 "parent": parent, "thread": tidx, "op": op}
                for n, w0, w1, dc, sid, parent, tidx, op in self.spans
            ],
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)
