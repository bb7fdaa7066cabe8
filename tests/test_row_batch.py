"""The row-segment read path is batched and columnar; the cost model is not.

A chunk's N intersecting row segments go down the stack in one call
(``Selection.run_table`` -> ``PmemSource.read_rows`` ->
``DaxMapping.touch_rows`` + ``charge_pmem_read_rows``) and are recorded as
one ``Rows`` trace entry and one ``LeafBatch`` of spans, both numpy
columns.  Everything the model records — trace ops, counters, histograms,
spans, the lb clock, the mapping's first-touch sets — and everything read
back from it — the replay (plain and causal), the span exports, every
metric family — must come out exactly (``==``) as N one-row ``read_at``
calls leave it.  The per-row loops the batch replaced live on here as the
reference."""

import itertools
import json
import math
import types

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import Cluster
from repro.errors import BadAddressError, SerializationError
from repro.kernel import DaxFS, MapFlags
from repro.mem import PMEMDevice
from repro.mpi import Communicator
from repro.pmdk.pool import RawRegion
from repro.pmemcpy import PMEM, Hyperslab, PointSelection
from repro.pmemcpy.selection import Run, _row_major_strides
from repro.serial.base import PmemSource, array_from_bytes
from repro.sim import run_spmd
from repro.sim.trace import Delay, Rows
from repro.telemetry import merged_metrics, metrics_for, record, span
from repro.telemetry import spans as spans_module
from repro.telemetry.export import chrome_trace, spans_to_dicts
from repro.telemetry.prometheus import prometheus_text
from repro.telemetry.spans import LeafBatch
from repro.units import MiB

from .test_selection import axis_st, slab_from


# ---------------------------------------------------------------------------
# the per-row reference
# ---------------------------------------------------------------------------

def rowwise_runs(sel, offsets, dims):
    """``Selection.runs`` as the per-row Python loops enumerated it before
    ``run_table`` existed."""
    if isinstance(sel, PointSelection):
        mask = sel._inside(offsets, dims)
        if not mask.any():
            return
        strides = np.asarray(_row_major_strides(dims), dtype=np.int64)
        idx = np.flatnonzero(mask)
        rel = sel.points[idx] - np.asarray(offsets, dtype=np.int64)
        src = rel @ strides if sel.rank else np.zeros(len(idx), np.int64)
        run_src, run_dst, n = int(src[0]), int(idx[0]), 1
        for k in range(1, len(idx)):
            if int(idx[k]) == run_dst + n and int(src[k]) == run_src + n:
                n += 1
                continue
            yield Run(run_src, run_dst, n)
            run_src, run_dst, n = int(src[k]), int(idx[k]), 1
        yield Run(run_src, run_dst, n)
        return
    offsets = tuple(int(o) for o in offsets)
    dims = tuple(int(d) for d in dims)
    if sel.rank == 0:
        yield Run(0, 0, 1)
        return
    axes = [sel._axis_sel(ax, o, o + d)
            for ax, (o, d) in enumerate(zip(offsets, dims))]
    if any(len(g) == 0 for g, _ in axes):
        return
    src_strides = _row_major_strides(dims)
    dst_strides = _row_major_strides(sel.out_shape)
    gl, ol = axes[-1]
    brk = np.flatnonzero((np.diff(gl) != 1) | (np.diff(ol) != 1)) + 1
    bounds = np.concatenate(([0], brk, [len(gl)]))
    segments = [(int(gl[a]) - offsets[-1], int(ol[a]), int(b - a))
                for a, b in zip(bounds[:-1], bounds[1:])]
    for idx in np.ndindex(*[len(g) for g, _ in axes[:-1]]):
        src_base = sum((int(axes[ax][0][i]) - offsets[ax]) * src_strides[ax]
                       for ax, i in enumerate(idx))
        dst_base = sum(int(axes[ax][1][i]) * dst_strides[ax]
                       for ax, i in enumerate(idx))
        for g0, o0, n in segments:
            yield Run(src_base + g0 * src_strides[-1],
                      dst_base + o0 * dst_strides[-1], n)


def load_chunk_rowwise(self, ctx, meta, serializer, chunk, sel, out) -> int:
    """``PMEM._load_chunk_ranged`` as one ``read_at`` per row segment."""
    itemsize = np.dtype(meta.dtype).itemsize
    with span(ctx, "load.read") as s:
        source = self.layout.extent_source(ctx, meta.name, chunk)
        hdr = serializer.read_header(ctx, source)
        flat = out.reshape(-1) if out.flags.c_contiguous else out.flat
        copied = payload_read = 0
        for run in rowwise_runs(sel, chunk.offsets, chunk.dims):
            seg = source.read_at(hdr.payload_off + run.src * itemsize,
                                 run.nelems * itemsize, payload=True)
            flat[run.dst:run.dst + run.nelems] = array_from_bytes(
                seg, meta.dtype, (run.nelems,))
            copied += run.nelems
            payload_read += run.nelems * itemsize
        serializer._charge_unpack_cpu(ctx, payload_read)
        stored_read = hdr.payload_off + payload_read
        record(ctx, "pmemcpy_stored_read_bytes", stored_read)
        if s is not None:
            s.attrs = {**(s.attrs or {}), "bytes": stored_read}
    return copied


def touched(mapping) -> tuple[list[int], list[int]]:
    """The pages and cachelines a mapping has first-touched, ascending —
    from its sets, or from the bool arrays its first ``touch_rows`` turned
    them into."""
    return tuple(
        sorted(ids) if ids is not None else np.flatnonzero(bits).tolist()
        for ids, bits in ((mapping._touched, mapping._page_bits),
                          (mapping._touched_lines, mapping._line_bits)))


def restart_span_ids() -> None:
    """Restart the process-wide span-id counter, so two runs compared
    ``==`` mint the same ids."""
    spans_module._span_ids = itertools.count(1)


def recorded_spans(trace) -> list:
    """The trace's spans, leaf batches expanded into new objects — unlike
    ``trace.spans``, which expands them in place, so the batches a rank
    recorded are still there to count."""
    return list(itertools.chain.from_iterable(
        s.spans() if isinstance(s, LeafBatch) else (s,)
        for s in trace.span_entries))


def snapshot(ctx) -> dict:
    """Everything the model has recorded on this rank so far."""
    return {
        "ops": list(ctx.trace.ops),
        "lb_ns": ctx.lb_ns,
        "counters": {
            name: m.value for name, m in metrics_for(ctx)._m.items()
            if m.kind != "histogram"
        },
        "histograms": {
            name: (list(h.buckets), h.count, h.sum, h.min, h.max)
            for name, h in metrics_for(ctx)._m.items()
            if h.kind == "histogram"
        },
        "spans": [(s.span_id, s.parent_id, s.name, s.rank, s.start_ns,
                   s.end_ns, s.attrs, s.status)
                  for s in recorded_spans(ctx.trace)],
    }


def read_back(res) -> dict:
    """What consumers read back from a finished run's model: the replay,
    plain and causal, the span exports and every metric family (in
    registry order), all as the JSON they are written as."""
    plain = res.time()
    causal = res.time(record_causal=True)
    registry = merged_metrics(res.traces)
    return {
        "finish_ns": plain.finish_ns,
        "breakdown": list(plain.breakdown.items()),
        "causal_breakdown": list(causal.breakdown.items()),
        "segments": causal.causal.segments,
        "locks": list(causal.causal.locks.items()),
        "trace_ops": [len(t.ops) for t in res.traces],
        "chrome_trace": json.dumps(chrome_trace(res.traces)),
        "spans": json.dumps(spans_to_dicts(res.traces)),
        "metrics": json.dumps([(name, m.as_dict())
                               for name, m in registry._m.items()]),
        "prometheus": prometheus_text(registry),
    }


def expected(sel, data):
    if isinstance(sel, PointSelection):
        return data[tuple(sel.points.T)] if sel.rank else \
            np.full(sel.out_shape, data[()])
    idx = [np.concatenate([np.arange(s + i * t, s + i * t + b)
                           for i in range(c)])
           for s, t, c, b in zip(sel.start, sel.stride, sel.count, sel.block)]
    return data[np.ix_(*idx)] if sel.rank else data[()]


# ---------------------------------------------------------------------------
# run enumeration: runs() is run_table(), element for element
# ---------------------------------------------------------------------------

def bounds_of(hs: Hyperslab) -> tuple[int, ...]:
    off, dims = hs.bbox()
    return tuple(o + d for o, d in zip(off, dims))


@st.composite
def box_in(draw, gdims):
    offsets = tuple(draw(st.integers(0, g - 1)) for g in gdims)
    return offsets, tuple(draw(st.integers(1, g - o))
                          for g, o in zip(gdims, offsets))


@st.composite
def points_in(draw, gdims, max_points=24):
    """Points with duplicates and list-adjacent row-neighbours."""
    pts = draw(st.lists(
        st.tuples(*[st.integers(0, g - 1) for g in gdims]),
        min_size=1, max_size=max_points))
    out = []
    for p in pts:
        out.append(p)
        if draw(st.booleans()) and p[-1] + 1 < gdims[-1]:
            out.append(p[:-1] + (p[-1] + 1,))   # coalesces with p
        if draw(st.integers(0, 5)) == 0:
            out.append(p)                       # duplicate
    return PointSelection(out)


@settings(max_examples=150, deadline=None)
@given(st.data(), st.lists(axis_st, min_size=1, max_size=3))
def test_runs_match_the_rowwise_enumeration(data, axes):
    hs = slab_from(axes)
    gdims = bounds_of(hs)
    for sel in (hs, data.draw(points_in(gdims))):
        for offsets, dims in [((0,) * hs.rank, gdims),
                              data.draw(box_in(gdims))]:
            want = list(rowwise_runs(sel, offsets, dims))
            assert list(sel.runs(offsets, dims)) == want
            table = sel.run_table(offsets, dims)
            assert all(col.dtype == np.int64 and col.shape == (len(want),)
                       for col in table)
            assert [c.tolist() for c in table] == [
                [r.src for r in want], [r.dst for r in want],
                [r.nelems for r in want]]


def test_run_table_of_a_zero_d_selection():
    for sel in (Hyperslab((), ()), PointSelection([()])):
        assert list(sel.runs((), ())) == [Run(0, 0, 1)]
    assert list(PointSelection(np.empty((0, 2))).runs((0, 0), (3, 3))) == []


# ---------------------------------------------------------------------------
# PMEM.load: the batch path against the row-wise reference
# ---------------------------------------------------------------------------

def run_loads(*, layout, map_sync, gdims, chunk, sels, scale=1,
              dtype=np.float64, strided_out=False, rowwise):
    """Store one variable, load every selection of ``sels`` in turn (on
    hashtable the later ones read through a mapping whose lines the earlier
    ones touched); returns (data, (arrays, snapshot), result)."""
    data = (np.arange(math.prod(gdims)) % 251).astype(dtype).reshape(gdims)

    def job(ctx):
        restart_span_ids()
        pmem = PMEM(serializer="raw", layout=layout, map_sync=map_sync)
        if rowwise:
            pmem._load_chunk_ranged = types.MethodType(load_chunk_rowwise, pmem)
        pmem.mmap("/pmem/rows", Communicator.world(ctx))
        if chunk is None:
            pmem.store("v", data)
        else:
            pmem.alloc("v", gdims, dtype, chunk_shape=chunk)
            pmem.store("v", data, offsets=(0,) * len(gdims))
        outs = []
        for sel in sels:
            out = None
            if strided_out:
                # every other element of a twice-as-large buffer
                out = np.zeros(tuple(2 * n for n in sel.out_shape),
                               dtype)[(slice(None, None, 2),) * len(sel.out_shape)]
            got = pmem.load("v", selection=sel, out=out)
            outs.append(np.array(got))
        pmem.munmap()
        return outs, snapshot(ctx)

    res = Cluster(pmem_capacity=16 * MiB, scale=scale).run(1, job)
    return data, res.returns[0], res


def check_loads(**case):
    """The batch path against the row-wise one: loaded arrays, the
    recorded model and what is read back from it.  Returns the batch
    run's snapshot and whether it recorded columns (a ``Rows`` entry and a
    ``LeafBatch``), as they came back from the rank."""
    data, (rows, rows_snap), rows_res = run_loads(rowwise=True, **case)
    _, (batch, batch_snap), batch_res = run_loads(rowwise=False, **case)
    for sel, a, b in zip(case["sels"], rows, batch):
        assert np.array_equal(b, expected(sel, data))
        assert np.array_equal(b, a)
    for key in rows_snap:
        assert batch_snap[key] == rows_snap[key], key
    trace = batch_res.traces[0]
    columnar = (any(type(e) is Rows for e in trace.entries)
                and any(isinstance(s, LeafBatch) for s in trace.span_entries))
    want, got = read_back(rows_res), read_back(batch_res)
    for key in want:
        assert got[key] == want[key], key
    return batch_snap, columnar


@st.composite
def load_case(draw):
    hs = slab_from(draw(st.lists(axis_st, min_size=1, max_size=3)))
    gdims = bounds_of(hs)
    return {
        "gdims": gdims,
        "chunk": tuple(draw(st.integers(1, g)) for g in gdims),
        "sels": [hs, draw(points_in(gdims)), hs],
        "layout": draw(st.sampled_from(["hierarchical", "hashtable"])),
        "map_sync": draw(st.booleans()),
        # scale 16384 makes a model page 128 real bytes: rows straddle pages
        "scale": draw(st.sampled_from([1, 16384])),
        "dtype": draw(st.sampled_from([np.float64, np.int32, np.uint8])),
        "strided_out": draw(st.booleans()),
    }


@settings(max_examples=25, deadline=None)
@given(case=load_case())
def test_batch_load_equals_rowwise_load(case):
    check_loads(**case)


@pytest.mark.parametrize("map_sync", [True, False])
@pytest.mark.parametrize("layout", ["hierarchical", "hashtable"])
def test_batch_load_equals_rowwise_load_on_a_chunk_grid(layout, map_sync):
    """The benchmark's shapes, smaller: whole, dense box, strided planes,
    blocked stride and points over a 2x2x2 chunk grid."""
    n = 16
    rng = np.random.default_rng(7)
    _snap, columnar = check_loads(
        layout=layout, map_sync=map_sync,
        gdims=(n, n, n), chunk=(8, 8, 8),
        sels=[
            Hyperslab.all((n, n, n)),
            Hyperslab((3, 5, 7), (6, 6, 6)),
            Hyperslab((1, 0, 0), (n // 4, n, n), stride=(4, 1, 1)),
            Hyperslab((1, 2, 3), (2, 2, 2), stride=(5, 7, 6), block=(2, 3, 4)),
            PointSelection(rng.integers(0, n, size=(60, 3))),
        ],
    )
    assert columnar


@pytest.mark.parametrize("layout", ["hierarchical", "hashtable"])
def test_two_points_in_one_cacheline_commit_it_once(layout):
    """Elements 8 and 11 of a float64 row sit in one cacheline of a chunk
    file (64-byte header, so bytes 128 and 152): the second row, and the
    repeat of the first, find it touched and pay no MAP_SYNC commit."""
    sel = PointSelection([(8,), (11,), (8,), (48,)])
    snap, _ = check_loads(layout=layout, map_sync=True, gdims=(64,),
                          chunk=None, sels=[sel])
    ops = snap["ops"]
    reads = [i for i, op in enumerate(ops)
             if isinstance(op, Delay) and op.note == "pmem-deserialize"][-4:]
    committed = [ops[i - 1].note == "map-sync-commit" for i in reads]
    assert committed[2:] == [False, True]
    if layout == "hierarchical":   # a pool extent need not be line-aligned
        assert committed == [True, False, False, True]


@pytest.mark.parametrize("layout", ["hierarchical", "hashtable"])
def test_a_row_straddling_a_model_page_faults_both(layout):
    # scale 16384: a 2 MiB model page is 128 real bytes; a 40-element
    # float64 row is 320 bytes, so every row crosses page boundaries
    snap, _ = check_loads(layout=layout, map_sync=True, scale=16384,
                       gdims=(6, 40), chunk=(3, 40),
                       sels=[Hyperslab((1, 0), (4, 40))])
    assert any(isinstance(op, Delay) and op.note == "page-fault"
               for op in snap["ops"])


@pytest.mark.parametrize("layout", ["hierarchical", "hashtable"])
def test_zero_d_variable_and_strided_out(layout):
    check_loads(layout=layout, map_sync=True, gdims=(), chunk=None,
                sels=[Hyperslab((), ()), PointSelection([()])])
    check_loads(layout=layout, map_sync=True, gdims=(9, 10), chunk=(4, 5),
                sels=[Hyperslab((1, 1), (4, 3), stride=(2, 3), block=(1, 2))],
                strided_out=True)


# ---------------------------------------------------------------------------
# PmemSource.read_rows against N read_at, arbitrary rows
# ---------------------------------------------------------------------------

FILE_BYTES = 8192

rows_st = st.lists(
    st.tuples(st.integers(0, FILE_BYTES - 1), st.integers(1, 700)),
    min_size=0, max_size=40,
).map(lambda rows: [(o, min(n, FILE_BYTES - o)) for o, n in rows])


def read_through_mapping(rows, *, sync, scale, pretouch, batch):
    """Map a file, optionally touch part of it, then read ``rows`` (any
    order, overlapping, repeated) in one ``read_rows`` or row by row."""
    fs = DaxFS(PMEMDevice(1 * MiB))
    content = (np.arange(FILE_BYTES) % 253).astype(np.uint8)

    def job(ctx):
        restart_span_ids()
        node = fs.create(ctx, "/f")
        fs.fallocate(ctx, node, FILE_BYTES, contiguous=True)
        fs.mmap(ctx, node).write(ctx, 0, content)
        flags = MapFlags.SHARED | (MapFlags.SYNC if sync else 0)
        mapping = fs.mmap(ctx, node, flags)
        source = PmemSource(ctx, mapping, base=0, size=FILE_BYTES)
        for off, n in pretouch:
            source.read_at(off, n)
        with span(ctx, "load.read"):
            if batch:
                window = source.read_rows(
                    0, FILE_BYTES,
                    np.array([o for o, _ in rows], dtype=np.int64),
                    np.array([n for _, n in rows], dtype=np.int64))
                got = [bytes(window[o:o + n]) for o, n in rows]
            else:
                got = [bytes(source.read_at(o, n, payload=True))
                       for o, n in rows]
        return got, snapshot(ctx), touched(mapping)

    return content, run_spmd(1, job, scale=scale).returns[0]


@settings(max_examples=120, deadline=None)
@given(rows=rows_st, sync=st.booleans(),
       scale=st.sampled_from([1, 4096, 32768]),
       pretouch=st.lists(st.tuples(st.integers(0, FILE_BYTES - 65),
                                   st.integers(1, 64)), max_size=3))
def test_read_rows_equals_n_read_at(rows, sync, scale, pretouch):
    content, one = read_through_mapping(
        rows, sync=sync, scale=scale, pretouch=pretouch, batch=False)
    _, many = read_through_mapping(
        rows, sync=sync, scale=scale, pretouch=pretouch, batch=True)
    assert many[0] == one[0] == [bytes(content[o:o + n]) for o, n in rows]
    for key in one[1]:
        assert many[1][key] == one[1][key], key
    assert many[2] == one[2]


def test_a_row_leaving_the_record_changes_nothing():
    fs = DaxFS(PMEMDevice(1 * MiB))

    def job(ctx):
        node = fs.create(ctx, "/f")
        fs.fallocate(ctx, node, FILE_BYTES, contiguous=True)
        mapping = fs.mmap(ctx, node, MapFlags.SHARED | MapFlags.SYNC)
        source = PmemSource(ctx, mapping, base=0, size=4096)
        source.read_at(0, 64)
        i64 = lambda *v: np.array(v, dtype=np.int64)  # noqa: E731
        before = (snapshot(ctx), touched(mapping))
        bad = [
            # the last row leaves the window; the first two are fine
            (source.read_rows, (64, 1024, i64(0, 512, 1000), i64(64, 64, 64))),
            (source.read_rows, (64, 1024, i64(0, -8), i64(64, 64))),
            (source.read_rows, (64, 1024, i64(0, 128), i64(64, 0))),
            # the window leaves the record
            (source.read_rows, (4000, 128, i64(0), i64(8))),
            (source.read_rows, (-1, 128, i64(0), i64(8))),
        ]
        for call, args in bad:
            with pytest.raises(SerializationError):
                call(*args)
        # the mapping's own check: a row past the allocated extents is a
        # SIGBUS before the rows ahead of it are accounted
        for offsets, sizes in [(i64(0, FILE_BYTES - 8), i64(64, 64)),
                               (i64(128, -64), i64(64, 64)),
                               (i64(128, 256), i64(64, -1))]:
            with pytest.raises(BadAddressError):
                mapping.touch_rows(ctx, offsets, sizes)
        # a record that claims more than the file holds
        long = PmemSource(ctx, mapping, base=0, size=4 * FILE_BYTES)
        with pytest.raises(BadAddressError):
            long.read_rows(0, 2 * FILE_BYTES, i64(0), i64(64))
        after = (snapshot(ctx), touched(mapping))
        assert after == before
        mapping.unmap(ctx)
        with pytest.raises(Exception):
            mapping.touch_rows(ctx, i64(0), i64(64))

    run_spmd(1, job)


class TouchOnly:
    """A region with the scalar fault hook but not the batch form."""

    def __init__(self, mapping):
        self.touch, self.view = mapping.touch, mapping.view


def test_a_region_without_touch_rows_is_still_fault_accounted():
    rows = [(64, 256), (1024, 256), (128, 64)]

    def totals(wrap):
        fs = DaxFS(PMEMDevice(1 * MiB))

        def job(ctx):
            node = fs.create(ctx, "/f")
            fs.fallocate(ctx, node, FILE_BYTES, contiguous=True)
            mapping = fs.mmap(ctx, node, MapFlags.SHARED | MapFlags.SYNC)
            source = PmemSource(ctx, wrap(mapping), base=0, size=FILE_BYTES)
            source.read_rows(0, FILE_BYTES,
                             np.array([o for o, _ in rows], dtype=np.int64),
                             np.array([n for _, n in rows], dtype=np.int64))
            by_note = {}
            for op in ctx.trace.ops:
                if isinstance(op, Delay):
                    by_note[op.note] = by_note.get(op.note, 0.0) + op.ns
            return by_note, touched(mapping)[1], ctx.lb_ns

        return run_spmd(1, job).returns[0]

    batch, scalar = totals(lambda m: m), totals(TouchOnly)
    assert scalar[0]["map-sync-commit"] == pytest.approx(
        batch[0]["map-sync-commit"])
    assert scalar[0]["page-fault"] == batch[0]["page-fault"]
    assert scalar[1] == batch[1] and scalar[1]
    assert scalar[2] == pytest.approx(batch[2])


def test_a_region_without_a_fault_model_reads_rows_uncharged_for_faults():
    device = PMEMDevice(1 * MiB)
    device.store(0, (np.arange(4096) % 251).astype(np.uint8))

    def job(ctx):
        source = PmemSource(ctx, RawRegion(device, 0, 4096), base=0, size=4096)
        got = source.read_rows(16, 256, np.array([0, 128]), np.array([64, 64]))
        assert bytes(got) == bytes(device.view(16, 256))
        return [op.note for op in ctx.trace.ops]

    notes = run_spmd(1, job).returns[0]
    assert notes == ["pmem-deserialize"] * 4
