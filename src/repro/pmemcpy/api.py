"""The pMEMCPY public API (paper Fig. 2).

Every store/load flows through the abstract :class:`~.engine.Layout`
engine: the API allocates an extent, streams the serialized payload
through the layout's sink/source, and records chunk bookkeeping — it never
inspects which concrete layout it is driving.  Filtered and unfiltered
stores share one code path that differs only by an optional DRAM staging
stage (the deliberate copy a compressor needs).

Telemetry: each operation updates the rank's metric registry
(``repro.telemetry``) — op counts, logical vs stored bytes, staging passes,
meta-lock contention, and the stripe-occupancy, meta-lock hold and
op-latency histograms — surfaced via :meth:`PMEM.stats` and the harness's
``--profile`` flag.  Every store/load additionally opens a structured span
tree (``pmemcpy.store`` → ``store.reserve``/``meta-lock``/``store.alloc``/
``store.serialize``/
``memcpy``/``store.persist``/``store.publish``) timed in modeled ns, so a
single operation can be replayed in Perfetto; see DESIGN.md §9.

Metadata concurrency (the striped-locks redesign): every metadata access
runs under the owning layout guard — ``meta_read``/``meta_write`` for one
variable, ``meta_namespace`` for sweeps — so ranks working on independent
variables never contend.  Stores are **three-phase** so the (large) payload
write happens outside any metadata lock:

1. *reserve* — under the write guard: validate, bump the variable's
   persistent ``next_index``, republish;
2. *write* — no metadata lock held: allocate the extent and stream the
   serialized payload into PMEM;
3. *publish* — under the write guard again: re-fetch the record, append
   the chunk, republish (if the variable vanished meanwhile, the extent is
   freed and the store raises).

Only the µs-scale metadata edits ever serialize, never the data path.
"""

from __future__ import annotations

import copy
import math
from contextlib import contextmanager

import numpy as np

from ..errors import (
    DimensionMismatchError,
    KeyNotFoundError,
    NotMappedError,
    PmemcpyError,
)
from ..serial import DramSink, DramSource, get_serializer
from ..serial.filters import FilterPipeline
from ..telemetry import LANE_BOUNDS, metrics_for, record, span
from ..telemetry.export import registry_percentiles
from .cache import DEFAULT_CHUNK_CACHE_BYTES, ChunkCache
from .dataset import Chunk, VariableMeta, split_at_chunk_grid
from .engine import Layout
from .layout_fs import HierarchicalLayout
from .layout_hash import HashtableLayout
from .selection import Hyperslab, Selection, as_selection
from .types import as_dims

_LAYOUTS: dict[str, type[Layout]] = {
    "hashtable": HashtableLayout,
    "hierarchical": HierarchicalLayout,
}


def _pairwise_disjoint(chunks) -> bool:
    """True when no two chunk boxes overlap (each output element is
    written at most once)."""
    for i, a in enumerate(chunks):
        for b in chunks[i + 1:]:
            if a.intersects(b.offsets, b.dims):
                return False
    return True


class PMEM:
    """A per-rank handle to a pMEMCPY store.

    Mirrors the C++ object of Fig. 2: construct, ``mmap(path, comm)``,
    ``alloc``/``store``/``load``/``load_dims``, ``munmap``.

    Configuration (§3): ``serializer`` ∈ {bp4, cproto, cereal, raw/none},
    ``layout`` ∈ {hashtable, hierarchical}, and ``map_sync`` toggling the
    MAP_SYNC mapping flag (PMCPY-B in the paper's figures).

    Metadata-concurrency knobs: ``meta_stripes`` is the number of lock
    lanes the namespace is striped over (1 = the old global mutex;
    default: 64 when ``map_sync`` — PMCPY-B — else 1), ``meta_rw`` makes
    metadata reads take their lane *shared* (default: on whenever striping
    is on).
    """

    def __init__(
        self,
        *,
        serializer: str = "bp4",
        layout: str = "hashtable",
        map_sync: bool = False,
        pool_size: int | None = None,
        nbuckets: int = 64,
        filters: tuple | list = (),
        meta_stripes: int | None = None,
        meta_rw: bool | None = None,
        chunk_cache_bytes: int = DEFAULT_CHUNK_CACHE_BYTES,
    ):
        self.serializer = get_serializer(serializer)
        if layout not in _LAYOUTS:
            raise PmemcpyError(
                f"unknown layout {layout!r}; choose from {sorted(_LAYOUTS)}"
            )
        if meta_stripes is None:
            meta_stripes = 64 if map_sync else 1
        if meta_stripes < 1:
            raise PmemcpyError("meta_stripes must be >= 1")
        if meta_rw is None:
            meta_rw = meta_stripes > 1
        self.meta_stripes = meta_stripes
        self.meta_rw = meta_rw
        if layout == "hashtable":
            self.layout: Layout = HashtableLayout(
                map_sync=map_sync, nbuckets=nbuckets,
                meta_stripes=meta_stripes, meta_rw=meta_rw,
            )
        else:
            self.layout = HierarchicalLayout(
                map_sync=map_sync,
                meta_stripes=meta_stripes, meta_rw=meta_rw,
            )
        self.map_sync = map_sync
        self.pool_size = pool_size
        # optional transform pipeline (§2.1-style operators).  Compression
        # trades pMEMCPY's streaming direct-to-PMEM pack for one DRAM
        # staging pass plus fewer PMEM bytes.
        self.pipeline = FilterPipeline(filters) if filters else None
        # decoded-chunk LRU: repeated partial reads of one *filtered* chunk
        # pay the fetch + decode once (see repro.pmemcpy.cache)
        self._chunk_cache = ChunkCache(chunk_cache_bytes)
        self._ctx = None
        self._comm = None
        self.path: str | None = None

    @property
    def _filters_token(self) -> str:
        return ",".join(self.pipeline.names) if self.pipeline else ""

    # ------------------------------------------------------------------ mapping

    def mmap(self, path: str, comm) -> "PMEM":
        """Collective: map the store at ``path`` on every rank of ``comm``."""
        ctx = comm.ctx
        if ctx.env is None:
            raise PmemcpyError(
                "PMEM needs a cluster environment: run under "
                "Cluster.run(...) or run_spmd(..., env=cluster)"
            )
        pool_size = self.pool_size
        if pool_size is None:
            pool_size = ctx.env.device.capacity // 2
        self.layout.setup(ctx, comm, path, pool_size=pool_size)
        self._ctx = ctx
        self._comm = comm
        self.path = path
        return self

    def munmap(self) -> None:
        self._require()
        self._chunk_cache.clear()
        self.layout.teardown(self._ctx, self._comm)
        self._ctx = None
        self._comm = None
        self.path = None

    def _require(self):
        if self._ctx is None:
            raise NotMappedError("PMEM is not mapped — call mmap(path, comm)")

    @property
    def ctx(self):
        self._require()
        return self._ctx

    @contextmanager
    def _metered(self, ctx, guard):
        """Enter a layout meta guard, metering hold time, contention, and
        stripe occupancy.

        The ``meta-lock`` span brackets acquire-wait *and* hold, so lock
        time shows up as a named child of whichever store/load phase took
        the guard.  Stripe occupancy feeds the fixed-lane
        ``meta.stripe.acquires`` histogram (O(64) to aggregate across any
        number of runs; ``nonzero_buckets()`` lists the lanes hit)."""
        with span(ctx, "meta-lock"):
            with guard as g:
                t0 = ctx.lb_ns
                record(ctx, "meta.lock.acquires")
                if g.contended:
                    record(ctx, "meta.lock.contended")
                if g.stripe is not None:
                    metrics_for(ctx).histogram(
                        "meta.stripe.acquires", LANE_BOUNDS
                    ).observe(float(g.stripe))
                try:
                    yield g
                finally:
                    held = ctx.lb_ns - t0
                    metrics_for(ctx).histogram("meta.lock.ns").observe(held)

    def _meta_read(self, ctx, var_id: str):
        return self._metered(ctx, self.layout.meta_read(ctx, var_id))

    def _meta_write(self, ctx, var_id: str):
        return self._metered(ctx, self.layout.meta_write(ctx, var_id))

    def _meta_namespace(self, ctx):
        return self._metered(ctx, self.layout.meta_namespace(ctx))

    # ------------------------------------------------------------------ alloc

    def alloc(self, var_id: str, dims, dtype=np.float64, *,
              chunk_shape=None) -> None:
        """Declare the global dimensions of ``var_id`` (Fig. 2 lines 7-10).

        Idempotent and safe to call from every rank (first caller creates;
        later callers validate).  ``chunk_shape`` declares an aligned-chunk
        layout: every store is split at multiples of that shape, so chunks
        tile a fixed grid — the unit of per-chunk filtering and of the
        decoded-chunk cache (metadata format v2)."""
        self._require()
        ctx = self._ctx
        gdims = as_dims(dims)
        dt = np.dtype(dtype)
        cshape = None
        if chunk_shape is not None:
            cshape = tuple(int(c) for c in chunk_shape)
            if len(cshape) != len(gdims) or any(c < 1 for c in cshape):
                raise DimensionMismatchError(
                    f"alloc({var_id!r}): chunk_shape {cshape} must have one "
                    f"positive extent per axis of {gdims}"
                )
        record(ctx, "pmemcpy_alloc_ops")
        with span(ctx, "pmemcpy.alloc", var=var_id):
            with self._meta_write(ctx, var_id):
                meta = self.layout.get_meta(ctx, var_id)
                if meta is None:
                    meta = VariableMeta(
                        name=var_id, dtype=dt, global_dims=gdims,
                        serializer=self.serializer.name,
                        filters=self._filters_token,
                        chunk_shape=cshape,
                    )
                    self.layout.put_meta(ctx, meta)
                else:
                    if tuple(meta.global_dims) != gdims or meta.dtype != dt:
                        raise DimensionMismatchError(
                            f"alloc({var_id!r}): existing dims "
                            f"{tuple(meta.global_dims)}/{meta.dtype} != "
                            f"requested {gdims}/{dt}"
                        )
                    if cshape is not None and meta.chunk_shape != cshape:
                        raise DimensionMismatchError(
                            f"alloc({var_id!r}): existing chunk_shape "
                            f"{meta.chunk_shape} != requested {cshape}"
                        )

    # ------------------------------------------------------------------ store

    def store(self, var_id: str, data, offsets=None, *,
              selection: Selection | None = None) -> None:
        """Store a whole object (``store<T>(id, data)``), a subarray of an
        alloc'd variable (``store<T>(id, data, ndims, offsets, dimspp)``),
        or a strided :class:`~.selection.Hyperslab` of one
        (``selection=``)."""
        self._require()
        ctx = self._ctx
        array = np.asarray(data)
        record(ctx, "pmemcpy_store_ops")
        record(ctx, "pmemcpy_logical_store_bytes", int(array.nbytes))
        t0 = ctx.lb_ns
        try:
            with span(ctx, "pmemcpy.store",
                      var=var_id, bytes=int(array.nbytes)):
                if selection is not None:
                    if offsets is not None:
                        raise DimensionMismatchError(
                            "store: pass either offsets or a selection, "
                            "not both"
                        )
                    self._store_selection(ctx, var_id, array, selection)
                elif offsets is None:
                    self._store_whole(ctx, var_id, array)
                else:
                    self._store_sub(ctx, var_id, array, as_dims(offsets))
        finally:
            # always-on op latency (survives REPRO_TRACE=off)
            metrics_for(ctx).histogram(
                "pmemcpy.store.ns").observe(ctx.lb_ns - t0)

    def _store_selection(self, ctx, var_id: str, array, sel: Selection) -> None:
        """Strided stores decompose into the selection's maximal contiguous
        block cells, each stored as an ordinary subarray chunk — strided
        *reads* are first-class, strided writes are sugar over block puts."""
        if not isinstance(sel, Hyperslab):
            raise PmemcpyError(
                f"store(selection=...) needs a hyperslab; "
                f"{type(sel).__name__} stores have no block decomposition"
            )
        with self._meta_read(ctx, var_id):
            meta = self.layout.get_meta(ctx, var_id)
        if meta is None:
            raise KeyNotFoundError(
                f"store({var_id!r}, selection=...): variable not alloc'd"
            )
        sel = sel.normalized(tuple(meta.global_dims))
        if tuple(array.shape) != sel.out_shape:
            raise DimensionMismatchError(
                f"store({var_id!r}): data shape {tuple(array.shape)} vs "
                f"selection shape {sel.out_shape}"
            )
        for (cell_off, _cell_dims), result_sl in zip(
            sel.blocks(), sel.block_result_slices()
        ):
            self._store_sub(
                ctx, var_id, np.ascontiguousarray(array[result_sl]), cell_off
            )

    def _grid_pieces(self, meta, offsets, dims):
        """The aligned pieces one store of ``(offsets, dims)`` splits into
        (a single piece when the variable has no chunk grid)."""
        if meta.chunk_shape is None:
            return [(tuple(offsets), tuple(dims))]
        return split_at_chunk_grid(meta.chunk_shape, offsets, dims)

    def _store_whole(self, ctx, var_id: str, array: np.ndarray) -> None:
        gdims = tuple(array.shape)
        offsets = tuple(0 for _ in gdims)
        # phase 1 (reserve): validate, retire old chunks, claim chunk slots
        with span(ctx, "store.reserve"), self._meta_write(ctx, var_id):
            meta = self.layout.get_meta(ctx, var_id)
            if meta is None:
                meta = VariableMeta(
                    name=var_id, dtype=array.dtype, global_dims=gdims,
                    serializer=self.serializer.name,
                    filters=self._filters_token,
                )
            else:
                if not meta.chunks and (
                    tuple(meta.global_dims) != gdims or meta.dtype != array.dtype
                ):
                    # alloc'd but never stored: the declared shape is a
                    # cross-rank contract — replacing it out from under
                    # concurrent sub-stores would corrupt the variable
                    raise DimensionMismatchError(
                        f"store({var_id!r}): whole-store {gdims}/{array.dtype} "
                        f"conflicts with alloc'd {tuple(meta.global_dims)}/"
                        f"{meta.dtype}; store a matching array or use offsets"
                    )
                # whole-store replaces previous contents; keep the index
                # high-water mark (a concurrently reserved slot can never be
                # handed out twice) and the declared chunk grid
                self._free_chunks(ctx, meta)
                meta = VariableMeta(
                    name=var_id, dtype=array.dtype, global_dims=gdims,
                    serializer=self.serializer.name,
                    filters=self._filters_token,
                    next_index=meta.next_index,
                    chunk_shape=meta.chunk_shape,
                )
            pieces = self._grid_pieces(meta, offsets, gdims)
            index0 = meta.next_index
            meta.next_index = index0 + len(pieces)
            self.layout.put_meta(ctx, meta)
        # phase 2 (write): payloads stream into PMEM with no metadata lock
        chunks = self._write_pieces(ctx, meta, array, offsets, pieces, index0)
        # phase 3 (publish)
        self._publish_chunks(ctx, var_id, chunks)

    def _store_sub(self, ctx, var_id: str, array: np.ndarray, offsets) -> None:
        with span(ctx, "store.reserve"), self._meta_write(ctx, var_id):
            meta = self.layout.get_meta(ctx, var_id)
            if meta is None:
                raise KeyNotFoundError(
                    f"store({var_id!r}, offsets=...): variable not alloc'd"
                )
            if array.dtype != meta.dtype:
                raise DimensionMismatchError(
                    f"{var_id}: storing {array.dtype} into {meta.dtype} variable"
                )
            meta.validate_subarray(offsets, array.shape)
            pieces = self._grid_pieces(meta, offsets, array.shape)
            index0 = meta.next_index
            meta.next_index = index0 + len(pieces)
            self.layout.put_meta(ctx, meta)
        chunks = self._write_pieces(ctx, meta, array, offsets, pieces, index0)
        self._publish_chunks(ctx, var_id, chunks)

    def _write_pieces(self, ctx, meta, array, offsets, pieces,
                      index0: int) -> list[Chunk]:
        """Store phase 2: write each grid piece of ``array`` (a block at
        ``offsets``) into its own extent.  The filter pipeline (when
        configured) runs per piece, so a partial read later decodes only
        the chunks it touches."""
        if len(pieces) == 1 and pieces[0][1] == tuple(array.shape):
            return [self._write_chunk(ctx, meta, array, pieces[0][0],
                                      index=index0)]
        chunks = []
        for i, (p_off, p_dims) in enumerate(pieces):
            local = tuple(
                slice(po - o, po - o + pd)
                for po, o, pd in zip(p_off, offsets, p_dims)
            )
            piece = np.ascontiguousarray(array[local])
            chunks.append(
                self._write_chunk(ctx, meta, piece, p_off, index=index0 + i)
            )
        return chunks

    def _publish_chunks(self, ctx, var_id: str, chunks: list[Chunk]) -> None:
        """Store phase 3: append the written chunks to the (re-fetched)
        record.  If the variable was deleted between reserve and publish,
        release the orphan extents and surface the conflict."""
        with span(ctx, "store.publish"), self._meta_write(ctx, var_id):
            meta = self.layout.get_meta(ctx, var_id)
            if meta is None:
                for chunk in chunks:
                    self.layout.free_extent(ctx, var_id, chunk)
                raise KeyNotFoundError(
                    f"store({var_id!r}): variable deleted mid-store"
                )
            meta.chunks.extend(chunks)
            self.layout.put_meta(ctx, meta)
        # a republished variable may reuse freed extents: drop stale
        # decoded-chunk cache entries for it
        self._chunk_cache.invalidate(var_id)

    def _write_chunk(self, ctx, meta, array, offsets, index: int) -> Chunk:
        """Serialize ``array`` into a fresh extent; returns the chunk record.

        Unfiltered: streamed directly into the layout's extent (the paper's
        zero-staging path).  Filtered: serialized into a DRAM buffer,
        transformed, then written — a deliberate staging copy bought back
        in PMEM bytes.  Either way the payload flows through the same
        ``alloc_extent`` → ``extent_sink`` → persist pipeline.
        """
        if self.pipeline is None:
            size = self.serializer.packed_size(meta.name, array)
            with span(ctx, "store.alloc", bytes=size):
                extent = self.layout.alloc_extent(ctx, meta.name, index, size)
            sink = self.layout.extent_sink(ctx, extent)
            with span(ctx, "store.serialize", bytes=size):
                self.serializer.pack(ctx, meta.name, array, sink)
        else:
            record(ctx, "pmemcpy_staging_passes")
            with span(ctx, "store.serialize"):
                stage = DramSink(ctx)
                self.serializer.pack(ctx, meta.name, array, stage)
                blob = self.pipeline.encode(ctx, stage.getvalue())
            with span(ctx, "store.alloc", bytes=len(blob)):
                extent = self.layout.alloc_extent(
                    ctx, meta.name, index, len(blob))
            sink = self.layout.extent_sink(ctx, extent)
            sink.write(blob, payload=True)
        with span(ctx, "store.persist"):
            sink.persist()
            extent.close(ctx)
        stored = sink.tell()
        record(ctx, "pmemcpy_stored_write_bytes", stored)
        return Chunk(tuple(offsets), tuple(array.shape), extent.token, stored)

    def _free_chunks(self, ctx, meta) -> None:
        for chunk in meta.chunks:
            self.layout.free_extent(ctx, meta.name, chunk)

    # ------------------------------------------------------------------ load

    def load(
        self,
        var_id: str,
        offsets=None,
        dims=None,
        out: np.ndarray | None = None,
        *,
        selection: Selection | None = None,
        require_full: bool = True,
    ):
        """Load a whole variable (``load<T>(id)``), a subarray
        (``load<T>(id, data, ndims, offsets, dimspp)``), or an arbitrary
        :class:`~.selection.Selection` (``selection=``).

        Unfiltered raw-serialized chunks take the zero-staging partial-read
        path: only the header and the selection's intersecting row segments
        are fetched off the mapped device.  Other serializers deserialize
        each overlapping chunk directly from PMEM; filtered chunks decode
        through the per-handle chunk cache.  Returns a scalar for 0-d
        variables.
        """
        self._require()
        ctx = self._ctx
        t0 = ctx.lb_ns
        try:
            with span(ctx, "pmemcpy.load", var=var_id) as root:
                return self._load(ctx, var_id, offsets, dims, out, selection,
                                  require_full=require_full, root_span=root)
        finally:
            # always-on op latency (survives REPRO_TRACE=off)
            metrics_for(ctx).histogram(
                "pmemcpy.load.ns").observe(ctx.lb_ns - t0)

    def _load(self, ctx, var_id, offsets, dims, out, selection, *,
              require_full, root_span):
        # only the metadata fetch runs under the (shared) guard; chunk
        # payloads stream out afterwards so loads never serialize on data
        with self._meta_read(ctx, var_id):
            meta = self.layout.get_meta(ctx, var_id)
        if meta is None:
            raise KeyNotFoundError(f"load({var_id!r}): no such variable")
        gdims = tuple(meta.global_dims)
        if offsets is not None and dims is not None:
            offsets, dims = as_dims(offsets), as_dims(dims)
            meta.validate_subarray(offsets, dims)
        sel = as_selection(offsets, dims, selection, gdims)

        covering = [
            c for c in meta.chunks if sel.overlap_count(c.offsets, c.dims) > 0
        ]
        if out is None:
            # full-coverage loads over non-overlapping chunks fill every
            # element, so skip the zeroing pass; overlapping chunks could
            # double-count coverage, so they keep the zero fill as the
            # partial-coverage backstop does
            if require_full and _pairwise_disjoint(covering):
                out = np.empty(sel.out_shape, dtype=meta.dtype)
            else:
                out = np.zeros(sel.out_shape, dtype=meta.dtype)
        elif tuple(out.shape) != sel.out_shape or out.dtype != meta.dtype:
            raise DimensionMismatchError(
                f"load({var_id!r}): out buffer {out.shape}/{out.dtype} vs "
                f"requested {sel.out_shape}/{meta.dtype}"
            )

        record(ctx, "pmemcpy_load_ops")
        serializer = get_serializer(meta.serializer)
        pipeline = FilterPipeline(meta.filters.split(",")) if meta.filters else None
        covered = 0
        for chunk in covering:
            if pipeline is not None:
                covered += self._load_chunk_cached(
                    ctx, meta, serializer, pipeline, chunk, sel, out)
            elif serializer.supports_ranged_unpack:
                covered += self._load_chunk_ranged(
                    ctx, meta, serializer, chunk, sel, out)
            else:
                covered += self._load_chunk_staged(
                    ctx, meta, serializer, chunk, sel, out)

        loaded = covered * np.dtype(meta.dtype).itemsize
        record(ctx, "pmemcpy_logical_load_bytes", loaded)
        if root_span is not None:
            root_span.attrs = {**(root_span.attrs or {}), "bytes": loaded}
        if require_full and covered < sel.nelems:
            raise DimensionMismatchError(
                f"load({var_id!r}): requested selection only partially "
                f"stored ({covered}/{sel.nelems} elements; pass "
                f"require_full=False to accept zeros)"
            )
        if out.ndim == 0:
            return out.item()
        return out

    def _load_chunk_staged(self, ctx, meta, serializer, chunk, sel, out) -> int:
        """Deserialize the whole chunk from PMEM (zero-staging for the
        *record*, but every stored byte moves) and scatter the selected
        elements — the path for framed serializers (bp4/cproto/cereal)."""
        with span(ctx, "load.read", bytes=chunk.blob_len):
            source = self.layout.extent_source(ctx, meta.name, chunk)
            _name, arr = serializer.unpack(ctx, source)
            arr = arr.reshape(chunk.dims)
            record(ctx, "pmemcpy_stored_read_bytes", chunk.blob_len)
            return sel.scatter_into(out, arr, chunk.offsets)

    def _load_chunk_ranged(self, ctx, meta, serializer, chunk, sel, out) -> int:
        """The zero-staging *partial*-read path: decode the record header,
        then fetch only the selection's intersecting row segments — all of
        them in one ``Source.read_rows`` call, each charged as its own
        ranged read — so bytes outside the selection never move."""
        itemsize = np.dtype(meta.dtype).itemsize
        with span(ctx, "load.read") as s:
            source = self.layout.extent_source(ctx, meta.name, chunk)
            hdr = serializer.read_header(ctx, source)
            src, _dst, nelems = sel.run_table(chunk.offsets, chunk.dims)
            payload = source.read_rows(
                hdr.payload_off, math.prod(chunk.dims) * itemsize,
                src * itemsize, nelems * itemsize,
            )
            copied = sel.scatter_into(
                out, payload.view(meta.dtype).reshape(chunk.dims),
                chunk.offsets,
            )
            payload_read = copied * itemsize
            serializer._charge_unpack_cpu(ctx, payload_read)
            stored_read = hdr.payload_off + payload_read
            record(ctx, "pmemcpy_stored_read_bytes", stored_read)
            if s is not None:
                s.attrs = {**(s.attrs or {}), "bytes": stored_read}
        return copied

    def _load_chunk_cached(self, ctx, meta, serializer, pipeline, chunk,
                           sel, out) -> int:
        """Filtered chunks: fetch the blob, reverse the transforms in DRAM,
        deserialize from the staging buffer — keeping the decoded array in
        the chunk cache so repeated partial reads pay the decode once."""
        key = (meta.name, chunk.blob_off, chunk.blob_len)
        arr = self._chunk_cache.get(key)
        if arr is not None:
            record(ctx, "pmemcpy_chunk_cache_hits")
            with span(ctx, "load.read", bytes=0, cached=True):
                return sel.scatter_into(out, arr, chunk.offsets)
        with span(ctx, "load.read", bytes=chunk.blob_len):
            source = self.layout.extent_source(ctx, meta.name, chunk)
            raw = bytes(source.read(chunk.blob_len, payload=True))
            source = DramSource(ctx, pipeline.decode(ctx, raw))
            _name, arr = serializer.unpack(ctx, source)
            arr = arr.reshape(chunk.dims)
            record(ctx, "pmemcpy_stored_read_bytes", chunk.blob_len)
            record(ctx, "pmemcpy_chunk_cache_misses")
            self._chunk_cache.put(key, arr)
            return sel.scatter_into(out, arr, chunk.offsets)

    def load_dims(self, var_id: str) -> tuple[int, ...]:
        """``load_dims(id, &ndims, &dims)`` (Fig. 2 lines 18-19)."""
        self._require()
        with self._meta_read(self._ctx, var_id):
            meta = self.layout.get_meta(self._ctx, var_id)
        if meta is None:
            raise KeyNotFoundError(f"load_dims({var_id!r}): no such variable")
        return tuple(meta.global_dims)

    # ------------------------------------------------------------------ extras

    def list_variables(self) -> list[str]:
        self._require()
        with self._meta_namespace(self._ctx):
            return self.layout.list_variables(self._ctx)

    def delete(self, var_id: str) -> None:
        self._require()
        ctx = self._ctx
        record(ctx, "pmemcpy_delete_ops")
        with span(ctx, "pmemcpy.delete", var=var_id):
            with self._meta_write(ctx, var_id):
                meta = self.layout.get_meta(ctx, var_id)
                if meta is None:
                    raise KeyNotFoundError(
                        f"delete({var_id!r}): no such variable")
                self.layout.delete_variable(ctx, meta)
        self._chunk_cache.invalidate(var_id)

    def stats(self) -> dict:
        """Store introspection (a ``du``-like view): per-variable chunk
        counts and bytes, backend occupancy via the layout's
        ``occupancy()`` hook, and this rank's typed metric families
        (counters, gauges and histograms).

        The result is a **deep copy**: mutating it can never corrupt the
        layout's metadata or the rank's live telemetry state."""
        self._require()
        ctx = self._ctx
        variables: dict[str, dict] = {}
        with self._meta_namespace(ctx):
            snapshot = [
                (var_id, self.layout.get_meta(ctx, var_id))
                for var_id in self.layout.list_variables(ctx)
            ]
        for var_id, meta in snapshot:
            logical = sum(c.nbytes(meta.dtype) for c in meta.chunks)
            stored = sum(c.blob_len for c in meta.chunks)
            variables[var_id] = {
                "dtype": str(meta.dtype),
                "global_dims": tuple(meta.global_dims),
                "nchunks": len(meta.chunks),
                "logical_bytes": logical,
                "stored_bytes": stored,
                "serializer": meta.serializer,
                "filters": meta.filters,
                "chunk_shape": (tuple(meta.chunk_shape)
                                if meta.chunk_shape is not None else None),
            }
        out = {"variables": variables, "layout": self.layout.name}
        out.update(self.layout.occupancy(ctx))
        out["metrics"] = metrics_for(ctx).as_dict()
        # p50/p95/p99 for every populated histogram, through the same
        # registry_percentiles code path the service SLO report and the
        # perf observatory render from
        out["percentiles"] = registry_percentiles(metrics_for(ctx))
        if ctx.env is not None and getattr(ctx.env, "device", None) is not None:
            out["device"] = ctx.env.device.persistence_counters()
        return copy.deepcopy(out)
