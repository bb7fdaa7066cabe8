"""Hashtable layout: the default §3 data layout.

All variables live in one PMDK pool file.  Metadata is the persistent
hashtable (flat namespace, keys ``<id>#dims``); chunk payloads are
pool-allocated blobs serialized *directly into the DAX-mapped pool* — the
zero-staging write path.

Metadata concurrency is a persistent *striped lock table*
(:class:`~repro.pmdk.locks.PmemStripedLocks`): a variable's guard is the
reader-writer lock of the stripe its ``<id>#dims`` key hashes onto
(FNV-1a, the same hash the namespace hashtable buckets with), so ranks
working on distinct variables take distinct lock lanes.  ``nstripes = 1``
recovers the old global-mutex behaviour exactly; namespace-wide operations
acquire every stripe in ascending order.

Pool-file layout root (pool root object, 24B)::

    hashmap header offset u64 | stripe table offset u64 | nstripes u64
"""

from __future__ import annotations

import struct

from ..errors import NotMappedError
from ..kernel.dax import MapFlags
from ..kernel.vfs import OpenFlags
from ..pmdk import PmemHashmap, PmemPool, PmemStripedLocks
from ..serial.base import PmemSink, PmemSource
from .dataset import VariableMeta, dims_key
from .engine import Extent, Layout, MetaGuard

#: lanes sized for up to 48 concurrent ranks with room for resize logs
POOL_NLANES = 64
POOL_LANE_LOG = 32 * 1024


class HashtableLayout(Layout):
    name = "hashtable"

    def __init__(self, *, map_sync: bool = False,
                 meta_stripes: int = 1, meta_rw: bool = False):
        self.map_sync = map_sync
        self.meta_stripes = meta_stripes
        self.meta_rw = meta_rw
        self.pool: PmemPool | None = None
        self.map: PmemHashmap | None = None
        self.table: PmemStripedLocks | None = None
        self._mapping = None

    def _replay_locks(self, nstripes: int) -> bool:
        """Whether the lock table emits timing-pass Acquire/Release ops.

        The legacy configuration (one exclusive lane — PMCPY-A) keeps the
        original timing treatment of the global namespace mutex: functional
        serialization and the overhead charge, no replay-level mutual
        exclusion, so its published figure timings are stable.  Any striped
        or RW configuration replays real mutual exclusion."""
        return nstripes > 1 or self.meta_rw

    # ------------------------------------------------------------------ lifecycle

    def setup(self, ctx, comm, path: str, *, pool_size: int) -> None:
        """Collective: rank 0 creates/opens the pool file, everyone maps it."""
        env = ctx.env
        flags = MapFlags.SHARED | (MapFlags.SYNC if self.map_sync else 0)
        if comm.rank == 0:
            fresh = not env.vfs.exists(path)
            fd = env.vfs.open(ctx, path, OpenFlags.CREAT | OpenFlags.RDWR)
            if fresh:
                env.vfs.fallocate(ctx, fd, pool_size, contiguous=True)
            mapping = env.vfs.mmap(ctx, fd, flags)
            pool = env.pools.get(path)
            if pool is None:
                if fresh:
                    pool = PmemPool.create(
                        ctx, mapping, size=pool_size,
                        nlanes=POOL_NLANES, lane_log_size=POOL_LANE_LOG,
                    )
                    hmap = PmemHashmap.create(ctx, pool)
                    table = PmemStripedLocks.alloc(
                        ctx, pool, self.meta_stripes, name=f"meta:{path}",
                        replay=self._replay_locks(self.meta_stripes),
                    )
                    root = pool.malloc(ctx, 24)
                    pool.write(ctx, root, struct.pack(
                        "<QQQ", hmap.hdr_off, table.off, table.nstripes
                    ))
                    pool.persist(ctx, root, 24)
                    pool.set_root(ctx, root)
                else:
                    pool = PmemPool.open(ctx, mapping, size=pool_size)
                env.pools[path] = pool
            # refresh the access paths: a previous run's mappings were unmapped
            pool._default_region = mapping
            pool.attach(ctx, mapping)
            root = pool.root()
            raw = bytes(pool.read(ctx, root, 24))
            hmap_off, stripes_off, nstripes = struct.unpack("<QQQ", raw)
            self.pool = pool
            self.map = PmemHashmap.open(pool, hmap_off)
            # nstripes is a property of the persisted table, not the instance
            self.table = PmemStripedLocks.open(
                ctx, pool, stripes_off, nstripes, name=f"meta:{path}",
                replay=self._replay_locks(nstripes),
            )
            with ctx.board.lock:
                ctx.board.data[("pmemcpy", path)] = (pool, self.map, self.table)
            comm.barrier()
        else:
            comm.barrier()
            fd = env.vfs.open(ctx, path, OpenFlags.RDWR)
            mapping = env.vfs.mmap(ctx, fd, flags)
            with ctx.board.lock:
                self.pool, self.map, self.table = ctx.board.data[("pmemcpy", path)]
            self.pool.attach(ctx, mapping)
        self._mapping = mapping
        comm.barrier()

    def teardown(self, ctx, comm) -> None:
        if self._mapping is not None:
            self._mapping.unmap(ctx)
            self._mapping = None
        comm.barrier()

    def _require(self):
        if self.pool is None:
            raise NotMappedError("layout not set up — call PMEM.mmap first")

    # ------------------------------------------------------------------ metadata

    def _stripe_for(self, var_id: str) -> int:
        return self.table.stripe_index(dims_key(var_id))

    def meta_read(self, ctx, var_id: str) -> MetaGuard:
        self._require()
        i = self._stripe_for(var_id)
        lock = self.table.lock(i)
        inner = lock.read_guard(ctx) if self.meta_rw else lock.write_guard(ctx)
        return MetaGuard(inner, stripe=i)

    def meta_write(self, ctx, var_id: str) -> MetaGuard:
        self._require()
        i = self._stripe_for(var_id)
        return MetaGuard(self.table.lock(i).write_guard(ctx), stripe=i)

    def meta_namespace(self, ctx) -> MetaGuard:
        self._require()
        return MetaGuard(self.table.all_guard(ctx), stripe=None)

    def get_meta(self, ctx, var_id: str) -> VariableMeta | None:
        self._require()
        raw = self.map.get(ctx, dims_key(var_id))
        if raw is None:
            return None
        return VariableMeta.unpack(var_id, raw)

    def put_meta(self, ctx, meta: VariableMeta) -> None:
        self._require()
        ctx.record_guarded_write(self.table.lock_for(dims_key(meta.name)).name)
        raw = meta.pack()
        # reserve room for the record to grow one chunk per rank so every
        # later put_meta is an in-place rewrite of the same blob: the
        # record's address is fixed at creation instead of migrating to
        # whichever rank happened to publish last
        nprocs = getattr(ctx, "nprocs", 1) or 1
        self.map.put(ctx, dims_key(meta.name), raw,
                     reserve=len(raw) + 256 * nprocs)

    def list_variables(self, ctx) -> list[str]:
        self._require()
        suffix = b"#dims"
        return sorted(
            k[: -len(suffix)].decode()
            for k in self.map.keys(ctx)
            if k.endswith(suffix)
        )

    def drop_meta(self, ctx, var_id: str) -> None:
        self._require()
        ctx.record_guarded_write(self.table.lock_for(dims_key(var_id)).name)
        self.map.delete(ctx, dims_key(var_id))

    # ------------------------------------------------------------------ extents

    def alloc_extent(self, ctx, name: str, index: int, size: int) -> Extent:
        self._require()
        blob_off = self.pool.malloc(ctx, size)
        return Extent(token=blob_off, size=size, region=self.pool)

    def extent_sink(self, ctx, extent: Extent) -> PmemSink:
        return PmemSink(ctx, extent.region, base=extent.token)

    def extent_source(self, ctx, name: str, chunk) -> PmemSource:
        # read through *this rank's* mapping so another rank's munmap can't
        # invalidate an in-flight load.  PmemSource over the pool region is
        # segment-granular: ``read_at``/``read_rows`` view any (offset,
        # nbytes) range of the record in place, so partial reads touch only
        # their segments.
        return PmemSource(
            ctx, _RankPoolRegion(self.pool, ctx),
            base=chunk.blob_off, size=chunk.blob_len,
        )

    def free_extent(self, ctx, name: str, chunk) -> None:
        self._require()
        self.pool.free(ctx, chunk.blob_off)

    # ------------------------------------------------------------------ introspection

    def occupancy(self, ctx) -> dict:
        self._require()
        heap = self.pool.heap
        return {
            "heap": {
                "used_bytes": heap.used_bytes(),
                "free_bytes": heap.free_bytes(),
                "free_blocks": heap.n_free_blocks(),
                "largest_free_block": heap.largest_free_block(),
            }
        }


class _RankPoolRegion:
    """Pool-access adapter bound to one rank's attached region."""

    def __init__(self, pool: PmemPool, ctx):
        self.pool = pool
        self.ctx = ctx

    def view(self, off: int, size: int):
        return self.pool.region(self.ctx).view(off, size)

    def touch(self, ctx, off: int, size: int) -> None:
        self.pool.touch(ctx, off, size)

    def touch_rows(self, ctx, offs, sizes) -> tuple:
        return self.pool.touch_rows(ctx, offs, sizes)

    def write(self, ctx, off: int, data, *, model_bytes=None):
        return self.pool.region(ctx).write(ctx, off, data, model_bytes=model_bytes)

    def read(self, ctx, off: int, size: int, *, model_bytes=None):
        return self.pool.region(ctx).read(ctx, off, size, model_bytes=model_bytes)

    def persist(self, ctx, off: int, size: int) -> None:
        self.pool.region(ctx).persist(ctx, off, size)
