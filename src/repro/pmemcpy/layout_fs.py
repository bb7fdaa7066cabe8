"""Hierarchical layout: one file per variable on the DAX filesystem (§3).

``mmap(path)`` points at a root *directory*.  A variable ``fields/rho``
becomes directory ``fields/`` plus files::

    <root>/fields/rho#dims      packed VariableMeta
    <root>/fields/rho#chunk<k>  serialized chunk blobs (DAX-mapped)

mirroring the hashtable keys file-for-key.  Every ``/`` in the id creates a
directory if it didn't exist.

Metadata concurrency is flock-style: a namespace reader-writer lock plus
one lock per variable *file* (exact, not hashed — the filesystem already
gives every variable its own object).  With ``meta_stripes <= 1`` every
operation takes the namespace lock exclusively (the old global-mutex
behaviour); with striping enabled, per-variable operations hold the
namespace lock *shared* and their variable's lock in the matching mode, so
only ``list_variables``/teardown-style sweeps (namespace exclusive)
serialize against everyone.  Lock order is always namespace → variable.
"""

from __future__ import annotations

from ..errors import NoSuchFileError, NotMappedError
from ..kernel.dax import MapFlags
from ..kernel.vfs import OpenFlags
from ..pmdk.locks import VolatileRWLock
from ..serial.base import PmemSink, PmemSource
from ..telemetry import span
from .dataset import VariableMeta
from .engine import Extent, Layout, MetaGuard


class HierarchicalLayout(Layout):
    name = "hierarchical"

    def __init__(self, *, map_sync: bool = False, meta_stripes: int = 1,
                 meta_rw: bool = False):
        self.map_sync = map_sync
        self.meta_stripes = meta_stripes
        self.meta_rw = meta_rw
        self.root: str | None = None
        # the shared lock registry only exists after the collective setup;
        # taking a guard before then must fail loudly, not silently succeed
        # on a lock no other rank can see
        self._shared: dict | None = None

    @property
    def _flags(self) -> MapFlags:
        return MapFlags.SHARED | (MapFlags.SYNC if self.map_sync else 0)

    # ------------------------------------------------------------------ lifecycle

    def setup(self, ctx, comm, path: str, *, pool_size: int) -> None:
        env = ctx.env
        if comm.rank == 0:
            if not env.vfs.exists(path):
                env.vfs.mkdir(ctx, path, parents=True)
            # all ranks must share ONE lock registry (namespace lock +
            # per-variable locks) for metadata; publish it on the board
            key = ("pmemcpy-fs-lock", path)
            if ctx.board.get(key) is None:
                # the legacy one-exclusive-lock configuration keeps the
                # original timing treatment (no replay-level mutual
                # exclusion); see repro.pmdk.locks
                replay = self._striped or self.meta_rw
                ctx.board.put(key, {
                    "ns": VolatileRWLock(f"meta:{path}", replay=replay),
                    "vars": {},
                })
        comm.barrier()
        self._shared = ctx.board.get(("pmemcpy-fs-lock", path))
        self.root = path
        comm.barrier()

    def teardown(self, ctx, comm) -> None:
        comm.barrier()

    def _require(self):
        if self.root is None or self._shared is None:
            raise NotMappedError("layout not set up — call PMEM.mmap first")

    # ------------------------------------------------------------------ paths

    def _var_path(self, ctx, var_id: str, *, create_dirs: bool = False) -> str:
        self._require()
        full = f"{self.root}/{var_id}"
        if create_dirs and "/" in var_id:
            parent = full.rsplit("/", 1)[0]
            if not ctx.env.vfs.exists(parent):
                ctx.env.vfs.mkdir(ctx, parent, parents=True)
        return full

    # ------------------------------------------------------------------ metadata

    class _Guard:
        """Acquires ``steps`` — [(lock, shared)] — in order, releases in
        reverse.  Namespace first, then the variable lock: the one lock
        order every code path uses."""

        def __init__(self, ctx, steps):
            self.ctx = ctx
            self.steps = steps
            self.contended = False
            self._held: list = []

        def __enter__(self):
            for lock, shared in self.steps:
                if shared:
                    contended = lock.acquire_read(self.ctx)
                else:
                    contended = lock.acquire_write(self.ctx)
                self._held.append((lock, shared))
                self.contended = self.contended or contended
            return self

        def __exit__(self, *exc):
            for lock, shared in reversed(self._held):
                if shared:
                    lock.release_read(self.ctx)
                else:
                    lock.release_write(self.ctx)
            self._held = []
            return False

    @property
    def _striped(self) -> bool:
        return self.meta_stripes > 1

    def _var_lock(self, var_id: str) -> VolatileRWLock:
        locks = self._shared["vars"]
        lock = locks.get(var_id)
        if lock is None:
            lock = locks[var_id] = VolatileRWLock(f"meta:{self.root}/{var_id}")
        return lock

    def _guard(self, ctx, var_id: str, *, write: bool) -> MetaGuard:
        self._require()
        ns = self._shared["ns"]
        if not self._striped:
            return MetaGuard(HierarchicalLayout._Guard(ctx, [(ns, False)]))
        var_shared = (not write) and self.meta_rw
        steps = [(ns, True), (self._var_lock(var_id), var_shared)]
        return MetaGuard(HierarchicalLayout._Guard(ctx, steps))

    def meta_read(self, ctx, var_id: str) -> MetaGuard:
        return self._guard(ctx, var_id, write=False)

    def meta_write(self, ctx, var_id: str) -> MetaGuard:
        return self._guard(ctx, var_id, write=True)

    def meta_namespace(self, ctx) -> MetaGuard:
        self._require()
        ns = self._shared["ns"]
        return MetaGuard(HierarchicalLayout._Guard(ctx, [(ns, False)]))

    def _write_scope(self, var_id: str) -> str:
        """The lock the discipline checker must see held exclusively when
        this variable's metadata file is rewritten."""
        if self._striped:
            return f"meta:{self.root}/{var_id}"
        return f"meta:{self.root}"

    def get_meta(self, ctx, var_id: str) -> VariableMeta | None:
        env = ctx.env
        p = self._var_path(ctx, var_id) + "#dims"
        if not env.vfs.exists(p):
            return None
        fd = env.vfs.open(ctx, p, OpenFlags.RDONLY)
        size = env.vfs.fstat(ctx, fd)["size"]
        raw = bytes(env.vfs.pread(ctx, fd, size, 0))
        env.vfs.close(ctx, fd)
        return VariableMeta.unpack(var_id, raw)

    def put_meta(self, ctx, meta: VariableMeta) -> None:
        # write-new-then-rename: a crash mid-rewrite must never destroy the
        # previous #dims generation, so the packed metadata goes to a .tmp
        # sibling first and rename() publishes it in one metadata commit
        ctx.record_guarded_write(self._write_scope(meta.name))
        env = ctx.env
        p = self._var_path(ctx, meta.name, create_dirs=True) + "#dims"
        tmp = p + ".tmp"
        fd = env.vfs.open(ctx, tmp, OpenFlags.CREAT | OpenFlags.RDWR | OpenFlags.TRUNC)
        env.vfs.pwrite(ctx, fd, meta.pack(), 0)
        env.vfs.close(ctx, fd)
        env.vfs.rename(ctx, tmp, p)

    def list_variables(self, ctx, subdir: str = "") -> list[str]:
        self._require()
        env = ctx.env
        base = f"{self.root}/{subdir}".rstrip("/")
        out = []
        for name in env.vfs.listdir(ctx, base):
            rel = f"{subdir}/{name}".lstrip("/")
            if env.vfs.stat(ctx, f"{base}/{name}")["is_dir"]:
                out.extend(self.list_variables(ctx, rel))
            elif name.endswith("#dims"):
                out.append(rel[: -len("#dims")])
        return sorted(out)

    def drop_meta(self, ctx, var_id: str) -> None:
        ctx.record_guarded_write(self._write_scope(var_id))
        ctx.env.vfs.unlink(ctx, self._var_path(ctx, var_id) + "#dims")

    # ------------------------------------------------------------------ extents
    #
    # In this layout an extent's ``token`` (→ ``Chunk.blob_off``) is the
    # chunk *index*; the payload lives in the variable's #chunk<idx> file.

    def chunk_path(self, ctx, var_id: str, index: int) -> str:
        return self._var_path(ctx, var_id) + f"#chunk{index}"

    def alloc_extent(self, ctx, name: str, index: int, size: int) -> Extent:
        """Create + contiguously preallocate the chunk file; the extent
        carries its DAX mapping, unmapped again at ``close``."""
        env = ctx.env
        p = self._var_path(ctx, name, create_dirs=True) + f"#chunk{index}"
        with span(ctx, "fs.map", bytes=size):
            fd = env.vfs.open(ctx, p, OpenFlags.CREAT | OpenFlags.RDWR)
            env.vfs.fallocate(ctx, fd, max(size, 1), contiguous=True)
            mapping = env.vfs.mmap(ctx, fd, self._flags)
            env.vfs.close(ctx, fd)
        return Extent(token=index, size=size, region=mapping,
                      _closer=mapping.unmap)

    def extent_sink(self, ctx, extent: Extent) -> PmemSink:
        return PmemSink(ctx, extent.region, base=0)

    def open_chunk(self, ctx, var_id: str, index: int):
        env = ctx.env
        p = self.chunk_path(ctx, var_id, index)
        with span(ctx, "fs.map"):
            fd = env.vfs.open(ctx, p, OpenFlags.RDONLY)
            mapping = env.vfs.mmap(ctx, fd, self._flags)
            env.vfs.close(ctx, fd)
        return mapping

    def extent_source(self, ctx, name: str, chunk) -> PmemSource:
        # the chunk file is mapped whole (DAX: a map is an address range,
        # not a transfer) and the PmemSource serves segment-granular
        # ``read_at``/``read_rows`` views of it, so partial reads only ever
        # touch — and only ever get charged for — their intersecting row
        # segments
        mapping = self.open_chunk(ctx, name, chunk.blob_off)
        return PmemSource(ctx, mapping, base=0, size=chunk.blob_len)

    def free_extent(self, ctx, name: str, chunk) -> None:
        # keyed by the chunk record's own index, and tolerant of a chunk
        # file that was never materialized — a partial store/delete must
        # not strand the remaining files or the #dims metadata entry
        try:
            ctx.env.vfs.unlink(ctx, self.chunk_path(ctx, name, chunk.blob_off))
        except NoSuchFileError:
            pass

    # ------------------------------------------------------------------ introspection

    def occupancy(self, ctx) -> dict:
        """Walk the store tree summing chunk/meta file bytes, plus the DAX
        filesystem's remaining free space."""
        self._require()
        env = ctx.env
        used = files = 0

        def walk(base: str) -> None:
            nonlocal used, files
            for entry in env.vfs.listdir(ctx, base):
                st = env.vfs.stat(ctx, f"{base}/{entry}")
                if st["is_dir"]:
                    walk(f"{base}/{entry}")
                else:
                    files += 1
                    used += st["size"]

        walk(self.root)
        fs, _rel = env.vfs.resolve(self.root)
        return {
            "fs": {
                "used_bytes": used,
                "files": files,
                "free_bytes": fs.free_blocks_count() * fs.block_size,
            }
        }
