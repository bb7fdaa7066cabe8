"""An ext4-DAX-like filesystem over a :class:`~repro.mem.PMEMDevice`.

File *data* lives in device blocks tracked by per-inode extent lists; file
*metadata* (inodes, directories) lives in the kernel's in-DRAM caches — as it
does on a real system — with journal-commit charges modeling its
persistence.  Two data paths exist, matching the paper's §2.2:

- **POSIX** (``read_file``/``write_file``): one syscall, then an in-kernel
  copy between the user buffer and PMEM.  The kernel's ``copy_from_iter``
  into PMEM is slightly less efficient than a userspace non-temporal
  memcpy (``KernelSpec.dax_copy_efficiency``).
- **mmap** (:class:`DaxMapping`): direct load/store.  First touch of each
  (2 MiB) page pays a minor fault; with :attr:`MapFlags.SYNC` each fault
  additionally performs a synchronous filesystem-journal commit, of which
  only ``map_sync_parallel_fraction`` can overlap across concurrently
  faulting ranks.  This is the PMCPY-A vs PMCPY-B distinction of Figs. 6–7.

Behavioral substitution note (DESIGN.md §2): we charge the MAP_SYNC commit
on *all* first-touch faults, including read faults.  Strictly, MAP_SYNC only
affects write faults, but the paper observes the penalty symmetrically in
its read experiment (Fig. 7: "PMCPY-B ... no better than ADIOS"), so the
emulation follows the observed behavior and we document the liberty taken.
The two sides charge at different granularities: *write* faults pay the
journal commit once per device page globally (block-allocation durability
belongs to the file blocks — the device tracks the committed set, so the
aggregate charge does not depend on which rank's write reaches a shared
page first); *read* faults pay per
mapping first-touch, counted at cacheline granularity and scaled to page
fractions (every fresh mapping re-faults, which is what Fig. 7 measures,
and the charge follows the bytes actually read rather than which model
pages the allocator packed them into).  The *aggregate* write-side charge
is arrival-order-independent; which rank absorbs the commit for a shared
metadata page is first-writer-wins — as on real hardware — and the run's
fixed rank schedule (:mod:`repro.sim.engine`) decides who writes first.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from enum import IntFlag

import numpy as np

from ..errors import (
    BadAddressError,
    FileExistsError_,
    InvalidArgumentError,
    IsADirectoryError_,
    NoSpaceError,
    NoSuchFileError,
    NotADirectoryError_,
    NotEmptyError,
)
from ..mem.device import PMEMDevice
from ..mem.memcpy import _COPY_SETUP_NS, charge_pmem_read, charge_pmem_write
from ..telemetry import metrics_for
from ..units import CACHELINE
from .syscall import page_fault, syscall


class MapFlags(IntFlag):
    SHARED = 1
    SYNC = 2  # MAP_SYNC: synchronous metadata on fault


@dataclass
class Extent:
    """``nblocks`` blocks of file data starting at file block
    ``file_block``, stored at device block ``dev_block``."""

    file_block: int
    dev_block: int
    nblocks: int


@dataclass
class Inode:
    ino: int
    is_dir: bool
    size: int = 0
    extents: list[Extent] = field(default_factory=list)
    children: dict[str, int] = field(default_factory=dict)  # dirs only
    nlink: int = 1


def _split_path(path: str) -> list[str]:
    parts = [p for p in path.split("/") if p not in ("", ".")]
    for p in parts:
        if p == "..":
            raise InvalidArgumentError("'..' not supported in paths")
    return parts


class DaxFS:
    """The filesystem.  All mutating metadata ops are lock-protected so
    concurrent ranks (threads) can create files/directories safely."""

    #: functional block size.  Small enough that scaled-down experiments
    #: still exercise multi-extent files.
    def __init__(self, device: PMEMDevice, *, block_size: int = 4096):
        if block_size % CACHELINE:
            raise ValueError("block size must be a cacheline multiple")
        self.device = device
        self.block_size = block_size
        self.nblocks = device.capacity // block_size
        self.lock = threading.RLock()
        self._free: list[tuple[int, int]] = [(0, self.nblocks)]  # (start, count)
        self._inodes: dict[int, Inode] = {}
        self._next_ino = 2
        self.root = Inode(ino=1, is_dir=True)
        self._inodes[1] = self.root
        #: optional observer called after every metadata mutation (the
        #: crash-journal hook; see repro.crash.journal)
        self._meta_watcher = None

    # ------------------------------------------------------------------ blocks

    def _alloc_blocks(self, n: int, *, contiguous: bool = False) -> list[tuple[int, int]]:
        """Allocate ``n`` blocks; returns (start, count) runs (first-fit)."""
        with self.lock:
            runs: list[tuple[int, int]] = []
            need = n
            if contiguous:
                for i, (start, count) in enumerate(self._free):
                    if count >= n:
                        self._free[i] = (start + n, count - n)
                        if self._free[i][1] == 0:
                            del self._free[i]
                        return [(start, n)]
                raise NoSpaceError(f"no contiguous run of {n} blocks")
            i = 0
            while need > 0 and i < len(self._free):
                start, count = self._free[i]
                take = min(count, need)
                runs.append((start, take))
                need -= take
                if take == count:
                    del self._free[i]
                else:
                    self._free[i] = (start + take, count - take)
                    i += 1
            if need > 0:
                # roll back
                for r in runs:
                    self._free_blocks([r])
                raise NoSpaceError(
                    f"filesystem full: wanted {n} blocks, short {need}"
                )
            return runs

    def _free_blocks(self, runs: list[tuple[int, int]]) -> None:
        with self.lock:
            for start, count in runs:
                self._free.append((start, count))
            self._free.sort()
            merged: list[tuple[int, int]] = []
            for start, count in self._free:
                if merged and merged[-1][0] + merged[-1][1] == start:
                    merged[-1] = (merged[-1][0], merged[-1][1] + count)
                else:
                    merged.append((start, count))
            self._free = merged

    def free_blocks_count(self) -> int:
        with self.lock:
            return sum(c for _s, c in self._free)

    # ------------------------------------------------------------------ namei

    def _namei(self, path: str) -> Inode:
        node = self.root
        for part in _split_path(path):
            if not node.is_dir:
                raise NotADirectoryError_(path)
            ino = node.children.get(part)
            if ino is None:
                raise NoSuchFileError(path)
            node = self._inodes[ino]
        return node

    def _namei_parent(self, path: str) -> tuple[Inode, str]:
        parts = _split_path(path)
        if not parts:
            raise InvalidArgumentError("empty path")
        parent = self.root
        for part in parts[:-1]:
            ino = parent.children.get(part)
            if ino is None:
                raise NoSuchFileError(path)
            parent = self._inodes[ino]
            if not parent.is_dir:
                raise NotADirectoryError_(path)
        return parent, parts[-1]

    def exists(self, path: str) -> bool:
        try:
            self._namei(path)
            return True
        except (NoSuchFileError, NotADirectoryError_):
            return False

    # ------------------------------------------------------------------ charging

    def _charge_meta(self, ctx, note: str) -> None:
        """An async-journaled metadata update: a small unscaled PMEM write."""
        if ctx is not None:
            charge_pmem_write(ctx, 512.0, note=note)
        self._notify_meta()

    def _notify_meta(self) -> None:
        """Tell the attached watcher (if any) that fs metadata changed.

        The crash journal snapshots the metadata here, modeling a
        synchronously-journaled filesystem: every committed metadata state
        is recoverable, paired with whatever device image the store buffer
        left behind."""
        if self._meta_watcher is not None:
            self._meta_watcher(self)

    # ------------------------------------------------------------------ meta snapshots

    def meta_snapshot(self) -> dict:
        """Deep copy of all volatile fs metadata (inodes, free list).

        File *data* lives on the device and is snapshot separately by the
        crash machinery; this captures everything the device image cannot
        rewind on its own."""
        import copy

        with self.lock:
            return {
                "inodes": copy.deepcopy(self._inodes),
                "free": list(self._free),
                "next_ino": self._next_ino,
            }

    def meta_restore(self, snap: dict) -> None:
        """Install a :meth:`meta_snapshot` (deep-copied, so the snapshot
        stays reusable across repeated crash-state materializations)."""
        import copy

        with self.lock:
            self._inodes = copy.deepcopy(snap["inodes"])
            self._free = list(snap["free"])
            self._next_ino = snap["next_ino"]
            self.root = self._inodes[1]

    # ------------------------------------------------------------------ dirs/files

    def mkdir(self, ctx, path: str, *, parents: bool = False) -> Inode:
        with self.lock:
            if parents:
                parts = _split_path(path)
                node = self.root
                built = ""
                for part in parts:
                    built += "/" + part
                    ino = node.children.get(part)
                    if ino is None:
                        node = self.mkdir(ctx, built)
                    else:
                        node = self._inodes[ino]
                        if not node.is_dir:
                            raise NotADirectoryError_(built)
                return node
            parent, name = self._namei_parent(path)
            if not parent.is_dir:
                raise NotADirectoryError_(path)
            if name in parent.children:
                raise FileExistsError_(path)
            inode = Inode(ino=self._next_ino, is_dir=True)
            self._next_ino += 1
            self._inodes[inode.ino] = inode
            parent.children[name] = inode.ino
            self._charge_meta(ctx, "mkdir")
            return inode

    def create(self, ctx, path: str, *, exist_ok: bool = False) -> Inode:
        with self.lock:
            parent, name = self._namei_parent(path)
            if not parent.is_dir:
                raise NotADirectoryError_(path)
            existing = parent.children.get(name)
            if existing is not None:
                node = self._inodes[existing]
                if node.is_dir:
                    raise IsADirectoryError_(path)
                if not exist_ok:
                    raise FileExistsError_(path)
                return node
            inode = Inode(ino=self._next_ino, is_dir=False)
            self._next_ino += 1
            self._inodes[inode.ino] = inode
            parent.children[name] = inode.ino
            self._charge_meta(ctx, "create")
            return inode

    def lookup(self, path: str) -> Inode:
        with self.lock:
            return self._namei(path)

    def listdir(self, path: str) -> list[str]:
        with self.lock:
            node = self._namei(path)
            if not node.is_dir:
                raise NotADirectoryError_(path)
            return sorted(node.children)

    def unlink(self, ctx, path: str) -> None:
        with self.lock:
            parent, name = self._namei_parent(path)
            ino = parent.children.get(name)
            if ino is None:
                raise NoSuchFileError(path)
            node = self._inodes[ino]
            if node.is_dir:
                if node.children:
                    raise NotEmptyError(path)
            else:
                self._free_blocks([(e.dev_block, e.nblocks) for e in node.extents])
            del parent.children[name]
            del self._inodes[ino]
            self._charge_meta(ctx, "unlink")

    def rename(self, ctx, old: str, new: str) -> None:
        """Atomically move a *file* over ``new`` (POSIX rename semantics:
        an existing target is replaced in the same metadata commit)."""
        with self.lock:
            src_parent, src_name = self._namei_parent(old)
            src_ino = src_parent.children.get(src_name)
            if src_ino is None:
                raise NoSuchFileError(old)
            node = self._inodes[src_ino]
            if node.is_dir:
                raise IsADirectoryError_(old)
            dst_parent, dst_name = self._namei_parent(new)
            if not dst_parent.is_dir:
                raise NotADirectoryError_(new)
            existing = dst_parent.children.get(dst_name)
            if existing is not None and existing != src_ino:
                target = self._inodes[existing]
                if target.is_dir:
                    raise IsADirectoryError_(new)
                self._free_blocks(
                    [(e.dev_block, e.nblocks) for e in target.extents]
                )
                del self._inodes[existing]
            del src_parent.children[src_name]
            dst_parent.children[dst_name] = src_ino
            self._charge_meta(ctx, "rename")

    def truncate(self, ctx, inode: Inode, size: int) -> None:
        with self.lock:
            if inode.is_dir:
                raise IsADirectoryError_("truncate")
            needed = -(-size // self.block_size)
            have = sum(e.nblocks for e in inode.extents)
            if needed < have:
                # shrink: release whole extents from the tail
                keep: list[Extent] = []
                total = 0
                freed: list[tuple[int, int]] = []
                for e in inode.extents:
                    if total + e.nblocks <= needed:
                        keep.append(e)
                        total += e.nblocks
                    elif total >= needed:
                        freed.append((e.dev_block, e.nblocks))
                    else:
                        cut = needed - total
                        keep.append(Extent(e.file_block, e.dev_block, cut))
                        freed.append((e.dev_block + cut, e.nblocks - cut))
                        total = needed
                inode.extents = keep
                self._free_blocks(freed)
            elif needed > have:
                self._extend(inode, needed - have)
            inode.size = size
            self._charge_meta(ctx, "truncate")

    def fallocate(self, ctx, inode: Inode, size: int, *, contiguous: bool = False) -> None:
        """Preallocate blocks up to ``size`` (optionally as one extent,
        used by the PMDK pool so it can be mapped as one flat region)."""
        with self.lock:
            needed = -(-size // self.block_size)
            have = sum(e.nblocks for e in inode.extents)
            if needed <= have:
                inode.size = max(inode.size, size)
                self._notify_meta()
                return
            if contiguous:
                if inode.extents:
                    raise InvalidArgumentError(
                        "contiguous fallocate requires an empty file"
                    )
                runs = self._alloc_blocks(needed, contiguous=True)
            else:
                runs = self._alloc_blocks(needed - have)
            base = have
            for start, count in runs:
                inode.extents.append(Extent(base, start, count))
                base += count
            inode.size = max(inode.size, size)
            self._charge_meta(ctx, "fallocate")

    def _extend(self, inode: Inode, nblocks: int) -> None:
        runs = self._alloc_blocks(nblocks)
        base = sum(e.nblocks for e in inode.extents)
        for start, count in runs:
            inode.extents.append(Extent(base, start, count))
            base += count

    # ------------------------------------------------------------------ data ranges

    def file_ranges(self, inode: Inode, offset: int, size: int) -> list[tuple[int, int]]:
        """Map a file byte range to device (offset, length) runs.

        Raises :class:`BadAddressError` if the range exceeds allocated
        extents.
        """
        if offset < 0 or size < 0:
            raise InvalidArgumentError("negative offset/size")
        out: list[tuple[int, int]] = []
        remaining = size
        pos = offset
        bs = self.block_size
        for e in inode.extents:
            if remaining == 0:
                break
            e_start = e.file_block * bs
            e_end = e_start + e.nblocks * bs
            if pos >= e_end or pos + remaining <= e_start:
                continue
            within = max(pos, e_start)
            take = min(e_end, pos + remaining) - within
            dev_off = e.dev_block * bs + (within - e_start)
            out.append((dev_off, take))
            if within == pos:
                pos += take
                remaining -= take
        if remaining > 0:
            raise BadAddressError(
                f"range [{offset}, {offset + size}) not fully allocated "
                f"(short {remaining} bytes)"
            )
        return out

    def _ensure_allocated(self, ctx, inode: Inode, offset: int, size: int) -> None:
        with self.lock:
            needed = -(-(offset + size) // self.block_size)
            have = sum(e.nblocks for e in inode.extents)
            if needed > have:
                self._extend(inode, needed - have)
                if offset + size > inode.size:
                    inode.size = offset + size
                self._charge_meta(ctx, "extend")
            elif offset + size > inode.size:
                inode.size = offset + size
                self._notify_meta()

    # ------------------------------------------------------------------ POSIX data path

    def write_file(
        self, ctx, inode: Inode, offset: int, data, *, model_bytes: float | None = None
    ) -> int:
        """POSIX-style write: in-kernel copy user→PMEM at slightly reduced
        per-stream efficiency, via the extent map."""
        buf = PMEMDevice._as_bytes(data)
        size = int(buf.size)
        if size == 0:
            return 0
        self._ensure_allocated(ctx, inode, offset, size)
        pos = 0
        for dev_off, length in self.file_ranges(inode, offset, size):
            self.device.store(dev_off, buf[pos : pos + length])
            self.device.persist(dev_off, length)
            pos += length
        mb = float(size) if model_bytes is None else float(model_bytes)
        spec = ctx.machine.pmem
        eff = ctx.machine.kernel.dax_copy_efficiency
        ctx.delay(spec.write_latency_ns + _COPY_SETUP_NS, note="dax-write")
        ctx.transfer("pmem_write", mb, spec.stream_write_bw * eff, note="dax-write")
        return size

    def read_file(
        self, ctx, inode: Inode, offset: int, size: int, *, model_bytes: float | None = None
    ) -> np.ndarray:
        """POSIX-style read: in-kernel copy PMEM→user."""
        size = min(size, max(inode.size - offset, 0))
        out = np.empty(size, dtype=np.uint8)
        pos = 0
        for dev_off, length in self.file_ranges(inode, offset, size):
            out[pos : pos + length] = self.device.view(dev_off, length)
            pos += length
        mb = float(size) if model_bytes is None else float(model_bytes)
        spec = ctx.machine.pmem
        eff = ctx.machine.kernel.dax_copy_efficiency
        ctx.delay(spec.read_latency_ns + _COPY_SETUP_NS, note="dax-read")
        ctx.transfer("pmem_read", mb, spec.stream_read_bw * eff, note="dax-read")
        return out

    # ------------------------------------------------------------------ mmap

    def mmap(self, ctx, inode: Inode, flags: MapFlags = MapFlags.SHARED) -> "DaxMapping":
        syscall(ctx, note="mmap")
        self._charge_meta(ctx, "mmap")
        real_page = max(CACHELINE, ctx.machine.kernel.dax_page_bytes // ctx.scale)
        return DaxMapping(
            self, inode, flags, real_page=real_page, nprocs=ctx.nprocs
        )


class DaxMapping:
    """A per-rank DAX mapping of one file: direct, zero-copy access with
    per-page fault accounting (see module docstring for the MAP_SYNC
    model).

    A range inside the inode's leading extent — all of a contiguously
    fallocated pool file — resolves to one device offset (:meth:`_window`),
    so a scalar access is one bounds check, one device operation and its
    charge.  Every other range takes the per-extent walk of
    :meth:`DaxFS.file_ranges`."""

    def __init__(self, fs: DaxFS, inode: Inode, flags: MapFlags, *, real_page: int, nprocs: int):
        self.fs = fs
        self.inode = inode
        self.flags = flags
        self._sync = bool(flags & MapFlags.SYNC)
        self.nprocs = nprocs
        #: one functional page corresponds to one model DAX page
        self._real_page = real_page
        self._touched: set[int] | None = set()
        #: cachelines first-touched by *read* faults (SYNC commit accounting
        #: is line-granular on the read side — see :meth:`_charge_faults`)
        self._touched_lines: set[int] | None = set()
        #: the two sets as bool arrays indexed by page / line, which
        #: replace them (the sets become None) at the first
        #: :meth:`touch_rows`, so a batch of rows is checked in numpy
        self._page_bits: np.ndarray | None = None
        self._line_bits: np.ndarray | None = None
        #: id ranges ``(lo, hi)`` of pages / read lines every id of which
        #: the first-touch state above holds: a repeat access is answered
        #: by one lookup.  Exact because that state only ever grows.
        self._held_pages: set[tuple[int, int]] = set()
        self._held_lines: set[tuple[int, int]] = set()
        #: device pages this mapping has seen MAP_SYNC-committed (see
        #: :meth:`_sync_commit`)
        self._committed: set[int] = set()
        self.closed = False

    # -- address resolution -----------------------------------------------------

    def _window(self, offset: int, size: int) -> int | None:
        """The device offset of ``[offset, offset + size)`` when the range
        lies in the inode's leading extent, else None: the range spans
        extents (a chunk file grown by ``_extend``) or leaves the leading
        one.  The extents are read on every call, so no answer can go
        stale."""
        extents = self.inode.extents
        if not extents or offset < 0 or size < 0:
            return None
        lead = extents[0]
        bs = self.fs.block_size
        start = lead.file_block * bs
        if offset < start or offset + size > start + lead.nblocks * bs:
            return None
        return lead.dev_block * bs + (offset - start)

    def _check_range(self, offset: int, size: int) -> int | None:
        """SIGBUS model: touching pages beyond the file's allocated extents
        faults *before* any charge.  Validated up front so a garbage size
        read out of corrupted pool metadata (e.g. a torn undo-log entry
        during recovery probing) cannot enumerate billions of model pages
        in the fault accounting.  Returns the range's :meth:`_window`."""
        dev = self._window(offset, size)
        if dev is not None:
            return dev
        if offset < 0 or size < 0:
            raise BadAddressError(
                f"bad mapping range [{offset}, +{size})"
            )
        allocated = (
            sum(e.nblocks for e in self.inode.extents) * self.fs.block_size
        )
        if offset + size > allocated:
            raise BadAddressError(
                f"mapping access [{offset}, {offset + size}) beyond "
                f"allocated {allocated} bytes (SIGBUS)"
            )
        return None

    # -- fault accounting -------------------------------------------------------

    def _fault_pages(self, offset: int, size: int) -> int:
        page = self._real_page
        ids = (offset // page, -(-(offset + size) // page))
        if ids in self._held_pages:
            return 0
        p0, p1 = ids
        if self._touched is None:
            self._page_bits, nnew = _mark(self._page_bits, p0, p1)
        else:
            new = [p for p in range(p0, p1) if p not in self._touched]
            self._touched.update(new)
            nnew = len(new)
        _hold(self._held_pages, ids)
        return nnew

    def _fault_lines(self, offset: int, size: int) -> int:
        ids = (offset // 64, -(-(offset + size) // 64))
        if ids in self._held_lines:
            return 0
        l0, l1 = ids
        if self._touched_lines is None:
            self._line_bits, nnew = _mark(self._line_bits, l0, l1)
        else:
            before = len(self._touched_lines)
            self._touched_lines.update(range(l0, l1))
            nnew = len(self._touched_lines) - before
        _hold(self._held_lines, ids)
        return nnew

    def _sync_commit(self, dev: int, size: int) -> float:
        """``device.sync_commit`` of the device range ``[dev, dev + size)``,
        a single page answered from :attr:`_committed` once seen.  Exact:
        ``PMEMDevice._sync_lines`` only ever goes 0 -> 1 (``sync_commit`` is
        its one writer), so a page committed when this mapping last looked
        is committed still, whichever mapping or rank committed it."""
        page = self._real_page
        p = dev // page
        if (dev + size - 1) // page != p:
            return self.fs.device.sync_commit(dev, size, page)
        if p in self._committed:
            return 0.0
        ncommit = self.fs.device.sync_commit(dev, size, page)
        _hold(self._committed, p)
        return ncommit

    def _charge_faults(
        self, ctx, offset: int, size: int, *, allocating: bool = False,
        dev: int | None = None,
    ) -> None:
        """Charge the faults an access to ``[offset, offset + size)`` takes;
        ``dev`` is the range's :meth:`_window`, if it has one."""
        if size <= 0:
            return
        nfaults = self._fault_pages(offset, size)
        if nfaults > 0:
            page_fault(ctx, nfaults)
        if not self._sync:
            return
        if allocating:
            # Write faults: the *first writer device-wide* pays the
            # filesystem journal commit that makes a page's block
            # allocation durable — later SYNC write faults on the same
            # page, from any mapping by any rank, are minor.  The
            # committed-page set lives on the device, so every mapping
            # sees one global set.  Which rank absorbs the commit for a
            # *shared* metadata page is first-writer-wins, and the run's
            # rank schedule fixes who that is.
            if dev is not None:
                ncommit = self._sync_commit(dev, size)
            else:
                ncommit = 0.0
                for dev_off, length in self.fs.file_ranges(
                    self.inode, offset, size
                ):
                    ncommit += self.fs.device.sync_commit(
                        dev_off, length, self._real_page
                    )
        else:
            # Read faults: charged per *mapping* first-touch — the
            # documented modeling liberty (module docstring) that
            # reproduces Fig. 7's symmetric MAP_SYNC read penalty: every
            # fresh mapping re-pays the synchronous fault path even
            # though no block allocation happens.  Counted at cacheline
            # granularity and scaled to page fractions: the bytes a rank
            # first-reads are fixed by its access pattern, so the charge
            # does not depend on which model pages the allocator happened
            # to pack those bytes into (page-granular counting made the
            # total vary with cross-rank allocation interleaving).
            ncommit = self._fault_lines(offset, size) * 64.0 / self._real_page
        if ncommit <= 0:
            return
        ctx.delay(self._sync_commit_ns(ctx) * ncommit, note="map-sync-commit")

    def _sync_commit_ns(self, ctx) -> float:
        """One synchronous journal commit, of which only the parallel
        fraction overlaps across concurrently faulting ranks."""
        k = ctx.machine.kernel
        keff = min(self.nprocs, ctx.machine.cpu.physical_cores)
        return k.map_sync_commit_ns * (
            (1.0 - k.map_sync_parallel_fraction)
            + k.map_sync_parallel_fraction / keff
        )

    # -- data access -------------------------------------------------------------

    def _check_open(self):
        if self.closed:
            raise InvalidArgumentError("mapping has been unmapped")

    def write(self, ctx, offset: int, data, *, model_bytes: float | None = None) -> int:
        """Userspace store through the mapping: full-rate non-temporal
        copy straight to PMEM (the pMEMCPY fast path)."""
        self._check_open()
        buf = PMEMDevice._as_bytes(data)
        size = int(buf.size)
        if offset < 0:
            raise BadAddressError(f"bad mapping range [{offset}, +{size})")
        if size == 0:
            return 0
        inode = self.inode
        dev = self._window(offset, size)
        if dev is None:
            self.fs._ensure_allocated(ctx, inode, offset, size)
            self._charge_faults(ctx, offset, size, allocating=True)
            pos = 0
            for dev_off, length in self.fs.file_ranges(inode, offset, size):
                self.fs.device.store(dev_off, buf[pos : pos + length])
                pos += length
        else:
            # the blocks are there; only the file size may grow
            if offset + size > inode.size:
                self.fs._ensure_allocated(ctx, inode, offset, size)
            self._charge_faults(ctx, offset, size, allocating=True, dev=dev)
            self.fs.device.store(dev, buf)
        charge_pmem_write(
            ctx, float(size) if model_bytes is None else float(model_bytes),
            note="mmap-store",
        )
        return size

    def read(self, ctx, offset: int, size: int, *, model_bytes: float | None = None) -> np.ndarray:
        """Userspace load through the mapping (zero intermediate copies)."""
        self._check_open()
        dev = self._check_range(offset, size)
        self._charge_faults(ctx, offset, size)
        if dev is None:
            out = np.empty(size, dtype=np.uint8)
            pos = 0
            for dev_off, length in self.fs.file_ranges(self.inode, offset, size):
                out[pos : pos + length] = self.fs.device.view(dev_off, length)
                pos += length
        elif size:
            out = self.fs.device.view(dev, size).copy()
        else:
            out = np.empty(0, dtype=np.uint8)
        charge_pmem_read(
            ctx, float(size) if model_bytes is None else float(model_bytes),
            note="mmap-load",
        )
        return out

    def touch(self, ctx, offset: int, size: int) -> None:
        """Charge the page faults a zero-copy access to the range would take
        (used by sources that read through :meth:`view`)."""
        self._check_open()
        self._check_range(offset, size)
        self._charge_faults(ctx, offset, size)

    def touch_rows(self, ctx, offsets: np.ndarray, sizes: np.ndarray) -> tuple:
        """Vector form of :meth:`touch` for the read faults of N row
        accesses: page and (MAP_SYNC) cacheline first-touch per row, in row
        order, lines an earlier row or an earlier access touched counting
        for nothing.  Every row is validated before any state changes.

        The delays are returned, not charged — a row's faults precede *its*
        read in the trace, so they go out with the rows' reads as the
        ``lead`` columns of ``charge_pmem_read_rows``: per fault kind
        ``(note, ns_per_row)``, kinds no row pays left out."""
        self._check_open()
        if not len(offsets):
            return ()
        ends = offsets + sizes
        smallest = sizes.min()
        if smallest < 0:
            raise BadAddressError("bad mapping range: negative row size")
        lo = int(offsets.min())
        self._check_range(lo, int(ends.max()) - lo)

        if self._touched is not None:
            self._page_bits, self._touched = _bitmap(self._touched), None
            self._line_bits = _bitmap(self._touched_lines)
            self._touched_lines = None

        def first_touches(bits: np.ndarray, granule: int):
            lo = offsets // granule
            hi = (ends + (granule - 1)) // granule
            if not smallest:           # an empty row touches nothing
                hi = np.where(sizes > 0, hi, lo)
            bits = _covering(bits, int(hi.max()))
            return bits, _first_touches(bits, lo, hi)

        lead = []
        page = self._real_page
        self._page_bits, (nfaults, pages) = first_touches(
            self._page_bits, page)
        if len(pages):
            lead.append(("page-fault",
                         ctx.machine.kernel.page_fault_ns * nfaults))
        lines = pages[:0]
        if self._sync:
            self._line_bits, (nnew, lines) = first_touches(
                self._line_bits, 64)
            if len(lines):
                lead.append(("map-sync-commit",
                             self._sync_commit_ns(ctx) * (nnew * 64.0 / page)))
        self._page_bits[pages] = True
        self._line_bits[lines] = True
        return tuple(lead)

    def view(self, offset: int, size: int) -> np.ndarray:
        """Zero-copy read-only view; requires the range to live in a single
        extent (guaranteed for contiguously fallocated files)."""
        self._check_open()
        if size == 0:
            return np.empty(0, dtype=np.uint8)
        dev = self._window(offset, size)
        if dev is None:
            ranges = self.fs.file_ranges(self.inode, offset, size)
            if len(ranges) != 1:
                raise InvalidArgumentError(
                    "view crosses extents; use read() or fallocate contiguously"
                )
            dev, size = ranges[0]
        return self.fs.device.view(dev, size)

    def persist(self, ctx, offset: int, size: int) -> None:
        """Flush stored cachelines (CLWB loop + fence)."""
        self._check_open()
        if offset < 0 or size < 0:
            raise BadAddressError(f"bad mapping range [{offset}, +{size})")
        dev = self._window(offset, size)
        if dev is None:
            for dev_off, length in self.fs.file_ranges(self.inode, offset, size):
                self.fs.device.persist(dev_off, length)
        elif size:
            self.fs.device.persist(dev, size)
        ctx.delay(200.0, note="persist")
        metrics_for(ctx).histogram("access.persist.bytes").observe(float(size))

    def unmap(self, ctx) -> None:
        syscall(ctx, note="munmap")
        self.closed = True


#: entries a first-touch or commit memo keeps before it starts over
_MEMO_CAP = 4096


def _hold(memo: set, key) -> None:
    """Add ``key`` to ``memo``, emptying it first when full: a memo holds
    a subset of what it stands for, so forgetting only costs a lookup."""
    if len(memo) >= _MEMO_CAP:
        memo.clear()
    memo.add(key)


def _bitmap(ids: set[int]) -> np.ndarray:
    """``ids`` as a bool array indexed by id."""
    bits = np.zeros(max(ids, default=-1) + 1, dtype=bool)
    bits[np.fromiter(ids, np.int64, len(ids))] = True
    return bits


def _covering(bits: np.ndarray, size: int) -> np.ndarray:
    """``bits``, grown (at least doubling) to hold the ids below ``size``."""
    if size > len(bits):
        grown = np.zeros(max(size, 2 * len(bits)), dtype=bool)
        grown[:len(bits)] = bits
        bits = grown
    return bits


def _mark(bits: np.ndarray, lo: int, hi: int) -> tuple[np.ndarray, int]:
    """``bits`` with the ids ``[lo, hi)`` set (grown to hold them), and how
    many of those it did not hold before."""
    bits = _covering(bits, hi)
    window = bits[lo:hi]
    nnew = (hi - lo) - int(np.count_nonzero(window))
    window[:] = True
    return bits, nnew


def _first_touches(bits: np.ndarray, lo: np.ndarray,
                   hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row ``i``, how many ids of ``[lo[i], hi[i])`` neither an earlier
    row nor ``bits`` holds, and those ids (``bits`` covers every id and is
    not updated).  A window check settles the cases where ``bits`` holds
    every id, or none and the rows share none; else O(rows + ids) numpy,
    unless the rows' ids run out of order — then a sort finds each id's
    first row."""
    window = bits[int(lo.min()):int(hi.max())]
    if window.all():                   # every id held: nothing is new
        return np.zeros(len(lo), dtype=np.int64), lo[:0]
    span = hi - lo
    row_end = np.cumsum(span)
    row_first = row_end - span
    ids = np.repeat(lo - row_first, span) + np.arange(int(row_end[-1]))
    if not window.any() and (lo[1:] >= hi[:-1]).all():
        return span, ids               # none held, none shared: all new
    new = ~bits[ids]
    if not new.any():
        return np.zeros(len(lo), dtype=np.int64), ids[:0]
    if (ids[1:] >= ids[:-1]).all():
        new[1:] &= ids[1:] != ids[:-1]     # a repeat follows its first
    else:
        fresh = np.flatnonzero(new)
        _uniq, first = np.unique(ids[fresh], return_index=True)
        new[:] = False
        new[fresh[first]] = True
    seen = np.concatenate(([0], np.cumsum(new)))
    return seen[row_end] - seen[row_first], ids[new]


def touch_rows(region, ctx, offsets: np.ndarray, sizes: np.ndarray) -> tuple:
    """Fault accounting for N row accesses through any region: its
    ``touch_rows`` where it has one (see :meth:`DaxMapping.touch_rows` for
    what comes back), else one ``touch`` per row — charged at once, ahead
    of the reads, but never skipped — and nothing for a region without a
    fault model."""
    batch = getattr(region, "touch_rows", None)
    if batch is not None:
        return batch(ctx, offsets, sizes)
    touch = getattr(region, "touch", None)
    if touch is not None:
        for offset, size in zip(offsets.tolist(), sizes.tolist()):
            touch(ctx, offset, size)
    return ()
