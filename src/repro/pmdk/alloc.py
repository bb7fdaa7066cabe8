"""Persistent heap: boundary-tag allocator with volatile free lists.

On-device block format (all blocks 64-byte aligned)::

    [ header 16B | user data ... | footer 8B ]

    header:  size u64 (total block size)    status u32    magic u16  pad u16
    footer:  size u64

The *free lists are volatile* (a dict + sorted offset list in DRAM) and are
rebuilt at pool open by walking the headers — exactly PMDK's strategy of
reconstructing runtime heap state instead of persisting it.  Block headers
and footers on the device are the durable truth.

Boundary-tag updates are crash-atomic via the undo log: a split or a
coalesce rewrites a header and a *different* block's footer, and no write
ordering keeps the walk invariant (footer agrees with its covering header)
intact between those two stores — the crash-state enumerator readily finds
the torn window.  So malloc/free log the affected tags before mutating:
inside the caller's transaction when one is passed, otherwise inside an
internal single-op transaction (PMDK's non-transactional atomic
allocations use the same trick with redo logs).
"""

from __future__ import annotations

import bisect
import struct
import threading

from ..errors import AllocationError, PoolCorruptError

HEADER_SIZE = 16
FOOTER_SIZE = 8
ALIGN = 64
#: smallest block we bother splitting off as a remainder
MIN_BLOCK = 128

STATUS_FREE = 0xF1EE0001
STATUS_USED = 0xA1100001
BLOCK_MAGIC = 0x504D  # "PM"

_HDR = struct.Struct("<QIHH")
_FTR = struct.Struct("<Q")


def _align(n: int) -> int:
    return -(-n // ALIGN) * ALIGN


class Heap:
    """Allocator over ``[heap_off, heap_off + heap_size)`` of a pool."""

    def __init__(self, pool, heap_off: int, heap_size: int):
        self.pool = pool
        self.heap_off = heap_off
        self.heap_size = heap_size // ALIGN * ALIGN
        self.heap_end = heap_off + self.heap_size
        self.lock = threading.RLock()
        self._free: dict[int, int] = {}      # block off -> total size
        self._free_sorted: list[int] = []    # offsets, ascending
        self._used: dict[int, int] = {}      # block off -> total size

    # ------------------------------------------------------------------ format/rebuild

    @classmethod
    def format(cls, ctx, pool, heap_off: int, heap_size: int) -> "Heap":
        """Format the heap as free space.

        SPMD formats (``ctx.nprocs > 1``) pre-partition it into one free
        region per rank lane, separated by minimal *used* fence blocks, so
        no later allocation ever rewrites a boundary tag inside another
        rank's lane: every split, header pre-image, and undo-log record a
        rank produces involves only offsets its own deterministic
        allocation sequence reaches.  The fences are permanently allocated
        (64 bytes per boundary), which also keeps coalescing from merging
        free space across lanes.  Single-rank formats keep the classic
        one-big-free-block layout.
        """
        heap = cls(pool, heap_off, heap_size)
        spans = heap._lane_spans(getattr(ctx, "nprocs", 1) or 1)
        prev_end = heap_off
        for lo, hi in spans:
            if lo > prev_end:
                heap._write_block(ctx, prev_end, lo - prev_end, STATUS_USED)
                heap._used[prev_end] = lo - prev_end
            heap._write_block(ctx, lo, hi - lo, STATUS_FREE)
            heap._insert_free(lo, hi - lo)
            prev_end = hi
        return heap

    @classmethod
    def rebuild(cls, ctx, pool, heap_off: int, heap_size: int) -> "Heap":
        """Walk headers to reconstruct the volatile free/used maps."""
        heap = cls(pool, heap_off, heap_size)
        pos = heap_off
        while pos < heap.heap_end:
            size, status, magic = heap._read_header(ctx, pos)
            if magic != BLOCK_MAGIC or size < ALIGN or size % ALIGN or \
               pos + size > heap.heap_end:
                raise PoolCorruptError(
                    f"heap corrupt at {pos}: size={size} status={status:#x} "
                    f"magic={magic:#x}"
                )
            if status == STATUS_FREE:
                heap._insert_free(pos, size)
            elif status == STATUS_USED:
                heap._used[pos] = size
            else:
                raise PoolCorruptError(f"heap corrupt at {pos}: bad status")
            pos += size
        return heap

    # ------------------------------------------------------------------ device structs

    def _write_block(self, ctx, off: int, size: int, status: int) -> None:
        """Write footer then header (see module docstring for ordering)."""
        self.pool.write(ctx, off + size - FOOTER_SIZE, _FTR.pack(size))
        self.pool.persist(ctx, off + size - FOOTER_SIZE, FOOTER_SIZE)
        self.pool.write(ctx, off, _HDR.pack(size, status, BLOCK_MAGIC, 0))
        self.pool.persist(ctx, off, HEADER_SIZE)

    def _read_header(self, ctx, off: int) -> tuple[int, int, int]:
        raw = bytes(self.pool.read(ctx, off, HEADER_SIZE))
        size, status, magic, _pad = _HDR.unpack(raw)
        return size, status, magic

    def _read_footer_size(self, ctx, off: int) -> int:
        raw = bytes(self.pool.read(ctx, off - FOOTER_SIZE, FOOTER_SIZE))
        return _FTR.unpack(raw)[0]

    # ------------------------------------------------------------------ volatile maps

    def _insert_free(self, off: int, size: int) -> None:
        self._free[off] = size
        bisect.insort(self._free_sorted, off)

    def _remove_free(self, off: int) -> int:
        size = self._free.pop(off)
        idx = bisect.bisect_left(self._free_sorted, off)
        del self._free_sorted[idx]
        return size

    # ------------------------------------------------------------------ malloc/free

    def _lane_spans(self, nprocs: int) -> list[tuple[int, int]]:
        """Arithmetic partition of the heap into per-rank lanes.

        Every rank computes the same spans from ``(heap_size, nprocs)``
        alone — no shared allocator state — so concurrent ranks get the
        same block *addresses* in whatever order their mallocs arrive
        (libpmemobj stripes per-thread arenas for the same reason, there
        for lock contention).
        Lane 0 starts at ``heap_off``; each later lane starts one fence
        block (:data:`ALIGN` bytes) past its boundary — see
        :meth:`format`.  Degenerate partitions collapse to one span.
        """
        if nprocs <= 1:
            return [(self.heap_off, self.heap_end)]
        q = (self.heap_size // nprocs) // ALIGN * ALIGN
        if q < 4 * MIN_BLOCK:  # lanes too small to be useful
            return [(self.heap_off, self.heap_end)]
        spans = []
        for lane in range(nprocs):
            lo = self.heap_off + lane * q + (ALIGN if lane else 0)
            hi = (self.heap_end if lane == nprocs - 1
                  else self.heap_off + (lane + 1) * q)
            spans.append((lo, hi))
        return spans

    def _rank_window(self, ctx) -> tuple[int, int] | None:
        """Deterministic per-rank allocation window for SPMD runs: rank
        ``r`` allocates first-fit inside lane ``r`` and falls back to a
        whole-heap scan only when its lane is exhausted.  Single-rank runs
        use the classic whole-heap first fit."""
        nprocs = getattr(ctx, "nprocs", 1) or 1
        if nprocs <= 1:
            return None
        spans = self._lane_spans(nprocs)
        if len(spans) == 1:
            return None
        return spans[getattr(ctx, "rank", 0) % nprocs]

    def _find_block(self, ctx, total: int) -> tuple[int, int]:
        """Pick a free block and the carve offset inside it for ``total``
        bytes: first fit within the rank's lane window when one applies,
        else (or on lane exhaustion) classic whole-heap first fit."""
        window = self._rank_window(ctx)
        if window is not None:
            lo, hi = window
            for off in self._free_sorted:
                cut = max(off, lo)
                if cut + total <= min(off + self._free[off], hi):
                    return off, cut
        for off in self._free_sorted:
            if self._free[off] >= total:
                return off, off
        raise AllocationError(
            f"out of pool memory: need {total} bytes "
            f"(free: {sum(self._free.values())})"
        )

    def malloc(self, ctx, size: int, tx=None) -> int:
        """Allocate ``size`` user bytes; returns the *user* offset."""
        if size <= 0:
            raise AllocationError(f"invalid allocation size {size}")
        if tx is None:
            from .tx import Transaction

            with Transaction(self.pool, ctx) as itx:
                return self.malloc(ctx, size, tx=itx)
        total = _align(HEADER_SIZE + size + FOOTER_SIZE)
        with self.lock:
            block, cut = self._find_block(ctx, total)
            bsize = self._remove_free(block)
            if tx is not None:
                tx.add_range(block, HEADER_SIZE)
                # the block's footer gets rewritten (as the remainder's or the
                # used block's); log its pre-image so rollback restores the
                # boundary tag exactly
                tx.add_range(block + bsize - FOOTER_SIZE, FOOTER_SIZE)
            head = cut - block
            if head:
                # lane-window carve: the gap before the window boundary
                # stays a standalone free block (any 64-multiple ≥ ALIGN
                # is walk-valid, so no MIN_BLOCK floor here)
                self._write_block(ctx, block, head, STATUS_FREE)
                self._insert_free(block, head)
            remainder = bsize - head - total
            if remainder >= MIN_BLOCK:
                self._write_block(ctx, cut + total, remainder, STATUS_FREE)
                self._insert_free(cut + total, remainder)
            else:
                total += remainder
            self._write_block(ctx, cut, total, STATUS_USED)
            self._used[cut] = total
            if tx is not None:
                # the undo log restores the device image on abort; these
                # mirror that restoration in the volatile maps
                final_total, final_rem, final_head = total, remainder, head
                def _rollback_volatile():
                    with self.lock:
                        self._used.pop(cut, None)
                        if final_head and block in self._free:
                            self._remove_free(block)
                        if final_rem >= MIN_BLOCK and (cut + final_total) in self._free:
                            self._remove_free(cut + final_total)
                        self._insert_free(block, bsize)
                tx.on_abort(_rollback_volatile)
            return cut + HEADER_SIZE

    def free(self, ctx, user_off: int, tx=None) -> None:
        if tx is None:
            from .tx import Transaction

            with Transaction(self.pool, ctx) as itx:
                return self.free(ctx, user_off, tx=itx)
        block = user_off - HEADER_SIZE
        with self.lock:
            size = self._used.get(block)
            if size is None:
                raise AllocationError(f"free of unallocated offset {user_off}")
            # sanity-check the on-device header
            dsize, status, magic = self._read_header(ctx, block)
            if (dsize, status, magic) != (size, STATUS_USED, BLOCK_MAGIC):
                raise PoolCorruptError(
                    f"header mismatch freeing {user_off}: device says "
                    f"size={dsize} status={status:#x}"
                )
            if tx is not None:
                tx.add_range(block, HEADER_SIZE)
            del self._used[block]
            start, total = block, size
            # coalesce with next
            nxt = block + size
            if nxt < self.heap_end and nxt in self._free:
                if tx is not None:
                    tx.add_range(nxt, HEADER_SIZE)
                total += self._remove_free(nxt)
            # coalesce with previous
            if start > self.heap_off:
                prev_size = self._read_footer_size(ctx, start)
                prev = start - prev_size
                if prev in self._free:
                    if tx is not None:
                        tx.add_range(prev, HEADER_SIZE)
                    self._remove_free(prev)
                    start = prev
                    total += prev_size
            if tx is not None:
                # final merged footer overwrites some block's old footer
                tx.add_range(start + total - FOOTER_SIZE, FOOTER_SIZE)
            self._write_block(ctx, start, total, STATUS_FREE)
            self._insert_free(start, total)
            if tx is not None:
                snap_start, snap_total, snap_block, snap_size = start, total, block, size
                def _rollback_volatile():
                    with self.lock:
                        if snap_start in self._free:
                            self._remove_free(snap_start)
                        # restore the freed block as used
                        self._used[snap_block] = snap_size
                        # restore neighbor free blocks exactly as they were
                        if snap_start != snap_block:
                            prev_sz = snap_block - snap_start
                            self._insert_free(snap_start, prev_sz)
                        tail = snap_block + snap_size
                        if tail < snap_start + snap_total:
                            self._insert_free(tail, snap_start + snap_total - tail)
                tx.on_abort(_rollback_volatile)

    def usable_size(self, user_off: int) -> int:
        with self.lock:
            size = self._used.get(user_off - HEADER_SIZE)
            if size is None:
                raise AllocationError(f"unallocated offset {user_off}")
            return size - HEADER_SIZE - FOOTER_SIZE

    # ------------------------------------------------------------------ stats

    def free_bytes(self) -> int:
        with self.lock:
            return sum(self._free.values())

    def used_bytes(self) -> int:
        with self.lock:
            return sum(self._used.values())

    def n_free_blocks(self) -> int:
        with self.lock:
            return len(self._free)

    def largest_free_block(self) -> int:
        with self.lock:
            return max(self._free.values(), default=0)

    def check_invariants(self) -> None:
        """Test helper: free/used blocks tile the heap exactly."""
        with self.lock:
            blocks = sorted(
                [(o, s, "free") for o, s in self._free.items()]
                + [(o, s, "used") for o, s in self._used.items()]
            )
            pos = self.heap_off
            prev_kind = None
            for off, size, kind in blocks:
                if off != pos:
                    raise AssertionError(f"gap/overlap at {pos} (next block {off})")
                if kind == "free" and prev_kind == "free":
                    raise AssertionError(f"uncoalesced free blocks at {off}")
                pos = off + size
                prev_kind = kind
            if pos != self.heap_end:
                raise AssertionError(f"heap ends at {pos}, expected {self.heap_end}")
