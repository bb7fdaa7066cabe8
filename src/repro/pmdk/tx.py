"""Undo-log transactions over a pool lane.

Protocol (matching libpmemobj's undo-log semantics):

1. ``add_range(off, len)`` snapshots the *pre-image* of a range into the
   lane's log — entry body persisted first, then the entry count, so a torn
   entry past the count is invisible to recovery;
2. the caller then modifies the range in place (no persist required);
3. ``commit`` persists every snapshotted range and invalidates the log
   (count←0);
4. ``abort`` (or crash + pool re-open) applies the snapshots in reverse,
   restoring the pre-transaction state.

``on_commit``/``on_abort`` callbacks let volatile caches (allocator free
lists, hashmap mirrors) stay consistent with whichever way the transaction
resolves — the persistent image is always governed by the log alone.
"""

from __future__ import annotations

import struct

from ..errors import TransactionAborted, PmdkError
from ..telemetry import tracer_for


class Transaction:
    """Context manager: commits on clean exit, aborts on exception."""

    def __init__(self, pool, ctx):
        self.pool = pool
        self.ctx = ctx
        self.lane: int | None = None
        self._log_pos = 0
        self._count = 0
        self._ranges: list[tuple[int, int]] = []
        self._on_commit: list = []
        self._on_abort: list = []
        self._done = False
        self._tracer = None
        self._span = None

    # ------------------------------------------------------------------ lifecycle

    def __enter__(self) -> "Transaction":
        # rank-keyed lane preference: a rank's transactions land in the
        # same lane whenever it is free, so lane-log placement (and hence
        # which log pages each rank first-touches) does not depend on how
        # concurrent transactions happened to interleave — every run
        # produces the same pool image and fault charges
        rank = getattr(self.ctx, "rank", None)
        preferred = rank % self.pool.nlanes if rank is not None else None
        self.lane = self.pool.acquire_lane(preferred=preferred)
        self._log_pos = self.pool.lane_offset(self.lane) + 8
        # the tx span covers the whole scope, commit/abort included, and is
        # closed in __exit__'s finally so an aborting exception can't leak it
        self._tracer = tracer_for(self.ctx)
        self._span = self._tracer.begin(self.ctx, "pmdk.tx",
                                        {"lane": self.lane})
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        try:
            if exc_type is None:
                self.commit()
                return False
            self.abort()
            # swallow only explicit aborts; real errors propagate
            return exc_type is TransactionAborted
        finally:
            status = "ok" if exc_type is None \
                else f"abort:{exc_type.__name__}"
            self._tracer.end(self.ctx, self._span, status)

    def _require_active(self) -> None:
        if self.lane is None or self._done:
            raise PmdkError("transaction not active")

    # ------------------------------------------------------------------ callbacks

    def on_commit(self, fn) -> None:
        self._require_active()
        self._on_commit.append(fn)

    def on_abort(self, fn) -> None:
        self._require_active()
        self._on_abort.append(fn)

    # ------------------------------------------------------------------ log ops

    def add_range(self, off: int, size: int) -> None:
        """Snapshot ``[off, off+size)`` into the undo log."""
        self._require_active()
        if size <= 0:
            return
        lane_base = self.pool.lane_offset(self.lane)
        lane_end = lane_base + self.pool.lane_log_size
        entry_size = 16 + size
        if self._log_pos + entry_size > lane_end:
            raise PmdkError(
                f"undo log overflow: lane {self.lane} "
                f"({self.pool.lane_log_size} bytes) cannot hold {entry_size} more"
            )
        pre = self.pool.read(self.ctx, off, size)
        self.pool.write(self.ctx, self._log_pos, struct.pack("<QQ", off, size))
        self.pool.write(self.ctx, self._log_pos + 16, pre)
        self.pool.persist(self.ctx, self._log_pos, entry_size)
        self._log_pos += entry_size
        self._count += 1
        # entry body durable before the count covers it — and the count
        # itself durable before the caller's in-place modification, or a
        # crash could retire the modification without its undo entry
        self.pool.write_u64(self.ctx, lane_base, self._count)
        self.pool.persist(self.ctx, lane_base, 8)
        self._ranges.append((off, size))

    def write(self, off: int, data, *, snapshot: bool = True) -> None:
        """Convenience: snapshot then modify in place."""
        buf = memoryview(bytes(data) if not isinstance(data, (bytes, bytearray, memoryview)) else data)
        if snapshot:
            self.add_range(off, len(buf))
        self.pool.write(self.ctx, off, bytes(buf))

    # ------------------------------------------------------------------ resolution

    def commit(self) -> None:
        self._require_active()
        for off, size in self._ranges:
            self.pool.persist(self.ctx, off, size)
        lane_base = self.pool.lane_offset(self.lane)
        # the invalidation must be durable before commit returns, or a
        # crash after "success" could replay the undo log and un-commit
        self.pool.write_u64(self.ctx, lane_base, 0)
        self.pool.persist(self.ctx, lane_base, 8)
        self._finish()
        for fn in self._on_commit:
            fn()

    def abort(self) -> None:
        self._require_active()
        # replay undo entries newest-first
        lane_base = self.pool.lane_offset(self.lane)
        pos = lane_base + 8
        entries = []
        for _ in range(self._count):
            off = self.pool.read_u64(self.ctx, pos)
            size = self.pool.read_u64(self.ctx, pos + 8)
            data = self.pool.read(self.ctx, pos + 16, size)
            entries.append((off, data))
            pos += 16 + size
        for off, data in reversed(entries):
            self.pool.write(self.ctx, off, data)
            self.pool.persist(self.ctx, off, len(data))
        self.pool.write_u64(self.ctx, lane_base, 0)
        self.pool.persist(self.ctx, lane_base, 8)
        self._finish()
        for fn in reversed(self._on_abort):
            fn()

    def _finish(self) -> None:
        self._done = True
        lane, self.lane = self.lane, None
        self.pool.release_lane(lane)
