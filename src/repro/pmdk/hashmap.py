"""Persistent hashtable with chaining — pMEMCPY's flat namespace (§3).

On-device layout::

    header (24B):  nbuckets u64 | count u64 | buckets_off u64
    buckets:       nbuckets × u64 entry offsets (0 = empty chain)
    entry:         next u64 | hash u64 | key_len u32 | pad u32
                   val_off u64 | val_len u64 | key bytes...

Values are separately-allocated blobs so rehashing never moves user data.
All structural mutations run inside undo-log transactions; obsolete blobs
are freed via ``on_commit`` so an abort (or crash) never leaves dangling
pointers — a crash between commit and the deferred free can only leak,
never corrupt (PMDK accepts the same window for its non-transactional
atomic frees).
"""

from __future__ import annotations

import struct

from ..errors import PmdkError
from .locks import LOCK_OVERHEAD_NS, CoreLock, fnv1a64
from .tx import Transaction

__all__ = ["PmemHashmap", "fnv1a64"]

HEADER_SIZE = 24
ENTRY_FIXED = 40
_ENTRY = struct.Struct("<QQIIQQ")
DEFAULT_NBUCKETS = 64
MAX_LOAD_FACTOR = 4.0
GROWTH = 4


class PmemHashmap:
    """Handle to a hashtable rooted at ``hdr_off`` inside ``pool``."""

    def __init__(self, pool, hdr_off: int):
        self.pool = pool
        self.hdr_off = hdr_off
        # arbitration comes from the pool's core registry, keyed by the
        # table's offset, so every rank's handle to this table shares it
        self._lock = CoreLock(
            pool.locks.mutex_core(("hashmap", hdr_off), reentrant=True)
        )

    # ------------------------------------------------------------------ lifecycle

    @classmethod
    def create(cls, ctx, pool, *, nbuckets: int = DEFAULT_NBUCKETS) -> "PmemHashmap":
        if nbuckets < 1:
            raise PmdkError("nbuckets must be >= 1")
        hdr_off = pool.malloc(ctx, HEADER_SIZE)
        buckets_off = pool.malloc(ctx, nbuckets * 8)
        pool.write(ctx, buckets_off, bytes(nbuckets * 8))
        pool.persist(ctx, buckets_off, nbuckets * 8)
        pool.write(ctx, hdr_off, struct.pack("<QQQ", nbuckets, 0, buckets_off))
        pool.persist(ctx, hdr_off, HEADER_SIZE)
        return cls(pool, hdr_off)

    @classmethod
    def open(cls, pool, hdr_off: int) -> "PmemHashmap":
        return cls(pool, hdr_off)

    # ------------------------------------------------------------------ header access

    def _header(self, ctx) -> tuple[int, int, int]:
        raw = bytes(self.pool.read(ctx, self.hdr_off, HEADER_SIZE))
        return struct.unpack("<QQQ", raw)

    def __len__(self) -> int:
        raise TypeError("use count(ctx) — reading the header costs time")

    def count(self, ctx) -> int:
        return self._header(ctx)[1]

    def nbuckets(self, ctx) -> int:
        return self._header(ctx)[0]

    # ------------------------------------------------------------------ entries

    def _read_entry(self, ctx, off: int) -> tuple[int, int, int, int, int, bytes]:
        raw = bytes(self.pool.read(ctx, off, ENTRY_FIXED))
        nxt, h, key_len, _pad, val_off, val_len = _ENTRY.unpack(raw)
        key = bytes(self.pool.read(ctx, off + ENTRY_FIXED, key_len))
        return nxt, h, key_len, val_off, val_len, key

    def _find(self, ctx, key: bytes) -> tuple[int, int, int, dict]:
        """Walk the chain.  Returns (bucket_ptr_off, prev_ptr_off, entry_off,
        entry_fields); entry_off == 0 if absent.  ``prev_ptr_off`` is the
        device offset of the pointer *to* the entry (bucket slot or previous
        entry's next field)."""
        nb, _count, buckets_off = self._header(ctx)
        h = fnv1a64(key)
        slot = buckets_off + 8 * (h % nb)
        ptr_off = slot
        entry = self.pool.read_u64(ctx, ptr_off)
        while entry:
            nxt, eh, key_len, val_off, val_len, ekey = self._read_entry(ctx, entry)
            if eh == h and ekey == key:
                return slot, ptr_off, entry, {
                    "next": nxt, "val_off": val_off, "val_len": val_len,
                    "key_len": key_len,
                }
            ptr_off = entry  # next field is at offset 0 of the entry
            entry = nxt
        return slot, ptr_off, 0, {}

    # ------------------------------------------------------------------ public API

    def put(self, ctx, key: bytes, value: bytes, *, reserve: int = 0) -> None:
        """Insert or replace, crash-atomically.

        ``reserve`` asks for at least that much value-blob capacity on
        insert; a later replace whose value fits the existing blob's
        capacity is done *in place* (undo-logged overwrite) instead of
        allocate-new/free-old.  Frequently rewritten records thereby keep
        one stable blob address for their whole life — which also keeps
        pool layout independent of how concurrent writers interleave.
        """
        if not isinstance(key, bytes) or not key:
            raise PmdkError("key must be non-empty bytes")
        with self._lock:
            ctx.delay(LOCK_OVERHEAD_NS, note="map-lock")
            slot, ptr_off, entry, fields = self._find(ctx, key)
            if entry and value and \
                    len(value) <= self.pool.usable_size(fields["val_off"]):
                with Transaction(self.pool, ctx) as tx:
                    # snapshot the live value bytes plus the length word,
                    # then overwrite in place
                    tx.add_range(
                        fields["val_off"],
                        max(fields["val_len"], len(value)),
                    )
                    self.pool.write(ctx, fields["val_off"], value)
                    self.pool.persist(ctx, fields["val_off"], len(value))
                    tx.add_range(entry + 24, 16)
                    self.pool.write(
                        ctx, entry + 24,
                        struct.pack("<QQ", fields["val_off"], len(value)),
                    )
                return
            with Transaction(self.pool, ctx) as tx:
                val_off = self.pool.malloc(
                    ctx, max(len(value), 1, reserve), tx=tx
                )
                if value:
                    self.pool.write(ctx, val_off, value)
                    self.pool.persist(ctx, val_off, len(value))
                if entry:
                    old_val = fields["val_off"]
                    tx.add_range(entry + 24, 16)  # val_off, val_len
                    self.pool.write(
                        ctx, entry + 24, struct.pack("<QQ", val_off, len(value))
                    )
                    tx.on_commit(lambda: self.pool.free(ctx, old_val))
                else:
                    h = fnv1a64(key)
                    entry_off = self.pool.malloc(
                        ctx, ENTRY_FIXED + len(key), tx=tx
                    )
                    head = self.pool.read_u64(ctx, slot)
                    self.pool.write(
                        ctx, entry_off,
                        _ENTRY.pack(head, h, len(key), 0, val_off, len(value))
                        + key,
                    )
                    self.pool.persist(ctx, entry_off, ENTRY_FIXED + len(key))
                    tx.add_range(slot, 8)
                    self.pool.write(ctx, slot, struct.pack("<Q", entry_off))
                    _nb, count, _bo = self._header(ctx)
                    tx.add_range(self.hdr_off + 8, 8)
                    self.pool.write(
                        ctx, self.hdr_off + 8, struct.pack("<Q", count + 1)
                    )
            nb, count, _ = self._header(ctx)
            if count > MAX_LOAD_FACTOR * nb:
                self._resize(ctx, nb * GROWTH)

    def get(self, ctx, key: bytes) -> bytes | None:
        """Look up and copy out the value (charged PMEM reads)."""
        with self._lock:
            ctx.delay(LOCK_OVERHEAD_NS, note="map-lock")
            _slot, _ptr, entry, fields = self._find(ctx, key)
            if not entry:
                return None
            return bytes(
                self.pool.read(ctx, fields["val_off"], fields["val_len"])
            )

    def get_ref(self, ctx, key: bytes) -> tuple[int, int] | None:
        """Look up and return (val_off, val_len) without copying the value —
        the zero-copy path pMEMCPY loads through."""
        with self._lock:
            ctx.delay(LOCK_OVERHEAD_NS, note="map-lock")
            _slot, _ptr, entry, fields = self._find(ctx, key)
            if not entry:
                return None
            return fields["val_off"], fields["val_len"]

    def contains(self, ctx, key: bytes) -> bool:
        return self.get_ref(ctx, key) is not None

    def delete(self, ctx, key: bytes) -> bool:
        with self._lock:
            ctx.delay(LOCK_OVERHEAD_NS, note="map-lock")
            _slot, ptr_off, entry, fields = self._find(ctx, key)
            if not entry:
                return False
            with Transaction(self.pool, ctx) as tx:
                tx.add_range(ptr_off, 8)
                self.pool.write(ctx, ptr_off, struct.pack("<Q", fields["next"]))
                _nb, count, _ = self._header(ctx)
                tx.add_range(self.hdr_off + 8, 8)
                self.pool.write(ctx, self.hdr_off + 8, struct.pack("<Q", count - 1))
                val_off, entry_off = fields["val_off"], entry
                tx.on_commit(lambda: (
                    self.pool.free(ctx, val_off),
                    self.pool.free(ctx, entry_off),
                ))
            return True

    def keys(self, ctx) -> list[bytes]:
        return [k for k, _v in self.items(ctx)]

    def items(self, ctx) -> list[tuple[bytes, bytes]]:
        out = []
        with self._lock:
            nb, _count, buckets_off = self._header(ctx)
            for b in range(nb):
                entry = self.pool.read_u64(ctx, buckets_off + 8 * b)
                while entry:
                    nxt, _h, _kl, val_off, val_len, key = self._read_entry(ctx, entry)
                    out.append(
                        (key, bytes(self.pool.read(ctx, val_off, val_len)))
                    )
                    entry = nxt
        return sorted(out)

    # ------------------------------------------------------------------ resize

    def _resize(self, ctx, new_nbuckets: int) -> None:
        """Grow the bucket array and relink every entry, in one transaction."""
        nb, count, old_buckets = self._header(ctx)
        entries: list[tuple[int, int]] = []  # (entry_off, hash)
        for b in range(nb):
            entry = self.pool.read_u64(ctx, old_buckets + 8 * b)
            while entry:
                nxt, h, _kl, _vo, _vl, _key = self._read_entry(ctx, entry)
                entries.append((entry, h))
                entry = nxt
        with Transaction(self.pool, ctx) as tx:
            new_buckets = self.pool.malloc(ctx, new_nbuckets * 8, tx=tx)
            heads = [0] * new_nbuckets
            for entry_off, h in entries:
                slot = h % new_nbuckets
                tx.add_range(entry_off, 8)  # next field
                self.pool.write(ctx, entry_off, struct.pack("<Q", heads[slot]))
                heads[slot] = entry_off
            self.pool.write(
                ctx, new_buckets, struct.pack(f"<{new_nbuckets}Q", *heads)
            )
            self.pool.persist(ctx, new_buckets, new_nbuckets * 8)
            tx.add_range(self.hdr_off, HEADER_SIZE)
            self.pool.write(
                ctx, self.hdr_off,
                struct.pack("<QQQ", new_nbuckets, count, new_buckets),
            )
            tx.on_commit(lambda: self.pool.free(ctx, old_buckets))
