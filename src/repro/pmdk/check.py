"""Pool consistency checker — the ``pmempool check`` analog.

Validates, directly against the on-device bytes:

1. superblock: magic, version, checksum, size/offset arithmetic;
2. heap: block headers/footers tile the heap exactly, boundary tags agree,
   no two adjacent free blocks (coalescing invariant);
3. lanes: every undo-log entry lies inside the pool and inside its lane;
4. hashtable (when the pool root points at one): header sanity, chains
   acyclic, every entry and value blob inside the heap, stored hashes match
   the keys, count field equals the number of reachable entries.  Both root
   formats are autodetected: the legacy 16-byte ``hdr|mutex`` root and the
   striped 24-byte ``hdr|stripes|nstripes`` root;
5. variable metadata: every ``<id>#dims`` value must unpack as a
   :class:`~repro.pmemcpy.dataset.VariableMeta` whose ``next_index`` is at
   least the number of published chunks (reserve bumps the index *before*
   publish, so a persisted record can never trail its own chunk list);
6. lock owner words (``live_ranks`` given): a nonzero owner word whose
   rank is not live is a *stale owner* — a dead holder that recovery must
   clear.  Checked over the striped metadata table and any extra
   ``lock_offsets`` the caller knows about.

Returns a :class:`CheckReport`; ``ok`` is True when no problems were found.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

from .alloc import (
    BLOCK_MAGIC,
    FOOTER_SIZE,
    HEADER_SIZE,
    STATUS_FREE,
    STATUS_USED,
    _FTR,
    _HDR,
)
from .hashmap import ENTRY_FIXED, _ENTRY, fnv1a64
from .pool import PmemPool


@dataclass
class CheckReport:
    problems: list[str] = field(default_factory=list)
    n_blocks: int = 0
    n_free: int = 0
    n_used: int = 0
    free_bytes: int = 0
    used_bytes: int = 0
    active_lanes: int = 0
    map_entries: int = 0
    stripes: int = 0
    variables: int = 0

    @property
    def ok(self) -> bool:
        return not self.problems

    def add(self, msg: str) -> None:
        self.problems.append(msg)

    def render(self) -> str:
        lines = [
            "== pmempool check ==",
            f"blocks: {self.n_blocks} ({self.n_used} used / {self.n_free} free)",
            f"bytes:  {self.used_bytes} used / {self.free_bytes} free",
            f"lanes with pending undo logs: {self.active_lanes}",
            f"hashtable entries: {self.map_entries}",
            f"lock stripes: {self.stripes}, variables: {self.variables}",
        ]
        if self.ok:
            lines.append("consistent ✓")
        else:
            lines.append(f"{len(self.problems)} problem(s):")
            lines.extend(f"  - {p}" for p in self.problems)
        return "\n".join(lines)


def check_pool(
    ctx,
    pool: PmemPool,
    *,
    check_map: bool = True,
    live_ranks=None,
    lock_offsets=(),
) -> CheckReport:
    """Run all checks against ``pool``'s persistent image.

    ``live_ranks`` (a set of rank ids, or None to skip) arms the stale
    owner-word check: any nonzero lock word naming a rank outside the set
    is reported.  ``lock_offsets`` adds standalone mutex/rwlock words
    beyond those the pool root reveals.
    """
    report = CheckReport()
    _check_heap(ctx, pool, report)
    _check_lanes(ctx, pool, report)
    if check_map and pool.root():
        _check_root(ctx, pool, report, live_ranks)
    if live_ranks is not None:
        _check_owner_words(
            ctx, pool, report, live_ranks,
            [("lock", off) for off in lock_offsets],
        )
    return report


def _check_heap(ctx, pool: PmemPool, report: CheckReport) -> None:
    pos = pool.heap_off
    heap_end = pool.heap_off + pool.heap_size // 64 * 64
    prev_free = False
    guard = 0
    while pos < heap_end:
        guard += 1
        if guard > 10_000_000:
            report.add("heap walk did not terminate")
            return
        raw = bytes(pool.read(ctx, pos, HEADER_SIZE))
        size, status, magic, _pad = _HDR.unpack(raw)
        if magic != BLOCK_MAGIC:
            report.add(f"block at {pos}: bad magic {magic:#x}")
            return
        if size < 64 or size % 64 or pos + size > heap_end:
            report.add(f"block at {pos}: bad size {size}")
            return
        if status not in (STATUS_FREE, STATUS_USED):
            report.add(f"block at {pos}: bad status {status:#x}")
            return
        ftr = bytes(pool.read(ctx, pos + size - FOOTER_SIZE, FOOTER_SIZE))
        (fsize,) = _FTR.unpack(ftr)
        if fsize != size:
            report.add(
                f"block at {pos}: footer says {fsize}, header says {size}"
            )
        free = status == STATUS_FREE
        if free and prev_free:
            report.add(f"blocks at <{pos} and {pos}: uncoalesced free pair")
        report.n_blocks += 1
        if free:
            report.n_free += 1
            report.free_bytes += size
        else:
            report.n_used += 1
            report.used_bytes += size
        prev_free = free
        pos += size
    if pos != heap_end:
        report.add(f"heap ends at {pos}, expected {heap_end}")


def _check_lanes(ctx, pool: PmemPool, report: CheckReport) -> None:
    for lane in range(pool.nlanes):
        base = pool.lane_offset(lane)
        count = pool.read_u64(ctx, base)
        if count == 0:
            continue
        report.active_lanes += 1
        pos = base + 8
        lane_end = base + pool.lane_log_size
        for i in range(count):
            if pos + 16 > lane_end:
                report.add(f"lane {lane}: entry {i} header beyond lane")
                break
            off = pool.read_u64(ctx, pos)
            length = pool.read_u64(ctx, pos + 8)
            if pos + 16 + length > lane_end:
                report.add(f"lane {lane}: entry {i} body beyond lane")
                break
            if off + length > pool.size:
                report.add(f"lane {lane}: entry {i} targets beyond pool")
            pos += 16 + length


def _used_spans(ctx, pool: PmemPool) -> list[tuple[int, int]]:
    """(user_off, usable) for every used block, by header walk."""
    spans = []
    pos = pool.heap_off
    heap_end = pool.heap_off + pool.heap_size // 64 * 64
    while pos < heap_end:
        raw = bytes(pool.read(ctx, pos, HEADER_SIZE))
        size, status, magic, _pad = _HDR.unpack(raw)
        if magic != BLOCK_MAGIC or size < 64 or pos + size > heap_end:
            return spans  # heap check already reported this
        if status == STATUS_USED:
            spans.append((pos + HEADER_SIZE, size - HEADER_SIZE - FOOTER_SIZE))
        pos += size
    return spans


def _check_root(ctx, pool: PmemPool, report: CheckReport, live_ranks) -> None:
    """Autodetect the root format, then check the namespace behind it.

    pMEMCPY pools have rooted two shapes over time: the legacy 16-byte
    ``hashmap header off | mutex off`` pair, and the striped 24-byte
    ``hashmap header off | stripe table off | nstripes`` triple.  A root
    is treated as striped only when the stripe fields decode to a
    plausible heap-resident table; anything else falls back to legacy.
    """
    root = pool.root()
    spans = {off: size for off, size in _used_spans(ctx, pool)}

    def inside_used(off: int, size: int) -> bool:
        for base, usable in spans.items():
            if base <= off and off + size <= base + usable:
                return True
        return False

    try:
        raw = bytes(pool.read(ctx, root, 24))
        hdr_off, stripes_off, nstripes = struct.unpack("<QQQ", raw)
    except Exception:
        try:
            raw = bytes(pool.read(ctx, root, 16))
            hdr_off, _mutex_off = struct.unpack("<QQ", raw)
            stripes_off = nstripes = 0
        except Exception:
            report.add(f"root object at {root} unreadable")
            return
    striped = (
        stripes_off != 0
        and 1 <= nstripes <= 1 << 16
        and inside_used(stripes_off, 8 * nstripes)
        and inside_used(hdr_off, 24)
    )
    if striped:
        report.stripes = int(nstripes)
        if live_ranks is not None:
            _check_owner_words(
                ctx, pool, report, live_ranks,
                [(f"stripe {i}", stripes_off + 8 * i)
                 for i in range(int(nstripes))],
            )
    _check_hashmap(ctx, pool, report, hdr_off, inside_used)


def _check_owner_words(
    ctx, pool: PmemPool, report: CheckReport, live_ranks, words,
) -> None:
    """Flag nonzero owner words (``rank + 1``) naming non-live ranks."""
    for label, off in words:
        if off + 8 > pool.size:
            report.add(f"{label}: owner word at {off} beyond pool")
            continue
        word = pool.read_u64(ctx, off)
        if word and (word - 1) not in live_ranks:
            report.add(
                f"{label}: stale owner word at {off} — "
                f"rank {word - 1} holds the lock but is not live"
            )


def _check_hashmap(ctx, pool: PmemPool, report: CheckReport,
                   hdr_off: int, inside_used) -> None:
    try:
        nb, count, buckets_off = struct.unpack(
            "<QQQ", bytes(pool.read(ctx, hdr_off, 24))
        )
    except Exception:
        report.add(f"hashtable header at {hdr_off} unreadable")
        return
    if nb == 0 or nb > 1 << 32:
        report.add(f"hashtable: implausible bucket count {nb}")
        return
    if not inside_used(buckets_off, nb * 8):
        report.add("hashtable: bucket array not inside a used block")
        return
    seen: set[int] = set()
    reachable = 0
    dims_values: list[tuple[bytes, bytes]] = []
    for b in range(int(nb)):
        entry = pool.read_u64(ctx, buckets_off + 8 * b)
        while entry:
            if entry in seen:
                report.add(f"hashtable: cycle via entry {entry}")
                return
            seen.add(entry)
            if not inside_used(entry, ENTRY_FIXED):
                report.add(f"hashtable: entry {entry} not in a used block")
                return
            raw = bytes(pool.read(ctx, entry, ENTRY_FIXED))
            nxt, h, key_len, _pad, val_off, val_len = _ENTRY.unpack(raw)
            key = bytes(pool.read(ctx, entry + ENTRY_FIXED, key_len))
            if fnv1a64(key) != h:
                report.add(f"hashtable: entry {entry} hash mismatch for {key!r}")
            if h % nb != b:
                report.add(f"hashtable: entry {entry} in wrong bucket {b}")
            if val_len and not inside_used(val_off, val_len):
                report.add(
                    f"hashtable: value of {key!r} not inside a used block"
                )
            elif key.endswith(b"#dims"):
                dims_values.append(
                    (key, bytes(pool.read(ctx, val_off, val_len)))
                )
            reachable += 1
            entry = nxt
    report.map_entries = reachable
    if reachable != count:
        report.add(
            f"hashtable: header count {count} != reachable entries {reachable}"
        )
    _check_variables(report, dims_values)


def _check_variables(report: CheckReport, dims_values) -> None:
    """Every reachable ``<id>#dims`` value must be a well-formed variable
    record, and its ``next_index`` must cover every published chunk: the
    store protocol bumps the index under the reserve lock *before* any
    chunk is appended, so ``next_index < len(chunks)`` can only mean a
    lost or reordered metadata persist."""
    # function-local: pmemcpy sits above pmdk in the layer stack
    from ..pmemcpy.dataset import VariableMeta

    for key, raw in dims_values:
        name = key[: -len(b"#dims")].decode(errors="replace")
        try:
            meta = VariableMeta.unpack(name, raw)
        except Exception as e:
            report.add(f"variable {name!r}: meta does not unpack ({e})")
            continue
        report.variables += 1
        if meta.next_index < len(meta.chunks):
            report.add(
                f"variable {name!r}: next_index {meta.next_index} behind "
                f"{len(meta.chunks)} published chunk(s)"
            )
