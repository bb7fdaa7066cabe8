"""The pmemobj-style pool: superblock, root pointer, heap, undo-log lanes.

On-device layout (offsets relative to the pool base)::

    0    magic               8s   b"PMDKPOOL"
    8    version             u32
    12   flags               u32
    16   pool_size           u64
    24   root_off            u64   (0 = unset)
    32   heap_off            u64
    40   heap_size           u64
    48   nlanes              u32
    52   lane_log_size       u32
    56   lanes_off           u64
    64   header_crc32        u32
    128  ... lanes (nlanes * lane_log_size) ...
         ... heap ...

Each *lane* holds one thread's undo log (PMDK's lane concept): a ``count``
word followed by ``count`` valid entries ``[offset u64, length u64, data]``.
``count`` is persisted *after* the entry body, so a torn entry past the
count is ignored by recovery.

Access to the pool goes through a per-rank *region* object (a
:class:`~repro.kernel.dax.DaxMapping`, or the :class:`RawRegion` fallback),
so page-fault/MAP_SYNC charging follows whichever mapping the rank created.
"""

from __future__ import annotations

import struct
import threading
import zlib

import numpy as np

from ..errors import BadAddressError, PoolCorruptError
from ..kernel.dax import touch_rows
from ..mem.device import PMEMDevice
from ..mem.memcpy import charge_pmem_read, charge_pmem_write
from ..sim.engine import wait_until
from ..telemetry import metrics_for, span
from .alloc import Heap
from .locks import CoreRegistry

POOL_MAGIC = b"PMDKPOOL"
POOL_VERSION = 1
POOL_HEADER_SIZE = 128
_HDR = struct.Struct("<8sIIQQQQIIQ")  # through lanes_off
_CRC_OFF = _HDR.size  # crc stored right after the packed header


class RawRegion:
    """Direct, page-fault-model-free access to a device range.

    Duck-types :class:`~repro.kernel.dax.DaxMapping`'s access protocol
    (``write``/``read``/``persist``/``view``), charging plain PMEM costs.
    Used by unit tests and by pools created on a bare device.
    """

    def __init__(self, device: PMEMDevice, base: int, size: int):
        if base < 0 or base + size > device.capacity:
            raise BadAddressError("region outside device")
        self.device = device
        self.base = base
        self.size = size

    def _check(self, off: int, size: int) -> None:
        if off < 0 or off + size > self.size:
            raise BadAddressError(
                f"region access [{off}, {off + size}) outside size {self.size}"
            )

    def write(self, ctx, off: int, data, *, model_bytes: float | None = None) -> int:
        buf = PMEMDevice._as_bytes(data)
        self._check(off, buf.size)
        n = self.device.store(self.base + off, buf)
        charge_pmem_write(
            ctx, float(n) if model_bytes is None else float(model_bytes)
        )
        return n

    def read(self, ctx, off: int, size: int, *, model_bytes: float | None = None) -> np.ndarray:
        self._check(off, size)
        out = self.device.load(self.base + off, size)
        charge_pmem_read(
            ctx, float(size) if model_bytes is None else float(model_bytes)
        )
        return out

    def persist(self, ctx, off: int, size: int) -> None:
        self._check(off, size)
        self.device.persist(self.base + off, size)
        ctx.delay(200.0, note="persist")
        metrics_for(ctx).histogram("access.persist.bytes").observe(float(size))

    def view(self, off: int, size: int) -> np.ndarray:
        self._check(off, size)
        return self.device.view(self.base + off, size)


class PmemPool:
    """An open pool.  Thread-safe: ranks share the instance and attach their
    own access regions with :meth:`attach`."""

    def __init__(self, region, *, size: int):
        self._default_region = region
        self._regions: dict[int, object] = {}
        self.size = size
        self.lock = threading.RLock()
        self.heap: Heap | None = None
        # filled by create/open
        self.root_off = 0
        self.heap_off = 0
        self.heap_size = 0
        self.nlanes = 0
        self.lane_log_size = 0
        self.lanes_off = 0
        self._lane_free: set[int] = set()
        #: volatile lock cores for every lock living in this pool
        self.locks = CoreRegistry()

    # ------------------------------------------------------------------ regions

    def attach(self, ctx, region) -> None:
        """Register ``region`` as rank ``ctx.rank``'s access path."""
        with self.lock:
            self._regions[ctx.rank] = region

    def region(self, ctx):
        return self._regions.get(ctx.rank, self._default_region)

    # convenience charged accessors --------------------------------------------

    def write(self, ctx, off: int, data, *, model_bytes: float | None = None) -> int:
        return self.region(ctx).write(ctx, off, data, model_bytes=model_bytes)

    def read(self, ctx, off: int, size: int, *, model_bytes: float | None = None) -> np.ndarray:
        return self.region(ctx).read(ctx, off, size, model_bytes=model_bytes)

    def persist(self, ctx, off: int, size: int) -> None:
        self.region(ctx).persist(ctx, off, size)

    def view(self, off: int, size: int) -> np.ndarray:
        return self._default_region.view(off, size)

    def touch(self, ctx, off: int, size: int) -> None:
        """Charge page faults for a zero-copy access through this rank's
        region (no-op for regions without a fault model)."""
        region = self.region(ctx)
        touch = getattr(region, "touch", None)
        if touch is not None:
            touch(ctx, off, size)

    def touch_rows(self, ctx, offs, sizes) -> tuple:
        """Vector form of :meth:`touch` (see ``repro.kernel.dax.touch_rows``
        for what this rank's region makes of it)."""
        return touch_rows(self.region(ctx), ctx, offs, sizes)

    def read_u64(self, ctx, off: int) -> int:
        return int(self.read(ctx, off, 8).view("<u8")[0])

    def write_u64(self, ctx, off: int, value: int, *, persist: bool = True) -> None:
        self.write(ctx, off, struct.pack("<Q", value))
        if persist:
            self.persist(ctx, off, 8)

    # ------------------------------------------------------------------ create/open

    @classmethod
    def create(
        cls,
        ctx,
        region,
        *,
        size: int,
        nlanes: int = 16,
        lane_log_size: int = 64 * 1024,
    ) -> "PmemPool":
        """Format a new pool in ``region`` and return it opened."""
        lanes_off = POOL_HEADER_SIZE
        heap_off = lanes_off + nlanes * lane_log_size
        heap_off = -(-heap_off // 64) * 64
        if heap_off + 4096 > size:
            raise PoolCorruptError(
                f"pool of {size} bytes too small for {nlanes} lanes of "
                f"{lane_log_size} bytes"
            )
        heap_size = size - heap_off
        pool = cls(region, size=size)
        pool.root_off = 0
        pool.heap_off = heap_off
        pool.heap_size = heap_size
        pool.nlanes = nlanes
        pool.lane_log_size = lane_log_size
        pool.lanes_off = lanes_off
        pool._write_header(ctx)
        # zero the lane counts
        for lane in range(nlanes):
            pool.write_u64(ctx, lanes_off + lane * lane_log_size, 0)
        pool.heap = Heap.format(ctx, pool, heap_off, heap_size)
        pool._lane_free = set(range(nlanes))
        return pool

    @classmethod
    def open(cls, ctx, region, *, size: int) -> "PmemPool":
        """Open an existing pool: validate the header, run lane recovery,
        rebuild the volatile heap state, clear robust locks."""
        pool = cls(region, size=size)
        pool._read_header(ctx)
        pool._recover(ctx)
        pool.heap = Heap.rebuild(ctx, pool, pool.heap_off, pool.heap_size)
        pool._lane_free = set(range(pool.nlanes))
        return pool

    @staticmethod
    def _header_crc(hdr: bytes) -> int:
        # root_off (bytes 24..32) is a mutable field updated by set_root
        # without re-checksumming; exclude it from the CRC.
        return zlib.crc32(hdr[:24] + b"\x00" * 8 + hdr[32:_HDR.size])

    def _write_header(self, ctx) -> None:
        hdr = _HDR.pack(
            POOL_MAGIC, POOL_VERSION, 0, self.size, self.root_off,
            self.heap_off, self.heap_size, self.nlanes, self.lane_log_size,
            self.lanes_off,
        )
        crc = self._header_crc(hdr)
        self.write(ctx, 0, hdr)
        self.write(ctx, _CRC_OFF, struct.pack("<I", crc))
        self.persist(ctx, 0, POOL_HEADER_SIZE)

    def _read_header(self, ctx) -> None:
        raw = bytes(self.read(ctx, 0, POOL_HEADER_SIZE))
        (magic, version, _flags, psize, root_off, heap_off, heap_size,
         nlanes, lane_log_size, lanes_off) = _HDR.unpack(raw[: _HDR.size])
        (crc,) = struct.unpack_from("<I", raw, _CRC_OFF)
        if magic != POOL_MAGIC:
            raise PoolCorruptError(f"bad magic {magic!r}")
        if version != POOL_VERSION:
            raise PoolCorruptError(f"unsupported version {version}")
        if crc != self._header_crc(raw):
            raise PoolCorruptError("header checksum mismatch")
        if psize != self.size:
            raise PoolCorruptError(
                f"pool size mismatch: header says {psize}, region is {self.size}"
            )
        self.root_off = root_off
        self.heap_off = heap_off
        self.heap_size = heap_size
        self.nlanes = nlanes
        self.lane_log_size = lane_log_size
        self.lanes_off = lanes_off

    # ------------------------------------------------------------------ root object

    def set_root(self, ctx, off: int) -> None:
        """Persistently point the pool root at ``off`` (atomic 8-byte store)."""
        self.root_off = off
        self.write_u64(ctx, 24, off)

    def root(self) -> int:
        return self.root_off

    # ------------------------------------------------------------------ lanes

    def lane_offset(self, lane: int) -> int:
        return self.lanes_off + lane * self.lane_log_size

    def acquire_lane(self, preferred: int | None = None) -> int:
        """Take a free lane — the ``preferred`` one when it is free (rank
        determinism; see :class:`~repro.pmdk.tx.Transaction`), else any."""
        wait_until(lambda: self._lane_free, "a free pool lane")
        if preferred is not None and preferred in self._lane_free:
            self._lane_free.discard(preferred)
            return preferred
        return self._lane_free.pop()

    def release_lane(self, lane: int) -> None:
        self._lane_free.add(lane)

    def _recover(self, ctx) -> None:
        """Apply every lane's undo log backward (crash rollback).

        A crash can leave a lane torn: the entry count durable while the
        entry bytes behind it never retired (the enumerator's reordered
        tiers produce exactly this).  Every header field is therefore
        validated against the lane window and the pool size, and only the
        valid prefix is applied — like PMDK's checksummed ulog, an entry
        that never became fully durable was never needed for rollback
        (its transaction cannot have started overwriting live data)."""
        for lane in range(self.nlanes):
            base = self.lane_offset(lane)
            lane_end = base + self.lane_log_size
            count = self.read_u64(ctx, base)
            if count == 0:
                continue
            entries = []
            pos = base + 8
            for _ in range(min(count, self.lane_log_size // 16)):
                if pos + 16 > lane_end:
                    break  # torn count: more entries than the lane holds
                off = self.read_u64(ctx, pos)
                length = self.read_u64(ctx, pos + 8)
                if (length == 0 or pos + 16 + length > lane_end
                        or off + length > self.size):
                    break  # torn entry header — garbage size or offset
                data = self.read(ctx, pos + 16, length)
                entries.append((off, data))
                pos += 16 + length
            for off, data in reversed(entries):
                self.write(ctx, off, data)
                self.persist(ctx, off, len(data))
            self.write_u64(ctx, base, 0)

    # ------------------------------------------------------------------ allocation façade

    def malloc(self, ctx, size: int, tx=None) -> int:
        if self.heap is None:
            raise PoolCorruptError("pool not formatted")
        with span(ctx, "pmdk.alloc", bytes=size):
            return self.heap.malloc(ctx, size, tx=tx)

    def free(self, ctx, off: int, tx=None) -> None:
        if self.heap is None:
            raise PoolCorruptError("pool not formatted")
        with span(ctx, "pmdk.free"):
            self.heap.free(ctx, off, tx=tx)

    def usable_size(self, off: int) -> int:
        return self.heap.usable_size(off)
