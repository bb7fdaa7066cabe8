"""The emulated PMEM device.

A :class:`PMEMDevice` is a flat byte space of ``capacity`` bytes (functional
scale).  It does *no* time accounting itself — every layer above moves bytes
through the charged primitives in :mod:`repro.mem.memcpy` — so it stays a
pure, easily-testable store.

With ``crash_sim=True`` the device routes through :class:`ShadowPMEM` so
that data is only durable after :meth:`persist`; ``crash()`` then drops
un-persisted writes exactly like a power failure on real hardware.  With
``crash_sim=False`` (the benchmark configuration) writes are immediately
durable and reads can be served zero-copy.
"""

from __future__ import annotations

import threading

import numpy as np

from ..errors import BadAddressError
from .cache import ShadowPMEM


class CrashInjected(Exception):
    """Raised by a device armed with :meth:`PMEMDevice.inject_crash_after`
    when the store budget is exhausted — the test then calls ``crash()``
    and re-opens, modeling power failure at an arbitrary store."""


class PMEMDevice:
    """Flat emulated persistent-memory device."""

    def __init__(self, capacity: int, *, name: str = "pmem0", crash_sim: bool = False):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        # round up to a cacheline multiple so the shadow accepts it
        capacity = -(-capacity // 64) * 64
        self.capacity = capacity
        self.name = name
        self.crash_sim = crash_sim
        self.lock = threading.RLock()
        self._stores_until_crash: int | None = None
        #: always-on persistence counters (cheap dict increments)
        self.stores = 0
        self.store_bytes = 0
        self.persists = 0
        self.persisted_lines = 0
        self.drains = 0
        self.drained_lines = 0
        if crash_sim:
            self._shadow: ShadowPMEM | None = ShadowPMEM(capacity)
            self._flat: np.ndarray | None = None
        else:
            self._shadow = None
            self._flat = np.zeros(capacity, dtype=np.uint8)
        #: MAP_SYNC commit tracking — one flag per cacheline marking pages
        #: whose filesystem metadata is already durable (commit is a
        #: property of the file blocks, not of any process's mapping)
        self._sync_lines = np.zeros(capacity // 64, dtype=np.uint8)

    def inject_crash_after(self, n_stores: int | None) -> None:
        """Arm (or with ``None`` disarm) a fault: the (n+1)-th subsequent
        ``store`` raises :class:`CrashInjected` without writing."""
        if n_stores is not None and not self.crash_sim:
            raise RuntimeError("crash injection requires crash_sim=True")
        self._stores_until_crash = n_stores

    # -- raw access (functional only; charging is the caller's job) ----------

    def _check(self, offset: int, size: int) -> None:
        if offset < 0 or size < 0 or offset + size > self.capacity:
            raise BadAddressError(
                f"{self.name}: access [{offset}, {offset + size}) outside "
                f"device of {self.capacity} bytes"
            )

    @staticmethod
    def _as_bytes(data) -> np.ndarray:
        if isinstance(data, np.ndarray):
            arr = np.ascontiguousarray(data)
            return arr.reshape(-1).view(np.uint8)
        return np.frombuffer(memoryview(data).cast("B"), dtype=np.uint8)

    def store(self, offset: int, data) -> int:
        """Write bytes at ``offset``; returns the byte count written."""
        buf = self._as_bytes(data)
        self._check(offset, buf.size)
        with self.lock:
            if self._stores_until_crash is not None:
                if self._stores_until_crash <= 0:
                    raise CrashInjected(
                        f"{self.name}: injected power failure at store to {offset}"
                    )
                self._stores_until_crash -= 1
            if self._shadow is not None:
                self._shadow.write(offset, buf)
            else:
                self._flat[offset : offset + buf.size] = buf
            self.stores += 1
            self.store_bytes += int(buf.size)
        return int(buf.size)

    def load(self, offset: int, size: int) -> np.ndarray:
        """Read ``size`` bytes at ``offset`` as a fresh uint8 array."""
        self._check(offset, size)
        with self.lock:
            if self._shadow is not None:
                return self._shadow.read(offset, size)
            return self._flat[offset : offset + size].copy()

    def view(self, offset: int, size: int) -> np.ndarray:
        """Zero-copy read-only view (what a DAX mmap load sees)."""
        self._check(offset, size)
        if self._shadow is not None:
            return self._shadow.view(offset, size)
        v = self._flat[offset : offset + size].view()
        v.flags.writeable = False
        return v

    def sync_commit(self, offset: int, size: int, page: int) -> float:
        """Mark the model pages covering the range as MAP_SYNC-committed;
        return how many were *newly* committed, device-wide.

        The first SYNC write fault to a page pays the filesystem journal
        commit that makes its block allocation durable; later faults on
        the same page — from any mapping, by any rank — are minor.
        """
        if size <= 0:
            return 0.0
        self._check(offset, size)
        p0 = offset // page
        p1 = -(-(offset + size) // page)
        idx = (np.arange(p0, p1, dtype=np.int64) * page) // 64
        idx = idx[idx < self._sync_lines.size]
        with self.lock:
            new = int(np.count_nonzero(self._sync_lines[idx] == 0))
            if new:
                self._sync_lines[idx] = 1
        return float(new)

    # -- persistence / failure -------------------------------------------------

    def persist(self, offset: int, size: int) -> int:
        """Flush the cachelines covering the range; returns dirty-line count
        (zero when crash simulation is off — everything is already durable)."""
        self._check(offset, size)
        if self._shadow is None:
            with self.lock:
                self.persists += 1
            return 0
        with self.lock:
            self.persists += 1
            n = self._shadow.flush(offset, size)
            self.persisted_lines += n
            return n

    def drain(self) -> int:
        if self._shadow is None:
            with self.lock:
                self.drains += 1
            return 0
        with self.lock:
            self.drains += 1
            n = self._shadow.drain()
            self.drained_lines += n
            return n

    def crash(self) -> None:
        """Power-fail the device (only meaningful with crash_sim=True)."""
        if self._shadow is None:
            raise RuntimeError("crash() requires crash_sim=True")
        with self.lock:
            self._shadow.crash()

    def install_image(self, img) -> None:
        """Replace the device contents with a fully-durable image — how the
        crash campaign materializes an enumerated post-failure state."""
        if self._shadow is None:
            raise RuntimeError("install_image() requires crash_sim=True")
        with self.lock:
            self._shadow.install_image(img)

    def state_save(self) -> tuple:
        if self._shadow is None:
            raise RuntimeError("state_save() requires crash_sim=True")
        with self.lock:
            return self._shadow.state_save()

    def state_restore(self, state: tuple) -> None:
        if self._shadow is None:
            raise RuntimeError("state_restore() requires crash_sim=True")
        with self.lock:
            self._shadow.state_restore(state)

    # -- journal hooks -----------------------------------------------------------

    def attach_journal(self, journal) -> None:
        """Route every shadow-level store/flush/drain through ``journal``
        (see :mod:`repro.crash.journal`).  Requires ``crash_sim=True``."""
        if self._shadow is None:
            raise RuntimeError("attach_journal() requires crash_sim=True")
        with self.lock:
            self._shadow.journal = journal

    def detach_journal(self) -> None:
        if self._shadow is not None:
            with self.lock:
                self._shadow.journal = None

    # -- introspection -----------------------------------------------------------

    def persistence_counters(self) -> dict:
        """Persistence-activity counters for :meth:`PMEM.stats` / profiles."""
        with self.lock:
            return {
                "device_stores": self.stores,
                "device_store_bytes": self.store_bytes,
                "device_persists": self.persists,
                "device_persisted_lines": self.persisted_lines,
                "device_drains": self.drains,
                "device_drained_lines": self.drained_lines,
                "device_dirty_line_hwm":
                    self._shadow.dirty_hwm if self._shadow is not None else 0,
            }

    def snapshot(self) -> np.ndarray:
        """Copy of the full *live* image (test helper)."""
        return self.load(0, self.capacity)
