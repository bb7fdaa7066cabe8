"""Cacheline store-buffer model for crash-consistency simulation.

Real PMEM writes land in the CPU cache first; they only become durable after
an explicit flush (``CLWB``/``CLFLUSHOPT``) reaches the DIMM.  A power
failure loses everything still in cache.  :class:`ShadowPMEM` models this
with two byte arrays:

- ``volatile`` — what the running program reads and writes (cache + media);
- ``durable``  — what would survive power loss right now.

``write`` dirties cachelines in ``volatile``; ``flush`` copies line-aligned
ranges into ``durable``; ``crash`` discards the volatile overlay.  This is
the mechanism the PMDK transaction tests drive with random crash points.

A :class:`~repro.crash.journal.Journal` can be attached (``self.journal``)
to observe every store, flush, and drain at this — cacheline — granularity;
the crash-enumeration subsystem (:mod:`repro.crash`) replays those events
to materialize every reachable post-power-failure device image.
"""

from __future__ import annotations

import numpy as np

from ..errors import BadAddressError
from ..units import CACHELINE


class ShadowPMEM:
    """Byte array with explicit persistence, at cacheline granularity."""

    def __init__(self, capacity: int):
        if capacity <= 0 or capacity % CACHELINE:
            raise ValueError(
                f"capacity must be a positive multiple of {CACHELINE}"
            )
        self.capacity = capacity
        self.volatile = np.zeros(capacity, dtype=np.uint8)
        self.durable = np.zeros(capacity, dtype=np.uint8)
        self._dirty = np.zeros(capacity // CACHELINE, dtype=bool)
        self._ndirty = 0
        #: most lines ever simultaneously dirty (per-device high-water mark)
        self.dirty_hwm = 0
        #: optional persistence-event observer (repro.crash.journal.Journal)
        self.journal = None

    # -- bounds ---------------------------------------------------------------

    def _check(self, offset: int, size: int) -> None:
        if offset < 0 or size < 0 or offset + size > self.capacity:
            raise BadAddressError(
                f"access [{offset}, {offset + size}) outside device of "
                f"{self.capacity} bytes"
            )

    def _line_range(self, offset: int, size: int) -> tuple[int, int]:
        lo = offset // CACHELINE
        hi = -(-(offset + size) // CACHELINE)  # ceil-div
        return lo, hi

    # -- access ---------------------------------------------------------------

    def write(self, offset: int, data) -> None:
        """Store bytes into the volatile image and dirty the lines."""
        buf = np.frombuffer(memoryview(data).cast("B"), dtype=np.uint8) \
            if not isinstance(data, np.ndarray) else data.reshape(-1).view(np.uint8)
        size = buf.size
        if size == 0:
            return
        self._check(offset, size)
        self.volatile[offset : offset + size] = buf
        lo, hi = self._line_range(offset, size)
        newly = (hi - lo) - int(np.count_nonzero(self._dirty[lo:hi]))
        self._dirty[lo:hi] = True
        if newly:
            self._ndirty += newly
            if self._ndirty > self.dirty_hwm:
                self.dirty_hwm = self._ndirty
        if self.journal is not None:
            self.journal.on_store(offset, buf.tobytes())

    def read(self, offset: int, size: int) -> np.ndarray:
        """Copy bytes out of the volatile image (what a live program sees)."""
        self._check(offset, size)
        return self.volatile[offset : offset + size].copy()

    def view(self, offset: int, size: int) -> np.ndarray:
        """Read-only view of the volatile image (zero-copy load path)."""
        self._check(offset, size)
        v = self.volatile[offset : offset + size].view()
        v.flags.writeable = False
        return v

    # -- persistence ----------------------------------------------------------

    def flush(self, offset: int, size: int) -> int:
        """Persist all cachelines overlapping ``[offset, offset+size)``.

        Returns the number of lines that were actually dirty (the cost a
        cache-flush instruction stream would pay).
        """
        if size == 0:
            return 0
        self._check(offset, size)
        lo, hi = self._line_range(offset, size)
        ndirty = int(self._dirty[lo:hi].sum())
        b0, b1 = lo * CACHELINE, min(hi * CACHELINE, self.capacity)
        self.durable[b0:b1] = self.volatile[b0:b1]
        self._dirty[lo:hi] = False
        self._ndirty -= ndirty
        if self.journal is not None:
            self.journal.on_flush(offset, size)
        return ndirty

    def drain(self) -> int:
        """Persist every dirty line (a full fence + flush of the store
        buffer).  Returns the number of lines flushed."""
        idx = np.nonzero(self._dirty)[0]
        for line in idx:
            b0 = int(line) * CACHELINE
            self.durable[b0 : b0 + CACHELINE] = self.volatile[b0 : b0 + CACHELINE]
        self._dirty[:] = False
        self._ndirty = 0
        if self.journal is not None:
            self.journal.on_drain()
        return int(idx.size)

    # -- wholesale state (crash-state materialization) -----------------------

    def state_save(self) -> tuple:
        return (self.volatile.copy(), self.durable.copy(),
                self._dirty.copy(), self._ndirty)

    def state_restore(self, state: tuple) -> None:
        vol, dur, dirty, ndirty = state
        self.volatile[:] = vol
        self.durable[:] = dur
        self._dirty[:] = dirty
        self._ndirty = ndirty

    def install_image(self, img) -> None:
        """Replace the contents with a fully-durable image (what a freshly
        power-cycled device holds)."""
        self.volatile[:] = img
        self.durable[:] = img
        self._dirty[:] = False
        self._ndirty = 0

    # -- failure --------------------------------------------------------------

    def crash(self) -> None:
        """Simulate power failure: un-flushed lines are lost."""
        self.volatile[:] = self.durable
        self._dirty[:] = False
        self._ndirty = 0
