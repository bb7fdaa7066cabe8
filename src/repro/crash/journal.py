"""The persistence event journal: every store, flush, and drain, in order.

Attached to a crash-simulating :class:`~repro.mem.device.PMEMDevice`, the
journal observes the shadow store-buffer at cacheline granularity — the
same CLWB/fence surface real pmemcheck instruments — plus two side
channels the device image alone cannot express:

- **marks**: workload-inserted completion records ("this operation's
  effects are now required to survive any crash"), the contract the
  visibility oracles enforce;
- **fsmeta**: deep-copy snapshots of the DAX filesystem's volatile
  metadata (inodes, extents, free list) taken at every metadata commit.
  The emulated fs journals metadata synchronously, so a crash lands on
  one of these committed snapshots paired with whatever the store buffer
  left behind on the device.

A :class:`Replayer` walks the event list and can materialize the durable
device image at any crash point, optionally retiring ("the CLWB happened
to reach the DIMM before power died") a chosen subset of unflushed dirty
lines, or tearing one line at 8-byte granularity (Intel's power-fail
atomicity unit).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np

from ..units import CACHELINE


@dataclass
class JournalEvent:
    """One observed persistence event.

    ``kind`` is one of ``store`` (offset, data), ``flush`` (offset, size),
    ``drain`` (epoch fence), ``mark`` (tag), ``fsmeta`` (snap).
    """

    kind: str
    epoch: int
    offset: int = 0
    size: int = 0
    data: bytes = b""
    tag: str = ""
    snap: dict | None = field(default=None, repr=False)

    def brief(self) -> dict:
        """JSON-able summary (artifact dumps; snapshots elided)."""
        out = {"kind": self.kind, "epoch": self.epoch}
        if self.kind == "store":
            out.update(offset=self.offset, size=len(self.data))
        elif self.kind == "flush":
            out.update(offset=self.offset, size=self.size)
        elif self.kind == "mark":
            out["tag"] = self.tag
        return out


class Journal:
    """Ordered record of one run's persistence events.

    Attach with :meth:`attach` (drains the device first, so the baseline
    image is fully durable), run the workload, then :meth:`detach`.
    """

    def __init__(self):
        self.events: list[JournalEvent] = []
        self.epoch = 0
        self.baseline: np.ndarray | None = None
        self.fs_baseline: dict | None = None
        self._lock = threading.Lock()
        self._device = None
        self._fs = None

    # ------------------------------------------------------------------ lifecycle

    def attach(self, device, fs) -> None:
        """Start observing ``device`` (and ``fs`` metadata commits).

        Drains the device first so ``baseline`` — the durable image every
        replay starts from — equals the live image."""
        device.drain()
        self.baseline = device.snapshot()
        self.fs_baseline = fs.meta_snapshot()
        self.events.clear()
        self.epoch = 0
        self._device = device
        self._fs = fs
        device.attach_journal(self)
        fs._meta_watcher = self._watch_meta

    def detach(self) -> None:
        if self._device is not None:
            self._device.detach_journal()
            self._device = None
        if self._fs is not None:
            self._fs._meta_watcher = None
            self._fs = None

    # ------------------------------------------------------------------ callbacks

    def on_store(self, offset: int, data: bytes) -> None:
        with self._lock:
            self.events.append(
                JournalEvent("store", self.epoch, offset=offset, data=data)
            )

    def on_flush(self, offset: int, size: int) -> None:
        with self._lock:
            self.events.append(
                JournalEvent("flush", self.epoch, offset=offset, size=size)
            )

    def on_drain(self) -> None:
        with self._lock:
            self.events.append(JournalEvent("drain", self.epoch))
            self.epoch += 1

    def mark(self, tag: str) -> None:
        """Record a completion mark: from this point on, every crash state
        must show the tagged operation's effects."""
        with self._lock:
            self.events.append(JournalEvent("mark", self.epoch, tag=tag))

    def _watch_meta(self, fs) -> None:
        with self._lock:
            self.events.append(
                JournalEvent("fsmeta", self.epoch, snap=fs.meta_snapshot())
            )

    # ------------------------------------------------------------------ queries

    def __len__(self) -> int:
        return len(self.events)

    def n_epochs(self) -> int:
        return self.epoch + 1

    def store_indices(self) -> list[int]:
        return [i for i, e in enumerate(self.events) if e.kind == "store"]

    def mark_index(self, tag: str) -> int | None:
        """Index of the first mark with ``tag`` (None if absent)."""
        for i, e in enumerate(self.events):
            if e.kind == "mark" and e.tag == tag:
                return i
        return None

    def completed_at(self, index: int) -> frozenset:
        """Mark tags recorded strictly before crash point ``index``."""
        return frozenset(
            e.tag for e in self.events[:index] if e.kind == "mark"
        )

    def fs_snapshot_at(self, index: int) -> dict:
        """Latest committed fs-metadata snapshot at crash point ``index``."""
        for e in reversed(self.events[:index]):
            if e.kind == "fsmeta":
                return e.snap
        return self.fs_baseline

    # ------------------------------------------------------------------ mutation

    def without_events(self, indices) -> "Journal":
        """A derived journal with the given events removed — the fault
        injector behind the oracle self-test (dropping a persist)."""
        drop = set(indices)
        out = Journal()
        out.baseline = self.baseline
        out.fs_baseline = self.fs_baseline
        out.events = [e for i, e in enumerate(self.events) if i not in drop]
        out.epoch = self.epoch
        return out


class Replayer:
    """Incremental journal replay: reconstructs the shadow store-buffer
    state at any crash point and materializes durable images from it.

    Crash point ``i`` means "power died after ``events[:i]``".  Points are
    visited in nondecreasing order (``advance_to`` never rewinds), so a
    whole sorted campaign costs one linear walk.
    """

    def __init__(self, journal: Journal):
        if journal.baseline is None:
            raise ValueError("journal was never attached — no baseline image")
        self.journal = journal
        self.volatile = journal.baseline.copy()
        self.durable = journal.baseline.copy()
        self.dirty: set[int] = set()
        self.pos = 0

    def _lines(self, offset: int, size: int) -> range:
        return range(offset // CACHELINE, -(-(offset + size) // CACHELINE))

    def advance_to(self, index: int) -> None:
        if index < self.pos:
            raise ValueError(f"cannot rewind replay ({index} < {self.pos})")
        for e in self.journal.events[self.pos : index]:
            if e.kind == "store":
                buf = np.frombuffer(e.data, dtype=np.uint8)
                self.volatile[e.offset : e.offset + buf.size] = buf
                self.dirty.update(self._lines(e.offset, buf.size))
            elif e.kind == "flush":
                for line in self._lines(e.offset, e.size):
                    if line in self.dirty:
                        b0 = line * CACHELINE
                        self.durable[b0 : b0 + CACHELINE] = \
                            self.volatile[b0 : b0 + CACHELINE]
                        self.dirty.discard(line)
            elif e.kind == "drain":
                for line in self.dirty:
                    b0 = line * CACHELINE
                    self.durable[b0 : b0 + CACHELINE] = \
                        self.volatile[b0 : b0 + CACHELINE]
                self.dirty.clear()
            # mark/fsmeta: no device state
        self.pos = index

    def materialize(self, retired=frozenset(), torn=None) -> np.ndarray:
        """The durable image if power died *now*, with ``retired`` dirty
        lines having reached the DIMM anyway (reordered CLWB retirement)
        and optionally one ``(line, cut_bytes)`` torn line whose first
        ``cut_bytes`` (a multiple of 8) made it out."""
        img = self.durable.copy()
        for line in retired:
            b0 = line * CACHELINE
            img[b0 : b0 + CACHELINE] = self.volatile[b0 : b0 + CACHELINE]
        if torn is not None:
            line, cut = torn
            if cut % 8 or not 0 < cut < CACHELINE:
                raise ValueError(f"torn cut must be 8-aligned in (0,64): {cut}")
            b0 = line * CACHELINE
            img[b0 : b0 + cut] = self.volatile[b0 : b0 + cut]
        return img
