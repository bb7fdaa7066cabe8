"""The modeled node, assembled: PMEM device + DAX filesystem + VFS.

A :class:`Cluster` is what examples and benchmarks hand to
``run_spmd(..., env=cluster)`` (or call :meth:`Cluster.run`); ranks reach it
as ``ctx.env``.  It owns:

- ``device`` — the emulated PMEM device (functional capacity =
  paper capacity / scale);
- ``fs``/``vfs`` — the ext4-DAX filesystem mounted at ``/pmem``;
- ``pools`` — open-pool cache so separate SPMD runs (write job, then read
  job) share volatile pool state, exactly like pages staying warm across
  process runs on one node.  :meth:`drop_caches` simulates a node restart
  (pools must then recover from the device).
"""

from __future__ import annotations

from typing import Any, Callable

from .config import DEFAULT_MACHINE, MachineSpec
from .kernel.dax import DaxFS
from .kernel.vfs import VFS
from .mem.device import PMEMDevice
from .sim.engine import SpmdResult, run_spmd
from .units import MiB


class Cluster:
    def __init__(
        self,
        *,
        machine: MachineSpec = DEFAULT_MACHINE,
        scale: int = 1,
        pmem_capacity: int | None = None,
        crash_sim: bool = False,
        block_size: int = 4096,
    ):
        self.machine = machine
        self.scale = scale
        self.crash_sim = crash_sim
        if pmem_capacity is None:
            # the paper's 80 GB emulated device, scaled down functionally;
            # clamped so an unscaled Cluster() stays laptop-friendly
            pmem_capacity = min(
                256 * MiB, max(16 * MiB, int(machine.pmem.capacity // scale))
            )
        self.device = PMEMDevice(pmem_capacity, crash_sim=crash_sim)
        self.fs = DaxFS(self.device, block_size=block_size)
        self.vfs = VFS()
        self.vfs.mount("/pmem", self.fs)
        #: open PmemPool objects by path (volatile node state)
        self.pools: dict[str, Any] = {}

    def run(self, nprocs: int, fn: Callable, **kw) -> SpmdResult:
        """SPMD run against this cluster."""
        kw.setdefault("machine", self.machine)
        kw.setdefault("scale", self.scale)
        return run_spmd(nprocs, fn, env=self, **kw)

    def drop_caches(self) -> None:
        """Forget volatile node state (simulated restart); pools re-open
        from the device, running recovery."""
        self.pools.clear()

    def crash(self) -> None:
        """Power-fail the node (requires crash_sim=True) and restart."""
        self.device.crash()
        self.drop_caches()
