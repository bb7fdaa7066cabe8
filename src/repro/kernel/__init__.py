"""Simulated Linux kernel: syscall costs, a VFS with per-rank file
descriptors, and an ext4-DAX-like filesystem over a PMEM device.

The paper's performance argument is about *copies and kernel crossings per
byte*; this layer makes each of them explicit and charged:

- POSIX ``read``/``write`` on a DAX file copies user↔PMEM in-kernel (one
  copy, one syscall, slightly lower per-stream efficiency than a userspace
  non-temporal memcpy);
- ``mmap`` with DAX gives direct load/store access, paying per-page fault
  costs on first touch — and, with ``MAP_SYNC``, a synchronous filesystem
  journal commit per faulted page (the PMCPY-B mode of Figs. 6–7).
"""

from .syscall import syscall
from .vfs import VFS, OpenFlags
from .dax import DaxFS, DaxMapping, MapFlags

__all__ = [
    "syscall",
    "VFS",
    "OpenFlags",
    "DaxFS",
    "DaxMapping",
    "MapFlags",
]
