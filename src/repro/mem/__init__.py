"""Emulated memory devices and charged copy primitives.

- :class:`PMEMDevice` — the byte-addressable persistent-memory device
  (optionally crash-simulating via a cacheline store buffer);
- :class:`ShadowPMEM` — the store-buffer model itself;
- :mod:`repro.mem.memcpy` — the primitives every layer uses to *move bytes
  and charge time simultaneously*.
"""

from .cache import ShadowPMEM
from .device import PMEMDevice
from .memcpy import (
    charge_cpu,
    charge_dram_copy,
    charge_net,
    charge_pmem_read,
    charge_pmem_write,
    memcpy_dram_to_pmem,
    memcpy_pmem_to_dram,
)

__all__ = [
    "PMEMDevice",
    "ShadowPMEM",
    "charge_cpu",
    "charge_dram_copy",
    "charge_net",
    "charge_pmem_read",
    "charge_pmem_write",
    "memcpy_dram_to_pmem",
    "memcpy_pmem_to_dram",
]
