"""Resource models for the fluid timing simulator.

A :class:`Resource` has a capacity curve ``capacity(n_active)`` in units/ns.
Most device resources have a constant aggregate capacity and rely on the
per-stream caps recorded on each :class:`~repro.sim.trace.Transfer` to model
ramp-up; the CPU resource's capacity grows with runnable streams up to the
physical core count and then only by the SMT increment.

`build_standard_resources` wires a :class:`~repro.config.MachineSpec` into the
resource names used by the whole stack:

===============  ========================================================
name             meaning / units
===============  ========================================================
``pmem_read``    bytes drained from the PMEM device
``pmem_write``   bytes stored to the PMEM device
``dram``         bytes moved DRAM→DRAM (staging copies; cap = copy BW)
``net``          bytes through the intra-node MPI transport
``cpu``          core-nanoseconds of serialization/compute work
===============  ========================================================
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..config import MachineSpec


@dataclass(frozen=True)
class Resource:
    name: str
    capacity_fn: Callable[[int], float]

    def capacity(self, n_active: int) -> float:
        if n_active <= 0:
            return 0.0
        cap = self.capacity_fn(n_active)
        if cap <= 0:
            raise ValueError(f"resource {self.name} capacity must be > 0")
        return cap


class ResourceSet:
    """A named collection of resources; unknown names fail fast."""

    def __init__(self, resources: list[Resource]):
        self._by_name = {r.name: r for r in resources}
        if len(self._by_name) != len(resources):
            raise ValueError("duplicate resource names")

    def __getitem__(self, name: str) -> Resource:
        try:
            return self._by_name[name]
        except KeyError:
            raise KeyError(
                f"unknown resource {name!r}; have {sorted(self._by_name)}"
            ) from None

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def names(self) -> list[str]:
        return sorted(self._by_name)


def _const(value: float) -> Callable[[int], float]:
    return lambda n: value


def build_standard_resources(machine: MachineSpec) -> ResourceSet:
    """The resource set every experiment in this repo runs against."""

    def cpu_capacity(n_active: int) -> float:
        return machine.cores_available(n_active)

    # A DRAM->DRAM copy reads and writes the bus; the sustainable aggregate
    # *copy* bandwidth is bounded by the write side.
    dram_copy_bw = machine.dram.write_bw

    return ResourceSet(
        [
            Resource("pmem_read", _const(machine.pmem.read_bw)),
            Resource("pmem_write", _const(machine.pmem.write_bw)),
            Resource("dram", _const(dram_copy_bw)),
            Resource("net", _const(machine.network.aggregate_bw)),
            Resource("cpu", cpu_capacity),
        ]
    )
