"""repro — a reproduction of *pMEMCPY: a simple, lightweight, and portable
I/O library for storing data in persistent memory* (CLUSTER 2021).

Quick tour (see README.md / examples/quickstart.py)::

    from repro import Cluster, Communicator, PMEM, Dimensions
    import numpy as np

    cl = Cluster()

    def main(ctx):
        comm = Communicator.world(ctx)
        pmem = PMEM()
        pmem.mmap("/pmem/demo", comm)
        pmem.alloc("A", Dimensions(100 * comm.size))
        pmem.store("A", np.zeros(100), offsets=(100 * comm.rank,))
        pmem.munmap()

    result = cl.run(4, main)
    print(result.makespan_s, "modeled seconds")

Packages: :mod:`repro.pmemcpy` (the paper's library), :mod:`repro.baselines`
(ADIOS/NetCDF-4/pNetCDF/HDF5/POSIX), :mod:`repro.pmdk` (pool, transactions,
persistent hashtable), :mod:`repro.kernel` (DAX fs + MAP_SYNC model),
:mod:`repro.mpi`, :mod:`repro.serial`, :mod:`repro.sim` (two-pass timing),
:mod:`repro.workloads`, :mod:`repro.harness`, :mod:`repro.crash`,
:mod:`repro.perf`, :mod:`repro.service`, :mod:`repro.telemetry`.
"""

from .cluster import Cluster
from .config import DEFAULT_MACHINE, MachineSpec
from .mpi import Communicator
from .pmemcpy import PMEM, Dimensions, Hyperslab, PointSelection, Selection
from .sim import run_spmd

__version__ = "1.0.0"

__all__ = [
    "Cluster",
    "Communicator",
    "PMEM",
    "Dimensions",
    "Hyperslab",
    "PointSelection",
    "Selection",
    "MachineSpec",
    "DEFAULT_MACHINE",
    "run_spmd",
    "__version__",
]
