"""Simulated MPI: communicators, collectives, subarray datatypes, MPI-IO.

Ranks are the SPMD engine's threads; collectives move *real* data between
rank address spaces through the shared board and charge the intra-node
transport model (two DRAM crossings + per-message software latency — the
paper's single-node "network communication" cost that rearranging libraries
pay and pMEMCPY avoids).

Timing semantics: every collective records a Barrier op before its
transfers, which over-synchronizes slightly relative to real MPI but keeps
the two-pass simulation exact; point-to-point send/recv is modeled as a
two-party barrier plus paired transfers (documented approximation).
"""

from .comm import Communicator
from .datatypes import subarray_run_starts, subarray_runs
from .io import MPIFile, merge_extents

__all__ = [
    "Communicator",
    "subarray_runs",
    "subarray_run_starts",
    "MPIFile",
    "merge_extents",
]
