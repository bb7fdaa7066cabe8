"""Workloads: the paper's 3-D domain decomposition (§4.1) and supporting
decomposition math, generators, and a checkpoint/restart driver."""

from .decomp import block_decompose, factor3, proc_grid
from .domain3d import Domain3D
from .checkpoint import read_job, write_job

__all__ = [
    "factor3",
    "proc_grid",
    "block_decompose",
    "Domain3D",
    "write_job",
    "read_job",
]
