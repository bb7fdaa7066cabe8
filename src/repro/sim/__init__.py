"""Trace-driven timing simulation.

The stack runs in two passes (DESIGN.md §6):

1. a *functional* pass where every rank is a thread operating on real
   (scaled-down) NumPy buffers, recording a per-rank trace of costed
   operations; and
2. a *timing* pass where :class:`~repro.sim.fluid.FluidSimulator` replays the
   traces under max-min fair resource sharing, producing deterministic
   paper-scale wall-clock numbers.
"""

from .trace import Acquire, Barrier, Delay, Release, Transfer, TraceOp, RankTrace
from .resources import Resource, ResourceSet, build_standard_resources
from .fluid import FluidSimulator, FluidResult
from .engine import (
    Context,
    SpmdResult,
    ThreadEngine,
    run_spmd,
)
from .lockcheck import (
    LockDisciplineReport,
    LockViolation,
    check_lock_discipline,
)

__all__ = [
    "Acquire",
    "Barrier",
    "Delay",
    "Release",
    "Transfer",
    "TraceOp",
    "RankTrace",
    "LockDisciplineReport",
    "LockViolation",
    "check_lock_discipline",
    "Resource",
    "ResourceSet",
    "build_standard_resources",
    "FluidSimulator",
    "FluidResult",
    "Context",
    "SpmdResult",
    "ThreadEngine",
    "run_spmd",
]
