"""Charged byte-movement primitives.

These are the *only* places the stack converts "bytes moved" into trace ops,
so the cost model is auditable in one file.  Each ``charge_*`` function
records the trace ops for moving ``model_bytes`` (paper-scale) through one
resource; the ``memcpy_*`` composites additionally perform the functional
byte movement on the (scaled-down) device.

The scaling rule (DESIGN.md): *user payload* charges pass
``ctx.model_bytes(real)``; metadata charges pass real byte counts unscaled.
Callers decide which they are.
"""

from __future__ import annotations

import numpy as np

from ..sim.trace import Rows
from ..telemetry import metrics_for, record
from .device import PMEMDevice

#: fixed software cost of initiating one copy (pointer math, loop setup)
_COPY_SETUP_NS = 40.0


def _observe_access(ctx, resource: str, model_bytes: float) -> None:
    """Feed the Darshan-style access-size histogram for ``resource``.

    Log2 buckets, so the "many tiny accesses vs few large ones" signature
    of each driver survives cross-rank aggregation."""
    metrics_for(ctx).histogram(f"access.{resource}.bytes").observe(model_bytes)


def charge_pmem_write(ctx, model_bytes: float, note: str = "") -> None:
    spec = ctx.machine.pmem
    ctx.delay(spec.write_latency_ns + _COPY_SETUP_NS, note=note)
    ctx.transfer("pmem_write", model_bytes, spec.stream_write_bw, note=note)
    _observe_access(ctx, "pmem_write", model_bytes)


def charge_pmem_read(ctx, model_bytes: float, note: str = "") -> None:
    spec = ctx.machine.pmem
    ctx.delay(spec.read_latency_ns + _COPY_SETUP_NS, note=note)
    ctx.transfer("pmem_read", model_bytes, spec.stream_read_bw, note=note)
    _observe_access(ctx, "pmem_read", model_bytes)


def charge_pmem_read_rows(
    ctx, model_bytes: np.ndarray, note: str = "", lead=()
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`charge_pmem_read` once per entry of the float64 column
    ``model_bytes`` (each > 0), in order — recorded as one
    :class:`~repro.sim.trace.Rows` entry that stands for the same ops, and
    the same access-size samples.  Only the storage is columnar: a row's
    ``Delay``/``Transfer`` pair stays its own two ops (alternating ops
    under contention are not equivalent to their totals).

    ``lead`` holds per-row delay columns ``(note, ns_per_row)`` charged
    ahead of a row's read where ``ns > 0`` — the faults its first touch
    takes (``DaxMapping.touch_rows``).  Returns the ``ctx.lb_ns`` clocks
    ``(starts, ends)`` bracketing each row's read charge, lead delays
    excluded: what a span around the one-by-one call would have seen."""
    if not len(model_bytes):
        return model_bytes, model_bytes
    spec = ctx.machine.pmem
    starts, ends = ctx.append_rows(Rows(
        ctx.current_phase, spec.read_latency_ns + _COPY_SETUP_NS, "pmem_read",
        spec.stream_read_bw, note, model_bytes, tuple(lead)))
    metrics_for(ctx).histogram("access.pmem_read.bytes").observe_many(
        model_bytes)
    return starts, ends


def charge_dram_copy(ctx, model_bytes: float, note: str = "") -> None:
    """A DRAM→DRAM staging copy (read+write through the cache hierarchy)."""
    spec = ctx.machine.dram
    ctx.delay(spec.write_latency_ns + _COPY_SETUP_NS, note=note)
    ctx.transfer("dram", model_bytes, spec.stream_write_bw, note=note)
    _observe_access(ctx, "dram", model_bytes)


def charge_cpu(ctx, model_bytes: float, per_core_bw: float, note: str = "") -> None:
    """CPU work proportional to bytes at ``per_core_bw`` bytes/ns/core.

    Recorded in core-nanoseconds on the ``cpu`` resource; a rank is a single
    thread, so its stream cap is one core.
    """
    if model_bytes <= 0:
        return
    ctx.transfer("cpu", model_bytes / per_core_bw, 1.0, note=note)
    record(ctx, "cpu_core_ns", model_bytes / per_core_bw)


def charge_net(ctx, model_bytes: float, messages: int = 1, note: str = "") -> None:
    """Intra-node MPI transport: per-message software latency plus
    shared-memory pipe bandwidth."""
    spec = ctx.machine.network
    if messages > 0:
        ctx.delay(spec.message_latency_ns * messages, note=note)
        record(ctx, "net_messages", messages)
    ctx.transfer("net", model_bytes, spec.bw_per_pair, note=note)
    record(ctx, "net_bytes", model_bytes)


# ---------------------------------------------------------------------------
# Composite functional + charged copies
# ---------------------------------------------------------------------------

def memcpy_dram_to_pmem(
    ctx,
    device: PMEMDevice,
    offset: int,
    data,
    *,
    model_bytes: float | None = None,
    persist: bool = True,
    note: str = "",
) -> int:
    """Store ``data`` at ``offset`` and charge a PMEM write of
    ``model_bytes`` (defaults to the real length, i.e. metadata scaling)."""
    n = device.store(offset, data)
    charge_pmem_write(ctx, model_bytes if model_bytes is not None else float(n), note=note)
    if persist:
        device.persist(offset, n)
    return n


def memcpy_pmem_to_dram(
    ctx,
    device: PMEMDevice,
    offset: int,
    size: int,
    *,
    model_bytes: float | None = None,
    note: str = "",
) -> np.ndarray:
    """Read ``size`` bytes at ``offset`` and charge a PMEM read of
    ``model_bytes`` (defaults to the real length)."""
    out = device.load(offset, size)
    charge_pmem_read(ctx, model_bytes if model_bytes is not None else float(size), note=note)
    return out
