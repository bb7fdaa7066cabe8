"""The uniform driver interface the experiment harness runs against."""

from __future__ import annotations

from abc import ABC, abstractmethod
from contextlib import contextmanager

import numpy as np

from ..errors import BaselineError
from ..mem.memcpy import charge_dram_copy
from ..pmemcpy.selection import Hyperslab, Selection
from ..telemetry import record, span


class _OpMeter:
    """Byte accounting handle the read/write op guards yield."""

    __slots__ = ("nbytes",)

    def __init__(self, nbytes: int = 0):
        self.nbytes = int(nbytes)

    def done(self, array) -> None:
        """Report the materialized payload (call before the block ends)."""
        self.nbytes = int(np.asarray(array).nbytes)


class PIODriver(ABC):
    """One write-or-read session against one file/store.

    Lifecycle: ``open(mode) → [def_var]* → [write|read]* → close``.
    Every method is called SPMD by all ranks of ``comm``.
    """

    name: str = "abstract"

    # -- telemetry --------------------------------------------------------
    # Drivers wrap their write()/read() bodies in these guards so every
    # library reports the same Darshan-style op/byte counters and the same
    # ``driver.*`` span taxonomy.  Accounting is exception-safe: success
    # counters are charged only after the body completes; an unwinding
    # exception charges ``driver_*_errors`` instead and marks the span.

    @contextmanager
    def write_op(self, ctx, name: str, array: np.ndarray):
        meter = _OpMeter(array.nbytes)
        try:
            with span(ctx, "driver.write",
                      var=name, bytes=meter.nbytes, driver=self.name):
                yield meter
        except BaseException:
            record(ctx, "driver_write_errors")
            raise
        record(ctx, "driver_write_ops")
        record(ctx, "driver_write_bytes", meter.nbytes)

    @contextmanager
    def read_op(self, ctx, name: str):
        meter = _OpMeter()
        try:
            with span(ctx, "driver.read", var=name, driver=self.name) as s:
                yield meter
                if s is not None:
                    s.attrs = {**(s.attrs or {}), "bytes": meter.nbytes}
        except BaseException:
            record(ctx, "driver_read_errors")
            raise
        record(ctx, "driver_read_ops")
        record(ctx, "driver_read_bytes", meter.nbytes)

    def op_span(self, ctx, kind: str, **attrs):
        """Span guard for the session ops (``open``/``define``/``close``)."""
        return span(ctx, f"driver.{kind}", driver=self.name, **attrs)

    @abstractmethod
    def open(self, ctx, comm, path: str, mode: str) -> None:
        """Collective open; ``mode`` is ``"w"`` or ``"r"``."""

    @abstractmethod
    def def_var(self, ctx, name: str, global_dims, dtype) -> None:
        """Collective variable declaration (write mode)."""

    @abstractmethod
    def write(self, ctx, name: str, array: np.ndarray, offsets) -> None:
        """Store this rank's block of ``name`` at ``offsets``."""

    @abstractmethod
    def read(self, ctx, name: str, offsets, dims) -> np.ndarray:
        """Load a block of ``name``."""

    def read_selection(self, ctx, name: str, selection: Selection) -> np.ndarray:
        """Load an arbitrary :class:`~repro.pmemcpy.selection.Selection` of
        ``name`` (already bounds-checked against the variable's extent).

        Default: fetch the selection's bounding box with :meth:`read` and
        gather the selected elements out of the staging block — the honest
        cost model for libraries without sub-block addressing (POSIX
        blocks, ADIOS process-group payloads), which must move the whole
        enclosing region before striding over it in DRAM.  Libraries with
        real sub-block reads (HDF5 dataspaces, netCDF ``get_vars``,
        pMEMCPY selections) override this with their native path."""
        offsets, dims = selection.bbox()
        block = np.asarray(self.read(ctx, name, offsets, dims))
        out = np.empty(selection.out_shape, dtype=block.dtype)
        with span(ctx, "driver.gather", var=name, driver=self.name,
                  bytes=int(out.nbytes)):
            charge_dram_copy(ctx, ctx.model_bytes(out.nbytes),
                             note="stage-gather")
            record(ctx, "driver_selection_staged_bytes", int(block.nbytes))
            selection.scatter_into(out, block.reshape(dims), offsets)
        return out

    def write_selection(self, ctx, name: str, data, selection: Selection) -> None:
        """Store ``data`` (shaped ``selection.out_shape``) into an arbitrary
        hyperslab of ``name``.

        Default: decompose the selection into its maximal contiguous block
        cells and issue one :meth:`write` per cell — every library can
        write strided data, it just degenerates to per-block puts unless
        the driver overrides with a native strided path."""
        if not isinstance(selection, Hyperslab):
            raise BaselineError(
                f"{self.name}: write_selection needs a hyperslab; "
                f"{type(selection).__name__} has no block decomposition"
            )
        data = np.asarray(data)
        if tuple(data.shape) != selection.out_shape:
            raise BaselineError(
                f"{self.name}: data shape {tuple(data.shape)} vs selection "
                f"shape {selection.out_shape}"
            )
        for (cell_off, _cell_dims), result_sl in zip(
            selection.blocks(), selection.block_result_slices()
        ):
            self.write(ctx, name, np.ascontiguousarray(data[result_sl]),
                       cell_off)

    @abstractmethod
    def close(self, ctx) -> None:
        """Collective close (flushes indexes/headers)."""


_DRIVERS: dict[str, type] = {}


def register_driver(cls: type) -> type:
    _DRIVERS[cls.name] = cls
    return cls


def get_driver(name: str, **kw) -> PIODriver:
    """Instantiate a driver by name (``pmemcpy`` accepts the PMEM kwargs,
    e.g. ``map_sync=True`` for the paper's PMCPY-B)."""
    try:
        cls = _DRIVERS[name]
    except KeyError:
        raise BaselineError(
            f"unknown I/O driver {name!r}; available: {available_drivers()}"
        ) from None
    return cls(**kw)


def available_drivers() -> list[str]:
    return sorted(_DRIVERS)
