"""Serializer and sink/source abstractions (see package docstring)."""

from __future__ import annotations

import json
import math
from abc import ABC, abstractmethod

import numpy as np

from ..errors import SerializationError
from ..kernel.dax import touch_rows
from ..mem.memcpy import (
    charge_cpu,
    charge_dram_copy,
    charge_pmem_read,
    charge_pmem_read_rows,
)
from ..telemetry import record, span, tracer_for


def dtype_to_token(dtype: np.dtype) -> str:
    """Portable dtype encoding (handles structured dtypes)."""
    return json.dumps(np.lib.format.dtype_to_descr(np.dtype(dtype)))


def dtype_from_token(token: str) -> np.dtype:
    try:
        descr = json.loads(token)
    except json.JSONDecodeError as e:
        raise SerializationError(f"bad dtype token {token!r}") from e
    if isinstance(descr, list):
        descr = [tuple(x) if isinstance(x, list) else x for x in descr]
        descr = [
            (f[0], f[1], tuple(f[2])) if len(f) == 3 else (f[0], f[1])
            for f in descr
        ]
    return np.dtype(descr)


# ---------------------------------------------------------------------------
# Sinks (pack destinations)
# ---------------------------------------------------------------------------

class Sink(ABC):
    """Append-only pack destination.  ``payload=True`` writes are scaled to
    paper size when charging; header writes are charged at face value."""

    @abstractmethod
    def write(self, data, *, payload: bool = False) -> int: ...

    @abstractmethod
    def tell(self) -> int: ...


class DramSink(Sink):
    """Staging buffer in DRAM — the extra copy pMEMCPY avoids."""

    def __init__(self, ctx):
        self.ctx = ctx
        self.buffer = bytearray()
        record(ctx, "staging_buffers")

    def write(self, data, *, payload: bool = False) -> int:
        b = _as_buffer(data)
        self.buffer += b
        n = len(b)
        charge_dram_copy(
            self.ctx,
            self.ctx.model_bytes(n) if payload else float(n),
            note="stage-copy",
        )
        return n

    def tell(self) -> int:
        return len(self.buffer)

    def getvalue(self) -> bytes:
        return bytes(self.buffer)


class PmemSink(Sink):
    """Packs directly into a pool region / DAX mapping at ``base`` —
    pMEMCPY's zero-staging write path."""

    def __init__(self, ctx, region, base: int):
        self.ctx = ctx
        self.region = region
        self.base = base
        self.pos = 0

    def write(self, data, *, payload: bool = False) -> int:
        b = _as_buffer(data)
        n = len(b)
        mb = self.ctx.model_bytes(n) if payload else float(n)
        if payload:
            # the paper's headline stage: DRAM→PMEM payload movement
            with span(self.ctx, "memcpy", bytes=n):
                self.region.write(
                    self.ctx, self.base + self.pos, b, model_bytes=mb)
        else:
            self.region.write(
                self.ctx, self.base + self.pos, b, model_bytes=mb)
        self.pos += n
        return n

    def tell(self) -> int:
        return self.pos

    def persist(self) -> None:
        self.region.persist(self.ctx, self.base, self.pos)


# ---------------------------------------------------------------------------
# Sources (unpack origins)
# ---------------------------------------------------------------------------

class Source(ABC):
    @abstractmethod
    def read(self, n: int, *, payload: bool = False) -> np.ndarray:
        """Consume ``n`` bytes as a uint8 array (may be a zero-copy view)."""

    @abstractmethod
    def tell(self) -> int: ...

    def read_at(self, offset: int, n: int, *, payload: bool = False) -> np.ndarray:
        """Ranged read: ``n`` bytes at absolute ``offset`` without moving
        the sequential cursor.  This is the segment-granular contract the
        partial-read path uses to fetch only a selection's intersecting
        row segments; sources over byte-addressable media serve it as a
        charged view, with no staging of the rest of the record."""
        raise SerializationError(
            f"{type(self).__name__} does not support ranged reads"
        )

    def read_rows(self, offset: int, n: int, row_off: np.ndarray,
                  row_len: np.ndarray) -> np.ndarray:
        """Batch ranged read: one zero-copy view of the ``n`` bytes at
        absolute ``offset``, of which only the row segments ``(offset +
        row_off[i], row_len[i])`` are accessed — charged, in row order, as
        one payload :meth:`read_at` each.  How the partial-read path
        fetches all of a chunk's intersecting row segments in one call."""
        raise SerializationError(
            f"{type(self).__name__} does not support ranged reads"
        )


class DramSource(Source):
    """Unpack from a DRAM buffer (after a staging read)."""

    def __init__(self, ctx, data):
        self.ctx = ctx
        self.data = _as_array(data)
        self.pos = 0
        record(ctx, "staging_buffers")

    def read(self, n: int, *, payload: bool = False) -> np.ndarray:
        if self.pos + n > self.data.size:
            raise SerializationError(
                f"short buffer: wanted {n} at {self.pos}, have {self.data.size}"
            )
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        charge_dram_copy(
            self.ctx,
            self.ctx.model_bytes(n) if payload else float(n),
            note="stage-copy",
        )
        return out

    def tell(self) -> int:
        return self.pos

    def read_at(self, offset: int, n: int, *, payload: bool = False) -> np.ndarray:
        if offset < 0 or offset + n > self.data.size:
            raise SerializationError(
                f"short buffer: wanted {n} at {offset}, have {self.data.size}"
            )
        charge_dram_copy(
            self.ctx,
            self.ctx.model_bytes(n) if payload else float(n),
            note="stage-copy",
        )
        return self.data[offset : offset + n]


class PmemSource(Source):
    """Unpack straight out of PMEM (zero-copy views of the device) —
    pMEMCPY's read path: no PMEM→DRAM staging read."""

    def __init__(self, ctx, region, base: int, size: int):
        self.ctx = ctx
        self.region = region
        self.base = base
        self.size = size
        self.pos = 0
        # page-fault accounting hook (DaxMapping / pool regions provide it)
        self._touch = getattr(region, "touch", None)

    def read(self, n: int, *, payload: bool = False) -> np.ndarray:
        if self.pos + n > self.size:
            raise SerializationError(
                f"short region: wanted {n} at {self.pos}, have {self.size}"
            )
        if payload:
            with span(self.ctx, "memcpy", bytes=n):
                out = self._read(n, payload=True)
        else:
            out = self._read(n, payload=False)
        return out

    def _read(self, n: int, *, payload: bool) -> np.ndarray:
        if self._touch is not None:
            self._touch(self.ctx, self.base + self.pos, n)
        out = self.region.view(self.base + self.pos, n)
        self.pos += n
        charge_pmem_read(
            self.ctx,
            self.ctx.model_bytes(n) if payload else float(n),
            note="pmem-deserialize",
        )
        return out

    def tell(self) -> int:
        return self.pos

    def read_at(self, offset: int, n: int, *, payload: bool = False) -> np.ndarray:
        """Segment read straight off the mapped device: a charged view at
        an absolute record offset (no cursor, no staging) — what the
        selection partial-read path issues per intersecting row segment."""
        if offset < 0 or offset + n > self.size:
            raise SerializationError(
                f"short region: wanted {n} at {offset}, have {self.size}"
            )
        if self._touch is not None:
            self._touch(self.ctx, self.base + offset, n)
        if payload:
            with span(self.ctx, "memcpy", bytes=n):
                out = self.region.view(self.base + offset, n)
                charge_pmem_read(
                    self.ctx, self.ctx.model_bytes(n), note="pmem-deserialize"
                )
        else:
            out = self.region.view(self.base + offset, n)
            charge_pmem_read(self.ctx, float(n), note="pmem-deserialize")
        return out

    def read_rows(self, offset: int, n: int, row_off: np.ndarray,
                  row_len: np.ndarray) -> np.ndarray:
        """Row segments straight off the mapped device (see
        :meth:`Source.read_rows`): every row is checked and the view taken
        before anything is charged, the region accounts the faults of all
        rows in one call, and the rows then record what their
        ``read_at(..., payload=True)`` calls would — fault delays, read
        charges, access-size samples and ``memcpy`` spans — stored as one
        trace entry and one span batch of columns."""
        ctx = self.ctx
        if offset < 0 or n < 0 or offset + n > self.size:
            raise SerializationError(
                f"short region: wanted {n} at {offset}, have {self.size}"
            )
        if len(row_off) and (
            row_off.min() < 0 or row_len.min() <= 0
            or (row_off + row_len).max() > n
        ):
            raise SerializationError(
                f"row segments leave the {n} bytes at {offset}"
            )
        out = self.region.view(self.base + offset, n)
        lead = touch_rows(
            self.region, ctx, row_off + (self.base + offset), row_len)
        starts, ends = charge_pmem_read_rows(
            ctx, row_len * ctx.model_bytes(1), note="pmem-deserialize",
            lead=lead,
        )
        tracer_for(ctx).leaves(ctx, "memcpy", starts, ends, row_len)
        return out


# ---------------------------------------------------------------------------
# Serializer base
# ---------------------------------------------------------------------------

class Serializer(ABC):
    """Packs one named ndarray; see subclasses for wire formats.

    ``cpu_pack_bw`` / ``cpu_unpack_bw`` are per-core throughputs (bytes/ns)
    of the format's compute pass, charged against the scaled payload size —
    they are what differentiates the serializer ablation (E5).
    """

    name: str = "abstract"
    cpu_pack_bw: float = 3.0
    cpu_unpack_bw: float = 3.5
    #: True when the wire format places the payload at a fixed offset so a
    #: partial read can fetch row segments via ``Source.read_at`` without
    #: decoding the record (``read_header`` must then be implemented)
    supports_ranged_unpack: bool = False

    @abstractmethod
    def packed_size(self, name: str, array: np.ndarray) -> int:
        """Exact wire size for pre-allocating the destination."""

    def read_header(self, ctx, source: Source):
        """For ranged formats: decode only the record header, returning an
        object with ``dtype``, ``shape`` and ``payload_off`` (the absolute
        byte offset of element 0)."""
        raise SerializationError(
            f"{self.name} serializer does not support ranged unpack"
        )

    @abstractmethod
    def pack(self, ctx, name: str, array: np.ndarray, sink: Sink) -> int:
        """Write the wire format to ``sink``; returns bytes written."""

    @abstractmethod
    def unpack(self, ctx, source: Source) -> tuple[str, np.ndarray]:
        """Read one record; returns (name, array)."""

    # -- shared charging helpers ------------------------------------------------

    def _charge_pack_cpu(self, ctx, payload_bytes: int) -> None:
        charge_cpu(
            ctx, ctx.model_bytes(payload_bytes), self.cpu_pack_bw,
            note=f"{self.name}-pack",
        )

    def _charge_unpack_cpu(self, ctx, payload_bytes: int) -> None:
        charge_cpu(
            ctx, ctx.model_bytes(payload_bytes), self.cpu_unpack_bw,
            note=f"{self.name}-unpack",
        )


def _as_buffer(data) -> bytes:
    if isinstance(data, np.ndarray):
        return np.ascontiguousarray(data).tobytes()
    return bytes(data)


def _as_array(data) -> np.ndarray:
    if isinstance(data, np.ndarray):
        return data.reshape(-1).view(np.uint8)
    return np.frombuffer(bytes(data), dtype=np.uint8)


def payload_view(array: np.ndarray) -> np.ndarray:
    """The array's bytes as uint8 (contiguous copy only if needed)."""
    return np.ascontiguousarray(array).reshape(-1).view(np.uint8)


def array_from_bytes(buf: np.ndarray, dtype: np.dtype, shape: tuple[int, ...]) -> np.ndarray:
    """Rebuild an ndarray from packed bytes (copies out of views so callers
    own their data)."""
    expected = math.prod(shape) * dtype.itemsize
    if buf.size != expected:
        raise SerializationError(
            f"payload is {buf.size} bytes, dtype/shape need {expected}"
        )
    return np.frombuffer(buf.tobytes(), dtype=dtype).reshape(shape)
