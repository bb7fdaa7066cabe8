"""Variable metadata records — the value behind each ``<id>#dims`` key.

A variable is a global n-d array plus the set of stored *chunks*
(per-process subarrays, kept in the format they were produced — the
ADIOS-like, rearrangement-free layout the paper adopts).  Each chunk
records where its serialized blob lives.

The record is packed to a compact binary form for the hashtable value /
metadata file.  Format **v1** (magic ``"PMVA"``, written for unchunked
variables — and still unpacked forever)::

    magic u32 | ndims u16 | nchunks u16 | dtype_len u16 | ser_len u16
    flt_len u16 | next_index u32
    global dims  ndims × u64
    dtype token | serializer name | filter names (comma-joined)
    per chunk: offsets ndims × u64 | dims ndims × u64 | blob u64 | len u64

Format **v2** (magic ``"PMVB"``) is identical except a ``chunk_shape``
record (ndims × u64) follows the global dims; it is emitted exactly when
the variable declares a chunked layout, so unchunked metadata blobs stay
byte-identical to v1 and old blobs keep unpacking.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from ..errors import DimensionMismatchError, SerializationError
from ..serial.base import dtype_from_token, dtype_to_token

MAGIC = 0x504D5641     # "PMVA" — format v1 (no chunk_shape)
MAGIC_V2 = 0x504D5642  # "PMVB" — format v2 (chunk_shape after global dims)
_HDR = struct.Struct("<IHHHHHI")


@dataclass(frozen=True)
class Chunk:
    offsets: tuple[int, ...]
    dims: tuple[int, ...]
    blob_off: int
    blob_len: int

    def intersects(self, offsets, dims) -> bool:
        for co, cd, o, d in zip(self.offsets, self.dims, offsets, dims):
            if co + cd <= o or o + d <= co:
                return False
        return True

    def nbytes(self, dtype) -> int:
        n = 1
        for d in self.dims:
            n *= d
        return n * np.dtype(dtype).itemsize


@dataclass
class VariableMeta:
    name: str
    dtype: np.dtype
    global_dims: tuple[int, ...]
    serializer: str
    chunks: list[Chunk] = field(default_factory=list)
    #: comma-joined filter-pipeline names ("" = unfiltered)
    filters: str = ""
    #: next never-used chunk index; reserved under the metadata write guard
    #: *before* the (unlocked) payload write, so concurrent writers of one
    #: variable never collide on a chunk slot
    next_index: int = 0
    #: aligned-chunk grid for the variable (None = store-shaped chunks,
    #: the v1 behaviour).  When set, every store is split at multiples of
    #: this shape, so each stored chunk lies inside one grid cell — the
    #: unit of per-chunk filtering and of the decoded-chunk cache.
    chunk_shape: tuple[int, ...] | None = None

    def validate_subarray(self, offsets, dims) -> None:
        if len(offsets) != len(self.global_dims) or len(dims) != len(self.global_dims):
            raise DimensionMismatchError(
                f"{self.name}: subarray rank {len(offsets)}/{len(dims)} vs "
                f"variable rank {len(self.global_dims)}"
            )
        for o, d, g in zip(offsets, dims, self.global_dims):
            if o < 0 or d < 0 or o + d > g:
                raise DimensionMismatchError(
                    f"{self.name}: subarray (offset {offsets}, dims {dims}) "
                    f"outside global dims {self.global_dims}"
                )

    # ------------------------------------------------------------------ packing

    def pack(self) -> bytes:
        dt = dtype_to_token(self.dtype).encode()
        ser = self.serializer.encode()
        flt = self.filters.encode()
        ndims = len(self.global_dims)
        magic = MAGIC if self.chunk_shape is None else MAGIC_V2
        parts = [
            _HDR.pack(magic, ndims, len(self.chunks), len(dt), len(ser),
                      len(flt), self.next_index),
            struct.pack(f"<{ndims}Q", *self.global_dims),
        ]
        if self.chunk_shape is not None:
            if len(self.chunk_shape) != ndims:
                raise DimensionMismatchError(
                    f"{self.name}: chunk_shape rank {len(self.chunk_shape)} "
                    f"vs variable rank {ndims}"
                )
            parts.append(struct.pack(f"<{ndims}Q", *self.chunk_shape))
        parts += [
            dt,
            ser,
            flt,
        ]
        for c in self.chunks:
            parts.append(struct.pack(f"<{ndims}Q", *c.offsets))
            parts.append(struct.pack(f"<{ndims}Q", *c.dims))
            parts.append(struct.pack("<QQ", c.blob_off, c.blob_len))
        return b"".join(parts)

    @classmethod
    def unpack(cls, name: str, raw: bytes) -> "VariableMeta":
        try:
            (magic, ndims, nchunks, dt_len, ser_len, flt_len,
             next_index) = _HDR.unpack_from(raw, 0)
        except struct.error as e:
            raise SerializationError(f"truncated variable meta for {name!r}") from e
        if magic not in (MAGIC, MAGIC_V2):
            raise SerializationError(f"bad variable-meta magic for {name!r}")
        pos = _HDR.size
        global_dims = struct.unpack_from(f"<{ndims}Q", raw, pos)
        pos += 8 * ndims
        chunk_shape = None
        if magic == MAGIC_V2:
            chunk_shape = struct.unpack_from(f"<{ndims}Q", raw, pos)
            pos += 8 * ndims
        dtype = dtype_from_token(raw[pos : pos + dt_len].decode())
        pos += dt_len
        serializer = raw[pos : pos + ser_len].decode()
        pos += ser_len
        filters = raw[pos : pos + flt_len].decode()
        pos += flt_len
        chunks = []
        for _ in range(nchunks):
            offsets = struct.unpack_from(f"<{ndims}Q", raw, pos)
            pos += 8 * ndims
            dims = struct.unpack_from(f"<{ndims}Q", raw, pos)
            pos += 8 * ndims
            blob_off, blob_len = struct.unpack_from("<QQ", raw, pos)
            pos += 16
            chunks.append(Chunk(offsets, dims, blob_off, blob_len))
        return cls(
            name=name, dtype=dtype, global_dims=global_dims,
            serializer=serializer, chunks=chunks, filters=filters,
            next_index=next_index, chunk_shape=chunk_shape,
        )


def split_at_chunk_grid(
    chunk_shape, offsets, dims
) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Split the block ``(offsets, dims)`` at multiples of ``chunk_shape``.

    Returns the aligned pieces as ``(offsets, dims)`` cells in row-major
    grid order; each piece lies inside exactly one chunk-grid cell (its
    extent is clipped to the block, so edge pieces may be smaller than the
    grid).  A block already inside one cell comes back whole."""
    per_axis: list[list[tuple[int, int]]] = []
    for o, d, c in zip(offsets, dims, chunk_shape):
        cells: list[tuple[int, int]] = []
        pos = int(o)
        end = int(o) + int(d)
        while pos < end:
            cell_end = (pos // c + 1) * c
            take = min(end, cell_end) - pos
            cells.append((pos, take))
            pos += take
        if not cells:  # zero-extent axis: keep a single empty cell
            cells.append((int(o), 0))
        per_axis.append(cells)
    out = []
    for combo in np.ndindex(*[len(c) for c in per_axis]):
        picked = [per_axis[ax][i] for ax, i in enumerate(combo)]
        out.append((tuple(p[0] for p in picked), tuple(p[1] for p in picked)))
    return out


def dims_key(var_id: str) -> bytes:
    """The paper's convention: dimensions metadata lives under
    ``<id>#dims`` (§3)."""
    return f"{var_id}#dims".encode()
