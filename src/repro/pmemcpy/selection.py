"""First-class selections: the I/O contract beyond ``(offsets, dims)``.

A :class:`Selection` names a subset of a variable's global index space plus
an order for laying those elements out in a dense result buffer.  Two
concrete kinds, mirroring HDF5 dataspace selections (and the start/stride/
count subarray contract of the Parallel netCDF interface):

- :class:`Hyperslab` — ``start``/``stride``/``count``/``block`` per axis,
  h5py-style.  ``count`` blocks of ``block`` consecutive indices each,
  ``stride`` apart, beginning at ``start``.  A plain contiguous block is
  the special case ``stride == block == 1``
  (:meth:`Hyperslab.from_block`).
- :class:`PointSelection` — an explicit list of points, gathered into a
  1-d result in list order (openPMD-style particle reads).

The algebra every storage layer builds on:

- *normalization* — :meth:`Selection.normalized` bounds-checks against the
  variable's global dims and materializes defaults;
- *chunk intersection* — :meth:`Selection.intersects` /
  :meth:`Selection.overlap_count` restrict a selection to one stored
  chunk's box without enumerating elements;
- *row segments* — :meth:`Selection.run_table` enumerates the maximal
  contiguous (row-major) element runs of the selection inside a box, each
  paired with its contiguous destination offset in the result buffer, as
  one table of int64 arrays (:meth:`Selection.runs` iterates it).  This is
  what the zero-staging partial-read path hands to ``Source.read_rows`` in
  one call and what the file-library baselines turn into strided MPI-IO
  extents;
- *numpy transfer* — :meth:`Selection.scatter_into` /
  :meth:`Selection.gather_from` move elements between a decoded region
  array and the (possibly non-contiguously strided) result buffer using
  plain numpy indexing;
- *composition* — :meth:`Hyperslab.compose` applies an inner selection to
  the element space of an outer one, yielding a selection in global
  coordinates (where the combination stays representable).

Selections are immutable; every operation returns new objects.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from ..errors import DimensionMismatchError, PmemcpyError


@dataclass(frozen=True)
class Run:
    """One contiguous row segment of a selection inside a region box.

    ``src`` is the flat element offset inside the region (row-major over
    the region's dims); ``dst`` the flat element offset in the selection's
    dense result; ``nelems`` elements are contiguous on *both* sides.
    """

    src: int
    dst: int
    nelems: int


def _as_axis_tuple(value, rank: int, name: str, default: int) -> tuple[int, ...]:
    if value is None:
        return (default,) * rank
    if np.isscalar(value):
        value = (value,) * rank
    out = tuple(int(v) for v in value)
    if len(out) != rank:
        raise DimensionMismatchError(
            f"selection {name} rank {len(out)} != start rank {rank}"
        )
    return out


class Selection(ABC):
    """A subset of a variable's global index space (see module docstring)."""

    #: number of axes of the *global* space the selection indexes
    rank: int
    #: shape of the dense result buffer the selection fills
    out_shape: tuple[int, ...]

    @property
    def nelems(self) -> int:
        return math.prod(self.out_shape)

    @abstractmethod
    def normalized(self, global_dims) -> "Selection":
        """Bounds-check against ``global_dims``; returns the selection."""

    @abstractmethod
    def bbox(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Tight bounding box as ``(offsets, dims)`` in global coords."""

    @abstractmethod
    def overlap_count(self, offsets, dims) -> int:
        """Number of selected elements inside the box ``offsets``/``dims``."""

    def intersects(self, offsets, dims) -> bool:
        return self.overlap_count(offsets, dims) > 0

    @abstractmethod
    def run_table(self, offsets, dims) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The maximal contiguous row segments inside the box as three
        parallel int64 arrays ``(src, dst, nelems)`` — one :class:`Run` per
        index, in result order.  The whole enumeration in one table is what
        the partial-read path hands down the stack in a single call."""

    def runs(self, offsets, dims) -> Iterator[Run]:
        """:meth:`run_table`, one :class:`Run` at a time."""
        src, dst, nelems = self.run_table(offsets, dims)
        return map(Run, src.tolist(), dst.tolist(), nelems.tolist())

    @abstractmethod
    def scatter_into(self, out: np.ndarray, region: np.ndarray, offsets) -> int:
        """Copy the selected elements of ``region`` (a box at ``offsets``
        with ``region.shape`` dims) into the result buffer ``out`` (shaped
        :attr:`out_shape`, any strides).  Returns elements copied."""

    @abstractmethod
    def gather_from(self, data: np.ndarray, region: np.ndarray, offsets) -> int:
        """Inverse of :meth:`scatter_into`: write ``data`` (shaped
        :attr:`out_shape`) into the selected positions of ``region``."""


# ---------------------------------------------------------------------------
# Hyperslab
# ---------------------------------------------------------------------------

class Hyperslab(Selection):
    """h5py-style regular hyperslab: per axis, ``count`` blocks of
    ``block`` consecutive indices each, ``stride`` apart, from ``start``.

    ``stride`` defaults to ``block`` (back-to-back blocks); ``block``
    defaults to 1.  HDF5's constraint ``stride >= block`` (blocks may not
    overlap) is enforced.  A 0-rank hyperslab selects the single element
    of a 0-d variable.
    """

    __slots__ = ("start", "stride", "count", "block", "out_shape", "rank")

    def __init__(self, start, count, stride=None, block=None):
        start = tuple(int(s) for s in (start if not np.isscalar(start) else (start,)))
        rank = len(start)
        count = _as_axis_tuple(count, rank, "count", 1)
        block = _as_axis_tuple(block, rank, "block", 1)
        stride = _as_axis_tuple(stride, rank, "stride", 0)
        # default stride = block (back-to-back blocks)
        stride = tuple(st if st else b for st, b in zip(stride, block))
        for s, st, c, b in zip(start, stride, count, block):
            if s < 0 or c < 0 or b < 1 or st < 1:
                raise DimensionMismatchError(
                    f"bad hyperslab axis (start={s}, stride={st}, "
                    f"count={c}, block={b})"
                )
            if st < b:
                raise DimensionMismatchError(
                    f"hyperslab blocks overlap: stride {st} < block {b}"
                )
        # canonical form: back-to-back blocks (and a single block) are one
        # contiguous unit-block run, so equality and composition see
        # through equivalent spellings
        canon = []
        for s, st, c, b in zip(start, stride, count, block):
            if b > 1 and (st == b or c == 1):
                canon.append((s, 1, c * b, 1))
            else:
                canon.append((s, st, c, b))
        self.start = tuple(a[0] for a in canon)
        self.stride = tuple(a[1] for a in canon)
        self.count = tuple(a[2] for a in canon)
        self.block = tuple(a[3] for a in canon)
        self.rank = rank
        self.out_shape = tuple(c * b for c, b in zip(self.count, self.block))

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_block(cls, offsets, dims) -> "Hyperslab":
        """The contiguous block at ``offsets`` with extent ``dims``."""
        return cls(tuple(offsets), tuple(dims))

    @classmethod
    def all(cls, global_dims) -> "Hyperslab":
        """The whole variable."""
        gd = tuple(global_dims)
        return cls((0,) * len(gd), gd)

    def __repr__(self) -> str:
        return (f"Hyperslab(start={self.start}, count={self.count}, "
                f"stride={self.stride}, block={self.block})")

    def __eq__(self, other) -> bool:
        return (isinstance(other, Hyperslab)
                and self.start == other.start and self.stride == other.stride
                and self.count == other.count and self.block == other.block)

    def __hash__(self) -> int:
        return hash((self.start, self.stride, self.count, self.block))

    # -- algebra -----------------------------------------------------------

    def normalized(self, global_dims) -> "Hyperslab":
        gd = tuple(int(d) for d in global_dims)
        if len(gd) != self.rank:
            raise DimensionMismatchError(
                f"selection rank {self.rank} != variable rank {len(gd)}"
            )
        for s, st, c, b, g in zip(self.start, self.stride, self.count,
                                  self.block, gd):
            if c and s + (c - 1) * st + b > g:
                raise DimensionMismatchError(
                    f"hyperslab (start={s}, stride={st}, count={c}, "
                    f"block={b}) outside global extent {g}"
                )
            if c == 0 and s > g:
                raise DimensionMismatchError(
                    f"hyperslab start {s} outside global extent {g}"
                )
        return self

    def bbox(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        dims = tuple(
            ((c - 1) * st + b) if c else 0
            for st, c, b in zip(self.stride, self.count, self.block)
        )
        return self.start, dims

    def _axis_sel(self, axis: int, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        """Selected global indices on ``axis`` restricted to ``[lo, hi)``,
        with the matching result-axis indices."""
        s, st, c, b = (self.start[axis], self.stride[axis],
                       self.count[axis], self.block[axis])
        if c == 0 or hi <= lo:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        # block index range that can intersect [lo, hi)
        i_lo = max(0, (lo - s - (b - 1) + st - 1) // st) if lo > s else 0
        i_hi = min(c, (hi - 1 - s) // st + 1) if hi > s else 0
        if i_hi <= i_lo:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        i = np.arange(i_lo, i_hi, dtype=np.int64)
        if b == 1:   # the index range above already keeps g in [lo, hi)
            return s + i * st, i
        g = (s + i[:, None] * st + np.arange(b, dtype=np.int64)[None, :]).ravel()
        o = (i[:, None] * b + np.arange(b, dtype=np.int64)[None, :]).ravel()
        m = (g >= lo) & (g < hi)
        return g[m], o[m]

    def _axis_count(self, axis: int, lo: int, hi: int) -> int:
        g, _ = self._axis_sel(axis, lo, hi)
        return len(g)

    def overlap_count(self, offsets, dims) -> int:
        if self.rank == 0:
            return 1
        total = 1
        for ax, (o, d) in enumerate(zip(offsets, dims)):
            total *= self._axis_count(ax, o, o + d)
            if total == 0:
                return 0
        return total

    def run_table(self, offsets, dims):
        offsets = tuple(int(o) for o in offsets)
        dims = tuple(int(d) for d in dims)
        if self.rank == 0:
            zero = np.zeros(1, dtype=np.int64)
            return zero, zero, np.ones(1, dtype=np.int64)
        axes = [self._axis_sel(ax, o, o + d)
                for ax, (o, d) in enumerate(zip(offsets, dims))]
        if any(len(g) == 0 for g, _ in axes):
            return _EMPTY_TABLE
        src_strides = _row_major_strides(dims)
        dst_strides = _row_major_strides(self.out_shape)
        # split the last axis into segments contiguous on both sides
        gl, ol = axes[-1]
        if self.stride[-1] == self.block[-1]:
            # abutting blocks: the selected run is one segment on both sides
            first = np.zeros(1, dtype=np.int64)
            seg_len = np.array([len(gl)])
        else:
            first = np.concatenate(([0], np.flatnonzero(
                (np.diff(gl) != 1) | (np.diff(ol) != 1)) + 1))
            seg_len = np.diff(np.concatenate((first, [len(gl)])))
        src = (gl[first] - offsets[-1]) * src_strides[-1]
        dst = ol[first] * dst_strides[-1]
        # outer sum over the remaining axes, innermost first, so the table
        # comes out row-major with the last axis varying fastest
        for ax in range(self.rank - 2, -1, -1):
            g, o = axes[ax]
            src = (((g - offsets[ax]) * src_strides[ax])[:, None] + src).ravel()
            dst = ((o * dst_strides[ax])[:, None] + dst).ravel()
        return src, dst, np.tile(seg_len, len(src) // len(seg_len))

    def _slice_pairs(self, offsets, dims) -> Iterator[tuple[tuple, tuple]]:
        """(src_slices, dst_slices) index-tuple pairs: src indexes a
        ``dims``-shaped region array, dst a :attr:`out_shape`-shaped result.
        One pair per combination of per-axis block phases (``prod(block)``
        pairs at most), so numpy handles the strided transfers."""
        if self.rank == 0:
            yield (), ()
            return
        per_axis: list[list[tuple[slice, slice]]] = []
        for ax, (o, d) in enumerate(zip(offsets, dims)):
            s, st, c, b = (self.start[ax], self.stride[ax],
                           self.count[ax], self.block[ax])
            lo, hi = int(o), int(o) + int(d)
            pairs = []
            for beta in range(b):
                s_b = s + beta
                # block-index range whose phase-beta element is in [lo, hi)
                i_lo = max(0, -(-(lo - s_b) // st))
                i_hi = min(c, (hi - 1 - s_b) // st + 1) if hi > s_b else 0
                if i_hi <= i_lo:
                    continue
                src = slice(s_b + i_lo * st - lo,
                            s_b + (i_hi - 1) * st - lo + 1, st)
                dst = slice(i_lo * b + beta, (i_hi - 1) * b + beta + 1, b)
                pairs.append((src, dst))
            if not pairs:
                return
            per_axis.append(pairs)
        for combo in np.ndindex(*[len(p) for p in per_axis]):
            src_sl = tuple(per_axis[ax][i][0] for ax, i in enumerate(combo))
            dst_sl = tuple(per_axis[ax][i][1] for ax, i in enumerate(combo))
            yield src_sl, dst_sl

    def scatter_into(self, out: np.ndarray, region: np.ndarray, offsets) -> int:
        copied = 0
        for src_sl, dst_sl in self._slice_pairs(offsets, region.shape):
            piece = region[src_sl]
            out[dst_sl] = piece
            copied += piece.size
        return copied

    def gather_from(self, data: np.ndarray, region: np.ndarray, offsets) -> int:
        copied = 0
        for src_sl, dst_sl in self._slice_pairs(offsets, region.shape):
            piece = data[dst_sl]
            region[src_sl] = piece
            copied += piece.size
        return copied

    # -- composition -------------------------------------------------------

    def _axis_cells(self, axis: int) -> list[tuple[int, int, int]]:
        """Maximal contiguous index cells on ``axis`` as
        ``(global_start, extent, result_start)`` triples."""
        s, st, c, b = (self.start[axis], self.stride[axis],
                       self.count[axis], self.block[axis])
        if st == b:  # contiguous axis (canonical form has b == st == 1)
            return [(s, c * b, 0)] if c else []
        return [(s + i * st, b, i * b) for i in range(c)]

    def blocks(self) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
        """The selection's maximal contiguous block cells as
        ``(offsets, dims)`` pairs, in result order — how a strided *store*
        decomposes into plain block puts."""
        if self.rank == 0:
            yield (), ()
            return
        cells = [self._axis_cells(ax) for ax in range(self.rank)]
        for combo in np.ndindex(*[len(c) for c in cells]):
            picked = [cells[ax][i] for ax, i in enumerate(combo)]
            yield (tuple(p[0] for p in picked), tuple(p[1] for p in picked))

    def block_result_slices(self) -> Iterator[tuple]:
        """For each :meth:`blocks` cell, the index tuple selecting its
        elements from the dense result buffer (same iteration order)."""
        if self.rank == 0:
            yield ()
            return
        cells = [self._axis_cells(ax) for ax in range(self.rank)]
        for combo in np.ndindex(*[len(c) for c in cells]):
            yield tuple(
                slice(cells[ax][i][2], cells[ax][i][2] + cells[ax][i][1])
                for ax, i in enumerate(combo)
            )

    def compose(self, inner: "Selection") -> "Selection":
        """Apply ``inner`` — a selection over *this* hyperslab's result
        space — yielding a selection in global coordinates.

        Supported where the combination stays a regular hyperslab / point
        set: any inner selection against a unit-block outer, or a
        unit-stride outer; other shapes raise
        :class:`~repro.errors.PmemcpyError`.
        """
        if isinstance(inner, PointSelection):
            if inner.rank != self.rank:
                raise DimensionMismatchError(
                    f"compose: inner rank {inner.rank} != outer {self.rank}"
                )
            pts = []
            for p in inner.points:
                gp = []
                for ax, v in enumerate(p):
                    if not 0 <= v < self.out_shape[ax]:
                        raise DimensionMismatchError(
                            f"compose: point {tuple(p)} outside selection "
                            f"result shape {self.out_shape}"
                        )
                    b = self.block[ax]
                    gp.append(self.start[ax] + (v // b) * self.stride[ax]
                              + v % b)
                pts.append(tuple(gp))
            return PointSelection(pts)
        if not isinstance(inner, Hyperslab):
            raise PmemcpyError(f"cannot compose with {type(inner).__name__}")
        if inner.rank != self.rank:
            raise DimensionMismatchError(
                f"compose: inner rank {inner.rank} != outer {self.rank}"
            )
        inner.normalized(self.out_shape)
        start, stride, count, block = [], [], [], []
        for ax in range(self.rank):
            os_, ot, ob = self.start[ax], self.stride[ax], self.block[ax]
            is_, it, ic, ib = (inner.start[ax], inner.stride[ax],
                               inner.count[ax], inner.block[ax])
            if ob == 1:
                start.append(os_ + is_ * ot)
                stride.append(it * ot)
                count.append(ic)
                if ib == 1:
                    block.append(1)
                elif ot == 1:
                    block.append(ib)
                else:
                    raise PmemcpyError(
                        "compose: inner blocks span outer stride gaps "
                        f"(axis {ax}); not representable as a hyperslab"
                    )
            else:
                raise PmemcpyError(
                    f"compose: outer block {ob} > 1 on axis {ax}; "
                    "decompose via blocks() instead"
                )
        return Hyperslab(tuple(start), tuple(count), tuple(stride),
                         tuple(block))


# ---------------------------------------------------------------------------
# PointSelection
# ---------------------------------------------------------------------------

class PointSelection(Selection):
    """An explicit list of global points, gathered in list order into a
    1-d result of shape ``(npoints,)`` (0-d variables take rank-0 points,
    i.e. empty tuples)."""

    __slots__ = ("points", "out_shape", "rank")

    def __init__(self, points):
        pts = np.asarray(points, dtype=np.int64)
        if pts.ndim == 1 and pts.size == 0:
            pts = pts.reshape(0, 0)
        if pts.ndim != 2:
            raise DimensionMismatchError(
                f"points must be an (npoints, rank) array, got shape "
                f"{pts.shape}"
            )
        self.points = pts
        self.rank = int(pts.shape[1])
        self.out_shape = (int(pts.shape[0]),)

    def __repr__(self) -> str:
        return f"PointSelection({len(self.points)} points, rank={self.rank})"

    def normalized(self, global_dims) -> "PointSelection":
        gd = tuple(int(d) for d in global_dims)
        if len(self.points) and len(gd) != self.rank:
            raise DimensionMismatchError(
                f"selection rank {self.rank} != variable rank {len(gd)}"
            )
        if len(self.points):
            if (self.points < 0).any() or (
                self.points >= np.asarray(gd, dtype=np.int64)
            ).any():
                raise DimensionMismatchError(
                    f"point selection outside global dims {gd}"
                )
        return self

    def bbox(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        if not len(self.points):
            return (0,) * self.rank, (0,) * self.rank
        lo = self.points.min(axis=0)
        hi = self.points.max(axis=0) + 1
        return tuple(int(v) for v in lo), tuple(int(v) for v in hi - lo)

    def _inside(self, offsets, dims) -> np.ndarray:
        """Boolean mask of points inside the box."""
        if not len(self.points):
            return np.zeros(0, dtype=bool)
        if self.rank == 0:
            return np.ones(len(self.points), dtype=bool)
        lo = np.asarray(offsets, dtype=np.int64)
        hi = lo + np.asarray(dims, dtype=np.int64)
        return ((self.points >= lo) & (self.points < hi)).all(axis=1)

    def overlap_count(self, offsets, dims) -> int:
        return int(self._inside(offsets, dims).sum())

    def run_table(self, offsets, dims):
        idx = np.flatnonzero(self._inside(offsets, dims))
        if not len(idx):
            return _EMPTY_TABLE
        if self.rank:
            rel = self.points[idx] - np.asarray(offsets, dtype=np.int64)
            src = rel @ np.asarray(_row_major_strides(dims), dtype=np.int64)
        else:
            src = np.zeros(len(idx), dtype=np.int64)
        # coalesce list-adjacent points that are also row-adjacent
        first = np.concatenate(
            ([0], np.flatnonzero((np.diff(idx) != 1) | (np.diff(src) != 1)) + 1)
        )
        return (src[first], idx[first],
                np.diff(np.concatenate((first, [len(idx)]))))

    def _indexers(self, offsets, dims):
        mask = self._inside(offsets, dims)
        idx = np.flatnonzero(mask)
        if self.rank == 0:
            return tuple(), idx
        rel = self.points[idx] - np.asarray(offsets, dtype=np.int64)
        return tuple(rel.T), idx

    def scatter_into(self, out: np.ndarray, region: np.ndarray, offsets) -> int:
        src_idx, dst_idx = self._indexers(offsets, region.shape)
        if not len(dst_idx):
            return 0
        if self.rank == 0:
            out[dst_idx] = region[()]
        else:
            out[dst_idx] = region[src_idx]
        return len(dst_idx)

    def gather_from(self, data: np.ndarray, region: np.ndarray, offsets) -> int:
        src_idx, dst_idx = self._indexers(offsets, region.shape)
        if not len(dst_idx):
            return 0
        region[src_idx] = data[dst_idx]
        return len(dst_idx)


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

_EMPTY_TABLE = (np.empty(0, dtype=np.int64),) * 3


def _row_major_strides(dims) -> tuple[int, ...]:
    """Element (not byte) strides of a C-ordered array of shape ``dims``."""
    strides = []
    acc = 1
    for d in reversed(tuple(dims)):
        strides.append(acc)
        acc *= max(int(d), 1)
    return tuple(reversed(strides))


def as_selection(offsets, dims, selection, global_dims) -> Selection:
    """Normalize the ``(offsets, dims)`` / ``selection`` calling convention
    shared by :meth:`PMEM.load` and the driver layer."""
    if selection is not None:
        if offsets is not None or dims is not None:
            raise DimensionMismatchError(
                "pass either offsets/dims or a selection, not both"
            )
        return selection.normalized(global_dims)
    if offsets is None and dims is None:
        return Hyperslab.all(global_dims)
    if offsets is None or dims is None:
        raise DimensionMismatchError(
            "offsets and dims must be given together"
        )
    return Hyperslab.from_block(offsets, dims).normalized(global_dims)
