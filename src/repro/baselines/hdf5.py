"""HDF5-like substrate: dataspaces, hyperslabs, datasets, property lists.

Reproduces the structural behaviors the paper leans on (§2.1):

- datasets have a *global linearized* layout in one shared file — a
  parallel hyperslab write decomposes into strided extents that MPI-IO's
  two-phase collective path must rearrange (the NetCDF/pNetCDF cost);
- three layouts: **contiguous** (default), **chunked** (fixed-size
  sub-arrays, allocated on first touch), **compact** (< 64 KiB datasets
  inline in the object header);
- optional fill values: unless disabled, the entire dataset extent is
  written with the fill pattern at creation (the overhead NetCDF-4 users
  must disable with ``nc_def_var_fill(NC_NOFILL)`` — §4.1).

File layout::

    0:   signature 8B  "\\x89HDF-sim" | version u32 | header_off u64
    64:  dataset raw data regions (and chunks)
    header (at close, rank 0): packed object headers for every dataset
"""

from __future__ import annotations

import math
import struct

import numpy as np

from ..errors import BaselineError, DimensionMismatchError, FormatError
from ..kernel.vfs import OpenFlags
from ..mem.memcpy import charge_cpu, charge_dram_copy
from ..mpi.datatypes import (
    gather_subarray,
    scatter_subarray,
    subarray_run_starts,
    subarray_runs,
)
from ..pmemcpy.selection import Hyperslab, Selection
from ..serial.base import dtype_from_token, dtype_to_token
from ..serial.filters import FilterPipeline
from .base import PIODriver, register_driver

SIGNATURE = b"\x89HDF-sim"
_SUPERBLOCK = 64
COMPACT_LIMIT = 64 * 1024

CONTIGUOUS = "contiguous"
CHUNKED = "chunked"
COMPACT = "compact"


class PropertyList:
    """H5P property list.  Mostly ceremony — which is the paper's point
    about the HDF5 API (§3, Fig. 4) — but faithfully required where real
    HDF5 requires it."""

    _CLASSES = ("file_access", "file_create", "dataset_create", "dataset_xfer")

    def __init__(self, cls: str):
        if cls not in self._CLASSES:
            raise BaselineError(f"unknown property-list class {cls!r}")
        self.cls = cls
        self.comm = None
        self.collective = True
        self.closed = False

    def set_fapl_mpio(self, comm, info=None) -> None:
        """H5Pset_fapl_mpio: select the MPI-IO file driver."""
        if self.cls != "file_access":
            raise BaselineError("set_fapl_mpio needs a file_access plist")
        self.comm = comm

    def set_dxpl_mpio(self, collective: bool = True) -> None:
        """H5Pset_dxpl_mpio: collective vs independent transfers."""
        if self.cls != "dataset_xfer":
            raise BaselineError("set_dxpl_mpio needs a dataset_xfer plist")
        self.collective = collective

    def close(self) -> None:
        self.closed = True


def H5Pcreate(cls: str) -> PropertyList:
    return PropertyList(cls)


def H5Screate_simple(dims) -> "Dataspace":
    return Dataspace(dims)


# ---------------------------------------------------------------------------
# Attributes (H5A): small typed key-values on files, groups, and datasets,
# persisted in the object headers.
# ---------------------------------------------------------------------------

_ATTR_STR, _ATTR_INT, _ATTR_FLOAT, _ATTR_ARRAY = 0, 1, 2, 3


def _pack_attrs(attrs: dict) -> bytes:
    parts = [struct.pack("<H", len(attrs))]
    for key, value in sorted(attrs.items()):
        kb = key.encode()
        parts.append(struct.pack("<H", len(kb)) + kb)
        if isinstance(value, str):
            vb = value.encode()
            parts.append(struct.pack("<BI", _ATTR_STR, len(vb)) + vb)
        elif isinstance(value, (bool, int, np.integer)):
            parts.append(struct.pack("<BIq", _ATTR_INT, 8, int(value)))
        elif isinstance(value, (float, np.floating)):
            parts.append(struct.pack("<BId", _ATTR_FLOAT, 8, float(value)))
        elif isinstance(value, np.ndarray):
            dt = dtype_to_token(value.dtype).encode()
            body = struct.pack("<H", len(dt)) + dt
            body += struct.pack("<B", value.ndim)
            body += struct.pack(f"<{value.ndim}Q", *value.shape)
            body += np.ascontiguousarray(value).tobytes()
            parts.append(struct.pack("<BI", _ATTR_ARRAY, len(body)) + body)
        else:
            raise BaselineError(
                f"unsupported attribute type {type(value).__name__} for {key!r}"
            )
    return b"".join(parts)


def _unpack_attrs(raw: bytes, pos: int) -> tuple[dict, int]:
    (count,) = struct.unpack_from("<H", raw, pos)
    pos += 2
    attrs: dict = {}
    for _ in range(count):
        (klen,) = struct.unpack_from("<H", raw, pos); pos += 2
        key = raw[pos : pos + klen].decode(); pos += klen
        kind, vlen = struct.unpack_from("<BI", raw, pos); pos += 5
        body = raw[pos : pos + vlen]; pos += vlen
        if kind == _ATTR_STR:
            attrs[key] = body.decode()
        elif kind == _ATTR_INT:
            attrs[key] = struct.unpack("<q", body)[0]
        elif kind == _ATTR_FLOAT:
            attrs[key] = struct.unpack("<d", body)[0]
        elif kind == _ATTR_ARRAY:
            (dlen,) = struct.unpack_from("<H", body, 0)
            dtype = dtype_from_token(body[2 : 2 + dlen].decode())
            p = 2 + dlen
            (nd,) = struct.unpack_from("<B", body, p); p += 1
            shape = struct.unpack_from(f"<{nd}Q", body, p); p += 8 * nd
            attrs[key] = np.frombuffer(body[p:], dtype=dtype).reshape(shape)
        else:
            raise FormatError(f"bad attribute kind {kind}")
    return attrs, pos


class H5Group:
    """A group — 'analogous to directories' (§2.1).  Dataset and subgroup
    names are path-joined under the group's own path."""

    def __init__(self, file: "H5File", path: str):
        self.file = file
        self.path = path.strip("/")
        self.attrs: dict = {}

    def _join(self, name: str) -> str:
        return f"{self.path}/{name}" if self.path else name

    def create_group(self, name: str) -> "H5Group":
        return self.file.create_group(self._join(name))

    def group(self, name: str) -> "H5Group":
        return self.file.group(self._join(name))

    def create_dataset(self, name: str, dtype, space: Dataspace, **kw) -> "H5Dataset":
        return self.file.create_dataset(self._join(name), dtype, space, **kw)

    def dataset(self, name: str) -> "H5Dataset":
        return self.file.dataset(self._join(name))

    def keys(self) -> list[str]:
        """Immediate children (datasets and subgroups)."""
        prefix = f"{self.path}/" if self.path else ""
        out = set()
        for name in list(self.file.datasets) + list(self.file.groups):
            if name == self.path:
                continue
            if name.startswith(prefix):
                out.add(name[len(prefix):].split("/")[0])
        return sorted(out)


class Dataspace:
    """H5Screate_simple: an n-d extent, with optional hyperslab/point
    selection (strided hyperslabs and point lists route reads through
    :meth:`H5Dataset.read_selection`)."""

    def __init__(self, dims):
        self.dims = tuple(int(d) for d in dims)
        self.selection: tuple[tuple, tuple] | None = None
        #: strided/point selection (None for whole-extent or plain blocks)
        self.sel: Selection | None = None

    def select_hyperslab(self, offsets, counts, stride=None,
                         block=None) -> "Dataspace":
        offsets, counts = tuple(offsets), tuple(counts)
        if len(offsets) != len(self.dims) or len(counts) != len(self.dims):
            raise BaselineError("hyperslab rank mismatch")
        if stride is not None or block is not None:
            # the full H5Sselect_hyperslab start/stride/count/block form
            try:
                hs = Hyperslab(offsets, counts, stride, block)
                hs.normalized(self.dims)
            except DimensionMismatchError as e:
                raise BaselineError(str(e)) from e
            if hs == Hyperslab.from_block(*hs.bbox()):
                # degenerate strides: keep the fast contiguous-block path
                self.selection, self.sel = hs.bbox(), None
            else:
                self.selection, self.sel = None, hs
            return self
        for o, c, d in zip(offsets, counts, self.dims):
            if o < 0 or c < 0 or o + c > d:
                raise BaselineError(
                    f"hyperslab ({offsets}, {counts}) outside extent {self.dims}"
                )
        self.selection = (offsets, counts)
        self.sel = None
        return self

    @property
    def nelems(self) -> int:
        return math.prod(self.dims)

    def effective(self) -> tuple[tuple, tuple]:
        if self.sel is not None:
            raise BaselineError(
                "strided/point selections have no single block extent; "
                "use the selection read path"
            )
        if self.selection is None:
            return tuple(0 for _ in self.dims), self.dims
        return self.selection


class H5Dataset:
    def __init__(self, file: "H5File", name: str, dtype, space: Dataspace,
                 layout: str, chunk_dims=None, data_off: int = 0,
                 chunk_index: dict | None = None, compact_data: bytes | None = None,
                 filters=None):
        self.file = file
        self.name = name
        self.dtype = np.dtype(dtype)
        self.space = space
        self.layout = layout
        self.chunk_dims = tuple(chunk_dims) if chunk_dims else None
        self.data_off = data_off
        #: chunk coords -> (file offset, stored byte size); stored size
        #: differs from the raw chunk size when filters are applied
        self.chunk_index: dict[tuple, tuple[int, int]] = chunk_index or {}
        self._compact = bytearray(compact_data or b"")
        #: filter pipeline (requires chunked layout, as in real HDF5 — §2.1)
        self.filters = filters
        #: H5A attributes, persisted in the object header
        self.attrs: dict = {}

    @property
    def shape(self) -> tuple[int, ...]:
        return self.space.dims

    @property
    def nbytes(self) -> int:
        return self.space.nelems * self.dtype.itemsize

    # ------------------------------------------------------------------ write

    def get_space(self) -> Dataspace:
        """H5Dget_space: a fresh dataspace describing the dataset extent."""
        return Dataspace(self.space.dims)

    def close(self) -> None:
        """H5Dclose (handles are GC'd; kept for API fidelity)."""

    def write(self, ctx, data, filespace: Dataspace | None = None,
              memspace: Dataspace | None = None,
              xfer: "PropertyList | None" = None,
              *, collective: bool = True) -> None:
        """H5Dwrite.  ``filespace`` carries the hyperslab selection;
        ``memspace`` (optional) must match the selection extent; ``xfer``
        may switch collective/independent transfer."""
        data = np.ascontiguousarray(data, dtype=self.dtype)
        space = filespace or self.space
        if getattr(space, "sel", None) is not None:
            # strided hyperslab write: one plain block write per maximal
            # contiguous cell of the selection
            sel = space.sel
            if not isinstance(sel, Hyperslab):
                raise BaselineError(
                    "H5Dwrite supports hyperslab selections only"
                )
            if tuple(data.shape) != sel.out_shape:
                raise BaselineError(
                    f"memory space {data.shape} != selection {sel.out_shape}"
                )
            for (cell_off, cell_dims), result_sl in zip(
                sel.blocks(), sel.block_result_slices()
            ):
                fs = Dataspace(self.space.dims).select_hyperslab(
                    cell_off, cell_dims)
                self.write(ctx, np.ascontiguousarray(data[result_sl]), fs,
                           collective=collective)
            return
        offsets, counts = space.effective()
        if memspace is not None and memspace.nelems != math.prod(counts):
            raise BaselineError(
                f"memory space {memspace.dims} != selection {counts}"
            )
        if xfer is not None:
            collective = xfer.collective
        if tuple(data.shape) != tuple(counts):
            raise BaselineError(
                f"memory space {data.shape} != selection {counts}"
            )
        if self.layout == COMPACT:
            self._write_compact(ctx, data, offsets, counts)
        elif self.layout == CONTIGUOUS:
            self._write_contiguous(ctx, data, offsets, counts, collective)
        else:
            self._write_chunked(ctx, data, offsets, counts, collective)

    def _extents_for(self, offsets, counts, base_off: int):
        itemsize = self.dtype.itemsize
        starts = subarray_run_starts(self.space.dims, offsets, counts, itemsize)
        _nruns, run_bytes = subarray_runs(self.space.dims, offsets, counts, itemsize)
        return starts + base_off, run_bytes

    def _write_contiguous(self, ctx, data, offsets, counts, collective) -> None:
        starts, run_bytes = self._extents_for(offsets, counts, self.data_off)
        flat = data.reshape(-1).view(np.uint8)
        extents = [
            (int(s), flat[i * run_bytes : (i + 1) * run_bytes])
            for i, s in enumerate(starts)
        ]
        if collective:
            self.file.mpifile.write_at_all(ctx, extents)
        else:
            for off, run in extents:
                self.file.mpifile.write_at(
                    ctx, off, run, model_bytes=ctx.model_bytes(run.size)
                )

    def _chunk_geom(self, cc) -> tuple[tuple, tuple, int]:
        c_off = tuple(c * cd for c, cd in zip(cc, self.chunk_dims))
        c_dims = tuple(
            min(cd, d - o) for cd, d, o in
            zip(self.chunk_dims, self.space.dims, c_off)
        )
        return c_off, c_dims, math.prod(c_dims) * self.dtype.itemsize

    def _read_chunk_bytes(self, ctx, cc) -> np.ndarray | None:
        """The chunk's raw (post-filter-decode) bytes, or None if never
        written."""
        entry = self.chunk_index.get(cc)
        if entry is None:
            return None
        base, stored = entry
        _c_off, _c_dims, chunk_nbytes = self._chunk_geom(cc)
        raw = self.file.mpifile.read_at(
            ctx, base, stored, model_bytes=ctx.model_bytes(stored)
        )
        if self.filters is not None:
            return np.frombuffer(
                self.filters.decode(ctx, raw.tobytes()), np.uint8
            )
        if raw.size < chunk_nbytes:  # allocated but never written
            raw = np.concatenate(
                [raw, np.zeros(chunk_nbytes - raw.size, np.uint8)]
            )
        return raw

    def _write_chunked(self, ctx, data, offsets, counts, collective) -> None:
        touched = self._chunks_overlapping(offsets, counts)
        if self.filters is None:
            self.file._allocate_chunks(ctx, self, touched)
        # assemble the full new bytes of every touched chunk (RMW if the
        # selection only partially covers it)
        payloads: list[tuple[tuple, bytes]] = []
        for cc in touched:
            c_off, c_dims, chunk_nbytes = self._chunk_geom(cc)
            lo = tuple(max(a, b) for a, b in zip(offsets, c_off))
            hi = tuple(
                min(a + da, b + db)
                for a, da, b, db in zip(offsets, counts, c_off, c_dims)
            )
            if any(l >= h for l, h in zip(lo, hi)):
                continue
            full = all(l == co and h == co + cd for l, h, co, cd
                       in zip(lo, hi, c_off, c_dims))
            src = gather_subarray(
                data.reshape(counts), counts,
                tuple(l - o for l, o in zip(lo, offsets)),
                tuple(h - l for l, h in zip(lo, hi)),
            )
            if full:
                chunk = np.ascontiguousarray(src, dtype=self.dtype)
            else:
                prior = self._read_chunk_bytes(ctx, cc)
                if prior is None:
                    chunk = np.zeros(c_dims, dtype=self.dtype)
                else:
                    chunk = np.frombuffer(
                        prior.tobytes(), dtype=self.dtype
                    ).reshape(c_dims).copy()
                scatter_subarray(
                    chunk.reshape(-1), src, c_dims,
                    tuple(l - co for l, co in zip(lo, c_off)),
                )
            payloads.append((cc, chunk.reshape(-1).view(np.uint8).tobytes()))

        if self.filters is not None:
            # encode, then collectively append the variable-size chunks at
            # agreed EOF positions (HDF5 never moves old chunk versions
            # without an explicit repack — the leak is authentic)
            encoded = [
                (cc, self.filters.encode(ctx, raw)) for cc, raw in payloads
            ]
            mine = [(cc, len(blob)) for cc, blob in encoded]
            announced = self.file.comm.allgather(mine)
            pos = self.file._eof
            for r, entries in enumerate(announced):
                for cc, size in entries:
                    self.chunk_index[tuple(cc)] = (pos, size)
                    pos += size
            self.file._eof = pos
            extents = [
                (self.chunk_index[cc][0], np.frombuffer(blob, np.uint8))
                for cc, blob in encoded
            ]
        else:
            extents = [
                (self.chunk_index[cc][0], np.frombuffer(raw, np.uint8))
                for cc, raw in payloads
            ]
        if collective:
            self.file.mpifile.write_at_all(ctx, extents)
        else:
            for off, run in extents:
                self.file.mpifile.write_at(
                    ctx, off, run, model_bytes=ctx.model_bytes(run.size)
                )

    def _write_compact(self, ctx, data, offsets, counts) -> None:
        if self.nbytes > COMPACT_LIMIT:
            raise BaselineError("compact layout limited to 64 KiB")
        if len(self._compact) < self.nbytes:
            self._compact = bytearray(self.nbytes)
        view = np.frombuffer(self._compact, dtype=self.dtype).reshape(self.space.dims)
        arr = np.frombuffer(bytes(view), dtype=self.dtype).reshape(self.space.dims).copy()
        scatter_subarray(arr.reshape(-1), data.reshape(counts), self.space.dims, offsets)
        self._compact = bytearray(arr.tobytes())
        charge_dram_copy(ctx, ctx.model_bytes(data.nbytes), note="compact")

    # ------------------------------------------------------------------ read

    def read(self, ctx, filespace: Dataspace | None = None,
             memspace: Dataspace | None = None,
             xfer: "PropertyList | None" = None,
             *, collective: bool = True) -> np.ndarray:
        if xfer is not None:
            collective = xfer.collective
        space = filespace or self.space
        if getattr(space, "sel", None) is not None:
            return self.read_selection(ctx, space.sel, collective=collective)
        offsets, counts = space.effective()
        if self.layout == COMPACT:
            arr = np.frombuffer(bytes(self._compact), dtype=self.dtype)
            arr = arr.reshape(self.space.dims)
            charge_dram_copy(
                ctx, ctx.model_bytes(math.prod(counts) * self.dtype.itemsize),
                note="compact",
            )
            return gather_subarray(arr.reshape(-1), self.space.dims, offsets, counts)
        if self.layout == CONTIGUOUS:
            starts, run_bytes = self._extents_for(offsets, counts, self.data_off)
            reqs = [(int(s), run_bytes) for s in starts]
            if collective:
                runs = self.file.mpifile.read_at_all(ctx, reqs)
            else:
                runs = [
                    self.file.mpifile.read_at(
                        ctx, off, size, model_bytes=ctx.model_bytes(size)
                    )
                    for off, size in reqs
                ]
            flat = np.concatenate(runs) if runs else np.empty(0, np.uint8)
            return np.frombuffer(flat.tobytes(), dtype=self.dtype).reshape(counts)
        # chunked
        out = np.zeros(counts, dtype=self.dtype)
        for cc in self._chunks_overlapping(offsets, counts):
            c_off, c_dims, _nb = self._chunk_geom(cc)
            lo = tuple(max(a, b) for a, b in zip(offsets, c_off))
            hi = tuple(
                min(a + da, b + db)
                for a, da, b, db in zip(offsets, counts, c_off, c_dims)
            )
            if any(l >= h for l, h in zip(lo, hi)):
                continue
            want = tuple(h - l for l, h in zip(lo, hi))
            raw = self._read_chunk_bytes(ctx, cc)
            if raw is None:
                continue  # unallocated chunk reads as zeros/fill
            chunk = np.frombuffer(raw.tobytes(), dtype=self.dtype).reshape(c_dims)
            sub = gather_subarray(
                chunk.reshape(-1), c_dims,
                tuple(l - co for l, co in zip(lo, c_off)), want,
            )
            scatter_subarray(
                out.reshape(-1), sub, counts,
                tuple(l - o for l, o in zip(lo, offsets)),
            )
        return out

    def read_selection(self, ctx, sel: Selection, *,
                       collective: bool = True) -> np.ndarray:
        """Read an arbitrary selection with the layout's native cost:

        - *contiguous* datasets turn the selection's row segments into
          MPI-IO extents directly — only selected bytes cross the wire
          (modulo collective-buffering stripes);
        - *chunked* datasets read every intersecting chunk whole (the real
          HDF5 granularity: a chunk is fetched and decoded in full before
          sub-selection) and gather in DRAM;
        - *compact* datasets gather from the in-header copy.
        """
        itemsize = self.dtype.itemsize
        out = np.empty(sel.out_shape, dtype=self.dtype)
        flat = out.reshape(-1)
        if self.layout == COMPACT:
            arr = np.frombuffer(bytes(self._compact), dtype=self.dtype)
            arr = arr.reshape(self.space.dims)
            charge_dram_copy(
                ctx, ctx.model_bytes(out.nbytes), note="compact")
            sel.scatter_into(out, arr, tuple(0 for _ in self.space.dims))
            return out
        if self.layout == CONTIGUOUS:
            origin = tuple(0 for _ in self.space.dims)
            runs = list(sel.runs(origin, self.space.dims))
            reqs = [
                (self.data_off + r.src * itemsize, r.nelems * itemsize)
                for r in runs
            ]
            if collective:
                got = self.file.mpifile.read_at_all(ctx, reqs)
            else:
                got = [
                    self.file.mpifile.read_at(
                        ctx, off, size, model_bytes=ctx.model_bytes(size))
                    for off, size in reqs
                ]
            for r, raw in zip(runs, got):
                flat[r.dst : r.dst + r.nelems] = np.frombuffer(
                    raw.tobytes(), dtype=self.dtype)
            return out
        # chunked: fetch each intersecting chunk whole, gather in DRAM
        out.fill(0)  # unallocated chunks read as zeros/fill
        bb_off, bb_dims = sel.bbox()
        for cc in self._chunks_overlapping(bb_off, bb_dims):
            c_off, c_dims, _nb = self._chunk_geom(cc)
            if not sel.intersects(c_off, c_dims):
                continue
            raw = self._read_chunk_bytes(ctx, cc)
            if raw is None:
                continue
            chunk = np.frombuffer(raw.tobytes(), dtype=self.dtype)
            sel.scatter_into(out, chunk.reshape(c_dims), c_off)
        return out

    def _chunks_overlapping(self, offsets, counts) -> list[tuple]:
        los = [o // cd for o, cd in zip(offsets, self.chunk_dims)]
        his = [
            max(lo_i, -(-(o + c) // cd) - 1) if c else lo_i - 1
            for lo_i, o, c, cd in zip(los, offsets, counts, self.chunk_dims)
        ]
        coords: list[tuple] = []

        def rec(d, prefix):
            if d == len(los):
                coords.append(tuple(prefix))
                return
            for v in range(los[d], his[d] + 1):
                rec(d + 1, prefix + [v])

        if all(h >= l for l, h in zip(los, his)):
            rec(0, [])
        return coords


class H5File:
    """A parallel HDF5-like file (the MPI-IO driver is implied by ``comm``)."""

    def __init__(self, ctx, comm, path: str, mode: str):
        from ..mpi.io import MPIFile

        self.ctx = ctx
        self.comm = comm
        self.path = path
        self.mode = mode
        self.datasets: dict[str, H5Dataset] = {}
        self.groups: dict[str, H5Group] = {}
        self.attrs: dict = {}
        self._eof = _SUPERBLOCK
        flags = (
            OpenFlags.CREAT | OpenFlags.RDWR | OpenFlags.TRUNC
            if mode == "w" else OpenFlags.RDWR
        )
        self.mpifile = MPIFile.open(ctx, comm, ctx.env.vfs, path, flags)
        if mode == "r":
            self._load_header(ctx)

    # ------------------------------------------------------------------ create

    @classmethod
    def create(cls, ctx, comm, path: str, fapl: "PropertyList | None" = None) -> "H5File":
        """H5Fcreate.  ``fapl`` with ``set_fapl_mpio(comm)`` selects the
        parallel driver; its comm must match the open collective."""
        cls._check_fapl(fapl, comm)
        return cls(ctx, comm, path, "w")

    @classmethod
    def open(cls, ctx, comm, path: str, fapl: "PropertyList | None" = None) -> "H5File":
        cls._check_fapl(fapl, comm)
        return cls(ctx, comm, path, "r")

    @staticmethod
    def _check_fapl(fapl, comm) -> None:
        if fapl is not None and fapl.comm is not None and fapl.comm is not comm:
            raise BaselineError("fapl communicator does not match open")

    # ------------------------------------------------------------------ groups

    @property
    def root_group(self) -> "H5Group":
        return H5Group(self, "")

    def create_group(self, path: str) -> "H5Group":
        path = path.strip("/")
        if not path:
            raise BaselineError("cannot re-create the root group")
        # intermediate groups spring into existence, directory-style
        parts = path.split("/")
        for i in range(1, len(parts) + 1):
            sub = "/".join(parts[:i])
            if sub not in self.groups:
                self.groups[sub] = H5Group(self, sub)
        return self.groups[path]

    def group(self, path: str) -> "H5Group":
        path = path.strip("/")
        if not path:
            return self.root_group
        try:
            return self.groups[path]
        except KeyError:
            raise FormatError(f"no group {path!r}") from None

    def create_dataset(
        self,
        name: str,
        dtype,
        space: Dataspace,
        *,
        layout: str = CONTIGUOUS,
        chunk_dims=None,
        fill=None,
        filters=None,
    ) -> H5Dataset:
        """Collective.  ``fill`` writes the fill pattern over the whole
        extent (HDF5/NetCDF default behavior; pass None for NOFILL).
        ``filters`` is a list of filter specs (e.g. ["shuffle:8",
        "deflate"]) and — as in real HDF5 (§2.1) — requires the chunked
        layout."""
        if self.mode != "w":
            raise BaselineError("file opened read-only")
        if name in self.datasets:
            raise BaselineError(f"dataset {name!r} exists")
        if layout == CHUNKED and not chunk_dims:
            raise BaselineError("chunked layout requires chunk_dims")
        if filters and layout != CHUNKED:
            raise BaselineError("filters require the chunked layout")
        if layout == COMPACT and math.prod(space.dims) * np.dtype(dtype).itemsize > COMPACT_LIMIT:
            raise BaselineError("compact layout limited to 64 KiB")
        pipeline = FilterPipeline(filters) if filters else None
        if "/" in name:
            self.create_group(name.rsplit("/", 1)[0])
        ds = H5Dataset(self, name, dtype, Dataspace(space.dims), layout,
                       chunk_dims, filters=pipeline)
        if layout == CONTIGUOUS:
            ds.data_off = self._eof
            self._eof += ds.nbytes
        self.datasets[name] = ds
        if fill is not None and layout != COMPACT:
            self._fill_dataset(self.ctx, ds, fill)
        return ds

    def _fill_dataset(self, ctx, ds: H5Dataset, fill) -> None:
        """Collectively write the fill value over the dataset extent,
        rank-striped."""
        if ds.layout != CONTIGUOUS:
            return  # chunked datasets fill lazily at allocation
        per = -(-ds.nbytes // self.comm.size)
        lo = min(self.comm.rank * per, ds.nbytes)
        hi = min(lo + per, ds.nbytes)
        if hi > lo:
            pattern = np.full(
                (hi - lo) // ds.dtype.itemsize, fill, dtype=ds.dtype
            ).view(np.uint8)
            self.mpifile.write_at(
                ctx, ds.data_off + lo, pattern,
                model_bytes=ctx.model_bytes(hi - lo),
            )
        self.comm.barrier()

    def _allocate_chunks(self, ctx, ds: H5Dataset, coords: list[tuple]) -> None:
        """Collective lazy chunk allocation (B-tree insertion analog)."""
        need = sorted(set(coords) - set(ds.chunk_index))
        all_needs = self.comm.allgather(need)
        merged: list[tuple] = sorted({c for sub in all_needs for c in sub})
        for cc in merged:
            if cc in ds.chunk_index:
                continue
            _c_off, _c_dims, chunk_nbytes = ds._chunk_geom(cc)
            ds.chunk_index[cc] = (self._eof, chunk_nbytes)
            self._eof += chunk_nbytes

    def dataset(self, name: str) -> H5Dataset:
        try:
            return self.datasets[name]
        except KeyError:
            raise FormatError(f"no dataset {name!r}") from None

    # ------------------------------------------------------------------ header

    def _pack_header(self) -> bytes:
        parts = [struct.pack("<I", len(self.datasets))]
        for ds in self.datasets.values():
            name = ds.name.encode()
            dt = dtype_to_token(ds.dtype).encode()
            nd = len(ds.space.dims)
            layout_code = {CONTIGUOUS: 0, CHUNKED: 1, COMPACT: 2}[ds.layout]
            parts.append(struct.pack("<HBB", len(name), layout_code, nd))
            parts.append(name)
            parts.append(struct.pack("<H", len(dt)))
            parts.append(dt)
            parts.append(struct.pack(f"<{nd}Q", *ds.space.dims))
            parts.append(struct.pack("<Q", ds.data_off))
            flt = ",".join(ds.filters.names).encode() if ds.filters else b""
            parts.append(struct.pack("<H", len(flt)) + flt)
            if ds.layout == CHUNKED:
                parts.append(struct.pack(f"<{nd}Q", *ds.chunk_dims))
                parts.append(struct.pack("<I", len(ds.chunk_index)))
                for cc, (off, size) in sorted(ds.chunk_index.items()):
                    parts.append(struct.pack(f"<{nd}Q", *cc))
                    parts.append(struct.pack("<QQ", off, size))
            elif ds.layout == COMPACT:
                parts.append(struct.pack("<I", len(ds._compact)))
                parts.append(bytes(ds._compact))
            parts.append(_pack_attrs(ds.attrs))
        parts.append(struct.pack("<I", len(self.groups)))
        for path, grp in sorted(self.groups.items()):
            pb = path.encode()
            parts.append(struct.pack("<H", len(pb)) + pb)
            parts.append(_pack_attrs(grp.attrs))
        parts.append(_pack_attrs(self.attrs))
        return b"".join(parts)

    def _unpack_header(self, raw: bytes) -> None:
        (count,) = struct.unpack_from("<I", raw, 0)
        pos = 4
        for _ in range(count):
            nlen, layout_code, nd = struct.unpack_from("<HBB", raw, pos)
            pos += 4
            name = raw[pos : pos + nlen].decode(); pos += nlen
            (dlen,) = struct.unpack_from("<H", raw, pos); pos += 2
            dtype = dtype_from_token(raw[pos : pos + dlen].decode()); pos += dlen
            dims = struct.unpack_from(f"<{nd}Q", raw, pos); pos += 8 * nd
            (data_off,) = struct.unpack_from("<Q", raw, pos); pos += 8
            (flt_len,) = struct.unpack_from("<H", raw, pos); pos += 2
            flt_names = raw[pos : pos + flt_len].decode(); pos += flt_len
            pipeline = (
                FilterPipeline(flt_names.split(",")) if flt_names else None
            )
            layout = [CONTIGUOUS, CHUNKED, COMPACT][layout_code]
            chunk_dims = None
            chunk_index: dict[tuple, tuple[int, int]] = {}
            compact = None
            if layout == CHUNKED:
                chunk_dims = struct.unpack_from(f"<{nd}Q", raw, pos); pos += 8 * nd
                (ncc,) = struct.unpack_from("<I", raw, pos); pos += 4
                for _ in range(ncc):
                    cc = struct.unpack_from(f"<{nd}Q", raw, pos); pos += 8 * nd
                    off, size = struct.unpack_from("<QQ", raw, pos); pos += 16
                    chunk_index[cc] = (off, size)
            elif layout == COMPACT:
                (clen,) = struct.unpack_from("<I", raw, pos); pos += 4
                compact = raw[pos : pos + clen]; pos += clen
            ds = H5Dataset(
                self, name, dtype, Dataspace(dims), layout, chunk_dims,
                data_off, chunk_index, compact, filters=pipeline,
            )
            ds.attrs, pos = _unpack_attrs(raw, pos)
            self.datasets[name] = ds
        (ngroups,) = struct.unpack_from("<I", raw, pos); pos += 4
        for _ in range(ngroups):
            (plen,) = struct.unpack_from("<H", raw, pos); pos += 2
            path = raw[pos : pos + plen].decode(); pos += plen
            grp = H5Group(self, path)
            grp.attrs, pos = _unpack_attrs(raw, pos)
            self.groups[path] = grp
        self.attrs, pos = _unpack_attrs(raw, pos)

    def _load_header(self, ctx) -> None:
        if self.comm.rank == 0:
            sb = self.mpifile.read_at(ctx, 0, _SUPERBLOCK).tobytes()
            if sb[:8] != SIGNATURE:
                raise FormatError(f"{self.path}: not an HDF5-sim file")
            _version, header_off, header_len = struct.unpack_from("<IQQ", sb, 8)
            raw = self.mpifile.read_at(ctx, header_off, header_len).tobytes()
            # parsing the object headers is a CPU pass
            charge_cpu(ctx, float(len(raw)), 0.5, note="h5-header-parse")
            payload = raw
        else:
            payload = None
        payload = self.comm.bcast(payload, root=0)
        self._unpack_header(payload)
        # restore EOF for append-after-open scenarios
        self._eof = max(
            [_SUPERBLOCK]
            + [ds.data_off + ds.nbytes for ds in self.datasets.values()
               if ds.layout == CONTIGUOUS]
            + [off + size for ds in self.datasets.values()
               for off, size in ds.chunk_index.values()],
        )

    def close(self) -> None:
        ctx = self.ctx
        if self.mode == "w":
            # compact datasets live in the header; every rank's copy must
            # agree — gather rank 0's view (collective semantics simplified)
            header = self._pack_header() if self.comm.rank == 0 else None
            self.comm.barrier()
            if self.comm.rank == 0:
                self.mpifile.write_at(
                    ctx, self._eof, np.frombuffer(header, np.uint8)
                )
                sb = SIGNATURE + struct.pack(
                    "<IQQ", 1, self._eof, len(header)
                )
                sb += bytes(_SUPERBLOCK - len(sb))
                self.mpifile.write_at(ctx, 0, np.frombuffer(sb, np.uint8))
            self.mpifile.sync(ctx)
        self.mpifile.close(ctx)


@register_driver
class H5Driver(PIODriver):
    """Drive HDF5 directly (contiguous datasets, collective transfers)."""

    name = "hdf5"

    def __init__(self, *, fill=None):
        self.file: H5File | None = None
        self.fill = fill

    def open(self, ctx, comm, path: str, mode: str) -> None:
        with self.op_span(ctx, "open", mode=mode):
            self.file = H5File(ctx, comm, path, mode)

    def def_var(self, ctx, name: str, global_dims, dtype) -> None:
        with self.op_span(ctx, "define", var=name):
            self.file.create_dataset(
                name, dtype, Dataspace(global_dims), fill=self.fill
            )

    def write(self, ctx, name: str, array: np.ndarray, offsets) -> None:
        with self.write_op(ctx, name, array):
            ds = self.file.dataset(name)
            fs = Dataspace(ds.space.dims).select_hyperslab(
                offsets, array.shape)
            ds.write(ctx, array, fs)

    def read(self, ctx, name: str, offsets, dims) -> np.ndarray:
        with self.read_op(ctx, name) as op:
            ds = self.file.dataset(name)
            fs = Dataspace(ds.space.dims).select_hyperslab(offsets, dims)
            out = ds.read(ctx, fs)
            op.done(out)
            return out

    def read_selection(self, ctx, name: str, selection) -> np.ndarray:
        # native dataspace selections: contiguous datasets fetch only the
        # selection's row segments, chunked ones each intersecting chunk
        with self.read_op(ctx, name) as op:
            ds = self.file.dataset(name)
            out = ds.read_selection(ctx, selection)
            op.done(out)
            return out

    def write_selection(self, ctx, name: str, data, selection) -> None:
        data = np.asarray(data)
        with self.write_op(ctx, name, data):
            ds = self.file.dataset(name)
            fs = Dataspace(ds.space.dims)
            fs.sel = selection
            ds.write(ctx, data, fs)

    def close(self, ctx) -> None:
        with self.op_span(ctx, "close"):
            self.file.close()
            self.file = None
