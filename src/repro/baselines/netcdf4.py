"""NetCDF-4-like library over the HDF5 substrate.

Mirrors the classic API flow: ``nc_create → def_dim → def_var →
[set_fill] → put_vara / get_vara → close``.  A NetCDF variable is an HDF5
contiguous dataset; parallel transfers go through the two-phase collective
MPI-IO path, which is where the rearrangement cost of the global
linearization lands (paper §4.1).

On top of the HDF5 write, ``put_vara`` performs NetCDF's *external format
conversion/pack* pass into a DRAM staging buffer — the extra copy the
library stack adds before MPI-IO ever sees the data.

Fill values: NetCDF fills variables with a default pattern at definition
unless ``set_fill(NC_NOFILL)`` — the paper explicitly disables this, and
the E-fill ablation measures why.
"""

from __future__ import annotations

import numpy as np

from ..errors import BaselineError
from ..mem.memcpy import charge_cpu, charge_dram_copy
from .base import PIODriver, register_driver
from .hdf5 import Dataspace, H5File

NC_FILL = "fill"
NC_NOFILL = "nofill"

#: NetCDF's default fill for doubles
NC_FILL_DOUBLE = 9.969209968386869e36

#: throughput of the external-format conversion pass (bytes/ns/core)
CONVERT_BW = 2.2


class NetCDFFile:
    def __init__(self, ctx, comm, path: str, mode: str, *, fill_mode: str = NC_FILL):
        self.ctx = ctx
        self.comm = comm
        self.fill_mode = fill_mode
        self.h5 = H5File(ctx, comm, path, mode)
        self.dims: dict[str, int] = {}
        self._var_dims: dict[str, tuple[str, ...]] = {}
        if mode == "r":
            # dimensions are implied by dataset shapes on read
            for name, ds in self.h5.datasets.items():
                self._var_dims[name] = tuple(
                    f"{name}_d{i}" for i in range(len(ds.space.dims))
                )

    # ------------------------------------------------------------------ define mode

    def def_dim(self, name: str, size: int) -> str:
        if name in self.dims and self.dims[name] != size:
            raise BaselineError(f"dimension {name!r} redefined")
        self.dims[name] = int(size)
        return name

    def set_fill(self, mode: str) -> None:
        """nc_set_fill / nc_def_var_fill(NC_NOFILL)."""
        if mode not in (NC_FILL, NC_NOFILL):
            raise BaselineError(f"bad fill mode {mode!r}")
        self.fill_mode = mode

    def def_var(self, name: str, dtype, dim_names) -> str:
        shape = tuple(self.dims[d] for d in dim_names)
        fill = None
        if self.fill_mode == NC_FILL:
            fill = NC_FILL_DOUBLE if np.dtype(dtype).kind == "f" else 0
        self.h5.create_dataset(name, dtype, Dataspace(shape), fill=fill)
        self._var_dims[name] = tuple(dim_names)
        return name

    # ------------------------------------------------------------------ data mode

    def put_vara(self, ctx, name: str, start, count, data) -> None:
        ds = self.h5.dataset(name)
        data = np.ascontiguousarray(data, dtype=ds.dtype)
        # external format conversion/pack into a staging buffer
        charge_cpu(ctx, ctx.model_bytes(data.nbytes), CONVERT_BW, note="nc-pack")
        charge_dram_copy(ctx, ctx.model_bytes(data.nbytes), note="stage-copy")
        fs = Dataspace(ds.space.dims).select_hyperslab(start, count)
        ds.write(ctx, data, fs)

    def get_vara(self, ctx, name: str, start, count) -> np.ndarray:
        ds = self.h5.dataset(name)
        fs = Dataspace(ds.space.dims).select_hyperslab(start, count)
        out = ds.read(ctx, fs)
        # conversion from external format into the user buffer (the DRAM
        # traffic of this pass is covered by the collective-buffer charges)
        charge_cpu(ctx, ctx.model_bytes(out.nbytes), CONVERT_BW, note="nc-unpack")
        return out

    def get_selection(self, ctx, name: str, selection) -> np.ndarray:
        """nc_get_vars-style strided/point read: the underlying HDF5
        dataspace selection fetches only the selected row segments, then
        the usual external-format conversion pass runs over the result."""
        ds = self.h5.dataset(name)
        out = ds.read_selection(ctx, selection)
        charge_cpu(ctx, ctx.model_bytes(out.nbytes), CONVERT_BW, note="nc-unpack")
        return out

    def get_vars(self, ctx, name: str, start, count, stride) -> np.ndarray:
        """nc_get_vars: start/count/stride subsampled read."""
        ds = self.h5.dataset(name)
        fs = Dataspace(ds.space.dims).select_hyperslab(start, count, stride)
        out = ds.read(ctx, fs)
        charge_cpu(ctx, ctx.model_bytes(out.nbytes), CONVERT_BW, note="nc-unpack")
        return out

    # ------------------------------------------------------------------ attributes

    def put_att(self, var: str | None, key: str, value) -> None:
        """nc_put_att: attach metadata to a variable, or globally
        (``var=None``)."""
        target = self.h5.attrs if var is None else self.h5.dataset(var).attrs
        target[key] = value

    def get_att(self, var: str | None, key: str):
        """nc_get_att; raises BaselineError when absent."""
        target = self.h5.attrs if var is None else self.h5.dataset(var).attrs
        try:
            return target[key]
        except KeyError:
            raise BaselineError(
                f"no attribute {key!r} on {var or 'file'}"
            ) from None

    def att_names(self, var: str | None = None) -> list[str]:
        target = self.h5.attrs if var is None else self.h5.dataset(var).attrs
        return sorted(target)

    def close(self) -> None:
        self.h5.close()


@register_driver
class NetCDF4Driver(PIODriver):
    name = "netcdf4"

    def __init__(self, *, fill_mode: str = NC_NOFILL):
        # the paper's runs use NC_NOFILL (§4.1); NC_FILL is the ablation
        self.fill_mode = fill_mode
        self.nc: NetCDFFile | None = None

    def open(self, ctx, comm, path: str, mode: str) -> None:
        with self.op_span(ctx, "open", mode=mode):
            self.nc = NetCDFFile(ctx, comm, path, mode,
                                 fill_mode=self.fill_mode)

    def def_var(self, ctx, name: str, global_dims, dtype) -> None:
        with self.op_span(ctx, "define", var=name):
            dim_names = [
                self.nc.def_dim(f"{name}_d{i}", d)
                for i, d in enumerate(global_dims)
            ]
            self.nc.def_var(name, dtype, dim_names)

    def write(self, ctx, name: str, array: np.ndarray, offsets) -> None:
        with self.write_op(ctx, name, array):
            self.nc.put_vara(ctx, name, offsets, array.shape, array)

    def read(self, ctx, name: str, offsets, dims) -> np.ndarray:
        with self.read_op(ctx, name) as op:
            out = self.nc.get_vara(ctx, name, offsets, dims)
            op.done(out)
            return out

    def read_selection(self, ctx, name: str, selection) -> np.ndarray:
        with self.read_op(ctx, name) as op:
            out = self.nc.get_selection(ctx, name, selection)
            op.done(out)
            return out

    def close(self, ctx) -> None:
        with self.op_span(ctx, "close"):
            self.nc.close()
            self.nc = None
