"""The paper's §4.1 workload: a write-only 3-D domain decomposition and its
symmetric read-back.

"In the write-only case, we generate 10 3-D rectangles.  For each test, a
total of 40 GB of data is generated and the 40 GB is divided equally among
the processes.  Each element ... is a double precision floating point value."

At model scale each variable is an 800³ cube of doubles (4.096 GB × 10 ≈
41 GB ≈ the paper's 40 GB).  The functional pass shrinks each axis by
``axis_scale`` (default 10 → an 80³ cube, 4 MiB/var) and the charging layer
scales byte counts back up by ``axis_scale**3``.

Data is a deterministic function of the *global* element index, so any rank
can verify any block it reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .decomp import block_decompose

#: keep doubles exactly representable: indices stay below 2**52 easily
_VALUE_MOD = 1 << 26


@dataclass(frozen=True)
class Domain3D:
    nvars: int = 10
    model_dims: tuple[int, int, int] = (800, 800, 800)
    axis_scale: int = 10
    dtype: np.dtype = field(default=np.dtype(np.float64))

    def __post_init__(self):
        for d in self.model_dims:
            if d % self.axis_scale:
                raise ValueError(
                    f"axis_scale {self.axis_scale} must divide model dims "
                    f"{self.model_dims}"
                )

    # ------------------------------------------------------------------ sizes

    @property
    def functional_dims(self) -> tuple[int, int, int]:
        return tuple(d // self.axis_scale for d in self.model_dims)

    @property
    def scale(self) -> int:
        """Byte scale factor between the functional and model passes."""
        return self.axis_scale ** 3

    @property
    def model_total_bytes(self) -> int:
        return self.nvars * math.prod(self.model_dims) * self.dtype.itemsize

    @property
    def functional_total_bytes(self) -> int:
        return self.nvars * math.prod(self.functional_dims) * self.dtype.itemsize

    def var_name(self, i: int) -> str:
        return f"rect{i:02d}"

    # ------------------------------------------------------------------ decomposition

    def block_for(self, nprocs: int, rank: int) -> tuple[tuple, tuple]:
        """(offsets, dims) of this rank's block at functional scale."""
        return block_decompose(self.functional_dims, nprocs, rank)

    # ------------------------------------------------------------------ data

    def generate(self, var: int, offsets, dims) -> np.ndarray:
        """This block's data: f(var, global index), vectorized."""
        gx, gy, gz = self.functional_dims
        i = np.arange(offsets[0], offsets[0] + dims[0]).reshape(-1, 1, 1)
        j = np.arange(offsets[1], offsets[1] + dims[1]).reshape(1, -1, 1)
        k = np.arange(offsets[2], offsets[2] + dims[2]).reshape(1, 1, -1)
        lin = (i * gy + j) * gz + k
        return ((lin + var * 7919) % _VALUE_MOD).astype(self.dtype)

    def verify(self, var: int, offsets, block: np.ndarray) -> bool:
        expected = self.generate(var, offsets, block.shape)
        return bool(np.array_equal(block, expected))
