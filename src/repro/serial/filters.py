"""Data filters — the compression/transform operators of §2.1 ("HDF5 also
allows for the definition of filters, which are operations to perform on
individual chunks, such as compression"; "ADIOS also supports transparent
and custom operators").

A :class:`Filter` really transforms bytes (so round-trips are honest) and
charges CPU at a per-filter throughput; downstream layers then move fewer
bytes when data compresses.  Filters compose into pipelines
(``shuffle | deflate`` is the classic HDF5 recipe for doubles).

Note the architectural trade pMEMCPY faces: its fast path serializes
*streaming* into PMEM, but a compressor needs the whole buffer — so a
filtered store pays one DRAM staging pass in exchange for writing fewer
PMEM bytes.  `python -m repro.harness compression` measures when that wins.
"""

from __future__ import annotations

import struct
import zlib
from abc import ABC, abstractmethod

import numpy as np

from ..errors import SerializationError
from ..mem.memcpy import charge_cpu


class Filter(ABC):
    """One reversible byte transform."""

    name: str = "abstract"
    #: CPU throughput of encode/decode, bytes/ns/core (input-side)
    encode_bw: float = 1.0
    decode_bw: float = 2.0

    @abstractmethod
    def encode(self, data: bytes) -> bytes: ...

    @abstractmethod
    def decode(self, data: bytes) -> bytes: ...

    def encode_charged(self, ctx, data: bytes, *, model_bytes: float | None = None) -> bytes:
        out = self.encode(data)
        charge_cpu(
            ctx,
            ctx.model_bytes(len(data)) if model_bytes is None else model_bytes,
            self.encode_bw,
            note=f"{self.name}-encode",
        )
        return out

    def decode_charged(self, ctx, data: bytes, *, model_bytes: float | None = None) -> bytes:
        out = self.decode(data)
        charge_cpu(
            ctx,
            ctx.model_bytes(len(out)) if model_bytes is None else model_bytes,
            self.decode_bw,
            note=f"{self.name}-decode",
        )
        return out


class DeflateFilter(Filter):
    """zlib deflate — HDF5's H5Z_FILTER_DEFLATE."""

    name = "deflate"
    encode_bw = 0.25   # ~250 MB/s/core, level-dependent
    decode_bw = 1.0

    def __init__(self, level: int = 1):
        if not 0 <= level <= 9:
            raise SerializationError(f"bad deflate level {level}")
        self.level = level

    def encode(self, data: bytes) -> bytes:
        return zlib.compress(bytes(data), self.level)

    def decode(self, data: bytes) -> bytes:
        try:
            return zlib.decompress(bytes(data))
        except zlib.error as e:
            raise SerializationError(f"deflate stream corrupt: {e}") from e


class ShuffleFilter(Filter):
    """Byte shuffle (H5Z_FILTER_SHUFFLE): transpose the bytes of fixed-size
    elements so same-significance bytes become adjacent — near-free, and it
    typically doubles deflate's ratio on floating-point data."""

    name = "shuffle"
    encode_bw = 3.0
    decode_bw = 3.0

    def __init__(self, itemsize: int = 8):
        if itemsize < 1:
            raise SerializationError("itemsize must be >= 1")
        self.itemsize = itemsize

    def encode(self, data: bytes) -> bytes:
        data = bytes(data)
        n, rem = divmod(len(data), self.itemsize)
        body, tail = data[: n * self.itemsize], data[n * self.itemsize :]
        arr = np.frombuffer(body, np.uint8).reshape(n, self.itemsize)
        return arr.T.tobytes() + tail

    def decode(self, data: bytes) -> bytes:
        data = bytes(data)
        n, rem = divmod(len(data), self.itemsize)
        body, tail = data[: n * self.itemsize], data[n * self.itemsize :]
        arr = np.frombuffer(body, np.uint8).reshape(self.itemsize, n)
        return arr.T.tobytes() + tail


class RLEFilter(Filter):
    """Byte-level run-length encoding: (count u8, value u8) pairs.  Cheap,
    and very effective on fill patterns / sparse checkpoints."""

    name = "rle"
    encode_bw = 1.2
    decode_bw = 2.5

    def encode(self, data: bytes) -> bytes:
        arr = np.frombuffer(bytes(data), np.uint8)
        if arr.size == 0:
            return b""
        # boundaries of runs
        change = np.nonzero(np.diff(arr))[0] + 1
        starts = np.concatenate(([0], change))
        ends = np.concatenate((change, [arr.size]))
        out = bytearray()
        for s, e in zip(starts, ends):
            length = int(e - s)
            v = int(arr[s])
            while length > 255:
                out += bytes((255, v))
                length -= 255
            out += bytes((length, v))
        return bytes(out)

    def decode(self, data: bytes) -> bytes:
        data = bytes(data)
        if len(data) % 2:
            raise SerializationError("RLE stream has odd length")
        pairs = np.frombuffer(data, np.uint8).reshape(-1, 2)
        return np.repeat(pairs[:, 1], pairs[:, 0]).tobytes()


_FILTERS = {
    "deflate": DeflateFilter,
    "shuffle": ShuffleFilter,
    "rle": RLEFilter,
}


def make_filter(spec: "str | Filter") -> Filter:
    """``"deflate"``, ``"deflate:6"``, ``"shuffle:8"``, or an instance."""
    if isinstance(spec, Filter):
        return spec
    name, _, arg = spec.partition(":")
    try:
        cls = _FILTERS[name]
    except KeyError:
        raise SerializationError(
            f"unknown filter {name!r}; available: {sorted(_FILTERS)}"
        ) from None
    return cls(int(arg)) if arg else cls()


class FilterPipeline:
    """An ordered filter chain with a self-describing framing header::

        magic u32 | nfilters u8 | names... | raw_len u64 | encoded bytes
    """

    MAGIC = 0x46494C54  # "FILT"

    def __init__(self, specs):
        self.filters = [make_filter(s) for s in specs]

    @property
    def names(self) -> list[str]:
        return [f.name for f in self.filters]

    def encode(self, ctx, data: bytes, *, model_bytes: float | None = None) -> bytes:
        raw_len = len(data)
        mb = ctx.model_bytes(raw_len) if model_bytes is None else model_bytes
        for f in self.filters:
            data = f.encode_charged(ctx, data, model_bytes=mb)
        names = ",".join(self.names).encode()
        hdr = struct.pack("<IB", self.MAGIC, len(names)) + names
        return hdr + struct.pack("<Q", raw_len) + data

    def decode(self, ctx, blob: bytes, *, model_bytes: float | None = None) -> bytes:
        magic, nlen = struct.unpack_from("<IB", blob, 0)
        if magic != self.MAGIC:
            raise SerializationError("not a filtered blob")
        pos = 5 + nlen
        names = blob[5:pos].decode().split(",") if nlen else []
        if names != self.names:
            raise SerializationError(
                f"filter pipeline mismatch: blob has {names}, "
                f"reader has {self.names}"
            )
        (raw_len,) = struct.unpack_from("<Q", blob, pos)
        data = bytes(blob[pos + 8 :])
        mb = ctx.model_bytes(raw_len) if model_bytes is None else model_bytes
        for f in reversed(self.filters):
            data = f.decode_charged(ctx, data, model_bytes=mb)
        if len(data) != raw_len:
            raise SerializationError(
                f"filtered blob decoded to {len(data)} bytes, header says {raw_len}"
            )
        return data
