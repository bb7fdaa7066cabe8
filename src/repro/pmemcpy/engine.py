"""The Layout engine contract: one interface for every storage backend.

The :class:`PMEM` API is written against this abstract interface only — it
never inspects which concrete layout it is driving.  A layout answers four
questions:

1. *Metadata*: where does a variable's :class:`VariableMeta` record live,
   and what locks serialize access to it?  Concurrency is *per-variable*:
   ``meta_read(ctx, var_id)`` / ``meta_write(ctx, var_id)`` guard one
   variable's record (shared vs. exclusive), so ranks touching independent
   variables never contend; ``meta_namespace(ctx)`` is the whole-namespace
   exclusive guard that listing and teardown take.  Record access itself
   goes through ``get_meta`` / ``put_meta`` / ``drop_meta`` /
   ``list_variables``, which the caller must invoke under the matching
   guard — the lock-discipline checker (:mod:`repro.sim.lockcheck`)
   verifies exactly that.
2. *Extents*: where does one chunk's serialized payload live?
   ``alloc_extent`` reserves space and returns an :class:`Extent` whose
   ``token`` is persisted in the chunk record; ``extent_sink`` /
   ``extent_source`` stream bytes directly in and out of PMEM (the paper's
   zero-staging path); ``free_extent`` releases a chunk by its record.
   Sources are **segment-granular**: beyond the sequential ``read`` cursor
   they serve ``read_at(offset, nbytes)`` ranged reads and their batch
   form ``read_rows``, so a selection load can fetch only the intersecting
   row segments of a record straight off the mapped device — bytes outside
   the selection are never moved or charged.
3. *Lifecycle*: ``setup`` / ``teardown`` (collective map/unmap).
4. *Introspection*: ``occupancy`` reports backend capacity usage for
   ``PMEM.stats()``.

Adding a backend (sharded pools, tiered stores, remote targets) means
implementing this class — the API, telemetry, and test matrix come for
free.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Callable

from ..serial.base import Sink, Source
from ..telemetry import span
from .dataset import Chunk, VariableMeta


@dataclass
class Extent:
    """One chunk's reserved storage.

    ``token`` is the layout-defined durable handle recorded in
    ``Chunk.blob_off`` (a pool offset for the hashtable layout, a chunk-file
    index for the hierarchical layout).  ``region`` is the layout's access
    object for the reservation (a pool or a DAX mapping) — sinks and raw
    writes go through it.  ``close`` releases any per-extent volatile
    resource (e.g. unmapping a chunk file); it must be called exactly once
    after the payload is persisted.
    """

    token: int
    size: int
    region: Any
    _closer: Callable | None = field(default=None, repr=False)

    def close(self, ctx) -> None:
        if self._closer is not None:
            closer, self._closer = self._closer, None
            closer(ctx)


class MetaGuard:
    """Uniform wrapper a layout's ``meta_*`` methods hand back.

    Wraps the backend lock guard, surfacing ``contended`` after entry and
    the ``stripe`` lane the variable hashed onto (None when the layout has
    no striping or the guard covers the whole namespace).
    """

    def __init__(self, inner, *, stripe: int | None = None):
        self._inner = inner
        self.stripe = stripe
        self.contended = False

    def __enter__(self) -> "MetaGuard":
        entered = self._inner.__enter__()
        self.contended = bool(getattr(entered, "contended", False))
        return self

    def __exit__(self, *exc):
        return self._inner.__exit__(*exc)


class Layout(ABC):
    """Abstract storage engine behind the pMEMCPY store/load path."""

    name: str = "abstract"

    # ------------------------------------------------------------------ lifecycle

    @abstractmethod
    def setup(self, ctx, comm, path: str, *, pool_size: int) -> None:
        """Collective: map/create the store at ``path`` on every rank."""

    @abstractmethod
    def teardown(self, ctx, comm) -> None:
        """Collective unmap."""

    # ------------------------------------------------------------------ metadata

    @abstractmethod
    def meta_read(self, ctx, var_id: str):
        """Context manager guarding *reads* of ``var_id``'s metadata.

        ``__enter__`` returns a guard exposing ``contended`` (bool: did the
        acquisition have to wait?) and ``stripe`` (int lane index, or None
        for layouts without striping).  Layouts configured for
        reader-writer metadata take this in shared mode; otherwise it is
        exclusive.
        """

    @abstractmethod
    def meta_write(self, ctx, var_id: str):
        """Context manager guarding read-modify-write of ``var_id``'s
        metadata — always exclusive.  Every ``put_meta``/``drop_meta`` for
        ``var_id`` must happen inside it (checker-enforced)."""

    @abstractmethod
    def meta_namespace(self, ctx):
        """Context manager holding the *whole namespace* exclusively —
        what ``list_variables`` sweeps and teardown must run under.  For
        striped layouts this acquires every stripe in ascending order (the
        canonical lock order)."""

    @abstractmethod
    def get_meta(self, ctx, var_id: str) -> VariableMeta | None: ...

    @abstractmethod
    def put_meta(self, ctx, meta: VariableMeta) -> None: ...

    @abstractmethod
    def drop_meta(self, ctx, var_id: str) -> None:
        """Remove the variable's metadata record (payloads are freed
        separately via :meth:`free_extent`)."""

    @abstractmethod
    def list_variables(self, ctx) -> list[str]: ...

    def delete_variable(self, ctx, meta: VariableMeta) -> None:
        """Free every chunk extent, then drop the metadata record."""
        for chunk in meta.chunks:
            with span(ctx, "extent.free", bytes=chunk.blob_len):
                self.free_extent(ctx, meta.name, chunk)
        self.drop_meta(ctx, meta.name)

    # ------------------------------------------------------------------ extents

    @abstractmethod
    def alloc_extent(self, ctx, name: str, index: int, size: int) -> Extent:
        """Reserve ``size`` bytes for chunk ``index`` of variable ``name``."""

    @abstractmethod
    def extent_sink(self, ctx, extent: Extent) -> Sink:
        """A streaming pack destination writing directly into ``extent``."""

    @abstractmethod
    def extent_source(self, ctx, name: str, chunk: Chunk) -> Source:
        """A streaming unpack origin over a stored chunk's payload.

        The returned source must honour the segment-granular contract:
        ``read_at(offset, nbytes)`` serves an absolute-offset ranged read
        within the record without staging the rest of it, ``read_rows`` a
        table of them in one call (see module docstring, point 2)."""

    @abstractmethod
    def free_extent(self, ctx, name: str, chunk: Chunk) -> None:
        """Release the storage behind ``chunk`` (keyed by its record, never
        by list position).  Must tolerate an extent whose backing store was
        never materialized, so a partial failure cannot wedge ``delete``."""

    # ------------------------------------------------------------------ introspection

    @abstractmethod
    def occupancy(self, ctx) -> dict:
        """Backend capacity usage, keyed by backend kind (``{"heap": ...}``
        for pool layouts, ``{"fs": ...}`` for file-per-variable layouts) —
        merged verbatim into ``PMEM.stats()``."""
