"""Pool sharding: consistent hashing over per-shard PMEM clusters.

A :class:`ShardRing` places every shard at :data:`VNODES` virtual points
on a 64-bit hash ring (FNV-1a — the same stable hash
:mod:`repro.pmdk.locks` stripes metadata locks with — finished with a
splitmix64 avalanche, see :func:`ring_hash`) and routes each
variable name to the first shard clockwise of its hash.  Consistent
hashing (vs. ``hash % n``) means growing the fleet from *n* to *n+1*
shards remaps only ~1/(n+1) of the namespace — the groundwork for the
batched object-creation scaling work (Li et al., arXiv 2506.15114) where
namespaces are rebalanced online.

A :class:`ShardExecutor` owns one shard's backing state: its own
:class:`~repro.cluster.Cluster` (so shards are *device-level* isolation —
independent PMEM devices, filesystems, and metadata namespaces) plus a
:class:`~repro.pmemcpy.api.PMEM` handle.  Work arrives as **batches** of
decoded requests; the whole batch executes inside one single-rank SPMD
run (one mmap/munmap round trip), which is where the service amortizes
the engine's fixed costs — the amortization a burst buffer's batched
drain gets, applied to RPC:

- *batching*: k queued requests share one engine run;
- *coalescing*: when several whole-variable stores to the same variable
  are queued in one batch, only the last payload hits PMEM — the earlier
  ones are acknowledged as superseded (counted in
  ``service.store.coalesced``).

Batch execution is exception-isolated per request: a failed op (e.g.
``load`` of a missing key) yields its typed exception in the result slot
without poisoning the batch, the pool, or the engine run.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field

from ..cluster import Cluster
from ..errors import ReproError, ShardUnavailableError
from ..pmdk.locks import fnv1a64
from ..pmemcpy import PMEM
from ..telemetry import MetricRegistry, merged_metrics, span
from ..units import MiB
from .wire import OP_DELETE, OP_LOAD, OP_STORE, Request

#: virtual nodes per shard: enough that the namespace split is within a few
#: percent of uniform at any realistic shard count
VNODES = 64

#: every shard's private PMEM device and the pMEMCPY handle over it
SHARD_CAPACITY = 64 * MiB
SHARD_LAYOUT = "hashtable"
SHARD_SERIALIZER = "bp4"
SHARD_MAP_SYNC = True

_M64 = (1 << 64) - 1


def ring_hash(data: bytes) -> int:
    """FNV-1a with a splitmix64 finalizer.

    Raw FNV-1a is fine for lock striping (the pmdk use), but on short
    names sharing a prefix it barely moves the *high* bits — ``var/0``
    … ``var/400`` all land in one narrow arc of a 64-bit ring, and one
    shard would own the whole namespace.  The finalizer avalanches every
    input bit across the word, which is what ring placement needs."""
    h = fnv1a64(data)
    h ^= h >> 30
    h = (h * 0xBF58476D1CE4E5B9) & _M64
    h ^= h >> 27
    h = (h * 0x94D049BB133111EB) & _M64
    h ^= h >> 31
    return h


class ShardRing:
    """Consistent-hash ring mapping variable names to shard indices."""

    def __init__(self, nshards: int, vnodes: int = VNODES):
        if nshards < 1:
            raise ValueError("nshards must be >= 1")
        self.nshards = nshards
        self.vnodes = vnodes
        points: list[tuple[int, int]] = []
        for shard in range(nshards):
            for v in range(vnodes):
                points.append(
                    (ring_hash(f"shard{shard}#v{v}".encode()), shard))
        points.sort()
        self._hashes = [h for h, _ in points]
        self._shards = [s for _, s in points]

    def shard_of(self, name: str) -> int:
        """The shard owning ``name`` (first ring point clockwise)."""
        h = ring_hash(name.encode("utf-8"))
        i = bisect_left(self._hashes, h)
        if i == len(self._hashes):
            i = 0
        return self._shards[i]

    def spread(self, names) -> dict[int, int]:
        """``{shard: count}`` for a name population (diagnostics)."""
        out: dict[int, int] = {}
        for n in names:
            s = self.shard_of(n)
            out[s] = out.get(s, 0) + 1
        return out


@dataclass
class BatchResult:
    """One executed batch: per-request outcomes plus engine accounting."""

    #: per request, the return value or the exception instance (order
    #: matches the submitted batch)
    outcomes: list = field(default_factory=list)
    #: modeled makespan of the engine run that served the batch
    engine_ns: float = 0.0
    #: requests whose payload never hit PMEM because a later whole-variable
    #: store in the same batch superseded them
    coalesced: int = 0
    #: the engine run's rank traces; their spans are expanded only when
    #: read (the core reads them only when it collects engine spans)
    traces: list = field(default_factory=list)


class ShardExecutor:
    """One shard: an isolated cluster + PMEM handle executing batches."""

    def __init__(self, shard: int):
        self.shard = shard
        self.cluster = Cluster(pmem_capacity=SHARD_CAPACITY)
        self.pmem = PMEM(layout=SHARD_LAYOUT, serializer=SHARD_SERIALIZER,
                         map_sync=SHARD_MAP_SYNC)
        self.path = f"/pmem/svc_shard{shard}"
        self.available = True
        #: engine telemetry accumulated across every batch this shard ran
        self.metrics = MetricRegistry()
        self.batches = 0
        self.requests = 0

    # ------------------------------------------------------------------ admin

    def mark_down(self) -> None:
        """Take the shard out of rotation (drain/failure simulation)."""
        self.available = False

    def mark_up(self) -> None:
        self.available = True

    # ------------------------------------------------------------------ batch

    @staticmethod
    def coalesce(batch: list[Request]) -> tuple[list[Request], dict[int, int]]:
        """Drop whole-variable stores superseded within the same batch.

        Returns the trimmed batch plus ``{dropped_index: winner_index}``
        (indices into the *original* batch) so dropped requests can be
        acknowledged with their superseder's outcome."""
        last_whole: dict[str, int] = {}
        for i, req in enumerate(batch):
            if req.op == OP_STORE and req.offsets is None \
                    and req.selection is None:
                last_whole[req.name] = i
        superseded: dict[int, int] = {}
        for i, req in enumerate(batch):
            if (req.op == OP_STORE and req.offsets is None
                    and req.selection is None and last_whole[req.name] != i):
                superseded[i] = last_whole[req.name]
        kept = [r for i, r in enumerate(batch) if i not in superseded]
        return kept, superseded

    def apply(self, batch: list[Request]) -> BatchResult:
        """Execute ``batch`` in one single-rank engine run.

        Never raises for per-request failures — each outcome slot holds the
        value or the typed exception.  Raises only for shard-level faults
        (shard marked down, engine unable to run)."""
        if not self.available:
            raise ShardUnavailableError(self.shard)
        kept, superseded = self.coalesce(batch)
        outcomes: list = [None] * len(batch)
        kept_indices = [i for i in range(len(batch)) if i not in superseded]

        def job(ctx):
            from ..mpi import Communicator

            comm = Communicator.world(ctx)
            self.pmem.mmap(self.path, comm)
            try:
                for slot, req in zip(kept_indices, kept):
                    # marker span: everything nested under it (store.*,
                    # pmdk.*, ...) belongs to exactly this request, which
                    # is what lets the core re-attribute batch spans to
                    # their owning trace id instead of bulk-rebasing
                    try:
                        with span(ctx, "service.shard.request",
                                  trace=req.trace_id, seq=req.seq,
                                  op=req.op_name, var=req.name):
                            outcomes[slot] = self._apply_one(req)
                    except ReproError as exc:
                        outcomes[slot] = exc
            finally:
                self.pmem.munmap()

        res = self.cluster.run(1, job)
        # superseded stores succeed with their winner's outcome: the later
        # payload is, by definition, the surviving state of the variable
        for i, winner in superseded.items():
            out = outcomes[winner]
            outcomes[i] = out if isinstance(out, ReproError) else None
        self.metrics.merge(merged_metrics(res.traces))
        self.batches += 1
        self.requests += len(batch)
        return BatchResult(
            outcomes=outcomes,
            engine_ns=res.time().makespan_ns,
            coalesced=len(superseded),
            traces=res.traces,
        )

    def _apply_one(self, req: Request):
        pmem = self.pmem
        if req.op == OP_STORE:
            arr = req.array
            if req.offsets is not None:
                # subarray stores require the variable to exist; the service
                # auto-declares it from the write extent when unknown, so
                # clients need no separate alloc round trip
                try:
                    gdims = pmem.load_dims(req.name)
                except ReproError:
                    gdims = tuple(o + d for o, d in
                                  zip(req.offsets, arr.shape))
                    pmem.alloc(req.name, gdims, arr.dtype)
                pmem.store(req.name, arr, offsets=req.offsets)
            else:
                pmem.store(req.name, arr)
            return None
        if req.op == OP_LOAD:
            return pmem.load(req.name, selection=req.selection)
        if req.op == OP_DELETE:
            pmem.delete(req.name)
            return None
        raise ShardUnavailableError(self.shard, req.name)  # pragma: no cover

    # ------------------------------------------------------------------ stats

    def stats(self) -> dict:
        return {
            "shard": self.shard,
            "available": self.available,
            "batches": self.batches,
            "requests": self.requests,
        }
