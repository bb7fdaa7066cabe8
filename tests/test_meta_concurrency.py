"""SPMD tests for the striped metadata-concurrency layer.

The headline property: with ``meta_stripes > 1``, ranks storing *distinct*
variables take distinct lock lanes and never contend (zero
``meta.lock.contended`` events), while same-variable traffic stays
serialized with no lost updates.
"""

import numpy as np
import pytest

from repro.cluster import Cluster
from repro.errors import NotMappedError, PmemcpyError
from repro.mpi import Communicator
from repro.pmdk import fnv1a64
from repro.pmemcpy import PMEM
from repro.pmemcpy.dataset import dims_key
from repro.pmemcpy.layout_fs import HierarchicalLayout
from repro.pmemcpy.layout_hash import HashtableLayout
from repro.sim import Acquire, run_spmd
from repro.telemetry import metrics_for
from repro.units import MiB

LAYOUTS = ["hashtable", "hierarchical"]
NPROCS = 8
NSTRIPES = 64


def cluster(**kw):
    kw.setdefault("pmem_capacity", 64 * MiB)
    return Cluster(**kw)


def counter_value(ctx, name: str) -> float:
    """The rank's ``name`` counter, 0 when it was never bumped."""
    m = metrics_for(ctx).get(name)
    return 0.0 if m is None else m.value


def stripe_lanes(ctx) -> list[float]:
    """Lanes the rank's stripe-occupancy histogram has samples in."""
    hist = metrics_for(ctx).get("meta.stripe.acquires")
    return [] if hist is None else [e for e, _n in hist.nonzero_buckets()]


def distinct_stripe_names(n: int, nstripes: int = NSTRIPES) -> list[str]:
    """Variable names whose ``<id>#dims`` keys land on n distinct stripes —
    the hash layout's no-contention guarantee is per *stripe*, not per
    name, so the test must avoid birthday collisions deliberately."""
    names: list[str] = []
    used: set[int] = set()
    i = 0
    while len(names) < n:
        name = f"var{i}"
        stripe = fnv1a64(dims_key(name)) % nstripes
        if stripe not in used:
            used.add(stripe)
            names.append(name)
        i += 1
    return names


class TestKnobResolution:
    def test_defaults_follow_map_sync(self):
        a = PMEM(map_sync=False)
        assert (a.meta_stripes, a.meta_rw) == (1, False)
        b = PMEM(map_sync=True)
        assert (b.meta_stripes, b.meta_rw) == (64, True)

    def test_explicit_overrides(self):
        p = PMEM(map_sync=True, meta_stripes=1, meta_rw=False)
        assert (p.meta_stripes, p.meta_rw) == (1, False)
        q = PMEM(meta_stripes=8)
        assert (q.meta_stripes, q.meta_rw) == (8, True)

    def test_invalid_stripes_rejected(self):
        with pytest.raises(PmemcpyError):
            PMEM(meta_stripes=0)


@pytest.mark.parametrize("layout", LAYOUTS)
class TestDistinctVariables:
    def test_zero_contention_across_variables(self, layout):
        """8 ranks, 8 stripe-distinct variables: no rank ever waits on
        another rank's metadata lane."""
        cl = cluster()
        names = distinct_stripe_names(NPROCS)

        def fn(ctx):
            comm = Communicator.world(ctx)
            pmem = PMEM(layout=layout, meta_stripes=NSTRIPES, meta_rw=True)
            pmem.mmap("/pmem/conc", comm)
            name = names[ctx.rank]
            data = np.full(512, float(ctx.rank))
            pmem.store(name, data)
            out = pmem.load(name)
            comm.barrier()
            pmem.munmap()
            return (
                bool(np.array_equal(out, data)),
                counter_value(ctx, "meta.lock.contended"),
                counter_value(ctx, "meta.lock.acquires"),
            )

        res = cl.run(NPROCS, fn)
        roundtrips = [r[0] for r in res.returns]
        contended = sum(r[1] for r in res.returns)
        acquires = sum(r[2] for r in res.returns)
        assert all(roundtrips)
        assert contended == 0
        assert acquires >= 3 * NPROCS  # reserve + publish + load, per rank

    def test_stripe_occupancy_spreads(self, layout):
        """The stripe-occupancy histogram shows distinct lanes in use."""
        cl = cluster()
        names = distinct_stripe_names(NPROCS)

        def fn(ctx):
            comm = Communicator.world(ctx)
            pmem = PMEM(layout=layout, meta_stripes=NSTRIPES, meta_rw=True)
            pmem.mmap("/pmem/occ", comm)
            pmem.store(names[ctx.rank], np.ones(64))
            comm.barrier()
            pmem.munmap()
            return stripe_lanes(ctx)

        res = cl.run(NPROCS, fn)
        lanes = set()
        for rank_lanes in res.returns:
            lanes.update(rank_lanes)
        if layout == "hashtable":
            assert len(lanes) == NPROCS  # one distinct lane per rank
        else:
            # the fs layout locks per variable file, not per hash stripe
            assert lanes == set()


@pytest.mark.parametrize("layout", LAYOUTS)
class TestSameVariable:
    def test_no_lost_updates(self, layout):
        """8 ranks sub-store disjoint rows of one variable; every chunk
        must survive and the assembled array must be exact."""
        cl = cluster()

        def fn(ctx):
            comm = Communicator.world(ctx)
            pmem = PMEM(layout=layout, meta_stripes=NSTRIPES, meta_rw=True)
            pmem.mmap("/pmem/shared", comm)
            pmem.alloc("grid", (NPROCS, 64))
            row = np.full((1, 64), float(ctx.rank))
            pmem.store("grid", row, offsets=(ctx.rank, 0))
            comm.barrier()
            out = pmem.load("grid")
            nchunks = pmem.stats()["variables"]["grid"]["nchunks"]
            comm.barrier()
            pmem.munmap()
            return out, nchunks

        res = cl.run(NPROCS, fn)
        expect = np.repeat(
            np.arange(NPROCS, dtype=np.float64)[:, None], 64, axis=1
        )
        for out, nchunks in res.returns:
            assert np.array_equal(out, expect)
            assert nchunks == NPROCS

    def test_single_stripe_serializes_on_one_lane(self, layout):
        """meta_stripes=1 (the PMCPY-A configuration) funnels every
        acquisition through lane 0 — the old global-mutex behaviour."""
        cl = cluster()

        def fn(ctx):
            comm = Communicator.world(ctx)
            pmem = PMEM(layout=layout, meta_stripes=1, meta_rw=False)
            pmem.mmap("/pmem/one", comm)
            pmem.store(f"v{ctx.rank}", np.ones(64))
            comm.barrier()
            pmem.munmap()
            return stripe_lanes(ctx), counter_value(ctx, "meta.lock.acquires")

        res = cl.run(4, fn)
        for lanes, acquires in res.returns:
            assert acquires >= 2  # reserve + publish at minimum
            if layout == "hashtable":
                assert lanes == [0.0]
            else:
                assert lanes == []


@pytest.mark.parametrize("layout", LAYOUTS)
class TestReplayEmission:
    """The legacy one-exclusive-lane configuration (PMCPY-A) keeps the
    original timing treatment — no Acquire/Release replay ops — so its
    published figure timings stay stable; striped/RW configurations
    replay real mutual exclusion."""

    def _run(self, layout, **knobs):
        cl = cluster()

        def fn(ctx):
            comm = Communicator.world(ctx)
            pmem = PMEM(layout=layout, **knobs)
            pmem.mmap("/pmem/emit", comm)
            pmem.store(f"v{ctx.rank}", np.ones(64))
            comm.barrier()
            pmem.munmap()

        res = cl.run(4, fn)
        return sum(
            1 for tr in res.traces for op in tr.ops if isinstance(op, Acquire)
        )

    def test_legacy_config_emits_no_replay_ops(self, layout):
        assert self._run(layout, meta_stripes=1, meta_rw=False) == 0

    def test_striped_config_emits_replay_ops(self, layout):
        assert self._run(layout, meta_stripes=NSTRIPES, meta_rw=True) > 0


class TestGuardsBeforeSetup:
    def test_fs_layout_guards_raise_not_mapped(self):
        """The old code silently handed out a process-local orphan lock
        before setup(); now any guard pre-setup fails loudly."""

        def fn(ctx):
            lay = HierarchicalLayout(meta_stripes=NSTRIPES, meta_rw=True)
            for take in (
                lambda: lay.meta_read(ctx, "x"),
                lambda: lay.meta_write(ctx, "x"),
                lambda: lay.meta_namespace(ctx),
            ):
                with pytest.raises(NotMappedError):
                    take()

        run_spmd(1, fn)

    def test_hash_layout_guards_raise_not_mapped(self):
        def fn(ctx):
            lay = HashtableLayout(meta_stripes=NSTRIPES)
            for take in (
                lambda: lay.meta_read(ctx, "x"),
                lambda: lay.meta_write(ctx, "x"),
                lambda: lay.meta_namespace(ctx),
            ):
                with pytest.raises(NotMappedError):
                    take()

        run_spmd(1, fn)
