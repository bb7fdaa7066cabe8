"""Coverage for the smaller public surfaces: pMEMCPY stats, cluster
lifecycle, config specs."""

import numpy as np
import pytest

from repro.cluster import Cluster
from repro.config import DEFAULT_MACHINE, dram_spec, pmem_spec
from repro.mpi import Communicator
from repro.pmemcpy import PMEM
from repro.units import GiB, MiB


class TestPmemcpyStats:
    def test_stats_shape(self):
        cl = Cluster(pmem_capacity=64 * MiB)

        def fn(ctx):
            comm = Communicator.world(ctx)
            pmem = PMEM()
            pmem.mmap("/pmem/st", comm)
            pmem.alloc("A", (40,))
            pmem.store("A", np.ones(10), offsets=(10 * comm.rank,))
            comm.barrier()
            st = pmem.stats()
            pmem.munmap()
            return st

        st = cl.run(4, fn).returns[0]
        assert st["layout"] == "hashtable"
        v = st["variables"]["A"]
        assert v["nchunks"] == 4
        assert v["logical_bytes"] == 40 * 8
        assert v["stored_bytes"] > v["logical_bytes"]  # bp4 framing
        assert st["heap"]["used_bytes"] > 0

    def test_stats_show_compression(self):
        cl = Cluster(pmem_capacity=64 * MiB)

        def fn(ctx):
            comm = Communicator.world(ctx)
            pmem = PMEM(filters=("rle",))
            pmem.mmap("/pmem/stc", comm)
            pmem.store("z", np.zeros(10_000))
            st = pmem.stats()
            pmem.munmap()
            return st

        v = cl.run(1, fn).returns[0]["variables"]["z"]
        assert v["filters"] == "rle"
        assert v["stored_bytes"] < v["logical_bytes"] / 10

    def test_hierarchical_stats_have_no_heap(self):
        cl = Cluster(pmem_capacity=64 * MiB)

        def fn(ctx):
            comm = Communicator.world(ctx)
            pmem = PMEM(layout="hierarchical")
            pmem.mmap("/pmem/sth", comm)
            pmem.store("x", np.ones(4))
            st = pmem.stats()
            pmem.munmap()
            return st

        st = cl.run(1, fn).returns[0]
        assert st["layout"] == "hierarchical"
        assert "heap" not in st


class TestClusterLifecycle:
    def test_default_capacity_clamped(self):
        cl = Cluster()  # scale=1 would naively be 80 GiB
        assert cl.device.capacity <= 256 * MiB

    def test_scaled_capacity(self):
        cl = Cluster(scale=1024)
        assert cl.device.capacity == pytest.approx(
            DEFAULT_MACHINE.pmem.capacity // 1024, rel=0.01
        )

    def test_crash_requires_crash_sim(self):
        cl = Cluster()
        with pytest.raises(RuntimeError):
            cl.crash()

    def test_drop_caches_forces_pool_reopen(self):
        cl = Cluster(pmem_capacity=64 * MiB)

        def fn(ctx):
            comm = Communicator.world(ctx)
            pmem = PMEM()
            pmem.mmap("/pmem/dc", comm)
            pmem.store("k", np.ones(4))
            pmem.munmap()

        cl.run(1, fn)
        assert cl.pools
        cl.drop_caches()
        assert not cl.pools

        def reopen(ctx):
            comm = Communicator.world(ctx)
            pmem = PMEM()
            pmem.mmap("/pmem/dc", comm)
            out = pmem.load("k")
            pmem.munmap()
            return out

        np.testing.assert_array_equal(cl.run(1, reopen).returns[0], np.ones(4))


class TestSpecs:
    def test_machine_hierarchy_ordering(self):
        m = DEFAULT_MACHINE
        # the §1 hierarchy: DRAM above PMEM in bandwidth and latency
        assert m.dram.write_bw > m.pmem.write_bw
        assert m.dram.write_latency_ns < m.pmem.write_latency_ns
        # and the paper's asymmetry: PMEM reads much faster than writes
        assert m.pmem.read_bw > 3 * m.pmem.write_bw

    def test_cores_available(self):
        m = DEFAULT_MACHINE
        assert m.cores_available(8) == 8
        assert m.cores_available(24) == 24
        assert 24 < m.cores_available(48) < 48

    def test_spec_scaling(self):
        spec = pmem_spec(capacity=8 * GiB)
        assert spec.capacity == 8 * GiB
        smaller = spec.scaled(write_bw=1.0)
        assert smaller.write_bw == 1.0
        assert spec.write_bw != 1.0

    def test_machine_is_frozen(self):
        with pytest.raises(Exception):
            DEFAULT_MACHINE.pmem = dram_spec()
