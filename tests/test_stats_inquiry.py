"""Tests for the ADIOS BP-index inquiry path."""

import numpy as np
import pytest

from repro.baselines import AdiosFile
from repro.cluster import Cluster
from repro.errors import FormatError, RankFailedError
from repro.mpi import Communicator
from repro.sim.trace import Transfer
from repro.units import MiB


class TestAdiosInquiry:
    def make_file(self, cl):
        def writer(ctx):
            comm = Communicator.world(ctx)
            f = AdiosFile(ctx, comm, "/pmem/bp", "w")
            base = comm.rank * 10.0
            f.write("T", np.linspace(base, base + 1, 100),
                    (100 * comm.rank,), (100 * comm.size,))
            f.write("P", np.zeros(10), (10 * comm.rank,), (10 * comm.size,))
            f.close()

        cl.run(4, writer)

    def test_available_variables(self):
        cl = Cluster(pmem_capacity=64 * MiB)
        self.make_file(cl)

        def fn(ctx):
            comm = Communicator.world(ctx)
            f = AdiosFile(ctx, comm, "/pmem/bp", "r")
            names = f.available_variables()
            f.close()
            return names

        assert cl.run(1, fn).returns[0] == ["P", "T"]

    def test_inquire_returns_per_block_minmax(self):
        cl = Cluster(pmem_capacity=64 * MiB)
        self.make_file(cl)

        def fn(ctx):
            comm = Communicator.world(ctx)
            f = AdiosFile(ctx, comm, "/pmem/bp", "r")
            blocks = f.inquire("T")
            f.close()
            return blocks

        blocks = cl.run(1, fn).returns[0]
        assert len(blocks) == 4
        by_off = {b["offsets"]: b for b in blocks}
        assert by_off[(0,)]["min"] == pytest.approx(0.0)
        assert by_off[(300,)]["max"] == pytest.approx(31.0)

    def test_inquire_reads_headers_not_payload(self):
        cl = Cluster(pmem_capacity=64 * MiB)
        self.make_file(cl)

        def fn(ctx):
            comm = Communicator.world(ctx)
            f = AdiosFile(ctx, comm, "/pmem/bp", "r")
            f.inquire("T")
            f.close()

        res = cl.run(1, fn)
        pmem_read = sum(
            op.amount for op in res.traces[0].ops
            if isinstance(op, Transfer) and op.resource == "pmem_read"
        )
        # 4 blocks x 800B payload each; header scans must stay well under
        assert pmem_read < 4 * 4096 + 4096

    def test_inquire_missing_raises(self):
        cl = Cluster(pmem_capacity=64 * MiB)
        self.make_file(cl)

        def fn(ctx):
            comm = Communicator.world(ctx)
            f = AdiosFile(ctx, comm, "/pmem/bp", "r")
            f.inquire("ghost")

        with pytest.raises(RankFailedError) as ei:
            cl.run(1, fn)
        assert isinstance(ei.value.original, FormatError)
