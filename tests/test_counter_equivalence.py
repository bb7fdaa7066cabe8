"""One way to count: every total the retired flat counter bag kept is still
recorded, exactly, by one :class:`~repro.telemetry.MetricRegistry` family.

``flat_counter_totals.json`` holds the flat bag's totals captured before
it was folded into the registry, from one-rank (so fault attribution is
deterministic) threads-engine runs:

- ``jobs``: ``run_io_experiment`` on a small ``Domain3D``, write and read,
  for every library of Figs. 6/7;
- ``stats``: ``PMEM.stats()`` after a store, whole/block/strided loads and
  a delete, on both layouts.
"""

import json
import pathlib

import numpy as np
import pytest

from repro.cluster import Cluster
from repro.harness.experiment import PAPER_LIBRARIES, run_io_experiment
from repro.mpi import Communicator
from repro.pmemcpy import PMEM
from repro.pmemcpy.selection import Hyperslab
from repro.units import MiB
from repro.workloads import Domain3D

FLAT = json.loads(
    (pathlib.Path(__file__).parent / "flat_counter_totals.json").read_text())

#: flat name -> (registry name, field of its ``as_dict()``) for the totals
#: a histogram already kept; every other flat name is a registry Counter of
#: the same spelling, read from its "value"
FOLDED = {
    "persist_calls": ("access.persist.bytes", "count"),
    "pmem_write_ops": ("access.pmem_write.bytes", "count"),
    "pmem_write_bytes": ("access.pmem_write.bytes", "sum"),
    "pmem_read_ops": ("access.pmem_read.bytes", "count"),
    "pmem_read_bytes": ("access.pmem_read.bytes", "sum"),
    "dram_copy_ops": ("access.dram.bytes", "count"),
    "dram_copy_bytes": ("access.dram.bytes", "sum"),
    "pfs_write_bytes": ("access.pfs_write.bytes", "sum"),
    "pfs_read_bytes": ("access.pfs_read.bytes", "sum"),
    "meta_lock_acquires": ("meta.lock.acquires", "value"),
    "meta_lock_ns": ("meta.lock.ns", "sum"),
}


def assert_equivalent(flat: dict, metrics: dict) -> None:
    """``flat`` (old totals) == the registry ``metrics`` (``as_dict()``)."""
    assert flat
    for old, total in flat.items():
        name, key = FOLDED.get(old, (old, "value"))
        assert metrics[name][key] == total, (old, name, key)
    assert not set(FOLDED) & set(metrics), "a folded counter is back"


@pytest.fixture(scope="module")
def jobs() -> dict:
    w = Domain3D(nvars=1, model_dims=(40, 40, 40), axis_scale=5)
    return {r.job_id(): r.metrics
            for lib in PAPER_LIBRARIES
            for r in run_io_experiment(lib, 1, w)}


@pytest.mark.parametrize("job_id", sorted(FLAT["jobs"]))
def test_job_totals_equal_registry(jobs, job_id):
    assert_equivalent(FLAT["jobs"][job_id], jobs[job_id])


@pytest.mark.parametrize("layout", sorted(FLAT["stats"]))
def test_pmem_stats_totals_equal_registry(layout):
    def fn(ctx):
        comm = Communicator.world(ctx)
        pmem = PMEM(layout=layout)
        pmem.mmap("/pmem/eq", comm)
        pmem.store("A", np.arange(512, dtype=np.float64))
        pmem.load("A")
        pmem.alloc("G", (32, 32), np.float64)
        pmem.store("G", np.ones((32, 32)), offsets=(0, 0))
        pmem.load("G", offsets=(3, 5), dims=(20, 7))
        pmem.load("G", selection=Hyperslab((1, 0), (4, 3), (6, 9), (2, 2)))
        pmem.delete("A")
        st = pmem.stats()
        pmem.munmap()
        return st

    st = Cluster(pmem_capacity=64 * MiB).run(1, fn)
    assert "telemetry" not in st.returns[0]
    assert_equivalent(FLAT["stats"][layout], st.returns[0]["metrics"])
