"""Tests for repro.crash — journal, enumerator, campaigns, minimizer."""

import numpy as np
import pytest

from repro.cluster import Cluster
from repro.crash import (
    DeleteWorkload,
    Journal,
    LockWorkload,
    Replayer,
    StoreWorkload,
    TxWorkload,
    builtin_workloads,
    crash_consistent,
    drop_op_persists,
    enumerate_states,
    minimize,
    run_campaign,
)
from repro.mpi import Communicator
from repro.pmemcpy import PMEM
from repro.units import MiB


def small_cluster():
    return Cluster(crash_sim=True, pmem_capacity=8 * MiB)


def record_workload(workload, cl):
    cl.run(1, workload.prepare)
    journal = Journal()
    journal.attach(cl.device, cl.fs)
    workload.journal = journal
    try:
        cl.run(1, workload.record)
    finally:
        journal.detach()
        workload.journal = None
    return journal


class TestJournal:
    def test_records_stores_flushes_drains_and_marks(self):
        cl = small_cluster()
        journal = Journal()
        journal.attach(cl.device, cl.fs)
        try:
            cl.device.store(4096, b"hello world")
            journal.mark("mid")
            cl.device.persist(4096, 11)
            cl.device.drain()
        finally:
            journal.detach()
        kinds = [e.kind for e in journal.events]
        assert kinds == ["store", "mark", "flush", "drain"]
        assert journal.events[0].offset == 4096
        assert journal.events[0].data == b"hello world"
        assert journal.mark_index("mid") == 1
        assert journal.n_epochs() == 2  # epoch bumps at the drain

    def test_detach_stops_recording(self):
        cl = small_cluster()
        journal = Journal()
        journal.attach(cl.device, cl.fs)
        journal.detach()
        cl.device.store(0, b"x")
        assert len(journal) == 0

    def test_completed_at_tracks_done_marks(self):
        cl = small_cluster()
        journal = Journal()
        journal.attach(cl.device, cl.fs)
        try:
            journal.mark("begin:a")
            cl.device.store(0, b"x")
            journal.mark("done:a")
            cl.device.store(64, b"y")
        finally:
            journal.detach()
        idx = journal.mark_index("done:a")
        assert "done:a" not in journal.completed_at(idx)
        assert "done:a" in journal.completed_at(idx + 1)

    def test_replayer_materializes_durable_prefix(self):
        cl = small_cluster()
        journal = Journal()
        journal.attach(cl.device, cl.fs)
        try:
            cl.device.store(128, b"AAAA")
            cl.device.persist(128, 4)
            cl.device.store(256, b"BBBB")  # never flushed
        finally:
            journal.detach()
        r = Replayer(journal)
        r.advance_to(len(journal))
        img = r.materialize(frozenset(), None)
        assert bytes(img[128:132]) == b"AAAA"
        assert bytes(img[256:260]) != b"BBBB"  # unflushed line lost
        # retiring the dirty line makes the unflushed store durable
        img2 = r.materialize(frozenset({256 // 64}), None)
        assert bytes(img2[256:260]) == b"BBBB"

    def test_without_events_shares_baseline(self):
        cl = small_cluster()
        journal = Journal()
        journal.attach(cl.device, cl.fs)
        try:
            cl.device.store(0, b"x")
            cl.device.persist(0, 1)
        finally:
            journal.detach()
        pruned = journal.without_events([1])
        assert len(pruned) == 1
        assert pruned.events[0].kind == "store"
        assert pruned.baseline is journal.baseline


class TestEnumerator:
    def _journal(self):
        workload = StoreWorkload("hashtable")
        return record_workload(workload, small_cluster())

    def test_deterministic_for_a_seed(self):
        j = self._journal()
        a = enumerate_states(j, budget=40, seed=3)
        b = enumerate_states(j, budget=40, seed=3)
        assert a == b

    def test_budget_respected_and_sorted(self):
        j = self._journal()
        states = enumerate_states(j, budget=25, seed=0)
        assert 0 < len(states) <= 25
        assert [s.index for s in states] == sorted(s.index for s in states)

    def test_states_are_unique(self):
        j = self._journal()
        states = enumerate_states(j, budget=60, seed=1)
        keys = {(s.index, s.retired, s.torn) for s in states}
        assert len(keys) == len(states)

    def test_tiers_cover_boundaries_and_reorderings(self):
        j = self._journal()
        tiers = {s.tier for s in enumerate_states(j, budget=80, seed=0)}
        assert 1 in tiers  # after completion marks
        assert tiers & {3, 4}  # reordered retirement explored


class TestCampaigns:
    @pytest.mark.parametrize("layout", ["hashtable", "hierarchical"])
    def test_store_campaign_holds(self, layout):
        report = run_campaign(
            StoreWorkload(layout), cluster=small_cluster(),
            budget=30, seed=0,
        )
        assert report.ok, report.render()
        assert report.states_explored > 0

    @pytest.mark.parametrize("layout", ["hashtable", "hierarchical"])
    def test_delete_campaign_holds(self, layout):
        report = run_campaign(
            DeleteWorkload(layout), cluster=small_cluster(),
            budget=25, seed=0,
        )
        assert report.ok, report.render()

    def test_tx_campaign_holds(self):
        report = run_campaign(
            TxWorkload(), cluster=small_cluster(), budget=30, seed=0
        )
        assert report.ok, report.render()
        assert report.epochs > 1

    def test_lock_campaign_recovers_owners(self):
        report = run_campaign(
            LockWorkload(), cluster=small_cluster(), budget=25, seed=0
        )
        assert report.ok, report.render()

    def test_campaign_restores_cluster_state(self):
        cl = small_cluster()
        report = run_campaign(
            StoreWorkload("hashtable"), cluster=cl, budget=10, seed=0
        )
        assert report.ok, report.render()

        def reread(ctx):
            comm = Communicator.world(ctx)
            p = PMEM(pool_size=4 * MiB)
            p.mmap("/pmem/crash-store-hashtable", comm)
            out = p.load("a")
            p.munmap()
            return out

        after = cl.run(1, reread).returns[0]
        # record() completed on the live cluster: "a" holds generation 1
        assert np.array_equal(after, np.arange(48, dtype=np.int64) * 3 + 1)

    def test_counters_shape(self):
        report = run_campaign(
            TxWorkload(), cluster=small_cluster(), budget=10, seed=0
        )
        counts = report.counters()
        assert counts.get("crash.states_explored").value == \
            report.states_explored
        assert counts.get("crash.violations").value == 0
        assert "crash.journal_events" in counts

    def test_builtin_registry_is_complete(self):
        names = set(builtin_workloads())
        assert names == {
            "store-hashtable", "store-hierarchical",
            "delete-hashtable", "delete-hierarchical", "tx", "locks",
        }


class TestTeeth:
    """A blind oracle is worse than none: prove injected bugs are caught."""

    def test_dropped_publish_persists_detected_and_minimized(self):
        workload = StoreWorkload("hashtable")
        report = run_campaign(
            workload, cluster=small_cluster(), budget=40, seed=0,
            mutate=lambda j: drop_op_persists(j, "b"),
        )
        assert not report.ok, "lost publish persists went undetected"

        trace = minimize(
            report.journal, workload, report.failures[0],
            cluster=small_cluster(),
        )
        assert 1 <= len(trace) <= 10, trace.describe()
        assert trace.problems

    def test_drop_unknown_op_raises(self):
        workload = StoreWorkload("hashtable")
        journal = record_workload(workload, small_cluster())
        with pytest.raises(ValueError):
            drop_op_persists(journal, "nonexistent-op")


@crash_consistent(lambda: TxWorkload(), budget=15, seed=2)
def test_crash_consistent_decorator(report):
    assert report.ok
    assert report.states_explored > 0


class TestDeviceCounters:
    def test_pmem_stats_surface_device_counters(self):
        cl = Cluster(pmem_capacity=16 * MiB)

        def fn(ctx):
            comm = Communicator.world(ctx)
            p = PMEM()
            p.mmap("/pmem/counters", comm)
            p.store("v", np.arange(64.0))
            stats = p.stats()
            p.munmap()
            return stats

        stats = cl.run(1, fn).returns[0]
        dev = stats["device"]
        assert dev["device_stores"] > 0
        assert dev["device_persists"] > 0
        assert dev["device_drains"] >= 0
        assert "device_dirty_line_hwm" in dev

    def test_dirty_line_hwm_tracks_store_buffer(self):
        cl = small_cluster()
        cl.device.store(0, bytes(256))  # 4 dirty lines
        counters = cl.device.persistence_counters()
        assert counters["device_dirty_line_hwm"] >= 4
        cl.device.persist(0, 256)
        cl.device.drain()
        assert cl.device.persistence_counters()["device_dirty_line_hwm"] >= 4


class TestVfsRename:
    def test_rename_replaces_target_atomically(self):
        cl = Cluster(pmem_capacity=16 * MiB)

        def fn(ctx):
            from repro.kernel.vfs import OpenFlags
            vfs = ctx.env.vfs
            fd = vfs.open(ctx, "/pmem/a.tmp", OpenFlags.CREAT | OpenFlags.RDWR)
            vfs.pwrite(ctx, fd, b"payload", 0)
            vfs.close(ctx, fd)
            vfs.rename(ctx, "/pmem/a.tmp", "/pmem/a")
            assert not vfs.exists("/pmem/a.tmp")
            fd = vfs.open(ctx, "/pmem/a", OpenFlags.RDWR)
            out = bytes(vfs.pread(ctx, fd, 7, 0))
            vfs.close(ctx, fd)
            return out

        assert cl.run(1, fn).returns[0] == b"payload"
