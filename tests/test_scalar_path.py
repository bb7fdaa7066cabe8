"""The scalar mmap data path resolves a range in one step; the model does not
change.

A ``DaxMapping`` access whose range lies in the inode's leading extent goes
straight to one device offset, answers "already held" for pages and read
lines it has seen, and remembers the device pages it has seen MAP_SYNC-
committed.  Everything the model and the device record — trace entries, the
lb clock, every metric, the first-touch state, device bytes and counters,
the MAP_SYNC commit flags, crash-journal events and the typed errors — must
come out exactly (``==``) as the per-extent walk leaves them.  That walk
lives on here as the reference: the mapping methods as they were before
the window, with one change, the up-front rejection of a negative write or
persist range (it used to charge a fault first and raise
``InvalidArgumentError``)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import Cluster
from repro.crash.journal import Journal
from repro.errors import BadAddressError, InvalidArgumentError, ReproError
from repro.kernel import DaxFS, DaxMapping, MapFlags
from repro.kernel import dax as dax_module
from repro.kernel.syscall import page_fault
from repro.mem import PMEMDevice
from repro.mem.memcpy import charge_pmem_read, charge_pmem_write
from repro.mpi import Communicator
from repro.pmemcpy import PMEM
from repro.sim import run_spmd
from repro.sim.trace import Delay
from repro.telemetry import metrics_for
from repro.units import MiB

from .test_row_batch import read_back, restart_span_ids, snapshot, touched

# ---------------------------------------------------------------------------
# the per-extent reference
# ---------------------------------------------------------------------------


class ReferenceMapping(DaxMapping):
    """``DaxMapping`` with every scalar access walking the extents through
    ``DaxFS.file_ranges``, and no first-touch or commit memo."""

    def _check_range(self, offset, size):
        if offset < 0 or size < 0:
            raise BadAddressError(f"bad mapping range [{offset}, +{size})")
        allocated = (
            sum(e.nblocks for e in self.inode.extents) * self.fs.block_size
        )
        if offset + size > allocated:
            raise BadAddressError(
                f"mapping access [{offset}, {offset + size}) beyond "
                f"allocated {allocated} bytes (SIGBUS)"
            )

    def _fault_pages(self, offset, size):
        p0 = offset // self._real_page
        p1 = -(-(offset + size) // self._real_page)
        if self._touched is None:
            self._page_bits, nnew = dax_module._mark(self._page_bits, p0, p1)
            return nnew
        new = [p for p in range(p0, p1) if p not in self._touched]
        self._touched.update(new)
        return len(new)

    def _charge_faults(self, ctx, offset, size, *, allocating=False,
                       dev=None):
        if size <= 0:
            return
        nfaults = self._fault_pages(offset, size)
        if nfaults > 0:
            page_fault(ctx, nfaults)
        if not (self.flags & MapFlags.SYNC):
            return
        if allocating:
            ncommit = 0.0
            for dev_off, length in self.fs.file_ranges(
                self.inode, offset, size
            ):
                ncommit += self.fs.device.sync_commit(
                    dev_off, length, self._real_page
                )
        else:
            l0 = offset // 64
            l1 = -(-(offset + size) // 64)
            if self._touched_lines is None:
                self._line_bits, nnew = dax_module._mark(
                    self._line_bits, l0, l1)
            else:
                before = len(self._touched_lines)
                self._touched_lines.update(range(l0, l1))
                nnew = len(self._touched_lines) - before
            ncommit = nnew * 64.0 / self._real_page
        if ncommit <= 0:
            return
        ctx.delay(self._sync_commit_ns(ctx) * ncommit, note="map-sync-commit")

    def write(self, ctx, offset, data, *, model_bytes=None):
        self._check_open()
        buf = PMEMDevice._as_bytes(data)
        size = int(buf.size)
        if offset < 0:   # the one change: validated before any state moves
            raise BadAddressError(f"bad mapping range [{offset}, +{size})")
        if size == 0:
            return 0
        self.fs._ensure_allocated(ctx, self.inode, offset, size)
        self._charge_faults(ctx, offset, size, allocating=True)
        pos = 0
        for dev_off, length in self.fs.file_ranges(self.inode, offset, size):
            self.fs.device.store(dev_off, buf[pos : pos + length])
            pos += length
        charge_pmem_write(
            ctx, float(size) if model_bytes is None else float(model_bytes),
            note="mmap-store",
        )
        return size

    def read(self, ctx, offset, size, *, model_bytes=None):
        self._check_open()
        self._check_range(offset, size)
        self._charge_faults(ctx, offset, size)
        out = np.empty(size, dtype=np.uint8)
        pos = 0
        for dev_off, length in self.fs.file_ranges(self.inode, offset, size):
            out[pos : pos + length] = self.fs.device.view(dev_off, length)
            pos += length
        charge_pmem_read(
            ctx, float(size) if model_bytes is None else float(model_bytes),
            note="mmap-load",
        )
        return out

    def touch(self, ctx, offset, size):
        self._check_open()
        self._check_range(offset, size)
        self._charge_faults(ctx, offset, size)

    def view(self, offset, size):
        self._check_open()
        if size == 0:
            return np.empty(0, dtype=np.uint8)
        ranges = self.fs.file_ranges(self.inode, offset, size)
        if len(ranges) != 1:
            raise InvalidArgumentError(
                "view crosses extents; use read() or fallocate contiguously"
            )
        dev_off, length = ranges[0]
        return self.fs.device.view(dev_off, length)

    def persist(self, ctx, offset, size):
        self._check_open()
        if offset < 0 or size < 0:   # the one change, as in write
            raise BadAddressError(f"bad mapping range [{offset}, +{size})")
        for dev_off, length in self.fs.file_ranges(self.inode, offset, size):
            self.fs.device.persist(dev_off, length)
        ctx.delay(200.0, note="persist")
        metrics_for(ctx).histogram("access.persist.bytes").observe(float(size))


def as_reference(mapping):
    mapping.__class__ = ReferenceMapping
    return mapping


def device_state(device) -> dict:
    return {
        "bytes": device.snapshot().tobytes(),
        "counters": device.persistence_counters(),
        "sync_lines": device._sync_lines.tobytes(),
    }


def journal_events(journal) -> list:
    if journal is None:
        return []
    return [(e.kind, e.epoch, e.offset, e.size, bytes(e.data), e.tag, e.snap)
            for e in journal.events]


def error_of(exc: ReproError) -> tuple:
    return type(exc).__name__, str(exc)


# ---------------------------------------------------------------------------
# one file, two mappings, arbitrary scalar accesses
# ---------------------------------------------------------------------------

BS = 4096
CAPACITY = 4 * MiB


def build_file(ctx, fs, layout: str, nblocks: int, short: int = 0):
    """The file under test, ``short`` bytes short of ``nblocks`` blocks,
    with the extent layout ``layout``: ``contiguous`` (one fallocated
    extent, as a pool file), ``grown`` (two ``_extend`` steps with another
    file's blocks between them) or ``regrown`` (a contiguous file truncated
    mid-extent, then grown past a neighbour's blocks)."""
    node = fs.create(ctx, "/f")
    half = nblocks // 2
    size = nblocks * BS - short
    if layout == "grown":
        fs.truncate(ctx, node, half * BS)
    else:
        fs.fallocate(ctx, node, size, contiguous=True)
        if layout == "regrown":
            fs.truncate(ctx, node, half * BS + 100)
    if layout != "contiguous":
        fs.truncate(ctx, fs.create(ctx, "/pad"), 3 * BS)
        fs.truncate(ctx, node, size)
    return node


def resolve(node, page: int, where) -> int:
    """A file offset near a page, block or extent boundary, or the end:
    ``where`` is ``(anchor, k, delta)``."""
    anchor, k, delta = where
    ends = np.cumsum([e.nblocks for e in node.extents]) * BS
    base = {"page": k * page, "block": k * BS,
            "extent": int(ends[k % len(ends)]), "end": int(ends[-1])}[anchor]
    return base + delta


def apply_op(ctx, maps, node, page, op, i):
    kind, which, where, size, where2 = op
    m = maps[which]
    offset = resolve(node, page, where)
    if kind == "write":
        data = ((np.arange(max(size, 0)) + i) % 251).astype(np.uint8)
        return m.write(ctx, offset, data)
    if kind == "read":
        return m.read(ctx, offset, size).tobytes()
    if kind == "persist":
        return m.persist(ctx, offset, size)
    if kind == "touch":
        return m.touch(ctx, offset, size)
    if kind == "view":
        return m.view(offset, size).tobytes()
    # two rows through touch_rows: the first turns the mapping's
    # first-touch sets into bit arrays, which the held memos must survive
    offs = np.array([offset, resolve(node, page, where2)])
    sizes = np.array([size, 64])
    return [(note, ns.tolist()) for note, ns in m.touch_rows(ctx, offs, sizes)]


def run_scalar_case(case, *, reference: bool):
    device = PMEMDevice(CAPACITY, crash_sim=case["crash_sim"])
    fs = DaxFS(device, block_size=BS)
    journal = None
    if case["crash_sim"]:
        journal = Journal()
        journal.attach(device, fs)
    flags = MapFlags.SHARED | (MapFlags.SYNC if case["sync"] else 0)

    def job(ctx):
        restart_span_ids()
        node = build_file(ctx, fs, case["layout"], case["nblocks"],
                          case["short"])
        maps = [fs.mmap(ctx, node, flags) for _ in range(2)]
        if reference:
            maps = [as_reference(m) for m in maps]
        page = maps[0]._real_page
        results = []
        for i, op in enumerate(case["ops"]):
            try:
                results.append(apply_op(ctx, maps, node, page, op, i))
            except ReproError as exc:
                results.append(error_of(exc))
        return (results, snapshot(ctx), [touched(m) for m in maps],
                (node.size, list(node.extents)))

    res = run_spmd(1, job, scale=case["scale"])
    if journal is not None:
        journal.detach()
    return res.returns[0], device_state(device), journal_events(journal)


sizes_st = st.one_of(
    st.sampled_from([0, 1, 8, 63, 64, 65, 100, BS - 1, BS, BS + 1, -1]),
    st.integers(0, 3 * BS),
)
anchor_st = st.tuples(st.sampled_from(["page", "block", "extent", "end"]),
                      st.integers(0, 12), st.integers(-130, 130))
op_st = st.tuples(
    st.sampled_from(["write", "write", "read", "persist", "touch", "view",
                     "rows"]),
    st.integers(0, 1),
    anchor_st,
    sizes_st,
    anchor_st,
)


@st.composite
def scalar_case(draw):
    return {
        "layout": draw(st.sampled_from(["contiguous", "grown", "regrown"])),
        "nblocks": draw(st.integers(2, 24)),
        # a file size short of its last block: writes there grow the size
        "short": draw(st.sampled_from([0, 0, 1, 100, BS - 1])),
        "sync": draw(st.booleans()),
        "crash_sim": draw(st.booleans()),
        # a model page of 8 KiB, 1 KiB or 128 real bytes: accesses
        # straddle pages as well as blocks and extents
        "scale": draw(st.sampled_from([256, 2048, 16384])),
        "ops": draw(st.lists(op_st, min_size=1, max_size=30)),
    }


def check_scalar_case(case):
    want = run_scalar_case(case, reference=True)
    got = run_scalar_case(case, reference=False)
    (want_results, want_snap, want_touched, want_file), want_dev, \
        want_journal = want
    (got_results, got_snap, got_touched, got_file), got_dev, got_journal = got
    assert got_results == want_results
    assert got_file == want_file
    for key in want_snap:
        assert got_snap[key] == want_snap[key], key
    assert got_touched == want_touched
    for key in want_dev:
        assert got_dev[key] == want_dev[key], key
    assert got_journal == want_journal


@settings(max_examples=150, deadline=None)
@given(case=scalar_case())
def test_scalar_access_equals_per_extent_walk(case):
    check_scalar_case(case)


@pytest.mark.parametrize("sync", [True, False])
@pytest.mark.parametrize("layout", ["contiguous", "grown", "regrown"])
def test_repeat_accesses_across_every_boundary(layout, sync):
    """Every access kind at every kind of boundary, each done twice, so the
    held memos and the commit memo answer the second round."""
    ops = []
    for anchor in ("page", "block", "extent", "end"):
        for delta, size in ((-8, 16), (0, BS), (-100, 3000), (-1, 2)):
            for kind in ("write", "read", "persist", "touch", "view"):
                op = (kind, 0, (anchor, 1, delta), size, ("page", 0, 0))
                ops += [op, op, (kind, 1) + op[2:]]
    check_scalar_case({"layout": layout, "nblocks": 9, "short": 100,
                       "sync": sync,
                       "crash_sim": False, "scale": 2048, "ops": ops})


@pytest.mark.parametrize("crash_sim", [False, True])
def test_a_write_past_the_size_inside_the_extent_grows_it(crash_sim):
    """The file ends 100 bytes short of its last block: writes there take
    the window and still grow the size (and journal the metadata)."""
    ops = [(kind, which, ("end", 0, delta), size, ("page", 0, 0))
           for kind, which, delta, size in (
               ("write", 0, -50, 8), ("read", 1, -60, 30),
               ("write", 1, -20, 4), ("write", 0, -120, 8))]
    check_scalar_case({"layout": "contiguous", "nblocks": 4, "short": 100,
                       "sync": True, "crash_sim": crash_sim, "scale": 2048,
                       "ops": ops})


@pytest.mark.parametrize("kind", ["touch", "read", "write"])
def test_a_held_range_does_not_hide_a_longer_one(kind):
    """One page (and one line) held, then ranges from the same start that
    reach further: only the new pages and lines fault."""
    ops = [(kind, 0, ("page", 0, 0), size, ("page", 0, 0))
           for size in (8, 200, 8, 1100, 200, 3000)]
    check_scalar_case({"layout": "contiguous", "nblocks": 4, "short": 0,
                       "sync": True, "crash_sim": False, "scale": 2048,
                       "ops": ops})


def test_the_window_covers_exactly_the_leading_extent():
    fs = DaxFS(PMEMDevice(1 * MiB), block_size=BS)

    def job(ctx):
        node = build_file(ctx, fs, "regrown", 8)
        m = fs.mmap(ctx, node)
        lead, tail = node.extents
        cut = lead.nblocks * BS
        assert m._window(0, cut) == lead.dev_block * BS
        assert m._window(cut - 8, 8) == lead.dev_block * BS + cut - 8
        assert m._window(cut - 8, 9) is None      # spans extents
        assert m._window(cut, 8) is None          # the second extent
        assert m._window(-1, 8) is None
        assert m._window(0, -1) is None

    run_spmd(1, job)


# ---------------------------------------------------------------------------
# up-front validation of write and persist ranges
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("sync", [True, False])
@pytest.mark.parametrize("call", ["write", "persist", "persist-size"])
def test_negative_ranges_raise_before_any_state_change(call, sync):
    fs = DaxFS(PMEMDevice(1 * MiB), block_size=BS)
    flags = MapFlags.SHARED | (MapFlags.SYNC if sync else 0)

    def job(ctx):
        node = fs.create(ctx, "/f")
        fs.fallocate(ctx, node, 16 * BS, contiguous=True)
        m = fs.mmap(ctx, node, flags)
        m.write(ctx, 0, b"y" * 8)
        before = (snapshot(ctx), touched(m), node.size,
                  list(node.extents), fs.device.persistence_counters())
        with pytest.raises(BadAddressError):
            if call == "write":
                m.write(ctx, -4096, b"x" * 8)
            elif call == "persist":
                m.persist(ctx, -64, 8)
            else:
                m.persist(ctx, 0, -8)
        after = (snapshot(ctx), touched(m), node.size,
                 list(node.extents), fs.device.persistence_counters())
        assert after == before

    run_spmd(1, job)


# ---------------------------------------------------------------------------
# the MAP_SYNC commit memo
# ---------------------------------------------------------------------------

def commit_ns(trace) -> float:
    return sum(op.ns for op in trace.ops
               if isinstance(op, Delay) and op.note == "map-sync-commit")


@pytest.mark.parametrize("reference", [False, True])
def test_two_mappings_commit_a_page_once(reference):
    """The first write to a page through either mapping pays the commit;
    no later one does, whichever mapping saw it first."""
    fs = DaxFS(PMEMDevice(1 * MiB), block_size=BS)

    def job(ctx):
        node = fs.create(ctx, "/f")
        fs.fallocate(ctx, node, 64 * BS, contiguous=True)
        a, b = (fs.mmap(ctx, node, MapFlags.SHARED | MapFlags.SYNC)
                for _ in range(2))
        if reference:
            a, b = as_reference(a), as_reference(b)
        page = a._real_page
        paid = []
        for m, offset, size in (
                (a, 0, 8), (b, 8, 8), (a, 16, 8),      # page 0
                (b, page, 8), (a, page + 8, 8),        # page 1
                (a, 2 * page, 8), (b, 2 * page, 8), (b, 2 * page + 64, 8),
                # pages 2-3 and 3: held page 2 must not hide page 3
                (a, 3 * page - 8, 16), (b, 3 * page, 8),
                # pages 4-5, then each alone
                (b, 5 * page - 8, 16), (a, 4 * page, 8), (a, 5 * page, 8)):
            before = commit_ns(ctx.trace)
            m.write(ctx, offset, b"z" * size)
            paid.append(commit_ns(ctx.trace) > before)
        return paid

    # scale 2048: a 1 KiB model page, so the file holds 256 of them
    res = run_spmd(1, job, scale=2048)
    assert res.returns[0] == [True, False, False, True, False,
                              True, False, False, True, False,
                              True, False, False]


def run_two_ranks(reference: bool):
    """Rank 0 writes a page first and rank 1 second, then rank 1 first on
    another page; returns each rank's commit-paid list and snapshot, and
    the device's commit flags."""
    fs = DaxFS(PMEMDevice(1 * MiB), block_size=BS)
    node = fs.create(None, "/f")
    fs.fallocate(None, node, 64 * BS, contiguous=True)

    def job(ctx):
        comm = Communicator.world(ctx)
        m = fs.mmap(ctx, node, MapFlags.SHARED | MapFlags.SYNC)
        if reference:
            m = as_reference(m)
        page = m._real_page
        paid = []
        for first, offset in ((0, 0), (0, 8), (1, 3 * page)):
            for turn in (first, 1 - first):
                if ctx.rank == turn:
                    before = commit_ns(ctx.trace)
                    m.write(ctx, offset + 16 * ctx.rank, b"w" * 8)
                    paid.append(commit_ns(ctx.trace) > before)
                comm.barrier()
        return paid, snapshot(ctx)

    # scale 2048: a 1 KiB model page
    res = run_spmd(2, job, scale=2048)
    return res.returns, fs.device._sync_lines.copy()


def test_two_ranks_writing_one_page_commit_it_once():
    """One commit per page, paid by its first writer, and each rank's
    record `==` the per-extent walk's."""
    got, got_lines = run_two_ranks(reference=False)
    want, want_lines = run_two_ranks(reference=True)
    (paid0, snap0), (paid1, snap1) = got
    assert paid0 == [True, False, False]
    assert paid1 == [False, False, True]
    assert int(got_lines.sum()) == 2
    assert np.array_equal(got_lines, want_lines)
    for (_, want_snap), got_snap in zip(want, (snap0, snap1)):
        for key in want_snap:
            assert got_snap[key] == want_snap[key], key


# ---------------------------------------------------------------------------
# PMEM store/load/delete against the reference
# ---------------------------------------------------------------------------


def run_kv(*, reference, layout, map_sync):
    """Eight 4 KiB variables stored, loaded, half deleted and re-stored,
    three overwritten, on one rank; returns the loads, the rank's snapshot,
    what is read back from the run, and the device state."""
    data = np.arange(8 * 512, dtype=np.float64).reshape(8, 512)

    def job(ctx):
        restart_span_ids()
        pmem = PMEM(layout=layout, map_sync=map_sync)
        pmem.mmap("/pmem/kv", Communicator.world(ctx))
        for k in range(8):
            pmem.store(f"v{k}", data[k])
        outs = [np.array(pmem.load(f"v{k}")) for k in range(8)]
        for k in range(0, 8, 2):
            pmem.delete(f"v{k}")
            pmem.store(f"v{k}", data[k] * 2)
        for k in range(3):
            pmem.store(f"v{k}", data[k] * 3)
        outs += [np.array(pmem.load(f"v{k}")) for k in range(8)]
        pmem.munmap()
        return outs, snapshot(ctx)

    cl = Cluster(pmem_capacity=16 * MiB)
    with pytest.MonkeyPatch.context() as mp:
        if reference:
            # DaxFS.mmap builds its mappings from the module's name
            mp.setattr(dax_module, "DaxMapping", ReferenceMapping)
        res = cl.run(1, job)
    return res.returns[0], read_back(res), device_state(cl.device)


def check_kv(**case):
    (want_outs, want_snap), want_back, want_dev = run_kv(reference=True,
                                                         **case)
    (got_outs, got_snap), got_back, got_dev = run_kv(reference=False, **case)
    for a, b in zip(want_outs, got_outs):
        assert np.array_equal(a, b)
    for want, got in ((want_snap, got_snap), (want_back, got_back),
                      (want_dev, got_dev)):
        for key in want:
            assert got[key] == want[key], key


@pytest.mark.parametrize("map_sync", [False, True])
@pytest.mark.parametrize("layout", ["hashtable", "hierarchical"])
def test_pmem_ops_equal_per_extent_walk(layout, map_sync):
    check_kv(layout=layout, map_sync=map_sync)
