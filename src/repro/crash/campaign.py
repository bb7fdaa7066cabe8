"""Campaign runner: enumerate crash states, recover each, run the oracles.

One campaign = one workload on one crash-simulating :class:`Cluster`:

1. run ``prepare`` (committed baseline), drain, attach the journal;
2. run ``record`` — every store/flush/drain now lands in the journal;
3. enumerate up to ``budget`` :class:`CrashState`\\ s (seeded, sorted by
   crash point) and, for each: materialize the durable image into the
   device, restore the matching fs-metadata snapshot, drop volatile node
   state (simulated restart), re-open via ``open_probe`` (undo-log replay,
   lock recovery), and run every oracle;
4. report violations, campaign counters, and — via
   :func:`repro.crash.minimize.minimize` — a minimal repro per failure.

The cluster's pre-campaign state is saved and restored, so a campaign can
run against a live cluster without disturbing it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..cluster import Cluster
from ..telemetry import MetricRegistry
from ..units import MiB
from .journal import Journal, Replayer
from .oracle import RecoveredWorld, default_oracles
from .states import CrashState, enumerate_states
from .workloads import CrashWorkload


@dataclass
class CampaignFailure:
    """One crash state that violated an invariant."""

    state: CrashState
    problems: list[str]
    completed: frozenset

    def describe(self) -> str:
        lines = [f"crash state: {self.state.describe()}"]
        if self.completed:
            lines.append(f"completed ops: {sorted(self.completed)}")
        lines.extend(f"  - {p}" for p in self.problems)
        return "\n".join(lines)


@dataclass
class CampaignReport:
    workload: str
    budget: int
    seed: int
    states_explored: int = 0
    events: int = 0
    epochs: int = 0
    dirty_line_hwm: int = 0
    states_by_tier: dict[int, int] = field(default_factory=dict)
    failures: list[CampaignFailure] = field(default_factory=list)
    #: the (possibly mutated) journal the campaign explored — what the
    #: minimizer needs to shrink a failure
    journal: Journal | None = field(default=None, repr=False)

    @property
    def ok(self) -> bool:
        return not self.failures

    def counters(self) -> MetricRegistry:
        """Campaign telemetry as a registry of ``crash.*`` counters."""
        reg = MetricRegistry()
        reg.counter("crash.states_explored").add(self.states_explored)
        reg.counter("crash.journal_events").add(self.events)
        reg.counter("crash.epochs").add(self.epochs)
        reg.counter("crash.dirty_line_hwm").add(self.dirty_line_hwm)
        reg.counter("crash.violations").add(len(self.failures))
        for tier, n in sorted(self.states_by_tier.items()):
            reg.counter(f"crash.states.p{tier}").add(n)
        return reg

    def render(self) -> str:
        head = (
            f"== crash campaign: {self.workload} "
            f"(budget {self.budget}, seed {self.seed}) ==\n"
            f"{self.states_explored} states over {self.events} events / "
            f"{self.epochs} epochs, dirty-line HWM {self.dirty_line_hwm}"
        )
        if self.ok:
            return head + "\nall invariants held ✓"
        parts = [head, f"{len(self.failures)} VIOLATION(S):"]
        parts.extend(f.describe() for f in self.failures)
        return "\n".join(parts)


def run_campaign(
    workload: CrashWorkload,
    *,
    cluster: Cluster | None = None,
    budget: int = 150,
    seed: int = 0,
    oracles=None,
    mutate=None,
    max_failures: int = 25,
) -> CampaignReport:
    """Run one crash campaign; returns the report (does not raise on
    violations).  ``mutate(journal) -> journal`` injects faults into the
    recorded journal before enumeration — the oracle self-test hook.
    """
    cl = cluster or Cluster(crash_sim=True, pmem_capacity=8 * MiB)
    if not cl.device.crash_sim:
        raise ValueError("crash campaigns need a crash_sim=True cluster")
    oracles = default_oracles() if oracles is None else list(oracles)

    cl.run(1, workload.prepare)
    journal = Journal()
    journal.attach(cl.device, cl.fs)
    workload.journal = journal
    try:
        cl.run(1, workload.record)
    finally:
        journal.detach()
        workload.journal = None

    # preserve the live node so the campaign leaves no trace behind
    saved_dev = cl.device.state_save()
    saved_fs = cl.fs.meta_snapshot()
    saved_pools = dict(cl.pools)

    if mutate is not None:
        journal = mutate(journal)

    states = enumerate_states(journal, budget=budget, seed=seed)
    report = CampaignReport(
        workload=workload.name, budget=budget, seed=seed,
        states_explored=len(states), events=len(journal),
        epochs=journal.n_epochs(),
        dirty_line_hwm=cl.device.persistence_counters()["device_dirty_line_hwm"],
        journal=journal,
    )
    for s in states:
        report.states_by_tier[s.tier] = report.states_by_tier.get(s.tier, 0) + 1

    replay = Replayer(journal)
    try:
        for state in states:
            replay.advance_to(state.index)
            img = replay.materialize(state.retired, state.torn)
            completed = journal.completed_at(state.index)
            problems = probe_state(
                cl, workload, oracles, state, img,
                journal.fs_snapshot_at(state.index), completed,
            )
            if problems:
                report.failures.append(
                    CampaignFailure(state, problems, completed)
                )
                if len(report.failures) >= max_failures:
                    break
    finally:
        cl.device.state_restore(saved_dev)
        cl.fs.meta_restore(saved_fs)
        cl.pools.clear()
        cl.pools.update(saved_pools)
    return report


def probe_state(
    cl: Cluster, workload, oracles, state, img, fs_snap, completed,
) -> list[str]:
    """Materialize one crash image, simulate restart, recover, and run the
    oracles; returns problem strings (a crashed recovery is a problem)."""
    cl.device.install_image(img)
    cl.fs.meta_restore(fs_snap)
    cl.drop_caches()

    def probe(ctx):
        handles = workload.open_probe(ctx)
        world = RecoveredWorld(
            workload=workload, state=state,
            completed=completed, handles=handles,
        )
        problems: list[str] = []
        for oracle in oracles:
            problems.extend(oracle.check(ctx, world))
        return problems

    try:
        return cl.run(1, probe).returns[0]
    except Exception as e:  # noqa: BLE001 - recovery death IS the finding
        return [f"recovery failed: {e!r}"]


def crash_consistent(workload_factory, *, budget: int = 120, seed: int = 0,
                     cluster_factory=None):
    """Pytest helper: run a campaign, assert zero violations, then call the
    wrapped function with the report::

        @crash_consistent(lambda: StoreWorkload("hashtable"), budget=80)
        def test_store_survives_crashes(report):
            assert report.states_explored >= 80
    """

    def decorate(fn):
        def wrapper():
            cl = cluster_factory() if cluster_factory else None
            report = run_campaign(
                workload_factory(), cluster=cl, budget=budget, seed=seed
            )
            assert report.ok, report.render()
            return fn(report)

        wrapper.__name__ = fn.__name__
        wrapper.__doc__ = fn.__doc__
        wrapper.__module__ = fn.__module__
        return wrapper

    return decorate


def drop_op_persists(journal: Journal, op_tag: str) -> Journal:
    """Fault injector: drop every flush/drain between ``begin:<op>`` and
    ``done:<op>`` — the operation's publish-phase metadata writes never
    persist, though the program believed they did.  A correct oracle MUST
    flag the states after ``done:<op>`` (completed yet invisible)."""
    begin = journal.mark_index(f"begin:{op_tag}")
    done = journal.mark_index(f"done:{op_tag}")
    if begin is None or done is None:
        raise ValueError(f"no begin/done marks for {op_tag!r}")
    drop = [
        i for i in range(begin, done)
        if journal.events[i].kind in ("flush", "drain")
    ]
    return journal.without_events(drop)
