"""Post-run lock-discipline checker.

Every :meth:`Context.lock_acquired <repro.sim.engine.Context.lock_acquired>` /
``lock_released`` / ``record_guarded_write`` call leaves an event in the
rank's :attr:`~repro.sim.trace.RankTrace.lock_events` log.  After a run,
:func:`check_lock_discipline` replays those logs and flags:

- **lock-order cycles** — a cycle in the union (over all ranks) of the
  held-before graph: rank A takes ``L1`` then ``L2`` while rank B takes
  ``L2`` then ``L1``.  Such runs may complete in the functional pass
  (its one schedule need not hit the cycle), but the interleaving that
  deadlocks exists, so the checker fails them statically.
- **unguarded metadata writes** — a ``record_guarded_write(scope)``
  declaration with no exclusive hold of ``scope`` at that point: a
  lost-update race.
- **reentrant acquires, unmatched releases, leaked locks** — discipline
  bugs that the modeled (non-reentrant, pmemobj-style) locks forbid.

The checker is pure trace analysis: it never blocks and is safe to run on
any finished :class:`~repro.sim.engine.SpmdResult`.  Setting the
``REPRO_LOCKCHECK`` environment variable makes :func:`~repro.sim.run_spmd`
run it after every successful SPMD run and raise
:class:`~repro.errors.LockDisciplineError` on violations — the mode the
dedicated CI job uses.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import LockDisciplineError


@dataclass(frozen=True)
class LockViolation:
    kind: str      # "lock-order-cycle" | "unguarded-write" | "reentrant-acquire"
    #                | "release-unheld" | "leaked-lock"
    rank: int      # -1 for cross-rank findings (cycles)
    detail: str

    def __str__(self) -> str:
        where = "all ranks" if self.rank < 0 else f"rank {self.rank}"
        return f"[{self.kind}] {where}: {self.detail}"


@dataclass
class LockDisciplineReport:
    """Everything the checker derived from one run's lock-event logs."""

    #: (held_lock, then_acquired) -> set of ranks that created the edge
    order_edges: dict[tuple[str, str], set[int]] = field(default_factory=dict)
    violations: list[LockViolation] = field(default_factory=list)
    #: total acquire events seen (sanity signal that instrumentation is on)
    n_acquires: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations

    def raise_if_violations(self) -> None:
        if self.violations:
            lines = "\n".join(f"  - {v}" for v in self.violations)
            raise LockDisciplineError(
                f"lock-discipline check failed with "
                f"{len(self.violations)} violation(s):\n{lines}"
            )

    def render(self) -> str:
        lines = [
            f"== lock discipline: {self.n_acquires} acquires, "
            f"{len(self.order_edges)} order edges, "
            f"{len(self.violations)} violations =="
        ]
        for v in self.violations:
            lines.append(f"  {v}")
        return "\n".join(lines)


def _find_cycle(edges: dict[tuple[str, str], set[int]]) -> list[str] | None:
    """Return one cycle (as a node path) in the directed graph, or None."""
    graph: dict[str, list[str]] = {}
    for a, b in edges:
        graph.setdefault(a, []).append(b)
        graph.setdefault(b, [])
    WHITE, GREY, BLACK = 0, 1, 2
    color = {n: WHITE for n in graph}
    stack: list[str] = []

    def dfs(node: str) -> list[str] | None:
        color[node] = GREY
        stack.append(node)
        for nxt in sorted(graph[node]):
            if color[nxt] == GREY:
                return stack[stack.index(nxt):] + [nxt]
            if color[nxt] == WHITE:
                found = dfs(nxt)
                if found:
                    return found
        stack.pop()
        color[node] = BLACK
        return None

    for node in sorted(graph):
        if color[node] == WHITE:
            found = dfs(node)
            if found:
                return found
    return None


def check_lock_discipline(traces) -> LockDisciplineReport:
    """Analyze the per-rank lock-event logs of a finished run."""
    report = LockDisciplineReport()

    for trace in traces:
        held: dict[str, str] = {}  # lock_id -> "r" | "w", insertion-ordered
        for kind, name, mode in getattr(trace, "lock_events", ()):
            if kind == "acquire":
                report.n_acquires += 1
                if name in held:
                    report.violations.append(LockViolation(
                        "reentrant-acquire", trace.rank,
                        f"{name!r} acquired while already held "
                        f"({held[name]}-mode)",
                    ))
                    continue
                for prior in held:
                    report.order_edges.setdefault(
                        (prior, name), set()
                    ).add(trace.rank)
                held[name] = mode
            elif kind == "release":
                if name not in held:
                    report.violations.append(LockViolation(
                        "release-unheld", trace.rank,
                        f"{name!r} released but not held",
                    ))
                else:
                    del held[name]
            elif kind == "write":
                if held.get(name) != "w":
                    report.violations.append(LockViolation(
                        "unguarded-write", trace.rank,
                        f"metadata write under scope {name!r} without "
                        f"holding its exclusive guard (held: "
                        f"{sorted(held) or 'nothing'})",
                    ))
        if held:
            report.violations.append(LockViolation(
                "leaked-lock", trace.rank,
                f"run ended still holding {sorted(held)}",
            ))

    cycle = _find_cycle(report.order_edges)
    if cycle is not None:
        report.violations.append(LockViolation(
            "lock-order-cycle", -1,
            "potential deadlock: " + " -> ".join(repr(n) for n in cycle),
        ))
    return report
