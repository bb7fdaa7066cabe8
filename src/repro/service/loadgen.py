"""A million-client closed-loop load generator on virtual time.

Simulating 10^6 socket clients with real Python tasks is a non-starter —
the interpreter would spend the whole run context-switching.  Instead the
generator runs a **closed-loop discrete-event simulation on virtual
time**, with three grounding rules that keep it honest:

1. **Cohort representatives.**  ``N`` simulated clients are folded into
   ``R = min(N, max_representatives)`` representatives, each standing for
   a cohort of ``w = N / R`` identical clients.  A representative's
   request is *real* — encoded through :mod:`.wire`, decoded and executed
   by the actual :class:`~.core.ServiceCore` against actual PMEM shards —
   and its cohort's ``w`` copies are extrapolated from the measured cost
   (``T_virtual = T_real × w``: the cohort's copies drain sequentially
   through the same shard).
2. **Real sampled execution.**  Virtual-time costs come from the service
   core's own modeled clock (wire + decode + engine + encode deltas), not
   from constants invented here.  A real-batch budget bounds wall time:
   once spent, further batches reuse the per-shard running average cost
   per request — still measurement-derived, just amortized.
3. **Real backpressure.**  Admission control is enforced in virtual
   client units against the service's ``max_inflight`` window; rejected
   cohorts pay the reject round trip (two wire frames at the core's cost
   model) and retry after the server's suggested ``retry_after_ms``.

Workload shape: zipfian key popularity (seeded, exact pmf over the key
space — no unbounded tail), a configurable read/write mix, and half of
the reads issued as *partial* (block-selection) loads so the zero-staging
read path is on the SLO report as its own endpoint.

Latencies (including queueing and retry delay) are observed into ordinary
:class:`repro.telemetry` histograms; the SLO report and the saturation
sweep render p50/p95/p99 through the same
:func:`~repro.telemetry.export.registry_percentiles` code path as
``PMEM.stats()``.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np

from ..telemetry import MetricRegistry
from ..telemetry.export import registry_percentiles
from ..units import KiB
from . import wire
from .core import RETRY_AFTER_MS, ServiceConfig, ServiceCore

#: loadgen op labels (partial loads get their own SLO endpoint)
OP_STORE_W, OP_LOAD_W, OP_LOAD_P = "store", "load", "load_partial"


@dataclass(frozen=True)
class LoadgenConfig:
    """One load-generation run."""

    clients: int = 1000
    #: virtual duration of the run
    duration_ms: float = 200.0
    #: key-space size and zipf skew (s=0 → uniform)
    keys: int = 128
    zipf_s: float = 1.1
    #: fraction of requests that are reads; half the reads are partial
    read_frac: float = 0.7
    #: whole-variable value size
    value_bytes: int = 4 * KiB
    #: client think time between response and next request
    think_ms: float = 1.0
    seed: int = 2021
    #: fold clients into at most this many real representatives
    max_representatives: int = 256
    #: real engine batches to execute before switching to the measured
    #: running-average cost model (bounds wall time)
    real_batch_budget: int = 200


@dataclass
class LoadReport:
    """What one run produced."""

    clients: int
    duration_ms: float
    #: completed virtual requests and derived throughput
    completed: int = 0
    throughput_rps: float = 0.0
    rejected: int = 0
    reject_rate: float = 0.0
    protocol_errors: int = 0
    #: per-endpoint p50/p95/p99 (ns), keyed ``store``/``load``/``load_partial``
    slo: dict = field(default_factory=dict)
    #: real sampled requests actually executed against PMEM
    sampled_requests: int = 0
    real_batches: int = 0
    service_stats: dict = field(default_factory=dict)

    def to_row(self) -> dict:
        row = {
            "clients": self.clients,
            "throughput_rps": round(self.throughput_rps, 1),
            "completed": self.completed,
            "rejected": self.rejected,
            "reject_rate": round(self.reject_rate, 4),
            "protocol_errors": self.protocol_errors,
        }
        for op in (OP_STORE_W, OP_LOAD_W, OP_LOAD_P):
            pct = self.slo.get(op, {})
            for p in ("p50", "p95", "p99"):
                row[f"{op}_{p}_us"] = round(pct.get(p, 0.0) / 1e3, 2)
        return row


# events, ordered by (time, tiebreak counter)
_ISSUE, _DRAIN = 0, 1


class LoadGenerator:
    """Closed-loop virtual-time driver over a :class:`ServiceCore`."""

    def __init__(self, cfg: LoadgenConfig | None = None,
                 service: ServiceConfig | None = None):
        self.cfg = cfg or LoadgenConfig()
        self.svc_cfg = service or ServiceConfig(collect_engine_spans=False)
        if self.svc_cfg.collect_engine_spans:
            # million-request runs must stay flat in memory
            self.svc_cfg = ServiceConfig(
                **{**self.svc_cfg.__dict__, "collect_engine_spans": False})

    # ------------------------------------------------------------------ workload

    def _zipf_pmf(self) -> np.ndarray:
        ranks = np.arange(1, self.cfg.keys + 1, dtype=np.float64)
        w = ranks ** -self.cfg.zipf_s
        return w / w.sum()

    def run(self) -> LoadReport:
        cfg = self.cfg
        core = ServiceCore(self.svc_cfg)
        rng = np.random.default_rng(cfg.seed)
        reg = MetricRegistry()

        R = min(cfg.clients, cfg.max_representatives)
        w = cfg.clients / R
        duration_ns = cfg.duration_ms * 1e6
        think_ns = cfg.think_ms * 1e6
        pmf = self._zipf_pmf()
        nelems = max(1, cfg.value_bytes // 8)
        value = np.arange(nelems, dtype=np.float64)
        half = nelems // 2

        # prime the keyspace so reads before the first cohort store still hit
        for k in range(cfg.keys):
            core.handle_payload(
                wire.encode_store(0, f"k{k}", value)[4:])
        t0_clock = core.clock_ns

        nshards = self.svc_cfg.nshards
        busy_until = [0.0] * nshards
        draining = [False] * nshards
        queues: list[list] = [[] for _ in range(nshards)]
        inflight = 0.0  # virtual clients between admit and response
        completed = 0
        rejected = 0
        real_batches = 0
        sampled = 0
        # running average real pipeline cost per request, per shard
        avg_ns = [0.0] * nshards
        avg_n = [0] * nshards

        events: list = []
        tiebreak = 0

        def push(t, kind, payload):
            nonlocal tiebreak
            tiebreak += 1
            heapq.heappush(events, (t, tiebreak, kind, payload))

        def sample_op(r):
            if r.random() >= cfg.read_frac:
                return OP_STORE_W
            return OP_LOAD_P if r.random() < 0.5 else OP_LOAD_W

        def encode(op, key, seq):
            name = f"k{key}"
            if op == OP_STORE_W:
                return wire.encode_store(seq, name, value)[4:]
            if op == OP_LOAD_P:
                return wire.encode_load(seq, name, offsets=(half // 2,),
                                        dims=(half,))[4:]
            return wire.encode_load(seq, name)[4:]

        seq_counter = 0

        def next_seq():
            nonlocal seq_counter
            seq_counter += 1
            return seq_counter

        # the modeled cost of an admission reject: request frame out,
        # decode, typed error frame back (same constants the core charges)
        reject_ns = (2 * wire.FRAME_OVERHEAD_NS + wire.wire_cost_ns(64)
                     + wire.wire_cost_ns(96))

        for rep in range(R):
            push(rng.random() * think_ns, _ISSUE, rep)

        batch_max = float(core.cfg.batch_max)
        completed_f = 0.0
        rejected_f = 0.0

        while events:
            t, _, kind, payload = heapq.heappop(events)
            if t >= duration_ns:
                break
            if kind == _ISSUE:
                rep = payload
                op = sample_op(rng)
                key = int(rng.choice(cfg.keys, p=pmf))
                # weighted admission: admit the slice of the cohort that
                # fits the window, reject the remainder (it folds into the
                # representative's next closed-loop issue)
                room = core.cfg.max_inflight - inflight
                admitted_w = min(w, max(0.0, room))
                rejected_w = w - admitted_w
                if rejected_w > 0:
                    rejected_f += rejected_w
                    reg.histogram("loadgen.reject.ns").observe(reject_ns)
                if admitted_w <= 0:
                    # whole cohort bounced: back off and retry
                    push(t + reject_ns + RETRY_AFTER_MS * 1e6,
                         _ISSUE, rep)
                    continue
                inflight += admitted_w
                shard = core.ring.shard_of(f"k{key}")
                queues[shard].append((rep, op, key, admitted_w, t))
                if not draining[shard]:
                    draining[shard] = True
                    push(max(t, busy_until[shard]), _DRAIN, shard)
            else:
                shard = payload
                # sweep entries until the *virtual* batch reaches the
                # service's batch_max worth of cohort requests
                batch = []
                weight = 0.0
                while queues[shard] and (not batch
                                         or weight < batch_max):
                    entry = queues[shard].pop(0)
                    batch.append(entry)
                    weight += entry[3]
                # real sample: one engine batch of independent draws, the
                # same size the virtual batch would run at (≤ batch_max)
                m = int(max(1, min(batch_max, round(weight))))
                if real_batches < cfg.real_batch_budget:
                    t_clock = core.clock_ns
                    envs = []
                    for _ in range(m):
                        s_op = sample_op(rng)
                        s_key = int(rng.choice(cfg.keys, p=pmf))
                        envs.append(core.accept(
                            encode(s_op, s_key, next_seq())))
                    core.execute_batch(shard, envs)
                    dt = core.clock_ns - t_clock
                    real_batches += 1
                    sampled += m
                    # running per-request average real cost for this shard
                    avg_ns[shard] = ((avg_ns[shard] * avg_n[shard] + dt)
                                     / (avg_n[shard] + m))
                    avg_n[shard] += m
                else:
                    dt = avg_ns[shard] * m if avg_n[shard] else 1e5 * m
                # the cohort's `weight` virtual requests drain through
                # engine batches of the sampled per-request cost
                t_done = max(t, busy_until[shard]) + dt * (weight / m)
                busy_until[shard] = t_done
                for (rep, op, key, ew, t_issue) in batch:
                    inflight -= ew
                    completed_f += ew
                    reg.histogram(f"loadgen.{op}.ns").observe(
                        t_done - t_issue)
                    push(t_done + think_ns, _ISSUE, rep)
                if queues[shard]:
                    push(t_done, _DRAIN, shard)
                else:
                    draining[shard] = False
        completed = int(round(completed_f))
        rejected = int(round(rejected_f))

        stats = core.stats()
        pct = registry_percentiles(reg)
        slo = {op: pct.get(f"loadgen.{op}.ns", {})
               for op in (OP_STORE_W, OP_LOAD_W, OP_LOAD_P)}
        if "loadgen.reject.ns" in pct:
            slo["reject"] = pct["loadgen.reject.ns"]
        total = completed + rejected
        return LoadReport(
            clients=cfg.clients,
            duration_ms=cfg.duration_ms,
            completed=completed,
            throughput_rps=completed / (cfg.duration_ms / 1e3),
            rejected=rejected,
            reject_rate=(rejected / total) if total else 0.0,
            protocol_errors=int(
                stats["counters"].get("service.protocol_errors", 0)),
            slo=slo,
            sampled_requests=sampled,
            real_batches=real_batches,
            service_stats=stats,
        )


# ---------------------------------------------------------------------------
# the saturation sweep
# ---------------------------------------------------------------------------

DEFAULT_SWEEP = (100, 1_000, 10_000, 100_000, 1_000_000)


def saturation_sweep(client_counts=DEFAULT_SWEEP, *,
                     base: LoadgenConfig | None = None,
                     service: ServiceConfig | None = None
                     ) -> list[LoadReport]:
    """Run the closed loop at each fleet size; same seed, same workload."""
    base = base or LoadgenConfig()
    out = []
    for n in client_counts:
        cfg = LoadgenConfig(**{**base.__dict__, "clients": int(n)})
        out.append(LoadGenerator(cfg, service).run())
    return out


def saturation_checks(reports: list[LoadReport]) -> list[tuple[str, bool]]:
    """(claim, holds) over a sweep: the pipeline stays clean at every fleet
    size, 100 clients shed nothing and 100 000 clients shed most of their
    load.  A fleet-size claim is checked only when the sweep has that size."""
    by = {r.clients: r for r in reports}
    checks = [
        ("zero protocol errors at every fleet size",
         all(r.protocol_errors == 0 for r in reports)),
        ("every fleet size completes requests",
         all(r.completed > 0 for r in reports)),
    ]
    if 100 in by:
        checks.append(("100 clients: nothing rejected",
                       by[100].reject_rate == 0.0))
    if 100_000 in by:
        checks.append(("100000 clients: > 50% rejected",
                       by[100_000].reject_rate > 0.5))
    return checks


def render_csv(reports: list[LoadReport]) -> str:
    rows = [r.to_row() for r in reports]
    cols = list(rows[0].keys())
    lines = [",".join(cols)]
    for row in rows:
        lines.append(",".join(str(row[c]) for c in cols))
    return "\n".join(lines) + "\n"


def render_table(reports: list[LoadReport]) -> str:
    """The saturation curve as a fixed-width table plus an ASCII sparkline
    of throughput vs clients (log-x)."""
    header = (f"{'clients':>10} {'rps':>12} {'rejected':>10} "
              f"{'rej%':>6} {'store p99(us)':>14} {'load p99(us)':>13} "
              f"{'partial p99(us)':>16} {'proto errs':>10}")
    lines = ["service saturation: throughput vs simulated clients",
             "=" * len(header), header, "-" * len(header)]
    for r in reports:
        row = r.to_row()
        lines.append(
            f"{row['clients']:>10} {row['throughput_rps']:>12.1f} "
            f"{row['rejected']:>10} {100 * row['reject_rate']:>5.1f}% "
            f"{row['store_p99_us']:>14.2f} {row['load_p99_us']:>13.2f} "
            f"{row['load_partial_p99_us']:>16.2f} "
            f"{row['protocol_errors']:>10}")
    peak = max((r.throughput_rps for r in reports), default=1.0) or 1.0
    lines.append("")
    lines.append("throughput curve (each bar normalized to peak):")
    for r in reports:
        bar = "#" * max(1, int(40 * r.throughput_rps / peak))
        lines.append(f"{r.clients:>10} |{bar:<40}| "
                     f"{r.throughput_rps:>12.1f} rps")
    lines.append("")
    lines.append("admission control engages where the curve flattens and "
                 "rej% rises; protocol errors must stay 0 at every point.")
    return "\n".join(lines) + "\n"
