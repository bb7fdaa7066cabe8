"""The service core: a synchronous request pipeline on a modeled clock.

Every request moves through five instrumented stages —
``service.accept`` → ``service.decode`` → ``service.dispatch`` →
``service.engine`` → ``service.encode`` — each recorded as a
:mod:`repro.telemetry` span on the core's **service clock**.  The clock is
modeled, not wall time: wire stages charge the :func:`~.wire.wire_cost_ns`
cost model and the engine stage charges the batch's exact modeled makespan
from the shard's single-rank SPMD run.  That makes the whole RPC path
deterministic, which is what lets ``service.*`` scenarios sit in the perf
observatory behind the same ±1% modeled-ns gate as the library hot paths.

Admission control is a bounded in-flight window: :meth:`ServiceCore.admit`
raises :class:`~repro.errors.ServiceOverloadedError` (typed backpressure,
carrying ``retry_after_ms``) the moment ``max_inflight`` requests are
between accept and response.  Rejected requests never touch a shard — the
reject path costs two wire frames and nothing else, which is why the
saturation curve flattens instead of collapsing when 10^6 clients arrive.

Observability (DESIGN.md §14): every request owns a **trace id** —
client-minted and carried in the wire trace-context extension, or
server-minted (high bit set) for requests without a trace extension — and
every pipeline-stage span is tagged with it.  Engine spans come back from
the shard already wrapped in per-request ``service.shard.request`` markers,
so :meth:`ServiceCore._absorb_engine_spans` attributes them to their owning
request instead of bulk-rebasing anonymous batches.  Each finished
request is offered to an always-on :class:`~repro.telemetry.flight.
FlightRecorder` (tail sampling: errors/rejects/SLO violations always
kept), and the live registry is scrapeable as Prometheus text via the
METRICS wire op.

Thread model: the asyncio front-end decodes/encodes on the event loop and
runs shard batches on worker threads, so every clock/span/metric mutation
here takes the core lock for a short, non-blocking section; spans are
recorded as *closed* intervals (begin → advance → end under the lock),
never held open across an engine run.  The pipeline itself is fully
synchronous — :meth:`handle_payload` is the whole server in one call,
which is exactly what the perf scenarios and the virtual-time load
generator drive.
"""

from __future__ import annotations

import json
import os
import threading
from dataclasses import dataclass, field, replace as dc_replace

import numpy as np

from ..errors import (
    ProtocolError,
    ReproError,
    ServiceError,
    ServiceOverloadedError,
)
from ..sim.trace import RankTrace
from ..telemetry import MetricRegistry, metrics_for, record, span
from ..telemetry.export import registry_percentiles
from ..telemetry.flight import FlightRecord, FlightRecorder
from ..telemetry.prometheus import prometheus_text
from . import wire
from .shard import ShardExecutor, ShardRing
from .wire import (
    OP_DELETE,
    OP_FLIGHT,
    OP_LOAD,
    OP_METRICS,
    OP_PING,
    OP_STATS,
    OP_STORE,
    Request,
    wire_cost_ns,
)

#: modeled per-byte request parse cost (header walk + ndarray wrap)
DECODE_BYTE_NS = 0.02
#: modeled fixed costs of the non-wire pipeline stages
DECODE_OVERHEAD_NS = 500.0
DISPATCH_NS = 300.0
#: suggested client backoff carried in overload errors
RETRY_AFTER_MS = 50.0
#: flight recorder (:mod:`repro.telemetry.flight`) ring capacity
FLIGHT_CAPACITY = 256


class ServiceContext:
    """A minimal telemetry context for the service's modeled clock.

    Quacks like the corner of :class:`repro.sim.engine.Context` the
    telemetry layer uses — ``lb_ns`` plus a :class:`RankTrace` to hang
    spans and metric families on — without being an SPMD rank.
    """

    __slots__ = ("trace", "lb_ns")

    def __init__(self):
        self.trace = RankTrace(rank=0)
        self.lb_ns = 0.0

    def advance(self, ns: float) -> None:
        self.lb_ns += ns


@dataclass(frozen=True)
class ServiceConfig:
    """Tuning knobs of one service instance."""

    nshards: int = 4
    #: admission-control window: requests between accept and response
    max_inflight: int = 1024
    #: max requests one shard batch may carry
    batch_max: int = 64
    #: keep every span in the service trace, shard-engine spans included
    #: (rebased onto the service clock) — perf scenarios walk that trace;
    #: off, a request's spans leave it once offered to the flight
    #: recorder, so ``serve`` and the load generator stay flat in memory
    collect_engine_spans: bool = True
    #: flight recorder: the 1-in-N sampling period for healthy requests
    flight_sample_every: int = 64
    #: latency SLO in modeled ns — requests above it are always kept; None
    #: disables the SLO keep-reason (errors/rejects are still kept)
    flight_slo_ns: float | None = None
    #: SLO-burn auto-dump: when >= burn_frac of the last burn_window
    #: requests were kept for cause, dump the ring to flight_dump_dir
    flight_burn_window: int = 64
    flight_burn_frac: float = 0.5
    flight_dump_dir: str | None = None


@dataclass
class Envelope:
    """One accepted request travelling through the pipeline."""

    req: Request
    #: service-clock timestamp at accept (latency measurements anchor here)
    t_accept: float = 0.0
    frame_bytes: int = 0
    #: the request's trace id — client-minted via the wire trace-context
    #: extension, or server-minted (high bit set) for requests without one
    trace_id: int = 0
    #: this request's spans, accumulated stage by stage across the
    #: pipeline for the flight recorder
    spans: list = field(default_factory=list)


class ServiceCore:
    """Sharded pMEMCPY store behind the wire protocol (see module doc)."""

    def __init__(self, config: ServiceConfig | None = None):
        self.cfg = config or ServiceConfig()
        self.ring = ShardRing(self.cfg.nshards)
        self.shards = [ShardExecutor(i) for i in range(self.cfg.nshards)]
        self.ctx = ServiceContext()
        self._lock = threading.Lock()
        self._inflight = 0
        self._trace_seq = 0
        self.flight = FlightRecorder(
            FLIGHT_CAPACITY, self.cfg.flight_sample_every,
            self.cfg.flight_slo_ns,
            burn_window=self.cfg.flight_burn_window,
            burn_frac=self.cfg.flight_burn_frac,
            on_burn=self._on_slo_burn,
        )

    # ------------------------------------------------------------------ clock

    def _count(self, name: str, amount: float = 1.0) -> None:
        record(self.ctx, name, amount)

    def _mint_trace(self) -> int:
        """Server-minted trace id for requests without a trace extension.

        The high bit marks server-minted ids so dumps distinguish them
        from client-minted ones; the low bits are a core-local sequence,
        keeping the id deterministic for the perf scenarios."""
        self._trace_seq += 1
        return (1 << 63) | self._trace_seq

    def _tag(self, env: Envelope, sp) -> None:
        """Stamp a pipeline-stage span with the owning request's identity
        and collect it into the envelope."""
        sp.attrs = {**(sp.attrs or {}), "trace": env.trace_id,
                    "seq": env.req.seq}
        env.spans.append(sp)

    @property
    def clock_ns(self) -> float:
        return self.ctx.lb_ns

    @property
    def inflight(self) -> int:
        return self._inflight

    # ------------------------------------------------------------------ admission

    def admit(self, n: int = 1) -> None:
        """Claim ``n`` admission slots or raise typed backpressure."""
        with self._lock:
            if self._inflight + n > self.cfg.max_inflight:
                self._count("service.rejects", n)
                raise ServiceOverloadedError(
                    self._inflight, self.cfg.max_inflight, RETRY_AFTER_MS,
                )
            self._inflight += n
            self._count("service.admitted", n)
            g = metrics_for(self.ctx).gauge("service.inflight")
            g.set(max(g.value, float(self._inflight)))

    def release(self, n: int = 1) -> None:
        with self._lock:
            self._inflight = max(0, self._inflight - n)

    # ------------------------------------------------------------------ stages

    def accept(self, payload: bytes) -> Envelope:
        """Stages 1+2: charge the inbound frame, decode it.

        Raises :class:`ProtocolError`/:class:`ProtocolVersionError` on
        malformed frames (counted in ``service.protocol_errors``)."""
        with self._lock:
            t0 = self.ctx.lb_ns
            with span(self.ctx, "service.accept", bytes=len(payload)) as acc:
                self.ctx.advance(wire_cost_ns(len(payload)))
                self._count("service.frames.in")
                self._count("service.bytes.in", len(payload))
                try:
                    with span(self.ctx, "service.decode") as dec:
                        self.ctx.advance(
                            DECODE_OVERHEAD_NS
                            + DECODE_BYTE_NS * len(payload))
                        frame = wire.decode_frame(payload)
                        req = wire.decode_request(
                            frame.kind, frame.seq, frame.body,
                            trace_id=frame.trace_id or 0)
                except ProtocolError:
                    self._count("service.protocol_errors")
                    raise
                tid = req.trace_id or self._mint_trace()
                if req.trace_id != tid:
                    req = dc_replace(req, trace_id=tid)
                env = Envelope(req, t_accept=t0, frame_bytes=len(payload),
                               trace_id=tid)
                self._tag(env, dec)
                self._tag(env, acc)
            return env

    def shard_of(self, env: Envelope) -> int:
        """Stage 3: route the request to its shard (consistent hashing)."""
        with self._lock:
            with span(self.ctx, "service.dispatch", var=env.req.name) as sp:
                self.ctx.advance(DISPATCH_NS)
                self._tag(env, sp)
        return self.ring.shard_of(env.req.name)

    def execute_batch(self, shard: int, envelopes: list[Envelope]
                      ) -> list[bytes]:
        """Stages 4+5 for one shard batch: engine run, then per-request
        response encoding.  Returns the encoded response frames in order.

        The engine run itself executes outside the core lock (shards run
        truly concurrently under the asyncio front-end); only the clock
        and span bookkeeping serialize."""
        executor = self.shards[shard]
        batch = [e.req for e in envelopes]
        try:
            result = executor.apply(batch)
        except ReproError as exc:
            # shard-level fault: every request in the batch fails typed
            with self._lock:
                self._count("service.shard_errors", len(batch))
                return [self._encode_response(e, exc) for e in envelopes]
        with self._lock:
            with span(self.ctx, "service.engine", shard=shard,
                      batch=len(batch)) as eng:
                self.ctx.advance(result.engine_ns)
            # the engine stage is batch-shared: every request in the batch
            # sees it in its flight record (deduped on export)
            for env in envelopes:
                env.spans.append(eng)
            if result.coalesced:
                self._count("service.store.coalesced", result.coalesced)
            metrics_for(self.ctx).histogram("service.batch.requests").observe(
                float(len(batch)))
            if self.cfg.collect_engine_spans:
                self._absorb_engine_spans(result.traces, envelopes, eng)
            return [
                self._encode_response(env, out)
                for env, out in zip(envelopes, result.outcomes)
            ]

    def _absorb_engine_spans(self, traces, envelopes, stage) -> None:
        """Rebase the spans of the batch's engine traces onto the service
        clock and attribute each one to its owning request.

        The shard wraps every request it executes in a
        ``service.shard.request`` marker span carrying the request's
        trace/seq (:mod:`repro.service.shard`), so ownership of any
        engine span is its nearest marker ancestor.  Owned spans are
        tagged with the owner's trace/seq and copied into its envelope
        (the flight recorder sees the complete per-request tree);
        engine-run roots are reparented under the batch's
        ``service.engine`` stage span so the service trace stays one
        connected tree instead of interleaving anonymous batch spans."""
        spans = [s for t in traces for s in t.spans]
        if not spans:
            return
        base = self.ctx.lb_ns
        shift = base - max(s.end_ns for s in spans)
        by_id = {}
        for s in spans:
            s.start_ns += shift
            s.end_ns += shift
            by_id[s.span_id] = s
        owner_of: dict[int, tuple | None] = {}

        def owner(s):
            if s.span_id in owner_of:
                return owner_of[s.span_id]
            if s.name == "service.shard.request":
                a = s.attrs or {}
                own = (a.get("trace", 0), a.get("seq", 0))
            elif s.parent_id in by_id:
                own = owner(by_id[s.parent_id])
            else:
                own = None
            owner_of[s.span_id] = own
            return own

        env_by_trace = {e.trace_id: e for e in envelopes}
        for s in spans:
            own = owner(s)
            if s.parent_id not in by_id:
                s.parent_id = stage.span_id
            if own is not None:
                trace_id, seq = own
                if s.name != "service.shard.request":
                    s.attrs = {**(s.attrs or {}), "trace": trace_id,
                               "seq": seq}
                env = env_by_trace.get(trace_id)
                if env is not None:
                    env.spans.append(s)
            self.ctx.trace.spans.append(s)

    def _encode_response(self, env: Envelope, outcome) -> bytes:
        """Stage 5 (caller holds the lock): encode, charge, observe SLO,
        then offer the finished request to the flight recorder."""
        seq = env.req.seq
        tid = env.trace_id or None
        status = "ok"
        if isinstance(outcome, BaseException):
            resp = wire.encode_error(seq, outcome, trace_id=tid)
            if isinstance(outcome, ServiceOverloadedError):
                status = "rejected"
            else:
                status = f"error:{type(outcome).__name__}"
                self._count("service.errors")
        elif outcome is None:
            resp = wire.encode_ok_empty(seq, trace_id=tid)
        elif isinstance(outcome, (np.ndarray, np.generic, float, int)):
            resp = wire.encode_ok_array(seq, np.asarray(outcome),
                                        trace_id=tid)
        else:
            resp = wire.encode_ok_json(seq, outcome, trace_id=tid)
        with span(self.ctx, "service.encode", bytes=len(resp)) as sp:
            self.ctx.advance(wire_cost_ns(len(resp)))
            self._tag(env, sp)
        self._count("service.frames.out")
        self._count("service.bytes.out", len(resp))
        metrics_for(self.ctx).histogram(
            f"service.rpc.{env.req.op_name}.ns"
        ).observe(self.ctx.lb_ns - env.t_accept)
        self.flight.offer(FlightRecord(
            trace_id=env.trace_id, seq=seq, op=env.req.op_name,
            var=env.req.name, status=status,
            start_ns=env.t_accept, end_ns=self.ctx.lb_ns,
            bytes_in=env.frame_bytes, bytes_out=len(resp),
            spans=env.spans,
        ))
        if not self.cfg.collect_engine_spans:
            # every span closes under the core lock and the requests still
            # in flight hold their own in their envelopes: nothing reads
            # the service trace, so it keeps none
            self.ctx.trace.span_entries.clear()
        return resp

    # ------------------------------------------------------------------ one-shot

    def handle_payload(self, payload: bytes) -> bytes:
        """The whole pipeline for one request frame payload, synchronously.

        This is the reference execution path: the perf scenarios and the
        virtual-time load generator call it directly; the asyncio server
        reproduces the same stages with batching between them.  Protocol
        violations are answered with a typed ERR frame (seq 0 when the
        frame never yielded one)."""
        try:
            env = self.accept(payload)
        except ProtocolError as exc:
            with self._lock:
                return self._encode_response(
                    Envelope(Request(OP_PING, 0), t_accept=self.ctx.lb_ns),
                    exc)
        local = self._handle_local(env)
        if local is not None:
            return local
        try:
            self.admit()
        except ServiceOverloadedError as exc:
            with self._lock:
                return self._encode_response(env, exc)
        try:
            shard = self.shard_of(env)
            return self.execute_batch(shard, [env])[0]
        finally:
            self.release()

    def _handle_local(self, env: Envelope) -> bytes | None:
        """STATS/PING never touch a shard (they must answer even when the
        data path is saturated); returns None for data-path ops."""
        if env.req.op == OP_PING:
            with self._lock:
                return self._encode_response(env, None)
        if env.req.op == OP_STATS:
            doc = self.stats()
            with self._lock:
                return self._encode_response(env, doc)
        if env.req.op == OP_METRICS:
            text = self.prometheus()
            with self._lock:
                return self._encode_response(
                    env, {"content_type": "text/plain; version=0.0.4",
                          "body": text})
        if env.req.op == OP_FLIGHT:
            doc = self.flight_dump()
            with self._lock:
                return self._encode_response(env, doc)
        if env.req.op not in (OP_STORE, OP_LOAD, OP_DELETE):
            with self._lock:
                return self._encode_response(
                    env, ServiceError(f"unroutable op {env.req.op}"))
        return None

    # ------------------------------------------------------------------ observability

    def prometheus(self) -> str:
        """One Prometheus text-format page over the whole instance:
        the service registry merged with every shard's engine registry,
        plus a few instantaneous gauges."""
        with self._lock:
            reg = MetricRegistry.merged(
                [metrics_for(self.ctx), *(s.metrics for s in self.shards)])
            extra = {
                "service.clock.ns": self.ctx.lb_ns,
                "service.inflight.now": float(self._inflight),
                "service.flight.resident": float(len(self.flight)),
            }
        return prometheus_text(reg, extra=extra)

    def flight_dump(self) -> dict:
        """The flight recorder's ring as a ``repro-flight/1`` document."""
        with self._lock:
            return self.flight.dump()

    def _on_slo_burn(self, rec: FlightRecorder) -> None:
        """SLO-burn hook (called under the core lock): count it and, when
        a dump directory is configured, persist the ring while the
        offending requests are still resident."""
        self._count("service.flight.burns")
        out_dir = self.cfg.flight_dump_dir
        if not out_dir:
            return
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, f"flight_burn_{rec.burns:04d}.json")
        with open(path, "w") as fh:
            json.dump(rec.dump(), fh, indent=2, sort_keys=True,
                      default=float)

    # ------------------------------------------------------------------ stats

    def stats(self) -> dict:
        """Service-level stats: counters, per-endpoint latency percentiles
        (via the shared :func:`registry_percentiles` code path), shard
        inventory, and the admission window."""
        with self._lock:
            reg = metrics_for(self.ctx)
            counters = {
                name: reg.get(name).value
                for name in reg.names()
                if getattr(reg.get(name), "kind", "") in ("counter", "gauge")
            }
            latency = {
                name: pct
                for name, pct in registry_percentiles(reg).items()
                if name.startswith("service.rpc.")
            }
            return {
                "clock_ns": self.ctx.lb_ns,
                "inflight": self._inflight,
                "max_inflight": self.cfg.max_inflight,
                "nshards": self.cfg.nshards,
                "counters": counters,
                "latency": latency,
                "critpath": self._critpath_by_endpoint(),
                "flight": self.flight.stats(),
                "shards": [s.stats() for s in self.shards],
            }

    def _critpath_by_endpoint(self) -> dict:
        """``{op: family}`` — the span family dominating the critical
        path of each endpoint, aggregated over the flight recorder's kept
        requests (each record's span tree walked over its own service
        window).  Traced families win over the ``untraced`` residue so a
        thin span forest still names real work when any exists."""
        from ..telemetry.critpath import UNTRACED, critical_path_spans

        by_op: dict[str, dict[str, float]] = {}
        for rec in self.flight.records():
            if not rec.spans:
                continue
            cp = critical_path_spans(rec.spans, rec.start_ns, rec.end_ns)
            agg = by_op.setdefault(rec.op, {})
            for fam, ns in cp.families.items():
                agg[fam] = agg.get(fam, 0.0) + ns
        out: dict[str, str] = {}
        for op, fams in sorted(by_op.items()):
            traced = {f: ns for f, ns in fams.items() if f != UNTRACED}
            pick = traced or fams
            out[op] = max(pick.items(), key=lambda kv: (kv[1], kv[0]))[0]
        return out
