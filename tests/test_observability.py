"""Request-correlated observability: the wire trace context, per-request
span attribution, the flight recorder, Prometheus exposition, the
``--json`` report, and the live-server acceptance path."""

import asyncio
import json
import struct

import numpy as np
import pytest

from repro.errors import (
    ProtocolError,
    ProtocolVersionError,
    ServiceOverloadedError,
)
from repro.service import wire
from repro.service.console import render_top
from repro.service.core import ServiceConfig, ServiceCore
from repro.service.server import ServiceClient, ServiceServer, _read_frame
from repro.telemetry import MetricRegistry
from repro.telemetry.export import validate_chrome_trace
from repro.telemetry.flight import (
    FLIGHT_SCHEMA,
    FlightRecord,
    FlightRecorder,
    flight_chrome_trace,
    validate_flight_dump,
)
from repro.telemetry.prometheus import (
    prometheus_text,
    sanitize_metric_name,
    validate_prometheus_text,
)

# ---------------------------------------------------------------------------
# wire: trace-context extension + version refusal
# ---------------------------------------------------------------------------


def test_v2_frame_carries_trace_id():
    raw = wire.encode_frame(wire.OP_PING, 9, trace_id=0xDEADBEEF)
    f = wire.decode_frame(raw[4:])
    assert (f.kind, f.seq) == (wire.OP_PING, 9)
    assert f.trace_id == 0xDEADBEEF


def test_v2_frame_without_trace_has_zero_ext():
    raw = wire.encode_frame(wire.OP_PING, 9)
    f = wire.decode_frame(raw[4:])
    assert f.trace_id is None
    assert raw[4] == wire.WIRE_VERSION == 2
    # exactly one ext byte between header and (empty) body
    assert len(raw) == 4 + 1 + 1 + 8 + 1


def test_v1_frame_is_refused_with_version_error():
    v1_header = struct.pack("!BBQ", 1, wire.OP_PING, 3)
    with pytest.raises(ProtocolVersionError) as ei:
        wire.decode_frame(v1_header)
    assert (ei.value.theirs, ei.value.ours) == (1, 2)


def test_unknown_ext_flags_rejected():
    raw = bytearray(wire.encode_frame(wire.OP_PING, 1))
    raw[4 + 10] = 0x02  # ext_flags byte: an undefined bit
    with pytest.raises(ProtocolError, match="extension"):
        wire.decode_frame(bytes(raw[4:]))


def test_truncated_trace_extension_rejected():
    raw = wire.encode_frame(wire.OP_PING, 1, trace_id=5)
    with pytest.raises(ProtocolError, match="truncated"):
        wire.decode_frame(raw[4:-4])


def test_future_version_still_typed_error():
    raw = bytearray(wire.encode_frame(wire.OP_PING, 1))
    raw[4] = wire.WIRE_VERSION + 1
    with pytest.raises(ProtocolVersionError) as ei:
        wire.decode_frame(bytes(raw[4:]))
    assert ei.value.theirs == wire.WIRE_VERSION + 1


def test_trace_id_range_checked():
    with pytest.raises(ProtocolError):
        wire.encode_frame(wire.OP_PING, 1, trace_id=1 << 64)
    with pytest.raises(ProtocolError):
        wire.encode_frame(wire.OP_PING, 1, trace_id=0)


def test_metrics_and_flight_ops_decode():
    for encode, op, name in ((wire.encode_metrics, wire.OP_METRICS,
                              "metrics"),
                             (wire.encode_flight, wire.OP_FLIGHT, "flight")):
        f = wire.decode_frame(encode(5, trace_id=77)[4:])
        req = wire.decode_request(f.kind, f.seq, f.body,
                                  trace_id=f.trace_id)
        assert req.op == op and req.op_name == name
        assert req.trace_id == 77


def test_store_roundtrip_preserves_trace_id():
    a = np.arange(12, dtype=np.float32)
    f = wire.decode_frame(wire.encode_store(4, "v", a, trace_id=0xABC)[4:])
    req = wire.decode_request(f.kind, f.seq, f.body, trace_id=f.trace_id)
    assert req.trace_id == 0xABC
    assert np.array_equal(req.array, a)


# ---------------------------------------------------------------------------
# core: trace propagation + per-request span attribution
# ---------------------------------------------------------------------------


def _rpc(core, frame):
    resp = core.handle_payload(frame[4:])
    f = wire.decode_frame(resp[4:])
    if f.kind == wire.RESP_ERR:
        return f, wire.decode_error(f.body)
    return f, wire.decode_ok(f.body)


def test_trace_id_threads_through_whole_pipeline():
    core = ServiceCore(ServiceConfig(nshards=1, flight_sample_every=1))
    tid = 0x1234ABCD
    a = np.arange(256, dtype=np.float64)
    f, out = _rpc(core, wire.encode_store(1, "v", a, trace_id=tid))
    assert out is None
    assert f.trace_id == tid  # response echoes the trace context
    (rec,) = core.flight.records(tid)
    assert rec.status == "ok" and rec.op == "store"
    names = {s.name for s in rec.spans}
    assert {"service.accept", "service.decode", "service.dispatch",
            "service.engine", "service.encode",
            "service.shard.request"} <= names
    # every stage span carries the trace; engine sub-spans are attributed
    for s in rec.spans:
        if s.name not in ("service.engine",):
            assert (s.attrs or {}).get("trace") == tid, s
    # the record reaches below the service layer into the engine
    assert any(s.name.startswith("store.") or s.name == "pmemcpy.store"
               for s in rec.spans), sorted(names)


def test_engine_spans_form_one_connected_tree():
    core = ServiceCore(ServiceConfig(nshards=1, flight_sample_every=1))
    _rpc(core, wire.encode_store(1, "v", np.arange(64, dtype=np.float64),
                                 trace_id=9))
    spans = core.ctx.trace.spans
    by_id = {s.span_id: s for s in spans}
    for s in spans:
        if s.parent_id is not None:
            assert s.parent_id in by_id, f"dangling parent for {s}"
    # shard-run spans hang under the service.engine stage span
    stage = next(s for s in spans if s.name == "service.engine")
    marker = next(s for s in spans if s.name == "service.shard.request")
    cur = marker
    while cur.parent_id is not None:
        cur = by_id[cur.parent_id]
    assert cur is stage or marker.parent_id == stage.span_id


def test_untraced_request_gets_server_minted_trace():
    core = ServiceCore(ServiceConfig(nshards=1, flight_sample_every=1))
    a = np.arange(16, dtype=np.float64)
    resp = core.handle_payload(wire.encode_store(1, "v", a)[4:])
    f = wire.decode_frame(resp[4:])
    assert wire.decode_ok(f.body) is None
    (rec,) = core.flight.records()
    assert rec.trace_id >> 63 == 1  # server-minted ids set the high bit
    assert f.trace_id == rec.trace_id  # and the response carries it
    assert any(s.name == "service.accept" for s in rec.spans)


def test_batch_attribution_does_not_interleave_requests():
    """Two requests in one shard batch: each flight record's attributed
    spans reference only its own trace id (the _absorb fix)."""
    core = ServiceCore(ServiceConfig(nshards=1, flight_sample_every=1))
    a = np.arange(128, dtype=np.float64)
    envs = []
    for i, (tid, name) in enumerate([(101, "x"), (202, "y")]):
        env = core.accept(
            wire.encode_store(i + 1, name, a * (i + 1), trace_id=tid)[4:])
        core.admit()
        core.shard_of(env)
        envs.append(env)
    core.execute_batch(0, envs)
    core.release(2)
    for tid in (101, 202):
        (rec,) = core.flight.records(tid)
        for s in rec.spans:
            t = (s.attrs or {}).get("trace")
            if t is not None:
                assert t == tid, (tid, s)
        assert any(s.name == "service.shard.request" for s in rec.spans)


def test_coalesced_store_attribution():
    """A superseded store still yields its own flight record; only the
    winner owns engine spans."""
    core = ServiceCore(ServiceConfig(nshards=1, flight_sample_every=1))
    a = np.arange(32, dtype=np.float64)
    envs = []
    for i, tid in enumerate([11, 22]):
        env = core.accept(
            wire.encode_store(i + 1, "hot", a * i, trace_id=tid)[4:])
        core.admit()
        core.shard_of(env)
        envs.append(env)
    core.execute_batch(0, envs)
    core.release(2)
    (loser,) = core.flight.records(11)
    (winner,) = core.flight.records(22)
    assert loser.status == "ok" and winner.status == "ok"
    assert any(s.name == "service.shard.request" for s in winner.spans)
    # the loser never executed, so no marker span belongs to it
    assert not any(s.name == "service.shard.request" for s in loser.spans)


# ---------------------------------------------------------------------------
# flight recorder
# ---------------------------------------------------------------------------


def _rec(trace, status="ok", latency=100.0, seq=1):
    return FlightRecord(trace_id=trace, seq=seq, op="store",
                        status=status, start_ns=0.0, end_ns=latency)


def test_flight_tail_sampling_policy():
    fr = FlightRecorder(capacity=64, sample_every=4, slo_ns=1000.0)
    assert fr.offer(_rec(1, status="error:KeyNotFoundError")) == "error"
    assert fr.offer(_rec(2, status="rejected")) == "rejected"
    assert fr.offer(_rec(3, latency=5000.0)) == "slo"
    # healthy stream: first kept as sample, then 1 in 4
    reasons = [fr.offer(_rec(10 + i)) for i in range(8)]
    assert reasons == ["sample", None, None, None,
                       "sample", None, None, None]
    st = fr.stats()
    assert st["offered"] == 11 and st["kept"] == 5
    assert st["kept_by_reason"] == {"error": 1, "rejected": 1,
                                    "slo": 1, "sample": 2}


def test_flight_ring_is_bounded():
    fr = FlightRecorder(capacity=4, sample_every=1)
    for i in range(10):
        fr.offer(_rec(i))
    assert len(fr) == 4
    assert [r.trace_id for r in fr.records()] == [6, 7, 8, 9]


def test_flight_slo_burn_fires_once_per_window():
    burns = []
    fr = FlightRecorder(capacity=16, sample_every=1, slo_ns=10.0,
                        burn_window=4, burn_frac=0.5,
                        on_burn=burns.append)
    for _ in range(4):
        fr.offer(_rec(1, latency=100.0))  # all SLO violations
    assert len(burns) == 1 and fr.burns == 1
    # window restarts after a burn: 4 more violations burn again
    for _ in range(4):
        fr.offer(_rec(1, latency=100.0))
    assert fr.burns == 2


def test_flight_dump_schema_and_validator():
    fr = FlightRecorder(capacity=8, sample_every=1)
    fr.offer(_rec(7, status="error:ValueError"))
    doc = json.loads(json.dumps(fr.dump()))
    assert doc["schema"] == FLIGHT_SCHEMA
    assert validate_flight_dump(doc) == []
    broken = dict(doc, records=[{"trace_id": 1}])
    assert validate_flight_dump(broken)
    assert validate_flight_dump({"schema": "nope"})
    assert validate_flight_dump([]) == ["dump is not an object"]


def test_flight_dump_renders_as_chrome_trace():
    core = ServiceCore(ServiceConfig(nshards=1, flight_sample_every=1))
    _rpc(core, wire.encode_store(1, "v", np.arange(64, dtype=np.float64),
                                 trace_id=5))
    _rpc(core, wire.encode_load(2, "v", trace_id=6))
    doc = core.flight_dump()
    assert validate_flight_dump(doc) == []
    trace = flight_chrome_trace(doc)
    assert validate_chrome_trace(trace) == []
    assert any(e.get("name") == "service.shard.request"
               for e in trace["traceEvents"])


def test_core_slo_burn_auto_dump(tmp_path):
    core = ServiceCore(ServiceConfig(
        nshards=1, flight_sample_every=1, flight_slo_ns=1.0,
        flight_burn_window=3, flight_burn_frac=1.0,
        flight_dump_dir=str(tmp_path)))
    a = np.arange(64, dtype=np.float64)
    for i in range(3):  # every request violates a 1ns SLO
        _rpc(core, wire.encode_store(i + 1, "v", a, trace_id=i + 1))
    dumps = sorted(tmp_path.glob("flight_burn_*.json"))
    assert dumps, "SLO burn should have dumped the ring"
    doc = json.loads(dumps[0].read_text())
    assert validate_flight_dump(doc) == []
    assert core.stats()["counters"]["service.flight.burns"] >= 1


# ---------------------------------------------------------------------------
# rejected requests (satellite)
# ---------------------------------------------------------------------------


def test_rejects_are_counted_measured_and_flight_kept():
    core = ServiceCore(ServiceConfig(nshards=1, max_inflight=1,
                                     flight_sample_every=10**9))
    core.admit()  # fill the window
    f, err = _rpc(core, wire.encode_load(5, "x", trace_id=0xBEEF))
    assert isinstance(err, ServiceOverloadedError)
    doc = core.stats()
    assert doc["counters"]["service.rejects"] == 1
    # the reject is measured in the endpoint's latency histogram...
    assert doc["latency"]["service.rpc.load.ns"]["p50"] > 0
    # ...not counted as a generic service error...
    assert "service.errors" not in doc["counters"]
    # ...and tail-kept by the flight recorder despite 1-in-10^9 sampling
    (rec,) = core.flight.records(0xBEEF)
    assert rec.status == "rejected" and rec.kept == "rejected"
    assert doc["flight"]["kept_by_reason"]["rejected"] == 1


# ---------------------------------------------------------------------------
# prometheus exposition
# ---------------------------------------------------------------------------


def test_prometheus_text_shape_and_validation():
    reg = MetricRegistry()
    reg.counter("service.frames.in").add(3)
    reg.gauge("service.inflight").set(2.0)
    h = reg.histogram("service.rpc.store.ns")
    for v in (10.0, 100.0, 1000.0):
        h.observe(v)
    text = prometheus_text(reg, extra={"service.uptime.s": 5.0})
    assert validate_prometheus_text(text) == []
    assert "repro_service_frames_in_total 3" in text
    assert "repro_service_inflight 2" in text
    assert 'repro_service_rpc_store_ns_bucket{le="+Inf"} 3' in text
    assert "repro_service_rpc_store_ns_count 3" in text
    assert "repro_service_rpc_store_ns_p99" in text
    assert "repro_service_uptime_s 5" in text


def test_prometheus_validator_catches_breakage():
    assert validate_prometheus_text("repro_x_total 1\n")  # sample w/o TYPE
    bad = ("# TYPE repro_h histogram\n"
           'repro_h_bucket{le="1"} 5\n'
           'repro_h_bucket{le="2"} 3\n'  # not cumulative
           "repro_h_sum 8\nrepro_h_count 5\n")
    errs = validate_prometheus_text(bad)
    assert any("cumulative" in e for e in errs)
    assert any("+Inf" in e for e in errs)


def test_sanitize_metric_name():
    assert sanitize_metric_name("service.rpc.store.ns") == \
        "repro_service_rpc_store_ns"
    assert sanitize_metric_name("weird-name!x", prefix="") == "weird_name_x"


def test_core_prometheus_merges_shard_registries():
    core = ServiceCore(ServiceConfig(nshards=2, flight_sample_every=1))
    a = np.arange(64, dtype=np.float64)
    for i in range(4):
        _rpc(core, wire.encode_store(i + 1, f"k{i}", a, trace_id=i + 1))
    text = core.prometheus()
    assert validate_prometheus_text(text) == []
    assert "repro_service_frames_in_total" in text
    assert "repro_service_clock_ns" in text
    # shard engine metrics (span latency histograms) are on the same page
    assert "repro_span_service_shard_request_ns_count" in text


# ---------------------------------------------------------------------------
# report --json (satellite) + console view
# ---------------------------------------------------------------------------


def test_telemetry_report_json(tmp_path, capsys):
    from repro.telemetry.__main__ import main as telemetry_main

    reg = MetricRegistry()
    reg.counter("pmdk.persist").add(4)
    reg.histogram("span.store.publish.ns").observe(123.0)
    metrics = tmp_path / "metrics.json"
    metrics.write_text(json.dumps(reg.as_dict()))
    rc = telemetry_main(["report", "--metrics", str(metrics), "--json"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["metrics"]["pmdk.persist"]["value"] == 4
    assert "span.store.publish.ns" in doc["latency"]
    assert set(doc["latency"]["span.store.publish.ns"]) == \
        {"p50", "p95", "p99"}


def test_console_render_top():
    core = ServiceCore(ServiceConfig(nshards=1, flight_sample_every=1))
    _rpc(core, wire.encode_store(1, "v", np.arange(32, dtype=np.float64),
                                 trace_id=3))
    first = core.stats()
    _rpc(core, wire.encode_load(2, "v", trace_id=4))
    screen = render_top(core.stats(), first, interval_s=1.0)
    assert "repro.service top" in screen
    assert "flight recorder" in screen
    assert "service.rpc.store.ns" in screen
    assert "rate/s" in screen


# ---------------------------------------------------------------------------
# acceptance: live server, injected slow request, end-to-end dump
# ---------------------------------------------------------------------------


def test_live_server_flight_records_slow_request_end_to_end():
    """ISSUE 9 acceptance: a slow request against a real ServiceServer
    shows up in the flight dump with its complete cross-layer span tree
    (accept → decode → dispatch → shard batch → engine), correlated by
    the client-minted trace id, and the dump renders as a Chrome trace.
    A v1 client still round-trips against the same server."""

    async def main():
        server = await ServiceServer(config=ServiceConfig(
            nshards=2, flight_sample_every=10**9,
            flight_slo_ns=1_000_000.0,  # 1ms modeled: big stores violate
            collect_engine_spans=True)).start()
        client = await ServiceClient.connect("127.0.0.1", server.port,
                                             trace_base=0x51)
        # background traffic (small, fast, below the SLO)
        small = np.arange(8, dtype=np.float64)
        for i in range(6):
            await client.store(f"bg/{i}", small)
        # the injected slow request: a payload whose wire+engine cost
        # blows the modeled SLO
        big = np.arange(262_144, dtype=np.float64)  # 2 MiB
        await client.store("slow/victim", big)
        slow_tid = client.last_trace_id
        assert slow_tid is not None

        dump = await client.flight()
        assert validate_flight_dump(dump) == []
        mine = [r for r in dump["records"] if r["trace_id"] == slow_tid]
        assert len(mine) == 1, "exactly the slow request is in the dump"
        rec = mine[0]
        assert rec["kept"] == "slo" and rec["op"] == "store"
        names = {s["name"] for s in rec["spans"]}
        assert {"service.accept", "service.decode", "service.dispatch",
                "service.engine", "service.shard.request",
                "service.encode"} <= names
        assert any(n.startswith("store.") or n == "pmemcpy.store"
                   for n in names), sorted(names)
        for s in rec["spans"]:
            t = (s.get("attrs") or {}).get("trace")
            if t is not None:
                assert t == slow_tid
        trace_doc = flight_chrome_trace(dump)
        assert validate_chrome_trace(trace_doc) == []

        # live Prometheus page over the same socket
        prom = await client.metrics()
        assert validate_prometheus_text(prom) == []
        assert "repro_service_rpc_store_ns_p99" in prom

        # background requests were tail-dropped (healthy + huge
        # sample_every) — except the first, kept as the 1-in-N exemplar
        others = [r for r in dump["records"] if r["trace_id"] != slow_tid]
        assert sum(r["kept"] == "sample" for r in others) <= 1
        assert dump["offered"] > dump["kept"]

        # a raw version-1 frame is answered with a typed refusal ...
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", server.port)
        writer.write(struct.pack("!IBBQ", 10, 1, wire.OP_PING, 1))
        await writer.drain()
        f = wire.decode_frame(await _read_frame(reader))
        writer.close()
        assert f.kind == wire.RESP_ERR
        err = wire.decode_error(f.body)
        assert isinstance(err, ProtocolVersionError)
        assert (err.theirs, err.ours) == (1, 2)
        # ... and a v2 ping on a new connection still succeeds
        v2 = await ServiceClient.connect("127.0.0.1", server.port)
        await v2.ping()
        await v2.close()

        await client.close()
        await server.close()

    asyncio.run(main())
