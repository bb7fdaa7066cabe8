"""pMEMCPY-as-a-service: wire protocol round-trips, consistent-hash
sharding, write coalescing, admission control, typed-error round-trips,
the asyncio front-end, and the virtual-time load generator."""

import asyncio
import struct

import numpy as np
import pytest

from repro.errors import (
    KeyNotFoundError,
    ProtocolError,
    ProtocolVersionError,
    ServiceOverloadedError,
    ShardUnavailableError,
)
from repro.pmemcpy.selection import Hyperslab, PointSelection
from repro.service import ServiceConfig, ServiceCore, ShardRing, wire
from repro.service.loadgen import (
    LoadGenerator,
    LoadgenConfig,
    render_csv,
    render_table,
    saturation_sweep,
)
from repro.service.server import ServiceClient, ServiceServer, _read_frame
from repro.service.shard import ShardExecutor
from repro.service.wire import Request


# ---------------------------------------------------------------------------
# wire protocol
# ---------------------------------------------------------------------------

def _decode(frame: bytes):
    """kind, seq, body of a full frame (length prefix included)."""
    f = wire.decode_frame(frame[4:])
    return f.kind, f.seq, f.body


def test_wire_store_roundtrip():
    a = np.arange(24, dtype=np.float32).reshape(4, 6)
    kind, seq, body = _decode(wire.encode_store(7, "v/x", a, offsets=(2, 4)))
    req = wire.decode_request(kind, seq, body)
    assert req.op == wire.OP_STORE and req.seq == 7 and req.name == "v/x"
    assert req.offsets == (2, 4)
    assert np.array_equal(req.array, a)
    assert req.array.dtype == np.float32


def test_wire_load_selections_roundtrip():
    kind, seq, body = _decode(wire.encode_load(1, "v"))
    assert wire.decode_request(kind, seq, body).selection is None

    slab = Hyperslab(start=(0, 4), count=(3, 2), stride=(2, 3))
    kind, seq, body = _decode(wire.encode_load(2, "v", selection=slab))
    got = wire.decode_request(kind, seq, body).selection
    assert isinstance(got, Hyperslab)
    assert got.start == slab.start and got.count == slab.count
    assert got.stride == slab.stride

    pts = PointSelection([(0, 1), (5, 5), (2, 3)])
    kind, seq, body = _decode(wire.encode_load(3, "v", selection=pts))
    got = wire.decode_request(kind, seq, body).selection
    assert isinstance(got, PointSelection)
    assert np.array_equal(got.points, pts.points)

    # offsets/dims sugar arrives as the equivalent block hyperslab
    kind, seq, body = _decode(
        wire.encode_load(4, "v", offsets=(1, 2), dims=(3, 4)))
    got = wire.decode_request(kind, seq, body).selection
    assert isinstance(got, Hyperslab)
    assert got.start == (1, 2) and got.count == (3, 4)


def test_wire_ok_payloads_roundtrip():
    assert wire.decode_ok(_decode(wire.encode_ok_empty(1))[2]) is None
    arr = np.arange(10, dtype=np.int64)
    got = wire.decode_ok(_decode(wire.encode_ok_array(2, arr))[2])
    assert np.array_equal(got, arr) and got.dtype == np.int64
    doc = {"a": 1, "b": {"c": [1, 2, 3]}}
    assert wire.decode_ok(_decode(wire.encode_ok_json(3, doc))[2]) == doc


def test_wire_version_mismatch_is_typed():
    frame = bytearray(wire.encode_ping(1))
    frame[4] = wire.WIRE_VERSION + 9  # corrupt the version byte
    with pytest.raises(ProtocolVersionError) as ei:
        wire.decode_frame(bytes(frame[4:]))
    assert ei.value.theirs == wire.WIRE_VERSION + 9
    assert ei.value.ours == wire.WIRE_VERSION


def test_wire_truncated_and_trailing_bytes_rejected():
    kind, seq, body = _decode(wire.encode_delete(5, "x"))
    with pytest.raises(ProtocolError):
        wire.decode_request(kind, seq, body[:-1])
    with pytest.raises(ProtocolError):
        wire.decode_request(kind, seq, body + b"!")
    # a store whose payload disagrees with its declared dims
    a = np.arange(8, dtype=np.float64)
    frame = wire.encode_store(6, "v", a)
    kind, seq, body = _decode(frame)
    with pytest.raises(ProtocolError):
        wire.decode_request(kind, seq, body[:-8])


def test_read_frame_reassembles_byte_stream():
    frames = (wire.encode_ping(1)
              + wire.encode_store(2, "v", np.arange(4, dtype=np.float64))
              + wire.encode_stats(3))

    async def main():
        reader = asyncio.StreamReader()

        async def drip():  # 7-byte slivers, yielding between each
            for i in range(0, len(frames), 7):
                reader.feed_data(frames[i:i + 7])
                await asyncio.sleep(0)
            reader.feed_eof()

        feeder = asyncio.ensure_future(drip())
        out = []
        while (payload := await _read_frame(reader)) is not None:
            out.append(wire.decode_frame(payload))
        await feeder
        return out

    out = _run_async(main())
    assert [f.seq for f in out] == [1, 2, 3]
    assert [f.kind for f in out] == [
        wire.OP_PING, wire.OP_STORE, wire.OP_STATS]


def test_read_frame_refuses_oversized_length_before_the_body():
    async def main():
        reader = asyncio.StreamReader()
        # no body and no EOF follow: reading one would block until timeout
        reader.feed_data(struct.pack("!I", wire.MAX_FRAME_BYTES + 1))
        await asyncio.wait_for(_read_frame(reader), timeout=5)

    with pytest.raises(ProtocolError, match="MAX_FRAME_BYTES"):
        _run_async(main())


@pytest.mark.parametrize("cut", [2, 4, 9])
def test_read_frame_returns_none_at_eof_mid_frame(cut):
    async def main():
        reader = asyncio.StreamReader()
        reader.feed_data(wire.encode_ping(1)[:cut])
        reader.feed_eof()
        return await _read_frame(reader)

    assert _run_async(main()) is None


def test_error_frames_roundtrip_typed_attributes():
    cases = [
        ServiceOverloadedError(1024, 1024, retry_after_ms=75.0),
        ShardUnavailableError(3, "v/x"),
        ProtocolVersionError(9, 1),
        KeyNotFoundError("load('nope'): no such variable"),
    ]
    for exc in cases:
        got = wire.decode_error(_decode(wire.encode_error(11, exc))[2])
        assert type(got) is type(exc)
        assert str(got) == str(exc)
    over = wire.decode_error(_decode(wire.encode_error(1, cases[0]))[2])
    assert over.retry_after_ms == 75.0
    shard = wire.decode_error(_decode(wire.encode_error(2, cases[1]))[2])
    assert shard.shard == 3
    ver = wire.decode_error(_decode(wire.encode_error(3, cases[2]))[2])
    assert (ver.theirs, ver.ours) == (9, 1)


# ---------------------------------------------------------------------------
# sharding
# ---------------------------------------------------------------------------

def test_ring_routes_stably_and_spreads():
    ring = ShardRing(4)
    names = [f"var/{i}" for i in range(400)]
    first = [ring.shard_of(n) for n in names]
    assert first == [ShardRing(4).shard_of(n) for n in names]
    spread = ring.spread(names)
    assert set(spread) <= set(range(4))
    assert all(count > 20 for count in spread.values())  # roughly uniform


def test_ring_grow_remaps_a_minority():
    names = [f"var/{i}" for i in range(600)]
    before = ShardRing(4)
    after = ShardRing(5)
    moved = sum(before.shard_of(n) != after.shard_of(n) for n in names)
    # consistent hashing: growing 4 -> 5 should move ~1/5 of the
    # namespace, nowhere near the ~4/5 a mod-N rehash would
    assert moved < len(names) // 2


def test_coalesce_keeps_last_whole_store_only():
    a = np.ones(4)
    batch = [
        Request(wire.OP_STORE, 1, "x", array=a),
        Request(wire.OP_LOAD, 2, "x"),
        Request(wire.OP_STORE, 3, "x", array=a * 2),
        Request(wire.OP_STORE, 4, "y", array=a),
        Request(wire.OP_STORE, 5, "x", array=a, offsets=(0,)),  # subarray
    ]
    kept, superseded = ShardExecutor.coalesce(batch)
    assert superseded == {0: 2}  # first whole store of x superseded by #3
    assert [r.seq for r in kept] == [2, 3, 4, 5]


# ---------------------------------------------------------------------------
# the core pipeline
# ---------------------------------------------------------------------------

def _rpc(core, frame):
    resp = core.handle_payload(frame[4:])
    kind, seq, body = _decode(resp)
    if kind == wire.RESP_ERR:
        return seq, wire.decode_error(body)
    return seq, wire.decode_ok(body)


def test_core_store_load_delete_roundtrip():
    core = ServiceCore(ServiceConfig(nshards=2))
    a = np.arange(30, dtype=np.float64).reshape(5, 6)
    assert _rpc(core, wire.encode_store(1, "t", a)) == (1, None)
    seq, out = _rpc(core, wire.encode_load(2, "t"))
    assert seq == 2 and np.array_equal(out, a)
    seq, out = _rpc(core, wire.encode_load(
        3, "t", selection=Hyperslab((1, 2), (2, 3))))
    assert np.array_equal(out, a[1:3, 2:5])
    assert _rpc(core, wire.encode_delete(4, "t")) == (4, None)
    _, err = _rpc(core, wire.encode_load(5, "t"))
    assert isinstance(err, KeyNotFoundError)


def test_core_modeled_clock_is_deterministic():
    def run():
        core = ServiceCore(ServiceConfig(nshards=2))
        a = np.arange(512, dtype=np.float64)
        for i in range(12):
            _rpc(core, wire.encode_store(i + 1, f"v{i % 3}", a))
            _rpc(core, wire.encode_load(100 + i, f"v{i % 3}"))
        return core.clock_ns

    assert run() == run()


def test_core_admission_control_backpressure():
    core = ServiceCore(ServiceConfig(nshards=1, max_inflight=2))
    core.admit()
    core.admit()
    with pytest.raises(ServiceOverloadedError) as ei:
        core.admit()
    assert ei.value.retry_after_ms == core.cfg.retry_after_ms
    # a full window answers data-path requests with the typed error frame
    _, err = _rpc(core, wire.encode_load(9, "x"))
    assert isinstance(err, ServiceOverloadedError)
    # ...but stats/ping still answer (they never take a slot)
    seq, doc = _rpc(core, wire.encode_stats(10))
    assert doc["inflight"] == 2
    assert doc["counters"]["service.rejects"] >= 2
    core.release(2)
    _, err = _rpc(core, wire.encode_load(11, "x"))
    assert isinstance(err, KeyNotFoundError)  # admitted again, key missing


def test_core_protocol_garbage_gets_error_frame_not_crash():
    core = ServiceCore(ServiceConfig(nshards=1))
    resp = core.handle_payload(b"\x00")
    kind, seq, body = _decode(resp)
    assert kind == wire.RESP_ERR
    assert isinstance(wire.decode_error(body), ProtocolError)
    assert core.stats()["counters"]["service.protocol_errors"] == 1


def test_shard_down_is_typed_and_recoverable():
    core = ServiceCore(ServiceConfig(nshards=1))
    a = np.ones(8)
    _rpc(core, wire.encode_store(1, "v", a))
    core.shards[0].mark_down()
    _, err = _rpc(core, wire.encode_load(2, "v"))
    assert isinstance(err, ShardUnavailableError) and err.shard == 0
    core.shards[0].mark_up()
    _, out = _rpc(core, wire.encode_load(3, "v"))
    assert np.array_equal(out, a)


def test_core_stats_percentiles_share_registry_code_path():
    """The SLO block in service stats and PMEM.stats()['percentiles']
    both come from registry_percentiles — keys and shape agree."""
    core = ServiceCore(ServiceConfig(nshards=1))
    _rpc(core, wire.encode_store(1, "v", np.arange(64, dtype=np.float64)))
    doc = core.stats()
    pct = doc["latency"]["service.rpc.store.ns"]
    assert set(pct) == {"p50", "p95", "p99"}
    assert 0 < pct["p50"] <= pct["p95"] <= pct["p99"]
    # the shard's PMEM handle exposes the same percentile rendering
    shard_stats = core.shards[0].stats()
    assert shard_stats["requests"] == 1


def test_store_coalescing_acknowledges_superseded_writes():
    core = ServiceCore(ServiceConfig(nshards=1))
    a = np.arange(16, dtype=np.float64)
    envs = []
    for i, scale in enumerate((1.0, 2.0, 3.0)):
        frame = wire.encode_store(i + 1, "hot", a * scale)
        envs.append(core.accept(frame[4:]))
    frames = core.execute_batch(0, envs)
    for f in frames:
        kind, _, body = _decode(f)
        assert kind == wire.RESP_OK and wire.decode_ok(body) is None
    _, out = _rpc(core, wire.encode_load(9, "hot"))
    assert np.array_equal(out, a * 3.0)  # last write won
    assert core.stats()["counters"]["service.store.coalesced"] == 2


# ---------------------------------------------------------------------------
# asyncio front-end
# ---------------------------------------------------------------------------

def _run_async(coro):
    return asyncio.run(coro)


def test_server_end_to_end_over_sockets():
    async def main():
        server = await ServiceServer(
            config=ServiceConfig(nshards=2, max_inflight=64)).start()
        client = await ServiceClient.connect("127.0.0.1", server.port)
        await client.ping()
        a = np.arange(48, dtype=np.float32).reshape(6, 8)
        await client.store("grid/T", a)
        out = await client.load("grid/T")
        assert np.array_equal(out, a)
        out = await client.load("grid/T", offsets=(2, 1), dims=(3, 4))
        assert np.array_equal(out, a[2:5, 1:5])
        with pytest.raises(KeyNotFoundError):
            await client.load("missing")
        await client.delete("grid/T")
        with pytest.raises(KeyNotFoundError):
            await client.load("grid/T")
        st = await client.stats()
        assert st["counters"].get("service.protocol_errors", 0) == 0
        await client.close()
        await server.close()

    _run_async(main())


def test_server_multiplexes_concurrent_clients_and_batches():
    async def main():
        server = await ServiceServer(
            config=ServiceConfig(nshards=2, max_inflight=256)).start()
        clients = [await ServiceClient.connect("127.0.0.1", server.port)
                   for _ in range(3)]
        a = np.arange(256, dtype=np.float64)
        await asyncio.gather(*[
            c.store(f"burst/{i % 5}", a * (i + 1))
            for i, c in ((i, clients[i % 3]) for i in range(30))
        ])
        outs = await asyncio.gather(*[
            clients[0].load(f"burst/{k}") for k in range(5)])
        assert all(o.shape == a.shape for o in outs)
        st = await clients[0].stats()
        # cross-connection batching actually happened: fewer engine
        # batches than requests
        total_batches = sum(s["batches"] for s in st["shards"])
        total_requests = sum(s["requests"] for s in st["shards"])
        assert total_requests >= 35
        assert total_batches < total_requests
        assert st["counters"].get("service.protocol_errors", 0) == 0
        for c in clients:
            await c.close()
        await server.close()

    _run_async(main())


def test_server_survives_protocol_garbage():
    async def main():
        server = await ServiceServer(
            config=ServiceConfig(nshards=1)).start()
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", server.port)
        # valid length prefix, garbage payload: typed error, conn alive
        bad = bytes([wire.WIRE_VERSION, 0xff]) + b"junk" * 3
        writer.write(struct.pack("!I", len(bad)) + bad)
        await writer.drain()
        hdr = await reader.readexactly(4)
        (n,) = struct.unpack("!I", hdr)
        payload = await reader.readexactly(n)
        f = wire.decode_frame(payload)
        assert f.kind == wire.RESP_ERR
        assert isinstance(wire.decode_error(f.body), ProtocolError)
        writer.close()
        # the server still serves new connections afterwards
        client = await ServiceClient.connect("127.0.0.1", server.port)
        await client.ping()
        st = await client.stats()
        assert st["counters"]["service.protocol_errors"] >= 1
        await client.close()
        await server.close()

    _run_async(main())


# ---------------------------------------------------------------------------
# the load generator
# ---------------------------------------------------------------------------

_FAST = dict(duration_ms=30.0, real_batch_budget=8,
             max_representatives=32, keys=16)


def test_loadgen_small_fleet_no_rejects():
    rep = LoadGenerator(LoadgenConfig(clients=64, **_FAST)).run()
    assert rep.completed > 0
    assert rep.rejected == 0
    assert rep.protocol_errors == 0
    assert rep.throughput_rps > 0
    assert set(rep.slo) >= {"store", "load", "load_partial"}


def test_loadgen_million_clients_saturates_not_errors():
    rep = LoadGenerator(LoadgenConfig(clients=1_000_000, **_FAST)).run()
    assert rep.protocol_errors == 0
    assert rep.rejected > 0           # admission control engaged
    assert rep.completed > 0          # ...but the service kept serving
    assert rep.reject_rate > 0.5
    assert "reject" in rep.slo


def test_loadgen_is_seed_deterministic():
    a = LoadGenerator(LoadgenConfig(clients=500, **_FAST)).run()
    b = LoadGenerator(LoadgenConfig(clients=500, **_FAST)).run()
    assert a.completed == b.completed
    assert a.rejected == b.rejected
    assert a.slo == b.slo


def test_saturation_sweep_renders_csv_and_table():
    reports = saturation_sweep((50, 5_000), base=LoadgenConfig(**_FAST))
    csv = render_csv(reports)
    lines = csv.strip().split("\n")
    assert len(lines) == 3
    assert lines[0].startswith("clients,throughput_rps")
    table = render_table(reports)
    assert "service saturation" in table
    assert "50" in table and "5000" in table
