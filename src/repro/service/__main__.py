"""CLI for the service layer.

``python -m repro.service serve``  — run the asyncio server
``python -m repro.service bench``  — saturation sweep → results/
``python -m repro.service smoke``  — live server + real clients, CI gate
``python -m repro.service top``    — live console view of a running server
"""

from __future__ import annotations

import argparse
import asyncio
import json
import struct
import sys
import time
from pathlib import Path

import numpy as np

from ..errors import ProtocolVersionError
from . import wire
from .core import ServiceConfig
from .loadgen import (
    DEFAULT_SWEEP,
    LoadgenConfig,
    render_csv,
    render_table,
    saturation_sweep,
)
from .server import ServiceClient, ServiceServer, _read_frame


def _service_config(ns) -> ServiceConfig:
    return ServiceConfig(
        nshards=ns.nshards,
        max_inflight=ns.max_inflight,
        batch_max=ns.batch_max,
        collect_engine_spans=False,
        flight_slo_ns=getattr(ns, "flight_slo_ns", None),
        flight_dump_dir=getattr(ns, "flight_dump_dir", None),
    )


def cmd_serve(ns) -> int:
    async def main():
        server = await ServiceServer(
            host=ns.host, port=ns.port, config=_service_config(ns)).start()
        print(f"repro.service listening on {server.host}:{server.port} "
              f"({ns.nshards} shards, window {ns.max_inflight})",
              flush=True)
        try:
            await server.serve_forever()
        except asyncio.CancelledError:
            pass
        finally:
            await server.close()

    try:
        asyncio.run(main())
    except KeyboardInterrupt:
        print("shutting down")
    return 0


def cmd_bench(ns) -> int:
    clients = tuple(int(c) for c in ns.clients) if ns.clients \
        else DEFAULT_SWEEP
    base = LoadgenConfig(
        duration_ms=ns.duration_ms,
        real_batch_budget=ns.budget,
        max_representatives=ns.representatives,
        seed=ns.seed,
    )
    reports = saturation_sweep(clients, base=base,
                               service=_service_config(ns))
    table = render_table(reports)
    print(table)
    outdir = Path(ns.out)
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "service_saturation.csv").write_text(render_csv(reports))
    (outdir / "service_saturation.txt").write_text(table)
    print(f"wrote {outdir / 'service_saturation.csv'} and .txt")
    bad = [r for r in reports if r.protocol_errors]
    if bad:
        print(f"FAIL: protocol errors at {[r.clients for r in bad]}",
              file=sys.stderr)
        return 1
    return 0


async def _send_v1_frame(host: str, port: int):
    """Send one raw version-1 PING frame on a fresh connection and return
    what the server answered: the exception its ERR frame carries, the OK
    body, or None when it hung up without a frame."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(struct.pack("!IBBQ", 10, 1, wire.OP_PING, 1))
        await writer.drain()
        payload = await _read_frame(reader)
    finally:
        writer.close()
    if payload is None:
        return None
    frame = wire.decode_frame(payload)
    if frame.kind == wire.RESP_ERR:
        return wire.decode_error(frame.body)
    return frame.body


def cmd_smoke(ns) -> int:
    """Live-path gate: a real asyncio server, real multiplexing clients,
    a wall-clock budget; exits nonzero on any protocol error."""

    async def client_loop(client: ServiceClient, cid: int, stop: float,
                          counts: dict) -> None:
        rng = np.random.default_rng(1000 + cid)
        value = np.arange(512, dtype=np.float64)
        while time.monotonic() < stop:
            key = f"smoke/{int(rng.integers(0, 32))}"
            try:
                if rng.random() < 0.5:
                    await client.store(key, value * cid)
                    counts["store"] += 1
                elif rng.random() < 0.5:
                    await client.load(key, offsets=(128,), dims=(256,))
                    counts["load_partial"] += 1
                else:
                    await client.load(key)
                    counts["load"] += 1
            except Exception as exc:  # typed service errors are survivable
                counts["errors"] += 1
                counts.setdefault("error_types", {}).setdefault(
                    type(exc).__name__, 0)
                counts["error_types"][type(exc).__name__] += 1

    async def main() -> int:
        server = await ServiceServer(config=_service_config(ns)).start()
        counts = {"store": 0, "load": 0, "load_partial": 0, "errors": 0}
        # prime so loads can't miss
        seed_client = await ServiceClient.connect("127.0.0.1", server.port)
        value = np.arange(512, dtype=np.float64)
        for k in range(32):
            await seed_client.store(f"smoke/{k}", value)
        stop = time.monotonic() + ns.seconds
        clients = [await ServiceClient.connect("127.0.0.1", server.port)
                   for _ in range(ns.connections)]
        await asyncio.gather(*[
            client_loop(c, i, stop, counts)
            for i, c in enumerate(clients)
        ])
        stats = await seed_client.stats()

        # observability gate: live Prometheus page + flight-recorder dump
        # must validate, and the dump must re-render as a Chrome trace;
        # a version-1 frame must be refused with a typed error
        from ..telemetry import (
            flight_chrome_trace,
            validate_flight_dump,
            validate_prometheus_text,
        )
        from ..telemetry.export import validate_chrome_trace

        prom = await seed_client.metrics()
        dump = await seed_client.flight()
        obs_errors = [f"prometheus: {e}"
                      for e in validate_prometheus_text(prom)]
        obs_errors += [f"flight: {e}" for e in validate_flight_dump(dump)]
        trace_doc = flight_chrome_trace(dump)
        obs_errors += [f"chrome: {e}"
                       for e in validate_chrome_trace(trace_doc)]
        refused = await _send_v1_frame("127.0.0.1", server.port)
        if not isinstance(refused, ProtocolVersionError):
            obs_errors.append(f"v1 frame: answered {refused!r}, not "
                              f"ProtocolVersionError")
        v2 = await ServiceClient.connect("127.0.0.1", server.port)
        try:
            await v2.ping()
        finally:
            await v2.close()

        for c in clients:
            await c.close()
        await seed_client.close()
        await server.close()

        proto = int(stats["counters"].get("service.protocol_errors", 0))
        report = {
            "seconds": ns.seconds,
            "connections": ns.connections,
            "ops": counts,
            "protocol_errors": proto,
            "latency": stats["latency"],
            "counters": stats["counters"],
            "flight": stats["flight"],
            "observability_errors": obs_errors,
            "shards": stats["shards"],
        }
        out = Path(ns.report)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(report, indent=2, sort_keys=True))
        art = out.parent
        (art / "service_metrics.prom").write_text(prom)
        (art / "service_flight.json").write_text(
            json.dumps(dump, indent=2, sort_keys=True, default=float))
        (art / "service_flight.trace.json").write_text(
            json.dumps(trace_doc, sort_keys=True, default=float))
        done = counts["store"] + counts["load"] + counts["load_partial"]
        print(f"smoke: {done} ops over {ns.connections} connections in "
              f"{ns.seconds:.0f}s, {counts['errors']} typed errors, "
              f"{proto} protocol errors, "
              f"{len(dump['records'])} flight records -> {out}")
        for e in obs_errors:
            print(f"[observability] {e}", file=sys.stderr)
        if proto or done == 0 or obs_errors:
            print("FAIL: protocol/observability errors or no ops completed",
                  file=sys.stderr)
            return 1
        return 0

    return asyncio.run(main())


def cmd_top(ns) -> int:
    """Poll a running server's STATS op and render the console view."""
    from .console import CLEAR, render_top

    async def main() -> int:
        client = await ServiceClient.connect(ns.host, ns.port)
        try:
            if ns.prometheus:
                print(await client.metrics(), end="")
                return 0
            prev = None
            shown = 0
            while True:
                stats = await client.stats()
                screen = render_top(stats, prev, ns.interval)
                if not ns.no_clear:
                    print(CLEAR, end="")
                print(screen, flush=True)
                prev = stats
                shown += 1
                if ns.iterations and shown >= ns.iterations:
                    return 0
                await asyncio.sleep(ns.interval)
        finally:
            await client.close()

    try:
        return asyncio.run(main())
    except KeyboardInterrupt:
        return 0
    except (ConnectionError, OSError) as exc:
        print(f"error: cannot reach {ns.host}:{ns.port}: {exc}",
              file=sys.stderr)
        return 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="python -m repro.service",
                                description=__doc__)
    sub = p.add_subparsers(dest="cmd", required=True)

    def common(sp):
        sp.add_argument("--nshards", type=int, default=4)
        sp.add_argument("--max-inflight", type=int, default=1024)
        sp.add_argument("--batch-max", type=int, default=64)

    serve = sub.add_parser("serve", help="run the asyncio server")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=7227)
    serve.add_argument("--flight-slo-ns", type=float, default=None,
                       help="latency SLO (modeled ns) for the recorder")
    serve.add_argument("--flight-dump-dir", default=None,
                       help="directory for SLO-burn auto-dumps")
    common(serve)
    serve.set_defaults(fn=cmd_serve)

    bench = sub.add_parser("bench",
                           help="virtual-time saturation sweep -> results/")
    bench.add_argument("--clients", nargs="*",
                       help=f"fleet sizes (default {list(DEFAULT_SWEEP)})")
    bench.add_argument("--duration-ms", type=float, default=100.0)
    bench.add_argument("--budget", type=int, default=60,
                       help="real engine batches per point")
    bench.add_argument("--representatives", type=int, default=128)
    bench.add_argument("--seed", type=int, default=2021)
    bench.add_argument("--out", default="results")
    common(bench)
    bench.set_defaults(fn=cmd_bench)

    smoke = sub.add_parser("smoke",
                           help="live asyncio smoke test (CI gate)")
    smoke.add_argument("--seconds", type=float, default=30.0)
    smoke.add_argument("--connections", type=int, default=8)
    smoke.add_argument("--report", default="results/service_smoke.json")
    smoke.add_argument("--flight-slo-ns", type=float, default=None,
                       help="latency SLO (modeled ns) armed on the server")
    smoke.add_argument("--flight-dump-dir", default=None,
                       help="directory for SLO-burn auto-dumps")
    common(smoke)
    smoke.set_defaults(fn=cmd_smoke)

    top = sub.add_parser("top",
                         help="live console view of a running server")
    top.add_argument("--host", default="127.0.0.1")
    top.add_argument("--port", type=int, default=7227)
    top.add_argument("--interval", type=float, default=2.0,
                     help="seconds between STATS polls")
    top.add_argument("--iterations", type=int, default=0,
                     help="screens to render before exiting (0 = forever)")
    top.add_argument("--no-clear", action="store_true",
                     help="do not clear the screen between frames")
    top.add_argument("--prometheus", action="store_true",
                     help="print the raw Prometheus exposition page once")
    top.set_defaults(fn=cmd_top)
    return p


def main(argv=None) -> int:
    ns = build_parser().parse_args(argv)
    return ns.fn(ns)


if __name__ == "__main__":
    raise SystemExit(main())
