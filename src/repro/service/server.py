"""The asyncio front-end: a socket server and a multiplexing client.

The server (:class:`ServiceServer`) is a thin concurrency shell around
:class:`~.core.ServiceCore` — all protocol, admission, and telemetry
decisions live in the core; the server contributes only the event loop
plumbing and the *cross-connection batching* that makes the shards earn
their keep:

- each connection is one reader task doing length-prefix framing
  (``readexactly(4)`` → ``readexactly(n)``);
- decode + admission + STATS/PING run inline on the event loop (they are
  cheap and must answer even under load — rejects cost two frames and
  never touch a shard);
- admitted data-path requests are routed by the consistent-hash ring into
  **per-shard queues**, each drained by one task that collects up to
  ``batch_max`` pending requests — across *all* connections — and runs
  them as one engine batch on a worker thread.  One slow client cannot
  stall another shard's queue, and concurrent shard batches genuinely
  overlap (each shard owns an isolated cluster; the engine keeps no
  cross-run state).

The client (:class:`ServiceClient`) multiplexes any number of in-flight
calls over one connection by sequence number — the response order is the
server's choice, not the request order, which is what write coalescing
and per-shard batching require.
"""

from __future__ import annotations

import asyncio
import struct

from ..errors import ProtocolError, ReproError, ServiceOverloadedError
from . import wire
from .core import ServiceConfig, ServiceCore
from .wire import MAX_FRAME_BYTES

_LEN = struct.Struct("!I")


async def _read_frame(reader: asyncio.StreamReader) -> bytes | None:
    """One frame payload (length prefix stripped), or None at EOF."""
    try:
        hdr = await reader.readexactly(_LEN.size)
    except (asyncio.IncompleteReadError, ConnectionResetError):
        return None
    (n,) = _LEN.unpack(hdr)
    if n > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"declared frame length {n} exceeds MAX_FRAME_BYTES")
    try:
        return await reader.readexactly(n)
    except (asyncio.IncompleteReadError, ConnectionResetError):
        return None


def _safe_write(writer: asyncio.StreamWriter, frame: bytes) -> None:
    """Write a complete frame, swallowing gone-client errors: a response
    the client no longer wants must not take the server down."""
    try:
        if not writer.is_closing():
            writer.write(frame)
    except (ConnectionResetError, BrokenPipeError, RuntimeError):
        pass


class ServiceServer:
    """asyncio server over a :class:`ServiceCore` (see module doc)."""

    def __init__(self, core: ServiceCore | None = None, *,
                 host: str = "127.0.0.1", port: int = 0,
                 config: ServiceConfig | None = None):
        self.core = core or ServiceCore(config)
        self.host = host
        self.port = port
        self._server: asyncio.AbstractServer | None = None
        self._queues: list[asyncio.Queue] = []
        self._drainers: list[asyncio.Task] = []

    # ------------------------------------------------------------------ lifecycle

    async def start(self) -> "ServiceServer":
        nshards = self.core.cfg.nshards
        self._queues = [asyncio.Queue() for _ in range(nshards)]
        self._drainers = [
            asyncio.ensure_future(self._drain(shard))
            for shard in range(nshards)
        ]
        self._server = await asyncio.start_server(
            self._on_connection, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for t in self._drainers:
            t.cancel()
        for t in self._drainers:
            try:
                await t
            except asyncio.CancelledError:
                pass

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        async with self._server:
            await self._server.serve_forever()

    # ------------------------------------------------------------------ connection

    async def _on_connection(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        core = self.core
        try:
            while True:
                try:
                    payload = await _read_frame(reader)
                except ProtocolError as exc:
                    # framing desync is unrecoverable: answer and hang up
                    core._count("service.protocol_errors")
                    _safe_write(writer, wire.encode_error(0, exc))
                    break
                if payload is None:
                    break
                try:
                    env = core.accept(payload)
                except ProtocolError as exc:
                    _safe_write(writer, wire.encode_error(0, exc))
                    continue
                local = core._handle_local(env)
                if local is not None:
                    _safe_write(writer, local)
                    continue
                try:
                    core.admit()
                except ServiceOverloadedError as exc:
                    with core._lock:
                        _safe_write(writer, core._encode_response(env, exc))
                    continue
                shard = core.shard_of(env)
                await self._queues[shard].put((env, writer))
        finally:
            try:
                await writer.drain()
            except (ConnectionResetError, BrokenPipeError):
                pass
            writer.close()

    # ------------------------------------------------------------------ shard drain

    async def _drain(self, shard: int) -> None:
        """One shard's batch loop: block for the first pending request,
        then sweep everything else already queued (up to ``batch_max``)
        into the same engine run."""
        queue = self._queues[shard]
        core = self.core
        loop = asyncio.get_event_loop()
        while True:
            first = await queue.get()
            batch = [first]
            while len(batch) < core.cfg.batch_max:
                try:
                    batch.append(queue.get_nowait())
                except asyncio.QueueEmpty:
                    break
            envelopes = [env for env, _ in batch]
            try:
                frames = await loop.run_in_executor(
                    None, core.execute_batch, shard, envelopes)
                for (_, writer), frame in zip(batch, frames):
                    _safe_write(writer, frame)
            except ReproError as exc:  # pragma: no cover - belt and braces
                with core._lock:
                    for env, writer in batch:
                        _safe_write(writer, core._encode_response(env, exc))
            finally:
                core.release(len(batch))


class ServiceClient:
    """Multiplexing asyncio client for the wire protocol.

    Any number of calls may be in flight on one connection; responses are
    matched to callers by sequence number.  RESP_ERR frames re-raise the
    server's typed exception (:mod:`repro.errors`) in the caller — the
    round-tripped instance carries the same attributes
    (``retry_after_ms``, ``shard``, …) the server raised with.

    The client mints a **trace id** per call — ``trace_base`` in the high
    word, the call's seq in the low word, high bit clear (server-minted ids
    set it) — and sends it in the wire trace-context extension; the id of
    the most recent call is kept in ``last_trace_id`` so a caller can fish
    its own request out of a flight-recorder dump.
    """

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter, *, trace_base: int = 0):
        self._reader = reader
        self._writer = writer
        self._seq = 0
        self._pending: dict[int, asyncio.Future] = {}
        self._trace_base = trace_base & 0x7FFFFFFF
        self.last_trace_id: int | None = None
        self._recv_task = asyncio.ensure_future(self._recv_loop())

    @classmethod
    async def connect(cls, host: str, port: int, *,
                      trace_base: int = 0) -> "ServiceClient":
        reader, writer = await asyncio.open_connection(host, port)
        return cls(reader, writer, trace_base=trace_base)

    async def close(self) -> None:
        self._recv_task.cancel()
        try:
            await self._recv_task
        except asyncio.CancelledError:
            pass
        self._writer.close()
        for fut in self._pending.values():
            if not fut.done():
                fut.cancel()
        self._pending.clear()

    # ------------------------------------------------------------------ plumbing

    async def _recv_loop(self) -> None:
        while True:
            payload = await _read_frame(self._reader)
            if payload is None:
                for fut in self._pending.values():
                    if not fut.done():
                        fut.set_exception(
                            ConnectionError("server closed the connection"))
                return
            frame = wire.decode_frame(payload)
            fut = self._pending.pop(frame.seq, None)
            if fut is None or fut.done():
                continue
            if frame.kind == wire.RESP_ERR:
                fut.set_exception(wire.decode_error(frame.body))
            else:
                fut.set_result(frame.body)

    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    def _mint_trace(self, seq: int, explicit: int | None = None) -> int:
        """The trace id for call ``seq``."""
        tid = explicit if explicit is not None \
            else (self._trace_base << 32) | (seq & 0xFFFFFFFF)
        self.last_trace_id = tid
        return tid

    # ------------------------------------------------------------------ API

    async def ping(self) -> None:
        seq = self._next_seq()
        await self._issue(seq, wire.encode_ping(
            seq, trace_id=self._mint_trace(seq)))

    async def store(self, name: str, array, offsets=None, *,
                    trace_id: int | None = None) -> None:
        seq = self._next_seq()
        await self._issue(seq, wire.encode_store(
            seq, name, array, offsets=offsets,
            trace_id=self._mint_trace(seq, trace_id)))

    async def load(self, name: str, offsets=None, dims=None, selection=None,
                   *, trace_id: int | None = None):
        seq = self._next_seq()
        return await self._issue(
            seq, wire.encode_load(
                seq, name, offsets=offsets, dims=dims, selection=selection,
                trace_id=self._mint_trace(seq, trace_id)))

    async def delete(self, name: str, *,
                     trace_id: int | None = None) -> None:
        seq = self._next_seq()
        await self._issue(seq, wire.encode_delete(
            seq, name, trace_id=self._mint_trace(seq, trace_id)))

    async def stats(self) -> dict:
        seq = self._next_seq()
        return await self._issue(seq, wire.encode_stats(
            seq, trace_id=self._mint_trace(seq)))

    async def metrics(self) -> str:
        """The server's live Prometheus text-format exposition page."""
        seq = self._next_seq()
        doc = await self._issue(seq, wire.encode_metrics(
            seq, trace_id=self._mint_trace(seq)))
        return doc["body"]

    async def flight(self) -> dict:
        """The server's flight-recorder ring (``repro-flight/1`` doc)."""
        seq = self._next_seq()
        return await self._issue(seq, wire.encode_flight(
            seq, trace_id=self._mint_trace(seq)))

    async def _issue(self, seq: int, frame: bytes):
        fut = asyncio.get_event_loop().create_future()
        self._pending[seq] = fut
        self._writer.write(frame)
        await self._writer.drain()
        return wire.decode_ok(await fut)
