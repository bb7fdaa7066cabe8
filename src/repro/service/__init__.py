"""pMEMCPY-as-a-service: an async front-end over sharded PMEM pools.

The paper positions pMEMCPY as a linked-in library; the production leap
(the one ViPIOS made for parallel I/O — Schikuta et al.) is a dedicated
server process in front of the pools.  This package adds that layer
without touching the library underneath:

- :mod:`.wire` — a length-prefixed binary wire protocol (version-checked
  frames, self-describing responses, typed errors that round-trip);
- :mod:`.shard` — pool sharding across multiple emulated PMEM devices via
  consistent hashing on variable name (the same FNV-1a idiom as
  ``repro.pmdk.locks``), with per-shard write batching/coalescing;
- :mod:`.core` — the synchronous request pipeline (decode → admit →
  shard-dispatch → engine → encode) on a **modeled service clock**, every
  stage a ``repro.telemetry`` span, so the RPC hot path is deterministic
  and perf-gated like everything else (``service.*`` scenarios);
- :mod:`.server` — the asyncio front-end (``python -m repro.service
  serve``) and a multiplexing asyncio client that mints a per-call trace
  id into the wire trace-context extension;
- :mod:`.console` — the ``python -m repro.service top`` live view over
  the STATS/METRICS ops (flight recorder, counters, SLO percentiles);
- :mod:`.loadgen` — a closed-loop load generator scaling to 10^6
  simulated clients (zipfian keys, read/write mix), producing
  per-endpoint p50/p95/p99 SLO reports and the throughput-vs-clients
  saturation curve (``results/service_saturation.{csv,txt}``).

See DESIGN.md §13 for the architecture and backpressure semantics, and
§14 for request observability (trace propagation, the flight recorder,
and Prometheus exposition).
"""

from .core import ServiceConfig, ServiceCore
from .shard import ShardRing
from .wire import WIRE_VERSION

__all__ = ["ServiceConfig", "ServiceCore", "ShardRing", "WIRE_VERSION"]
