"""Machine and device specifications.

The constants default to the paper's testbed (§4): a Chameleon Cloud
*Compute Skylake* node — 2× Xeon Gold 6126 (24 physical cores / 48 threads,
2.6 GHz), 192 GB DRAM — with PMEM emulated per the Strata method at 300 ns
read / 125 ns write latency and 30 GB/s read / 8 GB/s write bandwidth
(van Renen et al.).

Every cost knob that the trace-driven timing simulator consumes lives here so
calibration is one diff, and EXPERIMENTS.md can cite a single source of truth.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .units import GB, GiB, MSEC, parse_bandwidth


@dataclass(frozen=True)
class DeviceSpec:
    """A bandwidth/latency model for one storage or memory device.

    ``read_bw``/``write_bw`` are the aggregate device limits in bytes/ns.
    ``stream_read_bw``/``stream_write_bw`` cap what a single sequential
    stream can draw — this is what makes device throughput *ramp up* with
    process count and then flatten (the Fig. 6/7 shape): with per-stream cap
    ``c`` and aggregate limit ``B``, N streams achieve ``min(N*c, B)``.
    """

    name: str
    read_latency_ns: float
    write_latency_ns: float
    read_bw: float           # bytes / ns, aggregate
    write_bw: float          # bytes / ns, aggregate
    stream_read_bw: float    # bytes / ns, per concurrent stream
    stream_write_bw: float   # bytes / ns, per concurrent stream
    capacity: int            # bytes

    def scaled(self, **kw) -> "DeviceSpec":
        return replace(self, **kw)


def pmem_spec(capacity: int = 80 * GiB) -> DeviceSpec:
    """The paper's emulated PMEM device (§4 'Emulating PMEM')."""
    return DeviceSpec(
        name="pmem",
        read_latency_ns=300.0,
        write_latency_ns=125.0,
        read_bw=parse_bandwidth("30GB/s"),
        write_bw=parse_bandwidth("8GB/s"),
        # Per-stream caps calibrated so aggregate write BW saturates around
        # 16 streams and read BW around 16-24, matching where Figs. 6/7 go
        # flat (the node has 24 physical cores).
        stream_read_bw=parse_bandwidth("2GB/s"),
        stream_write_bw=parse_bandwidth("0.55GB/s"),
        capacity=capacity,
    )


def dram_spec(capacity: int = 192 * GiB) -> DeviceSpec:
    """DRAM on the Skylake node, MLC-style numbers."""
    return DeviceSpec(
        name="dram",
        read_latency_ns=90.0,
        write_latency_ns=90.0,
        read_bw=parse_bandwidth("90GB/s"),
        write_bw=parse_bandwidth("45GB/s"),
        stream_read_bw=parse_bandwidth("12GB/s"),
        stream_write_bw=parse_bandwidth("8GB/s"),
        capacity=capacity,
    )


@dataclass(frozen=True)
class CPUSpec:
    """CPU model: physical cores, SMT threads, and per-core throughputs for
    the compute-ish phases of the I/O path."""

    physical_cores: int = 24
    smt_threads: int = 48
    #: throughput of one core doing serialization work (format + copy),
    #: bytes/ns.  BP4-style characteristic computation (min/max scan) is
    #: memory-bound but adds ALU work; ~2.5 GB/s/core on Skylake.
    serialize_bw_per_core: float = parse_bandwidth("2.5GB/s")
    #: throughput of one core doing a plain deserialize/unpack pass.
    deserialize_bw_per_core: float = parse_bandwidth("3.0GB/s")
    #: SMT efficiency: a hyperthread pair delivers this multiple of one core.
    smt_pair_speedup: float = 1.25


@dataclass(frozen=True)
class KernelSpec:
    """Costs of crossing into the simulated Linux kernel."""

    syscall_ns: float = 1_300.0          # bare entry/exit
    context_switch_ns: float = 3_000.0   # blocking I/O reschedule
    page_fault_ns: float = 1_800.0       # minor fault, 2MiB DAX mapping
    #: MAP_SYNC: each first-touch write fault must synchronously commit the
    #: filesystem metadata journal before returning (Corbet 2017).  Mostly
    #: serialized in ext4's journal — `sync_parallel_fraction` of it can
    #: overlap across faulting ranks (paper §4.1: "metadata updates were
    #: parallelized, which caused fewer stalls" only partially holds).
    map_sync_commit_ns: float = 3.8 * MSEC
    map_sync_parallel_fraction: float = 0.55
    #: page size used for DAX mappings (2 MiB huge pages).
    dax_page_bytes: int = 2 * 1024 * 1024
    #: POSIX read()/write() copy chunk (pipe of syscalls); affects syscall count.
    posix_io_chunk: int = 16 * 1024 * 1024
    #: the kernel's copy_{to,from}_iter on a DAX file reaches this fraction of
    #: a userspace non-temporal memcpy's per-stream bandwidth.
    dax_copy_efficiency: float = 0.88


@dataclass(frozen=True)
class NetworkSpec:
    """Intra-node MPI transport (shared-memory copies through DRAM) plus a
    per-message software latency.  The paper runs on a single node, so MPI
    'network' traffic is CPU memcpys — but it still costs two DRAM crossings
    and rendezvous latency, which is exactly the overhead pMEMCPY avoids."""

    message_latency_ns: float = 900.0
    bw_per_pair: float = parse_bandwidth("5GB/s")
    # large-message all-to-all through shared memory crosses the UPI and
    # pays copy-in/copy-out on both ends; the sustained aggregate is far
    # below the raw DRAM bandwidth
    aggregate_bw: float = parse_bandwidth("15GB/s")


@dataclass(frozen=True)
class MachineSpec:
    """The full modeled node."""

    cpu: CPUSpec = field(default_factory=CPUSpec)
    kernel: KernelSpec = field(default_factory=KernelSpec)
    network: NetworkSpec = field(default_factory=NetworkSpec)
    pmem: DeviceSpec = field(default_factory=pmem_spec)
    dram: DeviceSpec = field(default_factory=dram_spec)

    def cores_available(self, nranks: int) -> float:
        """Effective core count for ``nranks`` runnable threads, accounting
        for SMT: beyond `physical_cores`, each extra thread only adds the
        hyperthread increment."""
        c = self.cpu
        if nranks <= c.physical_cores:
            return float(nranks)
        extra = min(nranks, c.smt_threads) - c.physical_cores
        return c.physical_cores + extra * (c.smt_pair_speedup - 1.0)


DEFAULT_MACHINE = MachineSpec()

#: The paper writes 40 GB per experiment; the functional pass runs at
#: ``1/DEFAULT_SCALE`` of that so bytes really move and verify.
PAPER_TOTAL_BYTES = 40 * GB
DEFAULT_SCALE = 1024
