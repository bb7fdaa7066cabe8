"""Exception taxonomy for the reproduction stack.

Each substrate raises its own subclass so callers can distinguish, e.g., a
simulated kernel fault (``KernelError``) from a PMDK transaction abort
(``TransactionAborted``).  Everything derives from :class:`ReproError`.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this package."""


# -- memory / device ---------------------------------------------------------

class MemoryError_(ReproError):
    """Base for emulated-memory errors (named with underscore to avoid
    shadowing the builtin)."""


class BadAddressError(MemoryError_):
    """An access fell outside a mapped region or device."""


# -- kernel / filesystem ------------------------------------------------------

class KernelError(ReproError):
    """Base for simulated-kernel errors; carries a POSIX-style errno name."""

    errno_name = "EIO"


class NoSuchFileError(KernelError):
    errno_name = "ENOENT"


class FileExistsError_(KernelError):
    errno_name = "EEXIST"


class IsADirectoryError_(KernelError):
    errno_name = "EISDIR"


class NotADirectoryError_(KernelError):
    errno_name = "ENOTDIR"


class BadFileDescriptorError(KernelError):
    errno_name = "EBADF"


class InvalidArgumentError(KernelError):
    errno_name = "EINVAL"


class NoSpaceError(KernelError):
    errno_name = "ENOSPC"


class NotEmptyError(KernelError):
    errno_name = "ENOTEMPTY"


# -- PMDK ---------------------------------------------------------------------

class PmdkError(ReproError):
    """Base for the emulated PMDK object store."""


class PoolCorruptError(PmdkError):
    """Pool superblock/layout validation failed."""


class TransactionAborted(PmdkError):
    """A transaction was explicitly aborted; changes were rolled back."""


class AllocationError(PmdkError):
    """The persistent allocator could not satisfy a request."""


# -- MPI ----------------------------------------------------------------------

class MPIError(ReproError):
    """Base for the simulated MPI runtime."""


class CommunicatorError(MPIError):
    """Mismatched collective participation or invalid rank."""


class CollectiveAbortedError(CommunicatorError):
    """A collective (or recv) was abandoned because a *peer* rank failed.

    Secondary casualty, never the root cause — the engine's failure
    unwinding skips these when picking the exception to surface."""


class RankFailedError(MPIError):
    """A peer rank raised; collective operations propagate this."""

    def __init__(self, rank: int, original: BaseException):
        super().__init__(f"rank {rank} failed: {original!r}")
        self.rank = rank
        self.original = original


class LockDisciplineError(ReproError):
    """The post-run lock-discipline checker found a violation: a lock-order
    cycle (potential deadlock), a metadata write outside its owning guard
    (lost-update race), or an unmatched acquire/release."""


# -- serialization / pMEMCPY ---------------------------------------------------

class SerializationError(ReproError):
    """Pack/unpack failure (format violation, short buffer, bad magic)."""


class PmemcpyError(ReproError):
    """Base for the pMEMCPY public API."""


class KeyNotFoundError(PmemcpyError, KeyError):
    """``load`` of an id that was never stored."""


class DimensionMismatchError(PmemcpyError):
    """Subarray offsets/dims incompatible with the allocated variable."""


class NotMappedError(PmemcpyError):
    """API used before ``mmap`` or after ``munmap``."""


# -- service ------------------------------------------------------------------

class ServiceError(ReproError):
    """Base for the pMEMCPY-as-a-service layer (:mod:`repro.service`).

    Every subclass carries a stable wire code (see
    :mod:`repro.service.wire`) so typed errors round-trip the RPC boundary:
    the server encodes the exception, the client re-raises the same type.
    """


class ProtocolError(ServiceError):
    """Malformed frame: bad magic, short frame, unknown opcode, or a body
    that does not decode.  A protocol error means one side violated the
    wire format — the load harness counts these separately from typed
    application errors and requires zero of them."""


class ProtocolVersionError(ProtocolError):
    """Peer speaks a different wire-protocol version."""

    def __init__(self, theirs: int, ours: int):
        super().__init__(
            f"wire protocol version mismatch: peer speaks v{theirs}, "
            f"this side speaks v{ours}"
        )
        self.theirs = theirs
        self.ours = ours


class ServiceOverloadedError(ServiceError):
    """Admission control rejected the request: the bounded in-flight queue
    is full.  Typed backpressure — clients back off and retry after
    ``retry_after_ms`` instead of piling onto the queue."""

    def __init__(self, inflight: int, limit: int, retry_after_ms: float = 50.0):
        super().__init__(
            f"service overloaded: {inflight} requests in flight "
            f"(admission limit {limit}); retry after {retry_after_ms:g} ms"
        )
        self.inflight = inflight
        self.limit = limit
        self.retry_after_ms = retry_after_ms


class ShardUnavailableError(ServiceError):
    """The shard owning the requested variable is marked down (draining,
    crashed, or administratively removed from the ring)."""

    def __init__(self, shard: int, var_id: str = ""):
        detail = f" (variable {var_id!r})" if var_id else ""
        super().__init__(f"shard {shard} unavailable{detail}")
        self.shard = shard
        self.var_id = var_id


# -- baselines ------------------------------------------------------------------

class BaselineError(ReproError):
    """Base for the baseline PIO library emulations (HDF5/NetCDF/ADIOS...)."""


class FormatError(BaselineError):
    """On-device file format violation."""
