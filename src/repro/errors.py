"""Exception hierarchy for the HAC reproduction.

Two families of errors exist:

* :class:`VfsError` and its subclasses mirror POSIX ``errno`` conditions
  raised by the hierarchical file-system substrate (:mod:`repro.vfs`).
* :class:`HacError` and its subclasses cover the semantic layer — query
  parsing, scope consistency, dependency cycles, mounts, and remote access.

Every error carries the offending path (or query) where that is meaningful,
so shell-level callers can render ``<path>: <message>`` diagnostics the way
UNIX tools do.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this package."""


# ---------------------------------------------------------------------------
# VFS (POSIX-like) errors
# ---------------------------------------------------------------------------


class VfsError(ReproError):
    """Base class for file-system errors.

    :param path: the path involved, if any.
    :param message: optional human-readable detail.
    """

    #: short errno-style mnemonic, overridden by subclasses.
    code = "EVFS"

    def __init__(self, path: str = "", message: str = ""):
        self.path = path
        self.message = message
        detail = f"{self.code}: {path}" if path else self.code
        if message:
            detail = f"{detail} ({message})"
        super().__init__(detail)


class FileNotFound(VfsError):
    """A path component does not exist (ENOENT)."""

    code = "ENOENT"


class FileExists(VfsError):
    """Target already exists (EEXIST)."""

    code = "EEXIST"


class NotADirectory(VfsError):
    """A non-final path component is not a directory (ENOTDIR)."""

    code = "ENOTDIR"


class IsADirectory(VfsError):
    """File operation applied to a directory (EISDIR)."""

    code = "EISDIR"


class DirectoryNotEmpty(VfsError):
    """rmdir / rename over a non-empty directory (ENOTEMPTY)."""

    code = "ENOTEMPTY"


class SymlinkLoop(VfsError):
    """Too many levels of symbolic links (ELOOP)."""

    code = "ELOOP"


class InvalidArgument(VfsError):
    """Bad argument to a file-system call (EINVAL)."""

    code = "EINVAL"


class BadFileDescriptor(VfsError):
    """Operation on a closed or wrong-mode descriptor (EBADF)."""

    code = "EBADF"


class CrossDevice(VfsError):
    """Rename across mount points (EXDEV)."""

    code = "EXDEV"


class DeviceBusy(VfsError):
    """Unmounting a busy mount point (EBUSY)."""

    code = "EBUSY"


class PermissionError_(VfsError):
    """Operation not permitted (EPERM)."""

    code = "EPERM"


class NoSpace(VfsError):
    """Simulated block device is full (ENOSPC)."""

    code = "ENOSPC"


class DeviceCrashed(VfsError):
    """The simulated device lost power (fault injection).

    Once raised, every further write to the device fails the same way until
    :meth:`repro.vfs.blockdev.BlockDevice.clear_faults` simulates the reboot.
    """

    code = "EIO"


class CorruptRecord(VfsError):
    """A persisted record failed its checksum (torn or bit-rotted write).

    Carries the record key in :attr:`path`.  Raised instead of letting the
    deserializer crash (or worse, silently succeed on garbage) so callers can
    distinguish "record absent" from "record unreadable".
    """

    code = "EBADRECORD"


# ---------------------------------------------------------------------------
# HAC semantic-layer errors
# ---------------------------------------------------------------------------


class HacError(ReproError):
    """Base class for semantic-layer errors."""


class QuerySyntaxError(HacError):
    """The query text could not be parsed.

    :param query: the offending query string.
    :param position: character offset where parsing failed.
    :param message: what was expected.
    """

    def __init__(self, query: str, position: int, message: str):
        self.query = query
        self.position = position
        self.message = message
        super().__init__(f"query syntax error at {position}: {message} in {query!r}")


class NotASemanticDirectory(HacError):
    """A semantic-directory operation was applied to an ordinary directory."""

    def __init__(self, path: str):
        self.path = path
        super().__init__(f"not a semantic directory: {path}")


class DependencyCycle(HacError):
    """Adding a query reference would create a cycle in the dependency DAG."""

    def __init__(self, path: str, cycle: list):
        self.path = path
        self.cycle = list(cycle)
        pretty = " -> ".join(str(p) for p in self.cycle)
        super().__init__(f"dependency cycle via {path}: {pretty}")


class UnknownDirectoryReference(HacError):
    """A query references a directory path that does not exist."""

    def __init__(self, path: str):
        self.path = path
        super().__init__(f"query references unknown directory: {path}")


class MountError(HacError):
    """Invalid syntactic/semantic mount operation."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"mount error at {path}: {message}")


class QueryLanguageMismatch(MountError):
    """Name spaces on a multiple semantic mount must share a query language."""

    def __init__(self, path: str, expected: str, got: str):
        super().__init__(
            path,
            f"all name spaces on a semantic mount point must share one query "
            f"language (mounted: {expected!r}, new: {got!r})",
        )


class BackendUnavailable(HacError):
    """A search back-end could not be reached.

    The root of the unified failure taxonomy: remote name spaces
    (:class:`RemoteUnavailable`), search-cluster shards
    (:class:`ShardUnavailable`), and breaker rejections
    (:class:`CircuitOpen`) all subclass this, so every HAC degradation
    path — the consistency cascade, the cluster's scatter-gather, RPC
    retry loops — catches exactly one exception type.

    :param backend: the name of the unreachable back-end (a namespace id,
        a transport name, a shard id).
    """

    #: what kind of back-end failed, overridden by subclasses for display
    kind = "back-end"

    def __init__(self, backend: str, message: str = ""):
        self.backend = backend
        detail = f"{self.kind} unavailable: {backend}"
        if message:
            detail = f"{detail} ({message})"
        super().__init__(detail)


class RemoteUnavailable(BackendUnavailable):
    """A simulated remote name space failed or timed out."""

    kind = "remote name space"

    def __init__(self, namespace: str, message: str = ""):
        super().__init__(namespace, message)
        self.namespace = namespace


class ShardUnavailable(BackendUnavailable):
    """A local search-cluster shard failed or timed out."""

    kind = "search shard"

    def __init__(self, shard: str, message: str = ""):
        super().__init__(shard, message)
        self.shard = shard


class CircuitOpen(BackendUnavailable):
    """The per-backend circuit breaker is open: the call was rejected
    locally without issuing an RPC.  Subclasses BackendUnavailable
    directly — the breaker does not know (or care) whether it guards a
    remote name space or a shard, only that the back-end is down."""

    kind = "back-end"

    def __init__(self, backend: str, retry_at: float):
        self.retry_at = retry_at
        super().__init__(backend, f"circuit open until t={retry_at:g}")
        # compatibility with the RemoteUnavailable attribute surface
        self.namespace = backend


class AdmissionRejected(BackendUnavailable):
    """The admission controller shed this operation.

    Raised *before* any state is touched when load shedding is enabled,
    back-ends are degraded, and the maintenance queue is at its bound —
    degradation as a serving policy rather than a partial result.
    Subclasses :class:`BackendUnavailable` so every existing degradation
    handler treats a shed write exactly like an unreachable back-end.
    """

    kind = "admission gate"


class StaleHandle(HacError):
    """A link target no longer resolves to a live file (data inconsistency)."""

    def __init__(self, target: str):
        self.target = target
        super().__init__(f"stale link target: {target}")


class UnknownTenant(HacError):
    """No tenant registered under this name."""

    def __init__(self, name: str):
        self.name = name
        super().__init__(f"unknown tenant: {name!r}")


class QuotaExceeded(HacError):
    """A change under a tenant root would overrun one of its budgets.

    Raised by the file system *before* the change lands (no bytes land,
    no inode is allocated); a journaled op it interrupts rolls back like
    any other failure.  Carries the full accounting picture so callers
    (and tests) can assert exactly which budget tripped.
    """

    def __init__(self, tenant: str, resource: str, used: int, limit: int,
                 requested: int = 0):
        self.tenant = tenant
        #: "inodes" | "bytes" | "docs"
        self.resource = resource
        self.used = used
        self.limit = limit
        self.requested = requested
        super().__init__(
            f"tenant {tenant!r} over {resource} quota: "
            f"used {used} + requested {requested} > limit {limit}")
