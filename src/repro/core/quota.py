"""Per-tenant resource budgets: specs, a charge-before-commit ledger.

The file system checks every change under a tenant root against the
tenant's :class:`QuotaSpec` *before* it lands, through its usage hook
:meth:`~repro.core.tenant.TenantManager.charge` — a rejected change raises
:class:`~repro.errors.QuotaExceeded` — and commits it after.  Budgets:

* **inodes** — directories and regular files under the tenant root (the
  root itself is free; symlinks are uncharged because semantic-directory
  re-evaluation materialises and drops them behind the tenant's back);
* **bytes** — total file content bytes;
* **docs** — documents the content index holds under the tenant root
  (checked against the engine's CAS subtree count, so a tenant cannot
  grow the shared index past its share even through un-watched writes
  followed by ``ssync``).

The ledger is in-memory and authoritative during a run; after a restore
(or ``TenantManager`` re-attach) it is *recomputed from the tree*, which
is both simpler and safer than persisting usage per-op: the tree is
already crash-consistent, so the recomputed numbers are too.  ``fsck``'s
tenant pass cross-checks the ledger against a fresh recount and reports
any drift as a finding.

Quota checks compose with PR 7's admission control rather than replacing
it: the HAC op runs the admission gate first (whole-system backpressure),
then the file system charges the quota (per-tenant policy).
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.errors import QuotaExceeded

#: ledger resources, in reporting order
RESOURCES = ("inodes", "bytes", "docs")


class QuotaSpec:
    """One tenant's budgets.  ``None`` means unlimited.

    ``weight`` is not a budget but the tenant's fair-share weight in the
    maintenance scheduler's weighted round-robin drain order.
    """

    __slots__ = ("max_inodes", "max_bytes", "max_docs", "weight")

    def __init__(self, max_inodes: Optional[int] = None,
                 max_bytes: Optional[int] = None,
                 max_docs: Optional[int] = None,
                 weight: int = 1):
        if weight < 1:
            raise ValueError("fair-share weight must be >= 1")
        self.max_inodes = max_inodes
        self.max_bytes = max_bytes
        self.max_docs = max_docs
        self.weight = int(weight)

    def limit_of(self, resource: str) -> Optional[int]:
        return {"inodes": self.max_inodes, "bytes": self.max_bytes,
                "docs": self.max_docs}[resource]

    def to_obj(self) -> Dict[str, object]:
        return {"max_inodes": self.max_inodes, "max_bytes": self.max_bytes,
                "max_docs": self.max_docs, "weight": self.weight}

    @classmethod
    def from_obj(cls, obj) -> "QuotaSpec":
        return cls(max_inodes=obj.get("max_inodes"),
                   max_bytes=obj.get("max_bytes"),
                   max_docs=obj.get("max_docs"),
                   weight=int(obj.get("weight", 1)))

    def __repr__(self):
        return (f"QuotaSpec(inodes={self.max_inodes}, bytes={self.max_bytes},"
                f" docs={self.max_docs}, weight={self.weight})")


class QuotaLedger:
    """Running usage for one tenant, checked before every mutation."""

    __slots__ = ("tenant", "spec", "inodes", "bytes")

    def __init__(self, tenant: str, spec: QuotaSpec):
        self.tenant = tenant
        self.spec = spec
        self.inodes = 0
        self.bytes = 0

    # -- the check-then-commit protocol -------------------------------------

    def check(self, resource: str, delta: int) -> None:
        """Raise :class:`QuotaExceeded` if charging *delta* would overrun.

        Pure check — call :meth:`commit` only after the underlying
        operation succeeded, so a failed op never shifts the ledger.
        """
        if delta <= 0:
            return
        limit = self.spec.limit_of(resource)
        if limit is None:
            return
        used = getattr(self, resource, 0)
        if used + delta > limit:
            raise QuotaExceeded(self.tenant, resource, used, limit,
                                requested=delta)

    def check_docs(self, indexed: int, delta: int = 1) -> None:
        """Doc budget check against the engine's live subtree count."""
        limit = self.spec.max_docs
        if limit is not None and indexed + delta > limit:
            raise QuotaExceeded(self.tenant, "docs", indexed, limit,
                                requested=delta)

    def commit(self, d_inodes: int, d_bytes: int) -> None:
        """Apply a charge (or a release, with negative deltas)."""
        self.inodes = max(0, self.inodes + d_inodes)
        self.bytes = max(0, self.bytes + d_bytes)

    def usage(self) -> Dict[str, int]:
        return {"inodes": self.inodes, "bytes": self.bytes}


def recompute_usage(fs, root: str) -> Dict[str, int]:
    """Recount a tenant subtree from the live tree (restore / fsck audit).

    Counts every directory and regular file strictly below *root* (the
    root itself is infrastructure, not tenant usage) and sums file
    content bytes.  Symlinks are skipped to match the charging policy of
    the file system's usage hook — re-evaluation materialises and drops
    them behind the tenant's back, so charging them would make recounts
    drift from the charged ledger.  So is the content of a file system
    mounted below *root*, which *fs*'s hook never sees; the covered
    directory itself counts.
    """
    from repro.util import pathutil
    from repro.vfs.walker import walk

    inodes = sum(1 for cover, _mounted in fs.mounts()
                 if pathutil.is_ancestor(root, cover))
    total_bytes = 0
    for dirpath, dirnames, filenames in walk(fs, root, cross_mounts=False):
        if pathutil.canonical(dirpath) != pathutil.canonical(root):
            inodes += 1
        for name in filenames:
            entry = pathutil.join(dirpath, name)
            if fs.islink(entry):
                continue
            inodes += 1
            if fs.isfile(entry):
                total_bytes += fs.stat(entry).size
    return {"inodes": inodes, "bytes": total_bytes}
