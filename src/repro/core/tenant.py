"""Multi-tenant namespaces over one shared HAC file system.

The paper's semantic directories assume a single user over a single name
space; the cluster, snapshot, and chaos planes of PRs 4–9 scale the *index*
but still expose one flat namespace.  This module carves that namespace
into per-tenant scope roots — Prospero-style virtual namespaces synthesized
over shared infrastructure — and makes the :class:`Tenant` handle the
single public API surface:

* every VFS op, semantic op, ``glimpse`` query, and ``health()`` call on a
  :class:`Tenant` rewrites tenant-relative paths under the tenant's root
  (``/tenants/<name>``) and reverse-maps every path in the result, so a
  tenant never sees — and can never name — another tenant's tree;
* queries are scoped to the tenant subtree by wrapping the parsed AST in a
  ``scope:`` term, which the CAS index answers from its prefix partitions
  in one probe (PR 9) — the *index* stays shared, the *visibility* is
  per-tenant;
* every change under a tenant root — through the facade or from the
  host — is charged against the tenant's :class:`QuotaSpec`
  (:mod:`repro.core.quota`) by :meth:`TenantManager.charge`, the file
  system's usage hook, *before* it lands; it composes with the admission
  gate (quota = per-tenant policy, admission = whole-system backpressure);
* every journaled intent a tenant op opens carries the tenant id in its
  payload, every facade op runs under a ``tenant.<op>`` span tagged with
  the tenant, and every maintenance event the op enqueues is attributed to
  the tenant's drain bucket (fair-share weighted round-robin — see
  :class:`~repro.core.scheduler.MaintenanceScheduler`).

Isolation is load-bearing, not advisory: the tenant soak
(:mod:`repro.chaos.tenantsoak`) drives two tenants, aims every fault at
tenant A's ops, and asserts tenant B's state digest is bit-identical to a
B-only fault-free oracle world.
"""

from __future__ import annotations

import inspect
import re
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, TYPE_CHECKING

from repro.errors import CrossDevice, InvalidArgument, UnknownTenant
from repro.util import pathutil
from repro.core.quota import QuotaLedger, QuotaSpec, recompute_usage

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.hacfs import HacFileSystem

#: host directory every tenant root lives under (created lazily)
TENANTS_ROOT = "/tenants"

#: aux record persisting the tenant table (quota specs; usage is
#: recomputed from the tree on every attach/restore)
TENANTS_RECORD = "tenants"


#: tenant names become path components and CAS prefix-partition keys, so
#: the charset is strict: lowercase alphanumerics, dash, underscore
_NAME_RE = re.compile(r"[a-z0-9][a-z0-9_-]*\Z")


def _valid_name(name: str) -> bool:
    return bool(_NAME_RE.match(name))


class TenantManager:
    """Carves per-tenant scope roots out of one shared HAC file system.

    Owned by the :class:`~repro.core.hacfs.HacFileSystem` (``hac.tenants``);
    an empty manager costs nothing — the ``/tenants`` host directory, the
    scheduler's per-tenant buckets, and the ``health()`` tenant section all
    appear only once the first tenant is created.
    """

    def __init__(self, hacfs: "HacFileSystem"):
        self.hacfs = hacfs
        self._tenants: Dict[str, Tenant] = {}
        #: False while recovery undoes a failed operation (see undoing)
        self._enforcing = True
        hacfs.maintenance.set_tenant_resolver(self.tenant_of_path)
        # a reopened file system still carries the crashed instance's hook
        hacfs.fs.usage_hook = None

    # -- lifecycle ----------------------------------------------------------

    def create(self, name: str, quota: Optional[QuotaSpec] = None) -> "Tenant":
        """Register a tenant and create its scope root.

        Journaled as one ``tenant_create`` intent: the root directories,
        the persisted tenant table and the root's watch land together or
        not at all.  The tenant is attached in memory only once they have.
        """
        if not _valid_name(name):
            raise InvalidArgument(name, "invalid tenant name")
        if name in self._tenants:
            raise InvalidArgument(name, "tenant already exists")
        spec = quota if quota is not None else QuotaSpec()
        root = pathutil.join(TENANTS_ROOT, name)
        with self.hacfs._journaled("tenant_create",
                                   {"tenant": name, "root": root}):
            self.hacfs.makedirs(root)
            self._persist(name, spec)
            self.hacfs.watch(root)
        return self._attach(name, spec)

    def get(self, name: str) -> "Tenant":
        tenant = self._tenants.get(name)
        if tenant is None:
            raise UnknownTenant(name)
        return tenant

    def __contains__(self, name: str) -> bool:
        return name in self._tenants

    def __len__(self) -> int:
        return len(self._tenants)

    def names(self) -> List[str]:
        return sorted(self._tenants)

    def set_quota(self, name: str, quota: QuotaSpec) -> None:
        """Replace a tenant's budgets (usage carries over)."""
        tenant = self.get(name)
        with self.hacfs._journaled("tenant_quota",
                                   {"tenant": name, "quota": quota.to_obj()}):
            self._persist(name, quota)
        tenant.ledger.spec = quota
        self.hacfs.maintenance.register_tenant(name, quota.weight)

    # -- attribution hooks --------------------------------------------------

    def tenant_of_path(self, path: str) -> Optional[str]:
        """The tenant owning *path*, or None for shared-namespace paths
        (the maintenance scheduler's bucket resolver)."""
        if not self._tenants or not path.startswith(TENANTS_ROOT):
            return None
        rest = path[len(TENANTS_ROOT):]
        if not rest.startswith("/"):
            return None
        name = rest[1:].split("/", 1)[0]
        return name if name in self._tenants else None

    # -- quota charging -----------------------------------------------------

    def charge(self, path: str, d_inodes: int, d_bytes: int,
               is_dir: bool = False, moved_from: Optional[str] = None
               ) -> Optional[Callable[[], None]]:
        """The file system's usage hook (``FileSystem.usage_hook``): check
        a change at host *path* against its tenant's budgets — a new
        regular file against the doc budget too — and return the commit.
        A file renamed across a tenant boundary moves its charge; a
        directory raises :class:`~repro.errors.CrossDevice` before
        anything moves.  The tenant root is never charged."""
        target, source = self._charged(path), None
        if moved_from is not None:
            if self.tenant_of_path(moved_from) == self.tenant_of_path(path):
                return None
            if is_dir:
                raise CrossDevice(path, "rename across a tenant boundary")
            source = self._charged(moved_from)
        if target is None and source is None:
            return None
        if target is not None and self._enforcing:
            ledger = target.ledger
            if d_inodes > 0:
                ledger.check("inodes", d_inodes)
            if d_bytes > 0:
                ledger.check("bytes", d_bytes)
            if d_inodes > 0 and not is_dir:
                ledger.check_docs(self._indexed_docs(target))

        def commit() -> None:
            if source is not None:
                source.ledger.commit(-d_inodes, -d_bytes)
            if target is not None:
                target.ledger.commit(d_inodes, d_bytes)
        return commit

    def _charged(self, path: str) -> Optional["Tenant"]:
        """The tenant whose ledger a change at *path* moves, if any."""
        name = self.tenant_of_path(path)
        if name is None:
            return None
        tenant = self._tenants[name]
        return None if path == tenant.root else tenant

    def _indexed_docs(self, tenant: "Tenant") -> int:
        """Documents the shared index holds under *tenant*'s root, plus
        updates still queued in its drain bucket."""
        count = 0
        scope_count = getattr(self.hacfs.engine, "scope_count", None)
        if callable(scope_count):
            count = scope_count(tenant.root)
        pending = self.hacfs.maintenance.pending_by_tenant()
        return count + pending.get(tenant.name, 0)

    @contextmanager
    def undoing(self):
        """Charge without refusing while recovery undoes a failed op: an
        undo only returns usage to a level the ledger already admitted."""
        self._enforcing = False
        try:
            yield
        finally:
            self._enforcing = True

    # -- reporting ----------------------------------------------------------

    def describe(self) -> Dict[str, Dict[str, object]]:
        """Per-tenant root/usage/quota/pending — ``health()``'s tenant
        section (and, for one tenant, its own ``health()``'s)."""
        pending = self.hacfs.maintenance.pending_by_tenant()
        out: Dict[str, Dict[str, object]] = {}
        for name in self.names():
            tenant = self._tenants[name]
            out[name] = {
                "root": tenant.root,
                "usage": tenant.ledger.usage(),
                "quota": tenant.ledger.spec.to_obj(),
                "pending": pending.get(name, 0),
            }
        return out

    # -- persistence --------------------------------------------------------

    def _attach(self, name: str, spec: QuotaSpec) -> "Tenant":
        """Register a tenant in memory.  The caller watches its root: a
        tenant namespace is always index-fresh on its own writes, so every
        mutation enqueues (and thus counts against the doc budget and
        lands in the tenant's fair-share bucket) instead of waiting for a
        whole-tree ssync."""
        tenant = Tenant(self, name, spec)
        self._tenants[name] = tenant
        self.hacfs.fs.usage_hook = self.charge
        self.hacfs.maintenance.register_tenant(name, spec.weight)
        return tenant

    def _persist(self, name: str, spec: QuotaSpec) -> None:
        """Write the tenant table with *name*'s budgets set to *spec*."""
        specs = {n: t.ledger.spec for n, t in self._tenants.items()}
        specs[name] = spec
        self.hacfs.meta.flush_aux(TENANTS_RECORD, {
            n: {"quota": q.to_obj()} for n, q in specs.items()})

    def reload(self) -> int:
        """Re-attach every persisted tenant (the restore path); usage is
        recounted from the live tree, which recovery already healed."""
        raw = self.hacfs.meta.load_aux(TENANTS_RECORD) or {}
        for name in sorted(raw):
            if name in self._tenants:
                continue
            spec = QuotaSpec.from_obj(raw[name].get("quota", {}))
            tenant = self._attach(name, spec)
            self.hacfs.watch(tenant.root)
            if self.hacfs.fs.isdir(tenant.root):
                tenant.recount()
        return len(self._tenants)


class Tenant:
    """The tenant-scoped facade — the public API surface of a namespace.

    Every method mirrors the :class:`HacFileSystem` call of the same name,
    with tenant-relative paths in and out, and runs under :meth:`_op`.
    The methods that only rebase paths are generated from
    :data:`_FORWARDED`.  Quotas are not charged here but where the file
    system changes usage (:meth:`TenantManager.charge`), which refuses a
    change with :class:`~repro.errors.QuotaExceeded` before it lands.
    """

    def __init__(self, manager: TenantManager, name: str, spec: QuotaSpec):
        self.manager = manager
        self.name = name
        self.root = pathutil.join(TENANTS_ROOT, name)
        self.ledger = QuotaLedger(name, spec)
        self._hacfs = manager.hacfs
        self._stats = self._hacfs.counters.scoped(f"tenant.{name}")

    def __repr__(self):
        return f"Tenant({self.name!r}, root={self.root!r})"

    # -- path translation ---------------------------------------------------

    def _host(self, path: str) -> str:
        """Tenant-relative → host path; ``..`` cannot escape the root
        because it is collapsed lexically *before* the root is prefixed,
        clamping at the tenant's own root (chroot semantics)."""
        norm = pathutil.normalize(path if path.startswith("/") else "/" + path)
        comps: List[str] = []
        for comp in pathutil.split_components(norm):
            if comp == "..":
                if comps:
                    comps.pop()
            else:
                comps.append(comp)
        return self.root if not comps else self.root + "/" + "/".join(comps)

    def _host_target(self, text: str) -> str:
        """A link target: a tenant path, or an ``ns://doc`` URI as is."""
        return text if "://" in text else self._host(text)

    def _rel(self, host_path: str) -> Optional[str]:
        """Host → tenant-relative path; None for paths outside the root."""
        if host_path == self.root:
            return "/"
        if host_path.startswith(self.root + "/"):
            return host_path[len(self.root):]
        return None

    @contextmanager
    def _op(self, op: str, **tags):
        """One facade operation: a tenant-tagged span, tenant-attributed
        journal intents, and a per-tenant op counter."""
        hacfs = self._hacfs
        self._stats.add("ops")
        prev = hacfs.journal.tenant
        hacfs.journal.tenant = self.name
        try:
            with hacfs.obs.trace.span(f"tenant.{op}", tenant=self.name,
                                      **tags):
                yield
        finally:
            hacfs.journal.tenant = prev

    # -- quota --------------------------------------------------------------

    def usage(self) -> Dict[str, int]:
        return self.ledger.usage()

    def quota(self) -> QuotaSpec:
        return self.ledger.spec

    def recount(self) -> Dict[str, int]:
        """Recompute the ledger from the live tree (attach/restore/audit)."""
        counted = recompute_usage(self._hacfs.fs, self.root)
        self.ledger.inodes = counted["inodes"]
        self.ledger.bytes = counted["bytes"]
        return counted

    # -- operations with more to do than rebase paths -----------------------

    def rmdir(self, path: str) -> None:
        host = self._host(path)
        if host == self.root:
            raise InvalidArgument(path, "cannot remove the tenant root")
        with self._op("rmdir", path=path):
            self._hacfs.rmdir(host)

    def symlink(self, target: str, linkpath: str):
        link = self._host(linkpath)
        if "://" not in target:
            # a relative target names a path beside the link, as on the
            # host; joining it first lets _host clamp ``..`` at the root
            base = self._rel(pathutil.dirname(link)) or "/"
            target = pathutil.join(base, target)
        with self._op("symlink", link=linkpath):
            return self._hacfs.symlink(self._host_target(target), link)

    def _resolve_dir(self, path: str) -> Optional[int]:
        """Query dir-references resolve in the *tenant's* namespace."""
        return self._hacfs.dirmap.uid_of(self._host(path))

    def smkdir(self, path: str, query: str) -> str:
        with self._op("smkdir", path=path, query=query):
            canon = self._hacfs.smkdir(self._host(path), query,
                                       resolve_dir=self._resolve_dir)
            return self._rel(canon) or canon

    def set_query(self, path: str, query: Optional[str]) -> None:
        with self._op("set_query", path=path):
            self._hacfs.set_query(self._host(path), query,
                                  resolve_dir=self._resolve_dir)

    def get_query(self, path: str) -> Optional[str]:
        _uid, state = self._hacfs._state_of(self._host(path))
        if state.query is None:
            return None
        return state.query.to_text(
            lambda uid: self._rel(self._hacfs.dirmap.path_of(uid) or "")
            or self._hacfs.dirmap.path_of(uid))

    def barrier(self) -> int:
        """Drain only this tenant's pending maintenance (fair-share: a
        neighbour's write storm stays in the neighbour's bucket)."""
        return self._hacfs.maintenance.barrier(tenant=self.name)

    def glimpse(self, query: str, scope_path: str = "/",
                consistency: str = "strong") -> List[str]:
        """Ad-hoc search confined to the tenant subtree.

        The parsed query is wrapped in a ``scope:`` term for the tenant
        root, so the CAS index answers the subtree restriction from its
        prefix partitions in one probe (PR 9) — no per-tenant index, no
        walk.  ``strong`` drains only this tenant's bucket first
        (fair-share), ``snapshot`` answers from the last published
        version with no barrier at all.
        """
        from repro.cba.queryparser import parse_query
        from repro.cba import evaluator, queryast

        if consistency not in ("strong", "snapshot"):
            raise ValueError(f"unknown consistency level: {consistency!r}")
        hacfs = self._hacfs
        consistency = hacfs.admission.admit_read(consistency)
        host_scope = self._host(scope_path)
        with self._op("glimpse", query=query, consistency=consistency):
            ast = parse_query(query, resolve_dir=self._resolve_dir)
            scoped = queryast.scoped(ast, host_scope)
            resolve = lambda uid: hacfs.scopes.provided_by_uid(uid).local
            if consistency == "snapshot":
                view = hacfs.engine.snapshot_view()
                hits = evaluator.evaluate(scoped, view, resolve_dirref=resolve,
                                          scope=view.all_docs())
                docs = (view.doc_by_id(d) for d in hits)
            else:
                self.barrier()
                hits = evaluator.evaluate(scoped, hacfs.engine,
                                          resolve_dirref=resolve, scope=None)
                docs = (hacfs.engine.doc_by_id(d) for d in hits)
            out = []
            for doc in docs:
                if doc is None:
                    continue
                rel = self._rel(doc.path)
                if rel is not None:
                    out.append(rel)
        return sorted(out)

    def health(self, path: Optional[str] = None) -> Dict[str, object]:
        """The tenant's view of :meth:`HacFileSystem.health`: shared-plane
        sections pass through, the ``directories`` section is filtered to
        (and rebased under) the tenant root, the host's ``tenants``
        section — every neighbour's root, usage and quota — is dropped,
        and a ``tenant`` section adds this tenant's usage/quota/pending."""
        host = self._hacfs.health(self._host(path) if path is not None
                                  else None)
        directories = {}
        for dir_path, entry in host["directories"].items():
            rel = self._rel(dir_path)
            if rel is not None:
                directories[rel] = entry
        report = dict(host)
        report["directories"] = directories
        report["tenant"] = {"name": self.name,
                            **report.pop("tenants")[self.name]}
        return report


#: The ops the facade forwards as they are but for paths, grouped by a
#: stub that carries their signature.  A parameter named in _PATH_PARAMS
#: is a tenant path, rebased under the root on the way in; the ops in
#: _REBASED_RESULTS return a host path, mapped back out.
_FORWARDED = {
    "read_file unlink readlink stat lstat isdir isfile islink is_semantic "
    "links prohibited": lambda self, path: ...,
    "listdir ssync watch unwatch describe_scope": lambda self, path="/": ...,
    "chmod": lambda self, path, mode: ...,
    "mkdir makedirs": lambda self, path, mode=0o755: ...,
    "create": lambda self, path, mode=0o644: ...,
    "open": lambda self, path, mode="r": ...,
    "truncate": lambda self, path, size=0: ...,
    "exists": lambda self, path, follow=True: ...,
    "write_file": lambda self, path, data, append=False: ...,
    "rename": lambda self, old, new: ...,
    "classify make_permanent sact": lambda self, link_path: ...,
    "unprohibit": lambda self, dir_path, target_text: ...,
    "close": lambda self, fd: ...,
    "write": lambda self, fd, data: ...,
    "read": lambda self, fd, size=-1: ...,
    "lseek": lambda self, fd, offset, whence=0: ...,
}
_REBASED_RESULTS = {"readlink", "watch"}

#: path parameter name -> how it enters the host namespace
_PATH_PARAMS = {"path": Tenant._host, "old": Tenant._host,
                "new": Tenant._host, "link_path": Tenant._host,
                "dir_path": Tenant._host, "target_text": Tenant._host_target}


def _forwarder(op: str, sig: inspect.Signature, rebase_result: bool):
    """The facade method for *op*: a plain function with signature *sig*
    that rebases its path arguments, runs the file-system call of the
    same name under :meth:`Tenant._op`, and maps a path result back into
    the tenant's namespace."""
    paths = {name: _PATH_PARAMS[name] for name in sig.parameters
             if name in _PATH_PARAMS}

    def forward(self, *args, **kwargs):
        values = sig.bind(self, *args, **kwargs)
        values.apply_defaults()
        args = values.arguments
        tags = {name: args[name] for name in paths}
        for name, host in paths.items():
            args[name] = host(self, args[name])
        with self._op(op, **tags):
            result = getattr(self._hacfs, op)(*list(args.values())[1:])
        return (self._rel(result) or result) if rebase_result else result

    forward.__name__ = op
    forward.__qualname__ = f"Tenant.{op}"
    forward.__doc__ = f"Tenant-scoped :meth:`HacFileSystem.{op}`."
    forward.__signature__ = sig
    return forward


for _ops, _stub in _FORWARDED.items():
    for _op_name in _ops.split():
        setattr(Tenant, _op_name, _forwarder(
            _op_name, inspect.signature(_stub),
            _op_name in _REBASED_RESULTS))
