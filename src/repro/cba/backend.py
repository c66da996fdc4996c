"""The formal SearchBackend protocol — HAC's CBA seam, written down.

The paper argues its content-based access API is general enough to host
any search system (§2.2).  Until now that generality was informal: HAC
talked to "anything shaped like a CBAEngine" and probed optional surface
with ``hasattr``.  This module makes the contract explicit — a
:class:`typing.Protocol` that the monolithic
:class:`~repro.cba.engine.CBAEngine`, the
:class:`~repro.cluster.ShardedSearchCluster`, and the
:class:`~repro.remote.searchsvc.SimulatedSearchService` all satisfy — so
``HacFileSystem`` and friends can type against one name and drop the
ad-hoc sniffing.

Two method families beyond the obvious maintenance/query core deserve a
note:

* **Doc-id reservation** (:meth:`SearchBackend.reserve_doc_id`).  Block
  assignment is ``doc_id % num_blocks``, so query answers depend on the
  ids documents received.  The batched maintenance pipeline reserves ids
  at *enqueue* time and pins them at apply time, which is what keeps a
  coalesced batch bit-identical to the eager sequence it replaced.

* **Degradation surface** (:meth:`SearchBackend.shard_of`,
  :meth:`SearchBackend.reset_missing_shards`, :meth:`SearchBackend.health`).
  A monolithic engine has no shards, so its implementations are trivial
  (``None`` / empty) — but having them lets the consistency cascade and
  the shell run one unconditional code path against either back-end.

Persistence is not part of the protocol: the owning file system persists
an engine's segment stores, and restore folds them back through the
factory's ``from_segments`` (:class:`MonolithFactory`,
:class:`~repro.cluster.ClusterFactory`).
"""

from __future__ import annotations

from typing import (Dict, Hashable, Iterable, List, Optional, Protocol, Set,
                    Tuple, runtime_checkable)

from repro.util.bitmap import Bitmap
from repro.cba.incremental import ReindexPlan
from repro.cba.queryast import Node


@runtime_checkable
class SearchBackend(Protocol):
    """What HAC requires of a content-search back-end.

    ``isinstance(obj, SearchBackend)`` checks method *presence* (a
    :func:`typing.runtime_checkable` protocol cannot check signatures);
    the equivalence property suites check behaviour.
    """

    # -- maintenance ---------------------------------------------------------

    def index_document(self, key: Hashable, path: str, mtime: float,
                       text: Optional[str] = None,
                       doc_id: Optional[int] = None) -> int:
        """Add a new document; *doc_id* pins a previously reserved id."""

    def remove_document(self, key: Hashable) -> int:
        """Withdraw a document; returns the freed doc id."""

    def update_document(self, key: Hashable, path: str, mtime: float,
                        text: Optional[str] = None) -> int:
        """Re-tokenise a changed document in place (doc id preserved)."""

    def rename_document(self, key: Hashable, new_path: str) -> None:
        """Update the display path without re-tokenising."""

    def reindex(self, current: Iterable[Tuple[Hashable, str, float]],
                previous: Optional[Dict[Hashable, float]] = None
                ) -> ReindexPlan:
        """Bring the index in line with *current* ``(key, path, mtime)``."""

    def reserve_doc_id(self) -> int:
        """Claim the next doc id now, for a later pinned ``index_document``."""

    # -- registry ------------------------------------------------------------

    def doc_by_id(self, doc_id: int): ...

    def doc_by_key(self, key: Hashable): ...

    def doc_id_of(self, key: Hashable) -> Optional[int]: ...

    def all_docs(self) -> Bitmap: ...

    def mtime_snapshot(self) -> Dict[Hashable, float]: ...

    def __contains__(self, key: Hashable) -> bool: ...

    def __len__(self) -> int: ...

    # -- queries -------------------------------------------------------------

    def search(self, query: Node, scope: Optional[Bitmap] = None) -> Bitmap:
        """Evaluate a content-only query over an optional scope bitmap."""

    def search_blocks(self, query: Node, blocks: Bitmap,
                      scope: Optional[Bitmap] = None) -> Bitmap:
        """Verify a pre-planned query against externally nominated blocks."""

    def estimate_docs(self, node: Node) -> int:
        """Planner selectivity estimate for *node* (upper bound on hits)."""

    def extract(self, key: Hashable, query: Node) -> List[str]:
        """Match-carrying lines of one document (``sact``)."""

    # -- serving tier --------------------------------------------------------

    def publish(self) -> int:
        """Publish current state as the next snapshot version; returns it."""

    def snapshot_view(self):
        """The freshest published read view (zero-barrier query surface)."""

    def snapshot_info(self) -> Dict[str, object]:
        """Published version, pending op count, and per-replica state."""

    # -- degradation surface -------------------------------------------------

    def shard_of(self, key: Hashable) -> Optional[str]:
        """Owning shard id, or None on an unsharded back-end."""

    def reset_missing_shards(self) -> Set[str]:
        """Clear and return the shards missed since the last reset."""

    def health(self) -> Dict[str, str]:
        """Per-shard health (empty on an unsharded back-end)."""


# ======================================================================
# unified backend construction
# ======================================================================

class MonolithFactory:
    """Engine factory for the single-process :class:`CBAEngine`.

    Every factory is a callable (a fresh engine) plus
    :meth:`from_segments` (an engine folded from a persisted segment
    list), so ``HacFileSystem`` and ``restore`` drive every backend kind
    through one seam.  The persisted topology decides the kind: a
    manifest naming shards restores as a cluster, whatever the factory.
    """

    def __call__(self, loader, *, counters=None, clock=None, transducer=None,
                 num_blocks: int = 64, fast_path: bool = True):
        from repro.cba.engine import CBAEngine
        from repro.cba.transducers import default_transducer

        return CBAEngine(loader=loader, num_blocks=num_blocks,
                         transducer=transducer or default_transducer,
                         counters=counters, fast_path=fast_path)

    def from_segments(self, stores, *, loader, next_doc_id: int = 0,
                      counters=None, clock=None, transducer=None,
                      num_blocks: int = 64, fast_path: bool = True):
        """Fold *stores* — one :class:`~repro.cba.segments.SegmentStore`,
        or shard id → store for a sharded manifest — into an engine with
        zero tokenisation."""
        from repro.cba.engine import CBAEngine
        from repro.cba.transducers import default_transducer

        if isinstance(stores, dict):
            from repro.cluster import ClusterFactory

            return ClusterFactory().from_segments(
                stores, loader=loader, next_doc_id=next_doc_id,
                counters=counters, clock=clock, transducer=transducer,
                num_blocks=num_blocks, fast_path=fast_path)
        return CBAEngine.from_segments(
            stores, loader=loader, next_doc_id=next_doc_id,
            transducer=transducer or default_transducer, counters=counters,
            fast_path=fast_path, num_blocks=num_blocks)


def open_backend(spec, **options):
    """One entry point for every search-backend kind.

    Before this, the three backends had three divergent constructor
    signatures (``CBAEngine(...)``, ``ClusterFactory(...)(...)``,
    ``SimulatedSearchService(...)``); callers hard-coded which one they
    were building.  ``open_backend`` takes a *spec* and returns the right
    thing for the seam the spec names:

    * ``"monolith"`` → a :class:`MonolithFactory` (pass as
      ``HacFileSystem(backend=...)``);
    * ``"cluster"`` or ``"cluster:<K>"`` → a
      :class:`~repro.cluster.ClusterFactory` with K shards;
    * ``"remote:<ns_id>"`` → a
      :class:`~repro.remote.searchsvc.SimulatedSearchService` (pass to
      ``smount``);
    * a dict ``{"kind": ..., **kwargs}`` — the explicit form of any of
      the above;
    * an already-built factory/namespace passes through unchanged.

    Keyword *options* are forwarded to the underlying constructor
    (``shards=``, ``latency=``, ``documents=``, ...).
    """
    if spec is None:
        return MonolithFactory(**options)
    if isinstance(spec, dict):
        spec = dict(spec)
        kind = spec.pop("kind", "monolith")
        merged = {**spec, **options}
        return _build_backend(str(kind), merged)
    if isinstance(spec, str):
        kind, _, arg = spec.partition(":")
        merged = dict(options)
        if arg:
            if kind == "cluster":
                merged.setdefault("shards", int(arg))
            elif kind == "remote":
                merged.setdefault("namespace_id", arg)
        return _build_backend(kind, merged)
    # anything already satisfying a backend seam passes through
    return spec


def _build_backend(kind: str, options: Dict[str, object]):
    if kind == "monolith":
        return MonolithFactory(**options)
    if kind == "cluster":
        from repro.cluster import ClusterFactory

        return ClusterFactory(**options)
    if kind == "remote":
        from repro.remote.searchsvc import SimulatedSearchService

        ns_id = options.pop("namespace_id", None)
        if ns_id is None:
            raise ValueError("remote backend spec needs a namespace id "
                             "('remote:<ns_id>')")
        return SimulatedSearchService(str(ns_id), **options)
    raise ValueError(f"unknown backend kind: {kind!r} "
                     "(monolith | cluster | remote)")
