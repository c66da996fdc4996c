"""Immutable published snapshots: the read side of the serving tier.

PR 5's batched maintenance keeps queries consistent with a *pre-query
barrier* — every read first drains the pending batch.  That couples read
latency to write volume: at mail-arrival rate, a query's p99 is the cost
of whoever's batch it happened to flush.  This module decouples them with
the classic publish discipline (compare the index-reconstruction designs
in PAPERS.md): the primary engine keeps mutating, and queries are served
from an immutable **published snapshot** — the engine state as of the last
:meth:`~repro.cba.engine.CBAEngine.publish`, which the scheduler calls
once per drained batch.

A snapshot is materialised as a :class:`ReadReplica`: a full private
:class:`~repro.cba.engine.CBAEngine` (same block count, same fast path)
over a replica-local text store, so snapshot reads touch **no shared
state at all** — no scheduler drain, no live-tree loader, no device
charges against the primary.  Replicas catch up through one path: the
segments the primary's :class:`~repro.cba.segments.SegmentStore` seals at
each publish.

* **No re-tokenisation.**  Rows ship the term set the primary computed,
  so replica catch-up never runs the tokenizer (``engine.tokenisations``
  stays a pure write-side cost, which the Ablation K guards rely on).
* **Frozen text.**  Rows ship the document text the primary indexed; the
  replica engine's loader reads it from the replica's own dict.  A scan
  on the snapshot path therefore verifies against the text *as of the
  publish*, even while the live file is being rewritten.
* **Rows are ground truth.**  The store records mutations the primary
  *actually performed* (noted after the index change lands), so catch-up
  converges even across a failed-and-retried batch: the scheduler's
  reconciliation re-derives idempotent mutations, and the replica folds
  the same final per-document state the primary reached.

Replicas attach lazily: an engine with no replicas (and no persisting
owner) notes no rows and :meth:`~repro.cba.engine.CBAEngine.publish` is
a version bump — eager mode publishes on every drain without paying
anything for it.  A replica's ``lag`` knob makes it skip publishes (the
freshness-injection control the cluster's routing tests use); a lagged
replica's cursor into the shared sealed log is preserved, so catch-up
folds everything it missed.
"""

from __future__ import annotations

from typing import Dict, Hashable, Optional

from repro.util.bitmap import Bitmap
from repro.util.stats import Counters
from repro.cba.engine import CBAEngine, Document
from repro.cba.glimpse import GlimpseIndex

__all__ = ["ReadReplica"]


class ReadReplica:
    """One immutable-until-published serving copy of a primary engine.

    The replica owns a private :class:`CBAEngine` (and private
    :class:`Counters` — replica reads never pollute the primary's
    deterministic write-side counters) whose loader resolves document
    text from :attr:`_texts`, the replica-local store frozen at each
    publish.  Query callers treat the replica like an engine: it forwards
    the read surface (``search``/``search_blocks``/``all_docs``/
    ``doc_by_id``/``estimate_docs``) plus the attributes the evaluator
    and planner touch (``fast_path``, ``index``, ``counters``).
    """

    def __init__(self, replica_id: str, primary: CBAEngine):
        self.replica_id = replica_id
        self.counters = Counters()
        self._texts: Dict[Hashable, str] = {}
        self.engine = CBAEngine(loader=self._load,
                                num_blocks=primary.num_blocks,
                                min_term_length=primary.min_term_length,
                                stopwords=primary.stopwords,
                                transducer=primary.transducer,
                                cache_size=0,  # snapshots are short-lived
                                counters=self.counters,
                                fast_path=primary.fast_path,
                                cas=primary.cas is not None)
        #: last published version this replica has applied
        self.version = 0
        #: index into the primary's sealed log (segments before it are
        #: applied)
        self.cursor = 0
        #: publishes to skip (staleness injection; catch-up folds them)
        self.lag = 0
        self._stats = self.counters.scoped("replica")

    # ------------------------------------------------------------------
    # hydration and catch-up (called by the primary's publish machinery)
    # ------------------------------------------------------------------

    def _load(self, key: Hashable) -> str:
        return self._texts.get(key, "")

    def hydrate(self, primary: CBAEngine, version: int) -> None:
        """Bootstrap from the primary's current state.

        The index travels as its ``to_obj`` primitives and the registry
        dicts are copied directly (``Document`` rows are immutable), so
        hydration never re-tokenises; text is read once through the
        primary's loader — the only moment a replica touches the live
        tree, and the same text an eager scan would have read right now.
        """
        engine = self.engine
        engine.index = GlimpseIndex.from_obj(
            primary.index.to_obj(), counters=self.counters,
            track_doc_postings=primary.fast_path)
        engine.index.scope_counter = engine.scope_count
        engine._docs = dict(primary._docs)
        engine._by_key = dict(primary._by_key)
        engine._next_doc_id = primary._next_doc_id
        # the CAS index is derived (registry x term sets); rebuild it
        # from the copied state rather than shipping it
        engine.rebuild_cas()
        self._texts = {doc.key: primary.loader(doc.key)
                       for doc in primary._docs.values()}
        self.version = version
        self._stats.add("hydrations")
        self._stats.add("hydrated_docs", len(engine._docs))

    def apply_segments(self, log, upto: int, version: int) -> int:
        """Catch up from ``log[self.cursor:upto]`` frozen segments.

        The segments' rows are folded newest-wins per document key and
        only each document's *final* state is applied — an index state is
        a pure function of the current per-document term sets, so the
        coalesced apply converges to exactly what per-mutation replay
        would have built, in one index mutation per touched document.
        Applies mirror what the primary's mutation methods did (including
        the block-exact cache/memo invalidation via ``_note_mutation``).
        Returns rows applied.
        """
        from repro.cba.segments import _coalesce

        engine = self.engine
        final = {}
        for seg in log[self.cursor:upto]:
            for row in seg.rows:
                final[row.key] = _coalesce(final.get(row.key), row)
        applied = 0
        for key, row in final.items():
            if row.kind == "upsert":
                old_id = engine._by_key.get(key)
                if old_id is not None and old_id != row.doc_id:
                    # tombstone + revival coalesced across the window:
                    # retire the old incarnation before adding the new
                    engine._docs.pop(old_id, None)
                    engine.index.remove(old_id)
                    if engine.cas is not None:
                        engine.cas.remove(old_id)
                    engine._note_mutation(old_id, grew=False)
                if row.doc_id in engine.index:
                    grew = engine.index.update(row.doc_id, row.terms)
                else:
                    grew = engine.index.add(row.doc_id, row.terms)
                engine._docs[row.doc_id] = Document(
                    row.doc_id, key, row.path, row.mtime, row.size)
                engine._by_key[key] = row.doc_id
                engine._next_doc_id = max(engine._next_doc_id,
                                          row.doc_id + 1)
                if engine.cas is not None:
                    engine.cas.upsert(row.doc_id, row.path, row.terms)
                engine._note_mutation(row.doc_id, grew)
                self._texts[key] = row.text or ""
            elif row.kind == "remove":
                old_id = engine._by_key.pop(key, None)
                if old_id is not None:
                    engine._docs.pop(old_id, None)
                    engine.index.remove(old_id)
                    if engine.cas is not None:
                        engine.cas.remove(old_id)
                    engine._note_mutation(old_id, grew=False)
                self._texts.pop(key, None)
            else:  # a rename whose upsert predates this window
                doc_id = engine._by_key.get(key)
                if doc_id is not None:
                    engine._docs[doc_id] = \
                        engine._docs[doc_id]._replace(path=row.path)
                    if engine.cas is not None:
                        engine.cas.set_path(doc_id, row.path)
                    engine._purge_memo(doc_id)
                    engine._purge_scope_cache()
            applied += 1
        self.cursor = upto
        self.version = version
        self._stats.add("segment_rows_applied", applied)
        return applied

    # ------------------------------------------------------------------
    # the read surface (what the evaluator / shell / bench touch)
    # ------------------------------------------------------------------

    @property
    def fast_path(self) -> bool:
        return self.engine.fast_path

    @property
    def index(self):
        return self.engine.index

    def search(self, query, scope: Optional[Bitmap] = None) -> Bitmap:
        return self.engine.search(query, scope)

    def search_blocks(self, query, blocks: Bitmap,
                      scope: Optional[Bitmap] = None) -> Bitmap:
        return self.engine.search_blocks(query, blocks, scope)

    def estimate_docs(self, node) -> int:
        return self.engine.estimate_docs(node)

    def scope_docs(self, prefix: str) -> Bitmap:
        return self.engine.scope_docs(prefix)

    def scope_count(self, prefix: str) -> int:
        return self.engine.scope_count(prefix)

    def all_docs(self) -> Bitmap:
        return self.engine.all_docs()

    def doc_by_id(self, doc_id: int) -> Optional[Document]:
        return self.engine.doc_by_id(doc_id)

    def doc_by_key(self, key: Hashable) -> Optional[Document]:
        return self.engine.doc_by_key(key)

    def __len__(self) -> int:
        return len(self.engine)

    def __contains__(self, key: Hashable) -> bool:
        return key in self.engine

    def __repr__(self) -> str:
        return (f"ReadReplica({self.replica_id!r}, version={self.version}, "
                f"docs={len(self.engine)})")
