"""LSM-style storage for the Glimpse index: memtable + immutable segments.

Every :class:`~repro.cba.engine.CBAEngine` owns a :class:`SegmentStore`,
and it is the engine's one index change log.  The live engine keeps
serving queries from its in-memory aggregates — nothing on the read path
changes.  What this module structures is the *storage and publication*
plane: each mutation the engine performs is noted as a
:class:`SegmentRow` in a small mutable **memtable**; sealing freezes the
memtable into an immutable, doc-id-sorted :class:`Segment`; and
**compaction** folds the frozen segment list into one merged segment,
newest row per document key winning.  Rows carry the term set the engine
computed, so every downstream consumer — replica catch-up, compaction,
recovery — is pure index manipulation: the tokenizer never runs off the
write path.

Two consumers read the rows, and the engine notes rows only while one of
them exists:

* **Publication** — while read replicas are attached, ``publish()``
  seals the memtable and hands replicas the segments appended to the
  sealed log since their cursor.  The log is truncated at the replicas'
  min cursor, so a store nobody persists holds at most what its
  slowest replica has yet to apply.
* **Persistence and recovery** — the owning
  :class:`~repro.core.hacfs.HacFileSystem` claims its engine's stores
  (:attr:`SegmentStore.durable`): the monolith's one store, or one per
  cluster shard.  Only a durable store keeps a frozen list.  The owner
  writes each frozen segment as a device record (:func:`record_key`:
  ``seg:<id>`` for a monolith, ``seg:<shard>/<id>`` for a shard) plus a
  ``segmanifest`` listing the live segment ids (per shard, for a
  cluster), *only inside journal intents* (the scheduler's
  ``sched_batch`` drains and ``reindex``), so the WAL's pre-images roll
  a mid-seal or mid-compaction crash back to a consistent segment list.
  Serialized segments drop the document text to keep WAL amplification
  flat.  Restore folds the persisted segments back into engine state
  with **zero tokenisation** (reindex-as-merge); rows still in the
  memtable at the crash are healed by the recovery ``ssync``'s mtime
  diff, exactly like any other un-reindexed write.

Compaction policy: seal when the memtable holds ``seal_threshold`` rows
(or at every publish with replicas attached — the snapshot cut must be
exact), compact when the frozen list exceeds ``compact_threshold``
segments.  Both thresholds are knobs; the crash sweep pins
``seal_threshold=1`` to force a seal-and-persist inside every drain.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, NamedTuple, Optional, Set, Tuple

from repro.util import pathutil
from repro.util.stats import Counters

#: memtable rows before a drain-time seal (publish-time seals ignore it)
DEFAULT_SEAL_THRESHOLD = 32
#: frozen segments before drain-time compaction folds them into one
DEFAULT_COMPACT_THRESHOLD = 8


class SegmentRow(NamedTuple):
    """One document's latest state within a segment.

    ``kind`` is ``'upsert'`` (document present, with its term set),
    ``'remove'`` (a tombstone: the key is gone, shadowing any older
    segment's upsert), or ``'rename'`` (path-only refresh of a document
    whose upsert lives in an older segment).  ``text`` rides along in
    memory for replica catch-up but is never serialized.
    """

    kind: str
    doc_id: int
    key: Hashable
    path: str
    mtime: float
    size: int
    terms: Optional[frozenset] = None
    text: Optional[str] = None

    def to_obj(self):
        return [self.kind, self.doc_id, list(self.key), self.path,
                self.mtime, self.size,
                None if self.terms is None else sorted(self.terms)]

    @classmethod
    def from_obj(cls, obj) -> "SegmentRow":
        kind, doc_id, raw_key, path, mtime, size, terms = obj
        return cls(kind, doc_id, (raw_key[0], raw_key[1]), path, mtime,
                   size, None if terms is None else frozenset(terms), None)


class Segment:
    """An immutable, doc-id-sorted run of rows produced by one seal."""

    __slots__ = ("seg_id", "rows")

    def __init__(self, seg_id: str, rows: Tuple[SegmentRow, ...]):
        self.seg_id = seg_id
        self.rows = rows

    def __len__(self) -> int:
        return len(self.rows)

    def __repr__(self):
        return f"Segment({self.seg_id!r}, rows={len(self.rows)})"

    def cas_runs(self) -> Dict[str, Tuple[SegmentRow, ...]]:
        """The segment's CAS runs: upsert rows grouped by parent-directory
        prefix, path-ordered within each run — the path-dimension view of
        this immutable run of rows.  The CAS index itself is derived state
        (rebuilt from registry + term store on restore), so runs are
        materialised from the rows already persisted, never written twice;
        audits fold them to cross-check prefix keys against the registry.
        """
        grouped: Dict[str, List[SegmentRow]] = {}
        for row in self.rows:
            if row.kind != "upsert":
                continue
            grouped.setdefault(pathutil.dirname(row.path), []).append(row)
        return {prefix: tuple(sorted(rows, key=lambda r: (r.path, r.doc_id)))
                for prefix, rows in grouped.items()}

    def to_obj(self):
        return {"id": self.seg_id, "rows": [r.to_obj() for r in self.rows]}

    @classmethod
    def from_obj(cls, obj) -> "Segment":
        return cls(obj["id"],
                   tuple(SegmentRow.from_obj(r) for r in obj["rows"]))


def _coalesce(prior: Optional[SegmentRow], row: SegmentRow) -> SegmentRow:
    """Newest-wins merge of two rows for the same document key.

    Upserts and removes replace outright; a rename folds its path into a
    prior upsert (the document's contents are unchanged) and stands alone
    otherwise, waiting for an older segment's upsert to absorb it.
    """
    if row.kind != "rename" or prior is None:
        return row
    if prior.kind == "upsert":
        return prior._replace(path=row.path, mtime=row.mtime)
    return prior  # rename after remove: the tombstone wins


def record_key(shard: Optional[str], seg_id: str) -> str:
    """The device record holding segment *seg_id* of *shard* (``None``
    for a monolith's one store)."""
    return f"seg:{seg_id}" if shard is None else f"seg:{shard}/{seg_id}"


def build_manifest(stores: Dict[Optional[str], "SegmentStore"]
                   ) -> Dict[str, object]:
    """The ``segmanifest`` payload for shard id → store (``None`` for a
    monolith's one store); :func:`manifest_entries` reads it back."""
    if list(stores) == [None]:
        return dict(stores[None].to_manifest())
    return {"shards": {sid: store.to_manifest()
                       for sid, store in stores.items()}}


def manifest_entries(manifest: Dict[str, object]
                     ) -> Dict[Optional[str], Dict[str, object]]:
    """Shard id → that store's manifest entry (``segments`` in fold
    order, ``next_seg``) from a ``segmanifest`` payload.  A monolith's
    manifest is its one store's entry, under ``None``; a cluster's names
    its shards, in shard-map order, under ``shards``."""
    shards = manifest.get("shards")
    return {None: manifest} if shards is None else dict(shards)


class SegmentStore:
    """The memtable + sealed log (+ frozen list, when durable) behind
    every engine.

    Pure data structure: it never touches the device.  The owning
    :class:`~repro.core.hacfs.HacFileSystem` persists frozen segments
    inside journal intents and records what it wrote in
    :attr:`persisted`, so a later persist pass knows which segments need
    writing and which device records became garbage after a compaction.
    """

    def __init__(self, counters: Optional[Counters] = None,
                 seal_threshold: int = DEFAULT_SEAL_THRESHOLD,
                 compact_threshold: int = DEFAULT_COMPACT_THRESHOLD):
        #: key → coalesced newest row (insertion-ordered)
        self.memtable: Dict[Hashable, SegmentRow] = {}
        #: set by the owner that persists this store; only a durable
        #: store keeps a frozen list (nobody else ever folds it)
        self.durable = False
        #: the live segment list, oldest first (compaction rewrites it)
        self.frozen: List[Segment] = []
        #: append-only seal order for replica catch-up; truncated at the
        #: replicas' min cursor, never rewritten by compaction
        self.sealed_log: List[Segment] = []
        #: segment ids this store wrote (or was loaded from) — a record
        #: of the same id it did not write belongs to an earlier engine
        self.persisted: Set[str] = set()
        self.seal_threshold = seal_threshold
        self.compact_threshold = compact_threshold
        self._next_seg = 0
        counters = counters if counters is not None else Counters()
        self._stats = counters.scoped("segments")

    # ------------------------------------------------------------------
    # memtable
    # ------------------------------------------------------------------

    def note(self, kind: str, doc_id: int, key: Hashable, path: str,
             mtime: float, terms: Optional[Set[str]] = None,
             text: Optional[str] = None) -> None:
        """Append one engine mutation to the memtable (coalescing).

        ``kind`` uses the engine's emission vocabulary: ``index`` and
        ``update`` both become upserts, ``remove`` a tombstone,
        ``rename`` a path refresh.
        """
        if kind in ("index", "update"):
            row = SegmentRow("upsert", doc_id, key, path, mtime,
                             len(text or ""),
                             None if terms is None else frozenset(terms),
                             text)
        elif kind == "remove":
            row = SegmentRow("remove", doc_id, key, path, mtime, 0)
        elif kind == "rename":
            row = SegmentRow("rename", doc_id, key, path, mtime, 0)
        else:
            raise ValueError(f"unknown segment row kind: {kind!r}")
        self.memtable[key] = _coalesce(self.memtable.get(key), row)
        self._stats.add("noted")

    # ------------------------------------------------------------------
    # sealing and compaction
    # ------------------------------------------------------------------

    @property
    def should_seal(self) -> bool:
        return len(self.memtable) >= self.seal_threshold

    @property
    def should_compact(self) -> bool:
        return len(self.frozen) > self.compact_threshold

    def seal(self) -> Optional[Segment]:
        """Freeze the memtable into a new immutable segment.

        The segment joins the sealed log and, in a durable store, the
        live list; returns ``None`` when the memtable is empty (sealing
        is idempotent at publish boundaries).
        """
        if not self.memtable:
            return None
        rows = tuple(sorted(self.memtable.values(),
                            key=lambda r: (r.doc_id, r.kind)))
        self.memtable.clear()
        seg = Segment(f"s{self._next_seg:06d}", rows)
        self._next_seg += 1
        if self.durable:
            self.frozen.append(seg)
        self.sealed_log.append(seg)
        self._stats.add("seals")
        self._stats.add("sealed_rows", len(rows))
        return seg

    def compact(self) -> Optional[Tuple[Segment, List[str]]]:
        """Fold the whole frozen list into one merged segment.

        Newest row per key wins; tombstones drop out entirely (after a
        full merge, an absent key *is* the tombstone) and renames fold
        into the upserts they refreshed.  Returns the merged segment and
        the replaced segment ids (whose device records are now garbage),
        or ``None`` when there is nothing to merge down.
        """
        if len(self.frozen) <= 1:
            return None
        merged: Dict[Hashable, SegmentRow] = {}
        for seg in self.frozen:
            for row in seg.rows:
                merged[row.key] = _coalesce(merged.get(row.key), row)
        rows = tuple(sorted(
            (r for r in merged.values() if r.kind != "remove"),
            key=lambda r: (r.doc_id, r.kind)))
        dropped = [seg.seg_id for seg in self.frozen]
        seg = Segment(f"s{self._next_seg:06d}", rows)
        self._next_seg += 1
        self.frozen = [seg]
        self._stats.add("compactions")
        self._stats.add("compacted_rows", len(rows))
        return seg, dropped

    # ------------------------------------------------------------------
    # replica handoff
    # ------------------------------------------------------------------

    def truncate_log(self, upto: int) -> None:
        """Drop the fully-applied prefix of the sealed log."""
        if upto:
            del self.sealed_log[:upto]

    # ------------------------------------------------------------------
    # recovery
    # ------------------------------------------------------------------

    def live_rows(self) -> Dict[Hashable, SegmentRow]:
        """Fold the frozen list (oldest → newest) into final per-key rows.

        Tombstoned keys and renames that never found their upsert are
        dropped — what remains is exactly the document set a restore
        should rebuild, with zero tokenisation.
        """
        folded: Dict[Hashable, SegmentRow] = {}
        for seg in self.frozen:
            for row in seg.rows:
                folded[row.key] = _coalesce(folded.get(row.key), row)
        return {key: row for key, row in folded.items()
                if row.kind == "upsert"}

    def to_manifest(self) -> Dict[str, object]:
        """The ``segmanifest`` payload: live segment ids in fold order."""
        return {"segments": [seg.seg_id for seg in self.frozen],
                "next_seg": self._next_seg}

    def load_frozen(self, manifest: Dict[str, object],
                    segments: List[Segment]) -> None:
        """Adopt persisted segments as the frozen list (restore path)."""
        self.frozen = list(segments)
        self.persisted = {seg.seg_id for seg in segments}
        self._next_seg = int(manifest.get("next_seg", len(segments)))
        self._stats.add("segments_loaded", len(segments))

    def seed_base(self, rows: Dict[Hashable, SegmentRow]) -> None:
        """Install a synthetic base segment covering *rows*.

        Used when an owner claims a store over pre-existing engine state
        (e.g. an adopted engine that was populated before the adoption):
        later compactions and segment restores need every live document
        to have an upsert row somewhere in the frozen list.
        """
        if not rows:
            return
        base = Segment(f"s{self._next_seg:06d}",
                       tuple(sorted(rows.values(),
                                    key=lambda r: (r.doc_id, r.kind))))
        self._next_seg += 1
        self.frozen.insert(0, base)
        self._stats.add("base_seeded", len(base))

    def __repr__(self):
        return (f"SegmentStore(memtable={len(self.memtable)}, "
                f"frozen={len(self.frozen)}, "
                f"log={len(self.sealed_log)})")
