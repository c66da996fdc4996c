"""The scatter-gather coordinator over K partitioned Glimpse shards.

The cluster keeps the paper's CBA contract — the coordinator implements the
same engine protocol :class:`~repro.cba.engine.CBAEngine` exposes to HAC
(maintenance, ``search`` over a scope bitmap, ``extract``, persistence) —
while the index itself is partitioned across shards by rendezvous hashing
(:mod:`repro.cluster.shardmap`) and queried over simulated RPC
(:mod:`repro.cluster.shard`).

Bit-identical answers are the design invariant, and three decisions carry
it:

* **Global doc ids.**  The coordinator owns the authoritative registry and
  assigns every document a global id; shards index under that id with the
  same ``num_blocks``, so block assignment (``doc_id % num_blocks``) — and
  with it every candidate-block computation — matches the monolith exactly.

* **Plan once, globally.**  The query is planned at the coordinator with
  document frequencies *summed* across shards (df and corpus size are
  additive over a partition), so the planner's stable sort produces the
  identical planned AST.  Candidate blocks are then evaluated once over
  the *union* of per-term block postings gathered in a probe phase — the
  union must happen per term, because block candidacy does not distribute
  over ``And``/``Phrase`` at whole-query granularity — and the resulting
  global block set is shipped to every shard.  A shard must never
  substitute its own narrower candidacy: a term it has never seen can
  still make one of its blocks a candidate through a collocated document
  on another shard, and Glimpse's block-granularity semantics (stopword
  regions included) depend on exactly that collocation.

* **Gather by masked union.**  Per-shard result bitmaps are already in the
  global id space, so the merge is a union masked by each shard's member
  bitmap — the doc-id translation table degenerates to the identity, which
  is the point of global ids.

Degradation is partial, never fatal: a shard whose transport fails (with
:class:`~repro.errors.ShardUnavailable`, or whose breaker is open —
:class:`~repro.errors.CircuitOpen`; both are
:class:`~repro.errors.BackendUnavailable`) is skipped in both phases, its
id lands in :attr:`ShardedSearchCluster.missing_shards`, and the query
returns exactly the union of the surviving shards' answers.  HAC reads and
resets the flag around each semantic-directory re-evaluation and surfaces
it the way PR 2 surfaces ``degraded_remote``.
"""

from __future__ import annotations

from typing import (Callable, Dict, Hashable, Iterable, List, NamedTuple,
                    Optional, Set, Tuple)

from repro.errors import BackendUnavailable, ShardUnavailable
from repro.obs.metrics import NULL_METRICS
from repro.obs.trace import NULL_TRACER
from repro.util import pathutil
from repro.util.bitmap import Bitmap
from repro.util.clock import VirtualClock
from repro.util.stats import Counters
from repro.cba import agrep, planner
from repro.cba.engine import CBAEngine, Document
from repro.cba.glimpse import DEFAULT_NUM_BLOCKS, eval_blocks, estimate_docs
from repro.cba.incremental import ReindexPlan, plan_reindex
from repro.cba.queryast import (
    And,
    FieldTerm,
    MatchAll,
    Node,
    Not,
    Or,
    Phrase,
    ScopeTerm,
    Term,
)
from repro.cba.segments import SegmentStore
from repro.cba.tokenizer import DEFAULT_STOPWORDS
from repro.cba.transducers import Transducer
from repro.remote.rpc import CircuitBreaker, RetryPolicy, RpcTransport
from repro.cluster.shard import SearchShard
from repro.cluster.shardmap import Move, ShardMap

#: default shard breaker: trips fast (queries hit every shard, so a dead
#: one fails often) and cools down on the shared virtual clock
BREAKER_THRESHOLD = 3
BREAKER_COOLDOWN = 30.0


def _probe_terms(node: Node, out: Set[str]) -> None:
    """Every string :func:`~repro.cba.glimpse.eval_blocks` may look up —
    exactly the postings the probe phase must fetch from each shard."""
    if isinstance(node, Term):
        out.add(node.word)
    elif isinstance(node, FieldTerm):
        out.add(f"{node.field}:{node.value}")
    elif isinstance(node, Phrase):
        out.update(node.words)
    elif isinstance(node, (And, Or)):
        for child in node.children:
            _probe_terms(child, out)
    elif isinstance(node, ScopeTerm):
        pass  # the path dimension has no term postings: blocks are
        # path-blind, so a scope nominates every occupied block and the
        # pruning happens per shard through each engine's CAS index
    elif isinstance(node, Not):
        _probe_terms(node.child, out)
    # Approx / MatchAll consult no term postings


class _ClusterSelectivity:
    """Planner-facing view: document frequencies summed across shards.

    df and corpus size are additive over a partition, so estimates — and
    the planner's stable sort — match the monolithic engine exactly.  (A
    real deployment would ship these statistics on shard heartbeats; here
    the coordinator reads them directly, off the query path.)
    """

    def __init__(self, cluster: "ShardedSearchCluster"):
        self._cluster = cluster

    def _df(self, term: str) -> int:
        return sum(shard.engine.index.lexicon.df(term)
                   for shard in self._cluster.shards.values())

    def _scope_count(self, prefix: str) -> int:
        # scope counts are additive over a partition, exactly like df
        return sum(shard.engine.scope_count(prefix)
                   for shard in self._cluster.shards.values())

    def estimate_docs(self, node: Node) -> int:
        return estimate_docs(node, self._df, len(self._cluster),
                             self._scope_count)


class _ViewSelectivity:
    """Planner statistics over a snapshot view's chosen replicas.

    Same additive-df argument as :class:`_ClusterSelectivity`, read from
    the replica indexes instead of the live shard engines, so planning on
    the snapshot path orders conjunctions exactly as the live path would
    have *at the publish point*.
    """

    def __init__(self, view: "ClusterSnapshotView"):
        self._view = view

    def _df(self, term: str) -> int:
        return sum(replica.index.lexicon.df(term)
                   for replica in self._view.replicas.values())

    def _scope_count(self, prefix: str) -> int:
        return sum(replica.scope_count(prefix)
                   for replica in self._view.replicas.values())

    def estimate_docs(self, node: Node) -> int:
        return estimate_docs(node, self._df, len(self._view),
                             self._scope_count)


class ClusterSnapshotView:
    """A consistent cut across per-shard read replicas.

    Construction is the routing step: for every shard the freshest
    attached replica is chosen (the shard engine's own freshness-aware
    rotation), and the cut's ``version`` is the *minimum* replica version
    — with lockstep publishes and no injected lag every replica agrees,
    and ``skew`` is 0.  Queries then re-run the coordinator's two-phase
    algebra entirely in-process over the chosen replicas: per-term block
    postings unioned across replicas, one global ``eval_blocks``, then
    per-replica block verification merged by masked union.  Same
    invariants (global ids, plan-once, union-per-term), same bits — as of
    the cut — with no RPC, no drain, and no shared engine state touched.
    """

    def __init__(self, cluster: "ShardedSearchCluster"):
        self._cluster = cluster
        self.replicas = {sid: shard.engine.snapshot_view()
                         for sid, shard in cluster.shards.items()}
        versions = [r.version for r in self.replicas.values()]
        self.version = min(versions) if versions else 0
        self.skew = (max(versions) - self.version) if versions else 0
        self.fast_path = cluster.fast_path
        self.counters = cluster.counters
        self.index = _ViewSelectivity(self)

    def all_docs(self) -> Bitmap:
        out = Bitmap()
        for replica in self.replicas.values():
            out |= replica.all_docs()
        return out

    def doc_by_id(self, doc_id: int) -> Optional[Document]:
        for replica in self.replicas.values():
            doc = replica.doc_by_id(doc_id)
            if doc is not None:
                return doc
        return None

    def doc_by_key(self, key: Hashable) -> Optional[Document]:
        for replica in self.replicas.values():
            doc = replica.doc_by_key(key)
            if doc is not None:
                return doc
        return None

    def estimate_docs(self, node: Node) -> int:
        return self.index.estimate_docs(node)

    def __len__(self) -> int:
        return sum(len(replica) for replica in self.replicas.values())

    def search(self, query: Node, scope: Optional[Bitmap] = None) -> Bitmap:
        """The zero-barrier scatter-gather, replayed over the cut."""
        cluster = self._cluster
        cluster._stats.add("snapshot_searches")
        if scope is not None and not scope:
            return Bitmap()
        with cluster._tracer.span("cluster.snapshot_search",
                                  version=self.version,
                                  skew=self.skew) as span:
            universe = self.all_docs() if scope is None else scope
            if self.fast_path:
                query = planner.plan(query, self.index, cluster._stats)
            if isinstance(query, MatchAll):
                span.set(mode="matchall", hits=len(universe))
                return universe.copy()
            if self.fast_path and planner.provably_empty(
                    query, self.index._df, cluster._indexable,
                    self.index._scope_count):
                cluster._stats.add("planner_empty_shortcircuit")
                span.set(mode="empty", hits=0)
                return Bitmap()

            terms: Set[str] = set()
            _probe_terms(query, terms)
            term_blocks: Dict[str, Bitmap] = {}
            occupied = Bitmap()
            for replica in self.replicas.values():
                occupied |= replica.index.occupied_blocks()
                for term in terms:
                    blocks = replica.index.blocks_with_term(term)
                    seen = term_blocks.get(term)
                    if seen is None:
                        term_blocks[term] = blocks
                    else:
                        seen |= blocks

            def lookup(term: str) -> Bitmap:
                found = term_blocks.get(term)
                return found.copy() if found is not None else Bitmap()

            blocks = eval_blocks(query, lookup, occupied)
            result = Bitmap()
            for replica in self.replicas.values():
                members = replica.all_docs()
                replica_scope = members if scope is None else scope & members
                if not replica_scope:
                    continue
                hits = replica.search_blocks(query, blocks, replica_scope)
                result |= hits & members
            span.set(blocks=len(blocks), hits=len(result))
            return result

    def __repr__(self) -> str:
        return (f"ClusterSnapshotView(version={self.version}, "
                f"skew={self.skew}, docs={len(self)})")


class RebalancePlan(NamedTuple):
    """The deterministic work a shard-set change implies."""

    #: documents changing owners, in global-doc-id order
    moves: List[Move]
    #: per affected shard, the §2.4 reindex plan executed on it
    shard_plans: Dict[str, ReindexPlan]

    @property
    def docs_moved(self) -> int:
        return len(self.moves)


class ShardedSearchCluster:
    """K :class:`CBAEngine` shards behind one engine-protocol facade.

    Drop-in for a single engine everywhere HAC talks to one: semantic
    directories, the consistency cascade, ``ssync``/reindex, persistence.
    """

    def __init__(self, loader: Callable[[Hashable], str],
                 shard_ids: Iterable[str] = ("shard0", "shard1", "shard2"),
                 *,
                 num_blocks: int = DEFAULT_NUM_BLOCKS,
                 min_term_length: int = 2,
                 stopwords: Optional[Set[str]] = None,
                 transducer: Optional[Transducer] = None,
                 counters: Optional[Counters] = None,
                 fast_path: bool = True,
                 clock: Optional[VirtualClock] = None,
                 latency: float = 0.05,
                 seed: int = 0,
                 retry_factory: Optional[Callable[[str], RetryPolicy]] = None,
                 breaker_factory: Optional[
                     Callable[[str], CircuitBreaker]] = None,
                 replicas_per_shard: int = 1,
                 cas: bool = True):
        self.loader = loader
        self.counters = counters if counters is not None else Counters()
        self._stats = self.counters.scoped("cluster")
        self.clock = clock if clock is not None else VirtualClock()
        self.num_blocks = num_blocks
        self.min_term_length = min_term_length
        self.stopwords = DEFAULT_STOPWORDS if stopwords is None else stopwords
        self.transducer = transducer
        self.fast_path = fast_path
        #: shard engines keep a CAS path dimension (subtree scope probes)
        self._cas_enabled = cas
        self.latency = latency
        self.seed = seed
        self._retry_factory = retry_factory
        self._breaker_factory = breaker_factory
        self._tracer = NULL_TRACER
        self._metrics = NULL_METRICS
        #: serving tier: cluster-wide published version (shard engines are
        #: published in lockstep, seeded at build so versions agree) and
        #: how many read replicas each shard attaches on first snapshot use
        self._published_version = 0
        self.replicas_per_shard = replicas_per_shard
        #: set by :meth:`claim_segments`: an owner persists every shard
        #: engine's segment store, shards added later included
        self._durable = False
        self.shardmap = ShardMap(shard_ids)
        self.shards: Dict[str, SearchShard] = {
            sid: self._build_shard(sid) for sid in self.shardmap.shard_ids}
        #: planner selectivity source (same attribute name as the engine's
        #: block index, so ``evaluator`` and ``planner`` code is agnostic)
        self.index = _ClusterSelectivity(self)
        self._docs: Dict[int, Document] = {}
        self._by_key: Dict[Hashable, int] = {}
        self._owners: Dict[int, str] = {}
        self._members: Dict[str, Bitmap] = {
            sid: Bitmap() for sid in self.shardmap.shard_ids}
        self._all = Bitmap()
        self._dirty = Bitmap()
        self._next_doc_id = 0
        #: shards skipped since the last :meth:`reset_missing_shards` —
        #: the degradation flag HAC turns into per-directory staleness
        self.missing_shards: Set[str] = set()

    def _shard_engine(self, store: Optional[SegmentStore] = None
                      ) -> CBAEngine:
        """A shard engine in this cluster's configuration: empty, or
        folded from a persisted segment *store*."""
        options = dict(loader=self.loader, num_blocks=self.num_blocks,
                       min_term_length=self.min_term_length,
                       stopwords=self.stopwords, transducer=self.transducer,
                       cache_size=0,  # answers depend on shipped blocks
                       counters=self.counters, fast_path=self.fast_path,
                       cas=self._cas_enabled)
        engine = (CBAEngine(**options) if store is None
                  else CBAEngine.from_segments(store, **options))
        engine.tracer = self._tracer
        engine.metrics = self._metrics
        # a shard added mid-life starts at the cluster's published version,
        # so lockstep publishes keep every shard's version equal
        engine._published_version = self._published_version
        if self._durable:
            engine.claim_segments()
        return engine

    def _build_shard(self, shard_id: str) -> SearchShard:
        engine = self._shard_engine()
        breaker = (self._breaker_factory(shard_id) if self._breaker_factory
                   else CircuitBreaker(failure_threshold=BREAKER_THRESHOLD,
                                       cooldown=BREAKER_COOLDOWN,
                                       counters=self.counters,
                                       name=f"shard.{shard_id}"))
        retry = self._retry_factory(shard_id) if self._retry_factory else None
        transport = RpcTransport(name=f"shard.{shard_id}", clock=self.clock,
                                 latency=self.latency, seed=self.seed,
                                 counters=self.counters, retry=retry,
                                 breaker=breaker, tracer=self._tracer,
                                 error_cls=ShardUnavailable)
        return SearchShard(shard_id, engine, transport)

    # ------------------------------------------------------------------
    # observability plumbing (HacFileSystem assigns these attributes)
    # ------------------------------------------------------------------

    @property
    def tracer(self):
        return self._tracer

    @tracer.setter
    def tracer(self, value) -> None:
        self._tracer = value
        for shard in self.shards.values():
            shard.engine.tracer = value
            shard.transport.tracer = value
            if shard.transport.breaker is not None:
                shard.transport.breaker.tracer = value

    @property
    def metrics(self):
        return self._metrics

    @metrics.setter
    def metrics(self, value) -> None:
        self._metrics = value
        for shard in self.shards.values():
            shard.engine.metrics = value

    def claim_segments(self) -> None:
        """Mark every shard engine's segment store durable: the owning
        file system persists one store per shard.  Idempotent."""
        self._durable = True
        for shard in self.shards.values():
            shard.engine.claim_segments()

    # ------------------------------------------------------------------
    # registry (authoritative; shard registries are routing copies)
    # ------------------------------------------------------------------

    def doc_by_id(self, doc_id: int) -> Optional[Document]:
        return self._docs.get(doc_id)

    def doc_by_key(self, key: Hashable) -> Optional[Document]:
        doc_id = self._by_key.get(key)
        return self._docs.get(doc_id) if doc_id is not None else None

    def doc_id_of(self, key: Hashable) -> Optional[int]:
        return self._by_key.get(key)

    def all_docs(self) -> Bitmap:
        return self._all.copy()

    def __len__(self) -> int:
        return len(self._docs)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._by_key

    def mtime_snapshot(self) -> Dict[Hashable, float]:
        return {doc.key: doc.mtime for doc in self._docs.values()}

    def shard_of(self, key: Hashable) -> str:
        """Current owner of *key* (placement for unindexed keys)."""
        doc_id = self._by_key.get(key)
        if doc_id is not None:
            return self._owners[doc_id]
        return self.shardmap.owner(key)

    def members(self, shard_id: str) -> Bitmap:
        """Global doc ids living on *shard_id*."""
        return self._members[shard_id].copy()

    # ------------------------------------------------------------------
    # maintenance — applied synchronously; only queries cross the network
    # (a dead shard is a partition in front of an index that stays
    # current, so revival needs no resync — see repro.cluster.shard)
    # ------------------------------------------------------------------

    def reserve_doc_id(self) -> int:
        """Claim the next global doc id without indexing anything yet.

        The maintenance scheduler reserves ids at enqueue time so a
        coalesced batch assigns the same ids — hence the same
        ``doc_id % num_blocks`` block placement — the eager sequence
        would have.  Reserved ids that never get used stay burned;
        ids are never reused either way.
        """
        doc_id = self._next_doc_id
        self._next_doc_id += 1
        return doc_id

    def index_document(self, key: Hashable, path: str, mtime: float,
                       text: Optional[str] = None,
                       doc_id: Optional[int] = None) -> int:
        if key in self._by_key:
            raise ValueError(f"document already indexed: {key!r}")
        if text is None:
            text = self.loader(key)
        if doc_id is None:
            doc_id = self.reserve_doc_id()
        elif doc_id in self._docs:
            raise ValueError(f"doc id already in use: {doc_id}")
        else:
            self._next_doc_id = max(self._next_doc_id, doc_id + 1)
        owner = self.shardmap.owner(key)
        self.shards[owner].engine.index_document(key, path, mtime, text=text,
                                                 doc_id=doc_id)
        self._docs[doc_id] = Document(doc_id, key, path, mtime, len(text))
        self._by_key[key] = doc_id
        self._owners[doc_id] = owner
        self._members[owner].add(doc_id)
        self._all.add(doc_id)
        self._dirty.add(doc_id)
        self._stats.add("indexed")
        return doc_id

    def remove_document(self, key: Hashable) -> int:
        doc_id = self._by_key.pop(key, None)
        if doc_id is None:
            raise KeyError(f"document not indexed: {key!r}")
        owner = self._owners.pop(doc_id)
        self.shards[owner].engine.remove_document(key)
        del self._docs[doc_id]
        self._members[owner].discard(doc_id)
        self._all.discard(doc_id)
        self._dirty.add(doc_id)
        self._stats.add("removed")
        return doc_id

    def update_document(self, key: Hashable, path: str, mtime: float,
                        text: Optional[str] = None) -> int:
        doc_id = self._by_key.get(key)
        if doc_id is None:
            raise KeyError(f"document not indexed: {key!r}")
        if text is None:
            text = self.loader(key)
        self.shards[self._owners[doc_id]].engine.update_document(
            key, path, mtime, text=text)
        self._docs[doc_id] = Document(doc_id, key, path, mtime, len(text))
        self._dirty.add(doc_id)
        self._stats.add("updated")
        return doc_id

    def rename_document(self, key: Hashable, new_path: str) -> None:
        doc_id = self._by_key.get(key)
        if doc_id is None:
            raise KeyError(f"document not indexed: {key!r}")
        self.shards[self._owners[doc_id]].engine.rename_document(key, new_path)
        self._docs[doc_id] = self._docs[doc_id]._replace(path=new_path)

    def rebase_paths(self, old_prefix: str, new_prefix: str) -> int:
        """Directory rename: the engine's one-pass path rebase, mirrored
        into the authoritative registry and fanned out to every shard
        (each shard rebases its own registry slice and CAS prefix keys).
        Maintenance-side like all mutations — no RPC.  Returns documents
        moved in the coordinator registry."""
        old_prefix = pathutil.normalize(old_prefix)
        new_prefix = pathutil.normalize(new_prefix)
        moved = 0
        for doc_id, doc in list(self._docs.items()):
            if pathutil.is_ancestor(old_prefix, doc.path, strict=False):
                self._docs[doc_id] = doc._replace(
                    path=pathutil.rebase(doc.path, old_prefix, new_prefix))
                moved += 1
        for shard in self.shards.values():
            shard.engine.rebase_paths(old_prefix, new_prefix)
        if moved:
            self._stats.add("paths_rebased", moved)
        return moved

    # ------------------------------------------------------------------
    # the path dimension (per-shard CAS indexes, merged by global ids)
    # ------------------------------------------------------------------

    @property
    def cas(self):
        """Truthy when the shard engines keep a CAS path dimension.  The
        coordinator holds no CAS index of its own: subtree probes scatter
        to the shards and merge by union — shard answers are already
        global doc ids, so the merge is exact."""
        return True if self._cas_enabled else None

    def _indexable(self, word: str) -> bool:
        return len(word) >= self.min_term_length and word not in self.stopwords

    def scope_docs(self, prefix: str) -> Bitmap:
        """Global ids registered under *prefix*: union of per-shard
        probes.  Read directly off the shard engines like the planner
        statistics — scope resolution is maintenance-side, not a query
        RPC, so it stays whole while shards are partitioned off."""
        out = Bitmap()
        for shard in self.shards.values():
            out |= shard.engine.scope_docs(prefix)
        return out

    def scope_count(self, prefix: str) -> int:
        """Documents under *prefix*, summed across shards (additive over
        a partition, exactly like document frequency)."""
        return self.index._scope_count(prefix)

    def reindex(self, current: Iterable[Tuple[Hashable, str, float]],
                previous: Optional[Dict[Hashable, float]] = None) -> ReindexPlan:
        """Same contract as :meth:`CBAEngine.reindex`, routed per owner."""
        listing = {key: (path, mtime) for key, path, mtime in current}
        baseline = self.mtime_snapshot() if previous is None else previous
        plan = plan_reindex(baseline,
                            {key: mtime for key, (_path, mtime) in listing.items()})
        for key in plan.removed:
            self.remove_document(key)
        for key in plan.added:
            path, mtime = listing[key]
            self.index_document(key, path, mtime)
        for key in plan.changed:
            path, mtime = listing[key]
            self.update_document(key, path, mtime)
        for key, (path, mtime) in listing.items():
            doc_id = self._by_key.get(key)
            if doc_id is not None and self._docs[doc_id].path != path:
                if self.transducer is not None:
                    self.update_document(key, path, mtime)
                else:
                    self.rename_document(key, path)
        self._stats.add("reindex_runs")
        return plan

    def dirty_docs(self) -> Bitmap:
        return self._dirty.copy()

    def clear_query_cache(self) -> None:
        for shard in self.shards.values():
            shard.engine.clear_query_cache()

    # ------------------------------------------------------------------
    # the scatter-gather query path
    # ------------------------------------------------------------------

    def search(self, query: Node, scope: Optional[Bitmap] = None) -> Bitmap:
        """Two-phase distributed evaluation; bit-identical to the monolith.

        Phase 1 (*probe*) gathers each reachable shard's per-term block
        postings and occupied blocks; the coordinator unions them per term
        and evaluates the candidate-block algebra once, globally.  Phase 2
        (*scatter*) ships the planned query plus the global block set to
        each shard for verification; the gather step unions the per-shard
        bitmaps masked by shard membership.

        A planned ``MatchAll`` short-circuits from the coordinator's own
        registry without touching the network — which also means it stays
        whole while shards are down, exactly like the monolith's
        registry-only answer.

        Shards unreachable in either phase are recorded in
        :attr:`missing_shards` and the result is the union of the
        survivors' answers — partial, never an exception.
        """
        self._stats.add("searches")
        if scope is not None and not scope:
            return Bitmap()
        with self._tracer.span("cluster.search") as span:
            universe = self._all if scope is None else scope
            if self.fast_path:
                with self._tracer.span("cluster.plan"):
                    query = planner.plan(query, self.index, self._stats)
            if isinstance(query, MatchAll):
                span.set(mode="matchall", hits=len(universe))
                return universe.copy()
            if self.fast_path and planner.provably_empty(
                    query, self.index._df, self._indexable,
                    self.index._scope_count):
                # summed df / scope counts prove emptiness exactly as the
                # monolith's lexicon would: skip both scatter phases
                self._stats.add("planner_empty_shortcircuit")
                span.set(mode="empty", hits=0)
                return Bitmap()

            terms: Set[str] = set()
            _probe_terms(query, terms)
            wanted = sorted(terms)
            term_blocks: Dict[str, Bitmap] = {}
            occupied = Bitmap()
            occupied_by: Dict[str, Bitmap] = {}
            reachable: List[str] = []
            missing: Set[str] = set()
            for sid, shard in self.shards.items():
                try:
                    with self._tracer.span("cluster.probe", shard=sid):
                        probe = shard.probe(wanted)
                except BackendUnavailable:
                    missing.add(sid)
                    continue
                reachable.append(sid)
                occupied |= probe.occupied
                occupied_by[sid] = probe.occupied
                for term, blocks in probe.term_blocks.items():
                    seen = term_blocks.get(term)
                    if seen is None:
                        term_blocks[term] = blocks
                    else:
                        seen |= blocks

            def lookup(term: str) -> Bitmap:
                found = term_blocks.get(term)
                return found.copy() if found is not None else Bitmap()

            blocks = eval_blocks(query, lookup, occupied)
            self._metrics.observe("cluster.candidate_blocks", len(blocks))
            self._metrics.observe("cluster.fanout", len(reachable))

            result = Bitmap()
            for sid in reachable:
                shard = self.shards[sid]
                shard_members = self._members[sid]
                shard_scope = None if scope is None else scope & shard_members
                if shard_scope is not None and not shard_scope:
                    continue  # nothing in scope lives here; skip the RPC
                shard_blocks = len(blocks & occupied_by[sid])
                self._stats.add(f"shard.{sid}.candidate_blocks", shard_blocks)
                self._metrics.observe(f"cluster.shard.{sid}.candidate_blocks",
                                      shard_blocks)
                try:
                    with self._tracer.span("cluster.scatter", shard=sid):
                        hits = shard.search(query, blocks, shard_scope)
                except BackendUnavailable:
                    missing.add(sid)
                    continue
                result |= hits & shard_members

            if missing:
                self.missing_shards |= missing
                self._stats.add("partial_results")
            span.set(blocks=len(blocks), hits=len(result),
                     shards=len(self.shards), missing=sorted(missing))
            return result

    def search_blocks(self, query: Node, blocks: Bitmap,
                      scope: Optional[Bitmap] = None) -> Bitmap:
        """Phase 2 only: verify *query* against caller-nominated candidate
        *blocks* (the :class:`~repro.cba.backend.SearchBackend` entry
        point; :meth:`search` probes for its own candidates first).
        Unreachable shards degrade to partial results, like any scatter."""
        self._stats.add("block_searches")
        if scope is not None and not scope:
            return Bitmap()
        with self._tracer.span("cluster.search_blocks") as span:
            result = Bitmap()
            missing: Set[str] = set()
            for sid, shard in self.shards.items():
                shard_members = self._members[sid]
                shard_scope = None if scope is None else scope & shard_members
                if shard_scope is not None and not shard_scope:
                    continue
                try:
                    with self._tracer.span("cluster.scatter", shard=sid):
                        hits = shard.search(query, blocks, shard_scope)
                except BackendUnavailable:
                    missing.add(sid)
                    continue
                result |= hits & shard_members
            if missing:
                self.missing_shards |= missing
                self._stats.add("partial_results")
            span.set(blocks=len(blocks), hits=len(result),
                     missing=sorted(missing))
            return result

    def reset_missing_shards(self) -> Set[str]:
        """Clear and return the accumulated degradation flag (callers
        bracket a unit of work — e.g. one semantic-dir re-evaluation —
        with reset-before / read-after)."""
        missing, self.missing_shards = self.missing_shards, set()
        return missing

    def estimate_docs(self, node: Node) -> int:
        """Planner selectivity over the summed per-shard statistics."""
        return self.index.estimate_docs(node)

    def extract(self, key: Hashable, query: Node) -> List[str]:
        return agrep.matching_lines(self.loader(key), query)

    # ------------------------------------------------------------------
    # serving tier: lockstep shard publishes and the consistent-cut view
    # ------------------------------------------------------------------

    def publish(self) -> int:
        """Publish every shard engine in lockstep; returns the new
        cluster-wide version.

        Maintenance is coordinator-side and synchronous, so at publish
        time every shard engine is at rest at the same logical point —
        one version bump per shard yields per-shard versions that always
        agree with the cluster's (replica versions can trail only through
        deliberate lag injection).
        """
        with self._tracer.span("cluster.publish") as span:
            self._published_version += 1
            for shard in self.shards.values():
                shard.engine.publish()
            span.set(version=self._published_version,
                     shards=len(self.shards))
        self._stats.add("publishes")
        return self._published_version

    def _ensure_replicas(self) -> None:
        for sid, shard in self.shards.items():
            engine = shard.engine
            while len(engine.replicas) < self.replicas_per_shard:
                engine.attach_replica(f"{sid}:r{len(engine.replicas)}")

    def snapshot_view(self) -> ClusterSnapshotView:
        """A consistent cut over the freshest replica of every shard."""
        self._ensure_replicas()
        self._stats.add("snapshot_reads")
        return ClusterSnapshotView(self)

    def snapshot_info(self) -> Dict[str, object]:
        """Cluster version, buffered row counts, and the flat replica list
        (replica ids are ``<shard>:<replica>``)."""
        replicas: List[Dict[str, object]] = []
        shard_versions: Dict[str, int] = {}
        pending = 0
        for sid, shard in self.shards.items():
            info = shard.engine.snapshot_info()
            shard_versions[sid] = info["version"]
            pending += info["pending_ops"]
            replicas.extend(info["replicas"])
        return {
            "version": self._published_version,
            "pending_ops": pending,
            "replicas": replicas,
            "shards": shard_versions,
        }

    def set_replica_lag(self, shard_id: str, publishes: int,
                        replica_id: Optional[str] = None) -> None:
        """Lag one shard's replicas (or one specific replica) by
        *publishes* publishes — the staleness-injection control."""
        engine = self.shards[shard_id].engine
        if replica_id is not None:
            engine.set_replica_lag(replica_id, publishes)
            return
        for replica in engine.replicas:
            replica.lag = publishes

    # ------------------------------------------------------------------
    # fault controls and health (tests, shell, benchmarks)
    # ------------------------------------------------------------------

    def kill_shard(self, shard_id: str) -> None:
        """Partition *shard_id* off: every RPC to it fails until revival.
        Its index silently stays current (maintenance is coordinator-side),
        so revival restores whole answers with no resync."""
        transport = self.shards[shard_id].transport
        transport.fail_on = None
        transport.failure_rate = 1.0
        self._stats.add("kills")

    def revive_shard(self, shard_id: str) -> None:
        transport = self.shards[shard_id].transport
        transport.fail_on = None
        transport.failure_rate = 0.0
        if transport.breaker is not None:
            transport.breaker.record_success()
        self._stats.add("revivals")

    def breakers(self) -> Dict[str, CircuitBreaker]:
        """Shard id → its transport's breaker (only monitored shards)."""
        return {sid: shard.transport.breaker
                for sid, shard in self.shards.items()
                if shard.transport.breaker is not None}

    def health(self) -> Dict[str, str]:
        """Shard id → ``down`` / breaker state / ``unmonitored``."""
        out: Dict[str, str] = {}
        for sid, shard in self.shards.items():
            transport = shard.transport
            if transport.failure_rate >= 1.0:
                out[sid] = "down"
            elif transport.breaker is not None:
                out[sid] = transport.breaker.state
            else:
                out[sid] = "unmonitored"
        return out

    # ------------------------------------------------------------------
    # rebalancing
    # ------------------------------------------------------------------

    def add_shard(self, shard_id: str) -> RebalancePlan:
        new_map = self.shardmap.with_shard(shard_id)
        self.shards[shard_id] = self._build_shard(shard_id)
        self._members[shard_id] = Bitmap()
        return self._rebalance(new_map)

    def remove_shard(self, shard_id: str) -> RebalancePlan:
        new_map = self.shardmap.without_shard(shard_id)
        plan = self._rebalance(new_map)  # drains the doomed shard
        del self.shards[shard_id]
        del self._members[shard_id]
        self.missing_shards.discard(shard_id)
        return plan

    def _rebalance(self, new_map: ShardMap) -> RebalancePlan:
        """Move exactly the documents whose rendezvous owner changed.

        The moved-doc list is deterministic (global-doc-id order) and the
        per-shard work is expressed as §2.4 reindex plans — each source
        shard sees its outgoing documents as removals, each destination
        its incoming ones as additions — so the fan-out reuses the same
        incremental machinery as any ``ssync``.  Moves re-read document
        text through the loader, like any reindex addition.
        """
        with self._tracer.span("cluster.rebalance") as span:
            keys = [self._docs[doc_id].key for doc_id in sorted(self._docs)]
            moves = self.shardmap.moves(new_map, keys)
            outgoing: Dict[str, Dict[Hashable, float]] = {}
            incoming: Dict[str, Dict[Hashable, float]] = {}
            for move in moves:
                mtime = self.doc_by_key(move.key).mtime
                outgoing.setdefault(move.source, {})[move.key] = mtime
                incoming.setdefault(move.dest, {})[move.key] = mtime
            shard_plans = {
                sid: plan_reindex(outgoing.get(sid, {}), incoming.get(sid, {}))
                for sid in sorted(set(outgoing) | set(incoming))}
            for move in moves:
                doc_id = self._by_key[move.key]
                doc = self._docs[doc_id]
                text = self.loader(move.key)
                self.shards[move.source].engine.remove_document(move.key)
                self.shards[move.dest].engine.index_document(
                    move.key, doc.path, doc.mtime, text=text, doc_id=doc_id)
                self._owners[doc_id] = move.dest
                self._members[move.source].discard(doc_id)
                self._members[move.dest].add(doc_id)
            self.shardmap = new_map
            self._stats.add("rebalances")
            self._stats.add("docs_moved", len(moves))
            span.set(moves=len(moves), shards=len(new_map))
            plan = RebalancePlan(moves=moves, shard_plans=shard_plans)
        # topology changes republish so attached replicas pick up the
        # cross-shard moves as one atomic version step
        self.publish()
        return plan

    # ------------------------------------------------------------------
    # reporting and restore
    # ------------------------------------------------------------------

    def index_size_bytes(self) -> int:
        """Shard index footprints plus the coordinator's routing registry
        (shard-side registry copies are counted by the shards)."""
        registry = sum(len(str(doc.path)) + 48 for doc in self._docs.values())
        return registry + sum(shard.engine.index_size_bytes()
                              for shard in self.shards.values())

    def corpus_bytes(self) -> int:
        return sum(doc.size for doc in self._docs.values())

    @classmethod
    def from_segments(cls, stores: Dict[str, SegmentStore],
                      loader: Callable[[Hashable], str],
                      next_doc_id: int = 0,
                      **options) -> "ShardedSearchCluster":
        """Rebuild a cluster from one persisted segment store per shard
        (shard id → store, in shard-map order): each shard engine is
        folded by :meth:`CBAEngine.from_segments` and the coordinator's
        registry is rebuilt from the shard registries — global doc ids
        survive, nothing is re-read or re-tokenised.  *options* are the
        constructor's."""
        cluster = cls(loader, list(stores), **options)
        owners: Dict[int, str] = {}
        for sid, shard in cluster.shards.items():
            shard.engine = cluster._shard_engine(stores[sid])
            owners.update(dict.fromkeys(shard.engine.all_docs(), sid))
        for doc_id in sorted(owners):
            sid = owners[doc_id]
            doc = cluster.shards[sid].engine.doc_by_id(doc_id)
            cluster._docs[doc_id] = doc
            cluster._by_key[doc.key] = doc_id
            cluster._owners[doc_id] = sid
            cluster._members[sid].add(doc_id)
            cluster._all.add(doc_id)
            next_doc_id = max(next_doc_id, doc_id + 1)
        cluster._next_doc_id = next_doc_id
        cluster._stats.add("restored_docs", len(cluster._docs))
        return cluster

    def __repr__(self) -> str:
        return (f"ShardedSearchCluster(shards={list(self.shardmap.shard_ids)}, "
                f"docs={len(self._docs)})")
