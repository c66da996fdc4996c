"""Sharded content-based access: K Glimpse shards, one engine facade.

The paper argues HAC's CBA seam is general enough to host *any* search
system (§2.2); this package cashes that in for scale-out.  A
:class:`ShardedSearchCluster` partitions documents across independent
:class:`~repro.cba.engine.CBAEngine` shards by rendezvous hashing
(:class:`ShardMap`), queries them scatter-gather over the simulated RPC
substrate, and merges per-shard bitmaps into answers bit-identical to a
monolithic engine — degrading to partial results (``missing_shards``)
when shards are unreachable instead of failing.

:class:`ClusterFactory` adapts the cluster to the ``backend=`` seam on
:class:`~repro.core.hacfs.HacFileSystem`, so semantic directories, the
consistency cascade, and ``ssync`` run unchanged against shards.
"""

from typing import Callable, Iterable, Optional

from repro.cba.glimpse import DEFAULT_NUM_BLOCKS
from repro.cluster.coordinator import (ClusterSnapshotView, RebalancePlan,
                                       ShardedSearchCluster)
from repro.cluster.shard import SearchShard, ShardProbe
from repro.cluster.shardmap import Move, ShardMap

__all__ = [
    "ClusterFactory",
    "ClusterSnapshotView",
    "Move",
    "RebalancePlan",
    "SearchShard",
    "ShardMap",
    "ShardProbe",
    "ShardedSearchCluster",
]


class ClusterFactory:
    """Engine factory building :class:`ShardedSearchCluster` instances.

    Matches the calling convention of ``HacFileSystem(backend=...)`` and
    ``HacFileSystem.restore(backend=...)``: construction
    parameters that belong to the file system (loader, counters, clock,
    transducer, block count, fast path) arrive per call; cluster topology
    and fault-injection knobs are fixed at factory creation.
    """

    def __init__(self, shards: int = 3,
                 shard_ids: Optional[Iterable[str]] = None,
                 latency: float = 0.05,
                 seed: int = 0,
                 retry_factory: Optional[Callable] = None,
                 breaker_factory: Optional[Callable] = None,
                 replicas_per_shard: int = 1,
                 cas: bool = True):
        if shard_ids is None:
            shard_ids = [f"shard{i}" for i in range(shards)]
        self.shard_ids = list(shard_ids)
        self.latency = latency
        self.seed = seed
        self.retry_factory = retry_factory
        self.breaker_factory = breaker_factory
        self.replicas_per_shard = replicas_per_shard
        self.cas = cas

    def __call__(self, loader, *, counters=None, clock=None, transducer=None,
                 num_blocks: int = DEFAULT_NUM_BLOCKS,
                 fast_path: bool = True) -> ShardedSearchCluster:
        return ShardedSearchCluster(
            loader, self.shard_ids, num_blocks=num_blocks,
            transducer=transducer, counters=counters, fast_path=fast_path,
            clock=clock, **self._knobs())

    def from_segments(self, stores, *, loader, next_doc_id: int = 0,
                      counters=None, clock=None, transducer=None,
                      num_blocks: int = DEFAULT_NUM_BLOCKS,
                      fast_path: bool = True):
        """Fold a persisted segment list back into an engine with zero
        tokenisation.  The persisted topology wins over ``shards=``: shard
        id → store restores those shards (with this factory's transport,
        replica and CAS knobs); a single store restores the monolith it
        came from."""
        build = dict(loader=loader, next_doc_id=next_doc_id,
                     counters=counters, clock=clock, transducer=transducer,
                     num_blocks=num_blocks, fast_path=fast_path)
        if not isinstance(stores, dict):
            from repro.cba.backend import MonolithFactory

            return MonolithFactory().from_segments(stores, **build)
        return ShardedSearchCluster.from_segments(stores, **build,
                                                  **self._knobs())

    def _knobs(self):
        return dict(latency=self.latency, seed=self.seed,
                    retry_factory=self.retry_factory,
                    breaker_factory=self.breaker_factory,
                    replicas_per_shard=self.replicas_per_shard, cas=self.cas)
