"""Unit tests for per-shard read replicas and the consistent-cut view."""

import pytest

from repro.cba.queryparser import parse_query
from repro.cluster import ClusterSnapshotView, ShardedSearchCluster

QUERIES = ["fingerprint", "banana", "fingerprint AND ridge",
           "banana OR ridge", "fingerprint AND NOT banana"]


def _loader(_key):
    return ""


def build_cluster(**kwargs):
    cluster = ShardedSearchCluster(_loader, ["s0", "s1", "s2"],
                                  latency=0.0, **kwargs)
    for i in range(12):
        text = ("fingerprint ridge minutiae" if i % 3 == 0
                else "banana bread recipe")
        cluster.index_document(f"k{i}", path=f"/docs/k{i}.txt",
                               mtime=1.0, text=text)
    return cluster


def answers(backend):
    return {q: backend.search(parse_query(q)).to_bytes() for q in QUERIES}


class TestLockstepPublish:
    def test_shards_publish_in_lockstep(self):
        cluster = build_cluster()
        cluster.snapshot_view()
        cluster.publish()
        cluster.publish()
        info = cluster.snapshot_info()
        assert info["version"] == 2
        assert set(info["shards"].values()) == {2}
        assert all(r["version"] == 2 for r in info["replicas"])

    def test_added_shard_joins_at_the_cluster_version(self):
        cluster = build_cluster()
        cluster.publish()
        cluster.publish()
        cluster.add_shard("s3")
        # the rebalance republishes, so every shard (old and new) agrees
        info = cluster.snapshot_info()
        assert set(info["shards"].values()) == {info["version"]}

    def test_replicas_per_shard_is_honoured(self):
        cluster = build_cluster(replicas_per_shard=2)
        cluster.snapshot_view()
        info = cluster.snapshot_info()
        assert len(info["replicas"]) == 6
        assert {r["id"] for r in info["replicas"]} == {
            f"s{i}:r{j}" for i in range(3) for j in range(2)}


class TestConsistentCut:
    def test_view_matches_live_cluster_at_rest(self):
        cluster = build_cluster()
        view = cluster.snapshot_view()
        assert isinstance(view, ClusterSnapshotView)
        assert view.skew == 0
        assert answers(view) == answers(cluster)
        assert view.all_docs().to_bytes() == cluster.all_docs().to_bytes()
        assert len(view) == len(cluster)

    def test_view_is_isolated_until_publish(self):
        cluster = build_cluster()
        cluster.snapshot_view()
        before = answers(cluster)
        cluster.index_document("fresh", path="/docs/fresh.txt", mtime=2.0,
                               text="fingerprint scoop")
        assert answers(cluster.snapshot_view()) == before
        cluster.publish()
        assert answers(cluster.snapshot_view()) == answers(cluster)

    def test_scoped_view_search_matches_cluster(self):
        cluster = build_cluster()
        view = cluster.snapshot_view()
        scope = cluster.all_docs()
        for doc_id in list(scope)[::2]:
            scope.discard(doc_id)
        for query in QUERIES:
            ast = parse_query(query)
            assert view.search(ast, scope).to_bytes() == \
                cluster.search(ast, scope).to_bytes(), query

    def test_doc_lookups_cross_shards(self):
        cluster = build_cluster()
        view = cluster.snapshot_view()
        doc_id = cluster.doc_id_of("k7")
        assert view.doc_by_id(doc_id).key == "k7"
        assert view.doc_by_key("k7").doc_id == doc_id
        assert view.doc_by_key("nope") is None


class TestStalenessInjection:
    def test_lagged_shard_stretches_the_cut(self):
        cluster = build_cluster()
        cluster.snapshot_view()
        old = answers(cluster)
        cluster.set_replica_lag("s0", 1)
        cluster.index_document("fresh", path="/docs/fresh.txt", mtime=2.0,
                               text="fingerprint scoop")
        cluster.publish()
        view = cluster.snapshot_view()
        # the cut's version is the slowest replica's; skew is visible
        assert view.skew == 1
        assert view.version == cluster.snapshot_info()["version"] - 1
        if cluster.shard_of("fresh") == "s0":
            assert answers(view) == old
        cluster.publish()
        caught_up = cluster.snapshot_view()
        assert caught_up.skew == 0
        assert answers(caught_up) == answers(cluster)

    def test_lag_targets_one_replica(self):
        cluster = build_cluster(replicas_per_shard=2)
        cluster.snapshot_view()
        cluster.set_replica_lag("s1", 3, replica_id="s1:r1")
        info = cluster.snapshot_info()
        lags = {r["id"]: r["lag"] for r in info["replicas"]}
        assert lags["s1:r1"] == 3
        assert lags["s1:r0"] == 0

    def test_lag_unknown_shard_or_replica(self):
        cluster = build_cluster()
        cluster.snapshot_view()
        with pytest.raises(KeyError):
            cluster.set_replica_lag("s9", 1)
        with pytest.raises(KeyError):
            cluster.set_replica_lag("s0", 1, replica_id="s0:r9")


class TestBoundedShardStores:
    """Nobody persists or compacts a shard's segment store, so it must
    stay bounded on its own: a shard keeps no frozen list and the sealed
    log drains at every publish its replicas keep up with."""

    ROUNDS = 200

    def test_shard_stores_stay_bounded_over_publishes(self):
        from repro.cba.segments import DEFAULT_COMPACT_THRESHOLD
        from repro.core.hacfs import HacFileSystem

        hac = HacFileSystem(backend={"kind": "cluster", "shards": 3,
                                     "latency": 0.0})
        hac.makedirs("/d")
        hac.watch("/d")
        hac.engine.snapshot_view()  # one replica per shard
        for i in range(self.ROUNDS):
            hac.write_file(f"/d/f{i % 40}.txt",
                           f"fingerprint round {i}".encode("utf-8"))
            hac.clock.tick()
            hac.maintenance.publish()
            for sid, shard in hac.engine.shards.items():
                store = shard.engine.segments
                assert len(store.frozen) <= DEFAULT_COMPACT_THRESHOLD + 1, \
                    (i, sid, len(store.frozen))
                assert store.memtable == {} and store.sealed_log == [], \
                    (i, sid)
        assert hac.counters.get("segments.noted") >= self.ROUNDS
        view = hac.engine.snapshot_view()
        assert view.search(parse_query("round")).to_bytes() == \
            hac.engine.search(parse_query("round")).to_bytes()
