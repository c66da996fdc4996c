"""The SearchBackend protocol: one formal contract, three back-ends."""

import pytest

from repro.cba.backend import SearchBackend
from repro.cba.engine import CBAEngine
from repro.cluster import ShardedSearchCluster
from repro.remote.searchsvc import SimulatedSearchService

CORPUS = {
    "fp-survey": "a survey of fingerprint recognition techniques",
    "nn-paper": "neural networks and their discontents",
}


def _loader(_key):
    return ""


@pytest.fixture(params=["engine", "cluster", "service"])
def backend(request):
    if request.param == "engine":
        return CBAEngine(loader=_loader)
    if request.param == "cluster":
        return ShardedSearchCluster(_loader, ["s0", "s1"], latency=0.0)
    return SimulatedSearchService("svc", documents=CORPUS)


def test_every_backend_satisfies_the_protocol(backend):
    # runtime_checkable verifies method presence; the equivalence suites
    # verify behaviour — together they replace the old hasattr sniffing
    assert isinstance(backend, SearchBackend)


def test_protocol_is_not_vacuous():
    assert not isinstance(object(), SearchBackend)
    assert not isinstance({}, SearchBackend)


def test_degradation_surface_defaults(backend):
    """Non-sharded back-ends answer the degradation queries with explicit
    empty values, so callers need no hasattr fallback."""
    if isinstance(backend, ShardedSearchCluster):
        assert set(backend.health()) == {"s0", "s1"}
        assert backend.shard_of(("fs#1", 2)) in {"s0", "s1"}
    else:
        assert backend.health() == {}
        assert backend.shard_of("anything") is None
        assert backend.reset_missing_shards() == set()


def test_doc_id_reservation_is_monotonic(backend):
    a = backend.reserve_doc_id()
    b = backend.reserve_doc_id()
    assert b == a + 1


def test_reserved_id_is_honoured_and_never_reissued():
    engine = CBAEngine(loader=_loader)
    reserved = engine.reserve_doc_id()
    got = engine.index_document("k1", "/k1", 1.0, text="alpha",
                                doc_id=reserved)
    assert got == reserved
    assert engine.index_document("k2", "/k2", 1.0, text="beta") > reserved


def test_cluster_rejects_duplicate_pinned_id():
    cluster = ShardedSearchCluster(_loader, ["s0", "s1"], latency=0.0)
    doc_id = cluster.index_document("k1", "/k1", 1.0, text="alpha")
    with pytest.raises(ValueError):
        cluster.index_document("k2", "/k2", 1.0, text="beta", doc_id=doc_id)


def test_cluster_search_blocks_matches_monolith():
    """The phase-2-only entry point verifies caller-nominated blocks with
    answers bit-identical to the monolithic engine's."""
    from repro.cba.queryparser import parse_query

    corpus = {f"doc{i}": ("fingerprint ridge" if i % 3 == 0 else "banana")
              for i in range(12)}
    mono = CBAEngine(loader=corpus.get)
    cluster = ShardedSearchCluster(corpus.get, ["s0", "s1", "s2"],
                                   latency=0.0)
    for i, (key, text) in enumerate(sorted(corpus.items())):
        mono.index_document(key, f"/{key}", float(i), text=text)
        cluster.index_document(key, f"/{key}", float(i), text=text)
    query = parse_query("fingerprint")
    blocks = mono.index.occupied_blocks()
    assert cluster.search_blocks(query, blocks).to_bytes() == \
        mono.search_blocks(query, blocks).to_bytes()


def test_serving_surface_is_uniform(backend):
    """Every back-end publishes versions and serves snapshot views with
    the same shape — the serving tier never special-cases a back-end."""
    info = backend.snapshot_info()
    assert set(info) >= {"version", "pending_ops", "replicas"}
    assert backend.publish() == info["version"] + 1
    view = backend.snapshot_view()
    assert view.all_docs().to_bytes() == backend.all_docs().to_bytes()
    after = backend.snapshot_info()
    assert after["replicas"], "snapshot_view must attach a replica"
    assert all(r["version"] == after["version"] for r in after["replicas"])


def test_service_snapshot_tracks_publishes():
    service = SimulatedSearchService("svc", documents=CORPUS)
    view = service.snapshot_view()
    before = view.all_docs().to_bytes()
    service.add_document("late", "late breaking fingerprint news")
    assert service.snapshot_view().all_docs().to_bytes() == before
    service.publish()
    assert service.snapshot_view().all_docs().to_bytes() == \
        service.all_docs().to_bytes()


def test_service_roundtrips_through_to_obj():
    service = SimulatedSearchService("svc", documents=CORPUS,
                                     titles={"fp-survey": "The Survey"})
    service.add_document("late", "late breaking fingerprint news")
    restored = SimulatedSearchService.from_obj(service.to_obj(),
                                               namespace_id="svc")
    assert sorted(restored.search("fingerprint")) == \
        sorted(service.search("fingerprint"))
    assert restored.title_of("fp-survey") == "The Survey"
    assert restored.fetch("late") == "late breaking fingerprint news"
    assert restored.mtime_snapshot() == service.mtime_snapshot()
    assert restored._engine._next_doc_id == service._engine._next_doc_id


# ---------------------------------------------------------------------------
# open_backend: the unified construction surface
# ---------------------------------------------------------------------------


class TestOpenBackend:
    def test_none_and_monolith_specs_build_an_engine(self):
        from repro.cba.backend import MonolithFactory, open_backend

        for spec in (None, "monolith", {"kind": "monolith"}):
            factory = open_backend(spec)
            assert isinstance(factory, MonolithFactory)
            engine = factory(_loader)
            assert isinstance(engine, CBAEngine)

    def test_cluster_spec_parses_shard_count(self):
        from repro.cba.backend import open_backend
        from repro.cluster import ClusterFactory

        factory = open_backend("cluster:4")
        assert isinstance(factory, ClusterFactory)
        cluster = factory(_loader)
        assert len(cluster.shards) == 4

    def test_cluster_dict_spec_passes_options(self):
        from repro.cba.backend import open_backend

        factory = open_backend({"kind": "cluster", "shards": 2,
                                "latency": 0.0})
        assert len(factory(_loader).shards) == 2

    def test_remote_spec_builds_a_service(self):
        from repro.cba.backend import open_backend

        service = open_backend("remote:digilib")
        assert isinstance(service, SimulatedSearchService)
        assert service.namespace_id == "digilib"

    def test_remote_spec_requires_a_namespace(self):
        from repro.cba.backend import open_backend

        with pytest.raises(ValueError):
            open_backend("remote")

    def test_unknown_kind_is_rejected(self):
        from repro.cba.backend import open_backend

        with pytest.raises(ValueError):
            open_backend("warehouse")

    def test_backend_objects_pass_through(self):
        from repro.cba.backend import open_backend

        service = SimulatedSearchService("svc", documents=CORPUS)
        assert open_backend(service) is service

    def test_engine_factory_kwarg_is_a_type_error(self):
        """The one-release shim is gone: ``backend=`` is the only seam,
        and the store toggle went with it (every engine owns a store)."""
        from repro.core.hacfs import HacFileSystem
        from repro.cluster import ClusterFactory

        with pytest.raises(TypeError, match="engine_factory"):
            HacFileSystem(engine_factory=ClusterFactory(
                shards=2, latency=0.0))
        with pytest.raises(TypeError, match="segmented"):
            HacFileSystem(segmented=False)
        hac = HacFileSystem()
        with pytest.raises(TypeError, match="engine_factory"):
            HacFileSystem.restore(hac.fs, engine_factory=ClusterFactory())

    def test_default_backend_is_the_factory_built_monolith(self):
        from repro.cba.engine import CBAEngine
        from repro.core.hacfs import HacFileSystem

        hac = HacFileSystem()
        assert type(hac.engine) is CBAEngine
        # the file system persists its engine's stores, so it claims them
        assert hac.engine.segments.durable
        clustered = HacFileSystem(backend="cluster:2")
        assert all(shard.engine.segments.durable
                   for shard in clustered.engine.shards.values())

    def test_backend_kwarg_is_the_replacement(self):
        import warnings

        from repro.core.hacfs import HacFileSystem

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            hac = HacFileSystem(backend="cluster:2")
        assert len(hac.engine.shards) == 2

    def test_restore_accepts_a_backend_spec(self):
        from repro.core.hacfs import HacFileSystem

        hac = HacFileSystem(backend="cluster:2")
        hac.makedirs("/notes")
        hac.write_file("/notes/a.txt", b"fingerprint ridges")
        hac.ssync("/")
        again = HacFileSystem.restore(hac.fs, backend="cluster:2")
        assert len(again.engine.shards) == 2
        assert len(again.engine) == 1  # the persisted segments came back
        assert again.counters.get("engine.indexed") == 0
