"""Persisting the content index and fast recovery."""

import pytest

from repro.cba.engine import CBAEngine
from repro.cba.queryparser import parse_query
from repro.cba.transducers import default_transducer
from repro.core.hacfs import HacFileSystem


def _folded(engine, loader, **options):
    """Seal *engine*'s claimed store and fold it into a fresh engine."""
    engine.segments.seal()
    return CBAEngine.from_segments(engine.segments, loader=loader,
                                   next_doc_id=engine._next_doc_id,
                                   **options)


class TestEngineDump:
    def test_roundtrip_searches_identically(self):
        store = {"a": "alpha beta", "b": "From: alice\n\nalpha", "c": "gamma"}
        dumped = CBAEngine(loader=lambda k: store.get(k[0], ""),
                           transducer=default_transducer)
        dumped.claim_segments()
        for i, key in enumerate(sorted(store)):
            dumped.index_document((key, i), path=f"/{key}", mtime=1.0,
                                  text=store[key])
        revived = _folded(dumped, dumped.loader,
                          transducer=default_transducer)
        for q in ("alpha", "from:alice", "alpha AND NOT gamma"):
            ast = parse_query(q)
            assert revived.search(ast) == dumped.search(ast), q
        assert len(revived) == len(dumped)
        assert revived.mtime_snapshot() == dumped.mtime_snapshot()

    def test_revived_engine_keeps_doc_ids(self):
        store = {("f", 1): "alpha", ("f", 2): "beta"}
        eng = CBAEngine(loader=store.__getitem__)
        eng.claim_segments()
        for key in sorted(store):
            eng.index_document(key, path=f"/{key[1]}", mtime=0.0)
        revived = _folded(eng, store.__getitem__)
        for key in store:
            assert revived.doc_id_of(key) == eng.doc_id_of(key)
        # new documents get fresh ids
        store[("f", 3)] = "gamma"
        new_id = revived.index_document(("f", 3), path="/3", mtime=0.0)
        assert new_id not in (eng.doc_id_of(k) for k in store if k != ("f", 3))


class TestHacRecovery:
    def test_save_and_restore_skips_retokenising(self, populated):
        populated.smkdir("/fp", "fingerprint")
        saved = [k for k in populated.fs.device.record_keys()
                 if k.startswith("seg:")]
        assert saved

        revived = HacFileSystem.restore(populated.fs)
        assert revived.counters.get("engine.restored_docs") == 5
        # the incremental sync after restore had nothing to do
        assert revived.counters.get("engine.indexed") == 0
        assert sorted(revived.links("/fp")) == sorted(populated.links("/fp"))

    def test_restore_without_saved_index_merges_segments(self, populated):
        # nothing is saved explicitly: the file system persisted its
        # engine's frozen segments at reindex time — restore folds them
        # back with zero tokenisation (reindex-as-merge), not a rebuild
        populated.smkdir("/fp", "fingerprint")
        revived = HacFileSystem.restore(populated.fs)
        assert revived.counters.get("restore.index_from_segments") == 1
        assert revived.counters.get("engine.restored_docs") == 5
        assert revived.counters.get("engine.indexed") == 0
        assert sorted(revived.links("/fp")) == sorted(populated.links("/fp"))

    def test_restore_without_segments_rebuilds(self, populated):
        populated.smkdir("/fp", "fingerprint")
        revived = HacFileSystem.restore(populated.fs, reuse_index=False)
        assert revived.counters.get("restore.index_rebuilds") == 1
        assert revived.counters.get("engine.restored_docs") == 0
        assert revived.counters.get("engine.indexed") == 5
        assert sorted(revived.links("/fp")) == sorted(populated.links("/fp"))

    def test_restore_catches_up_on_changes_since_save(self, populated):
        populated.smkdir("/fp", "fingerprint")
        populated.clock.tick()
        populated.write_file("/notes/late.txt", b"a late fingerprint note")
        populated.unlink("/mail/msg2.txt")
        revived = HacFileSystem.restore(populated.fs)
        assert revived.counters.get("engine.indexed") == 1   # only late.txt
        assert revived.counters.get("engine.removed") == 1   # only msg2
        assert "late.txt" in revived.listdir("/fp")

    def test_restore_rereads_a_same_tick_rewrite(self, populated):
        populated.write_file("/notes/late.txt", b"banana bread\n")
        populated.reindex("/")  # persists the row, mtime = this tick
        # the rewrite lands in the same tick, so the file keeps the mtime
        # its folded row carries; only the size moved
        populated.write_file("/notes/late.txt", b"a fingerprint loaf\n")
        revived = HacFileSystem.restore(populated.fs)
        assert revived.counters.get("restore.racy_docs") == 1
        hits = revived.engine.search(parse_query("loaf"))
        assert [revived.engine.doc_by_id(d).path for d in hits] == \
            ["/notes/late.txt"]

    def test_reuse_index_opt_out(self, populated):
        revived = HacFileSystem.restore(populated.fs, reuse_index=False)
        assert revived.counters.get("engine.restored_docs") == 0
        assert len(revived.engine) == 5

    def test_restored_world_is_fsck_clean(self, populated):
        populated.smkdir("/fp", "fingerprint")
        populated.unlink("/fp/msg1.txt")
        revived = HacFileSystem.restore(populated.fs)
        assert [f for f in revived.fsck() if f.severity == "error"] == []
