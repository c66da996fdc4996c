"""Unit tests for the global UID ↔ path map (the §2.5 rename fix)."""

import pytest

from repro.util.idmap import GlobalDirectoryMap, compose_paths


@pytest.fixture
def gm():
    m = GlobalDirectoryMap()
    m.register("/a")
    m.register("/a/b")
    m.register("/a/b/c")
    m.register("/x")
    return m


class TestRegistration:
    def test_root_preregistered(self):
        m = GlobalDirectoryMap()
        assert m.uid_of("/") == 0
        assert m.path_of(0) == "/"

    def test_register_allocates_fresh_uids(self, gm):
        uids = [gm.uid_of(p) for p in ("/a", "/a/b", "/a/b/c", "/x")]
        assert len(set(uids)) == 4
        assert all(u > 0 for u in uids)

    def test_duplicate_registration_rejected(self, gm):
        with pytest.raises(ValueError):
            gm.register("/a")

    def test_unregister(self, gm):
        uid = gm.unregister("/x")
        assert gm.uid_of("/x") is None
        assert gm.path_of(uid) is None

    def test_uids_never_reused(self, gm):
        gone = gm.unregister("/x")
        fresh = gm.register("/y")
        assert fresh != gone

    def test_contains_and_len(self, gm):
        assert "/a/b" in gm
        assert "/nope" not in gm
        assert len(gm) == 5  # root + 4


class TestRename:
    def test_rename_updates_whole_subtree(self, gm):
        uid_b = gm.uid_of("/a/b")
        uid_c = gm.uid_of("/a/b/c")
        moved = gm.rename_subtree("/a/b", "/moved")
        assert {(u, old) for u, old, _new in moved} == {
            (uid_b, "/a/b"), (uid_c, "/a/b/c")}
        assert gm.path_of(uid_b) == "/moved"
        assert gm.path_of(uid_c) == "/moved/c"
        assert gm.uid_of("/a/b") is None

    def test_uids_stable_across_rename(self, gm):
        uid = gm.uid_of("/a/b/c")
        gm.rename_subtree("/a", "/z")
        assert gm.uid_of("/z/b/c") == uid

    def test_rename_root_rejected(self, gm):
        with pytest.raises(ValueError):
            gm.rename_subtree("/", "/y")

    def test_rename_collision_rejected(self, gm):
        with pytest.raises(ValueError):
            gm.rename_subtree("/a/b", "/x")

    def test_prefix_sibling_untouched(self, gm):
        gm.register("/ab")
        gm.rename_subtree("/a", "/q")
        assert gm.uid_of("/ab") is not None


class TestSubtreeAndSnapshot:
    def test_subtree_uids(self, gm):
        subtree = set(gm.subtree_uids("/a"))
        assert subtree == {gm.uid_of("/a"), gm.uid_of("/a/b"), gm.uid_of("/a/b/c")}
        strict = set(gm.subtree_uids("/a", strict=True))
        assert gm.uid_of("/a") not in strict

    def test_snapshot_restore_roundtrip(self, gm):
        snap = gm.snapshot()
        restored = GlobalDirectoryMap.restore(snap)
        assert restored.uid_of("/a/b/c") == gm.uid_of("/a/b/c")
        # the allocator must not clash with restored uids
        fresh = restored.register("/new")
        assert fresh not in snap

    def test_restore_reinstates_root(self):
        restored = GlobalDirectoryMap.restore({5: "/only"})
        assert restored.uid_of("/") == 0


class TestComposePaths:
    def test_paths_compose_up_the_parent_chain(self):
        entries = {3: (1, "c"), 1: (0, "a"), 2: (1, "b")}
        assert compose_paths(entries) == {0: "/", 1: "/a", 2: "/a/b",
                                          3: "/a/c"}

    def test_entries_that_miss_the_root_are_left_out(self):
        entries = {1: (0, "a"), 2: (9, "orphan"), 4: (5, "x"), 5: (4, "y")}
        assert compose_paths(entries) == {0: "/", 1: "/a"}
