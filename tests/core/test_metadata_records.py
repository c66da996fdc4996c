"""Directory metadata costs O(one directory), not O(namespace).

Each directory persists two small records — ``semdir:<uid>`` (its query
and link sets) and ``dir:<uid>`` (its parent's UID and its own name) —
and the UID→path map and the dependency graph are derived from them on
reload.  These tests pin the cost model: a ``mkdir`` writes the same
records and the same bytes however large the namespace already is, a
directory rename rewrites only the moved directory's entry however large
its subtree, a refused op rolls back without reading the world, and a
reopen rebuilds exactly the live map and graph.

``CRASH_SWEEP_SEED`` (CI matrix) varies the layout of the existing tree.
"""

import os

import pytest

from repro.core.hacfs import HacFileSystem
from repro.core.quota import QuotaSpec
from repro.errors import QuotaExceeded

SEED = int(os.environ.get("CRASH_SWEEP_SEED", "0"))

#: the existing tree's fan-out per directory varies with the sweep seed
FANOUT = (10, 25, 50)[SEED % 3]


def grow(hac, root: str, count: int) -> None:
    """Add *count* directories under *root*, FANOUT children per parent
    (so the tree is several levels deep)."""
    hac.mkdir(root)
    parents = [root]
    made = 0
    while made < count:
        parent = parents.pop(0)
        for _ in range(FANOUT):
            if made == count:
                break
            child = f"{parent}/d{made}"
            hac.mkdir(child)
            parents.append(child)
            made += 1


class WriteSpy:
    """Records every record write on a device: (key, payload bytes)."""

    def __init__(self, device):
        self.writes = []
        write_record = device.write_record

        def spy(key, data):
            self.writes.append((key, len(data)))
            return write_record(key, data)

        device.write_record = spy

    def data_keys(self):
        return [k for k, _n in self.writes if not k.startswith("wal:")]


def mkdir_cost(existing: int):
    """(record ops, record writes, payload bytes, wal bytes) of one mkdir
    in a world already holding *existing* directories."""
    hac = HacFileSystem()
    grow(hac, "/tree", existing)
    assert len(hac.dirmap) == existing + 2  # the root and /tree too
    device = hac.fs.device
    spy = WriteSpy(device)
    ops0 = device.record_write_index
    wal0 = hac.counters.get("journal.wal_bytes")
    hac.mkdir("/tree/new")
    return (device.record_write_index - ops0, len(spy.writes),
            sum(n for _k, n in spy.writes),
            hac.counters.get("journal.wal_bytes") - wal0)


def test_mkdir_cost_is_flat_in_the_namespace_size():
    small_ops, small_writes, small_bytes, small_wal = mkdir_cost(100)
    big_ops, big_writes, big_bytes, big_wal = mkdir_cost(2000)
    assert big_ops == small_ops
    assert big_writes == small_writes
    # the only difference: the width of the new UID and the parent's
    assert abs(big_bytes - small_bytes) <= 16
    assert abs(big_wal - small_wal) <= 16
    # and it is small: two directory records plus their journal records
    assert big_bytes < 1024


def test_directory_rename_rewrites_one_entry():
    hac = HacFileSystem()
    grow(hac, "/top", 500)
    top = hac.dirmap.uid_of("/top")
    leaf = max(hac.dirmap.subtree_uids("/top"))
    leaf_path = hac.dirmap.path_of(leaf)
    spy = WriteSpy(hac.fs.device)
    hac.rename("/top", "/moved")
    assert spy.data_keys() == [f"dir:{top}"]
    assert hac.dirmap.path_of(leaf) == "/moved" + leaf_path[len("/top"):]
    # the subtree's paths follow from the one rewritten entry on reopen
    restored = HacFileSystem.restore(hac.fs)
    assert restored.dirmap.snapshot() == hac.dirmap.snapshot()


def test_no_whole_map_record_after_any_op():
    hac = HacFileSystem()
    hac.makedirs("/a/b/c")
    hac.write_file("/a/b/c/f.txt", b"alpha\n")
    hac.smkdir("/q", "alpha AND /a/b")
    hac.rename("/a/b", "/b")
    hac.set_query("/q", None)
    hac.rmdir("/a")
    keys = set(hac.fs.device.record_keys())
    assert not keys & {"globalmap", "depgraph"}
    uids = [u for u in hac.dirmap.uids() if u != 0]
    assert {f"dir:{u}" for u in uids} == {k for k in keys
                                          if k.startswith("dir:")}


def test_restore_rebuilds_map_and_graph():
    hac = HacFileSystem()
    hac.makedirs("/p/q/r")
    hac.makedirs("/s")
    hac.write_file("/p/q/r/f.txt", b"alpha beta\n")
    hac.smkdir("/s/view", "alpha AND /p/q/r")
    hac.smkdir("/chain", "beta AND /s/view")
    hac.rename("/p/q", "/s/q")
    hac.rename("/s", "/t")
    restored = HacFileSystem.restore(hac.fs)
    assert restored.dirmap.snapshot() == hac.dirmap.snapshot()
    for uid in hac.depgraph.nodes():
        assert restored.depgraph.providers_of(uid) == \
            hac.depgraph.providers_of(uid), uid
    assert restored.get_query("/t/view") == "alpha AND /t/q/r"
    assert [f for f in restored.fsck() if f.severity == "error"] == []


def test_uids_are_not_reused_after_a_reopen():
    hac = HacFileSystem()
    hac.mkdir("/docs")
    hac.mkdir("/q")
    hac.mkdir("/a")
    hac.set_query("/q", "alpha AND /a")
    hac.rmdir("/a")
    assert hac.get_query("/q") == "alpha AND <dir:3>"
    restored = HacFileSystem.restore(hac.fs)
    restored.mkdir("/b")
    # the dangling reference stays dangling: /b is a new directory
    assert restored.get_query("/q") == "alpha AND <dir:3>"
    b = restored.dirmap.uid_of("/b")
    assert b != 3
    q = restored.dirmap.uid_of("/q")
    assert b not in restored.depgraph.providers_of(q)
    assert q not in restored.depgraph.dependents_of(b)


def test_uid_mark_survives_removing_a_whole_subtree():
    hac = HacFileSystem()
    hac.makedirs("/x/y/z")
    top = hac.dirmap.uid_of("/x/y/z")
    hac.rmdir("/x/y/z")
    hac.rmdir("/x/y")
    restored = HacFileSystem.restore(hac.fs)
    assert restored.dirmap.next_uid == top + 1


def refused_mkdir(existing: int):
    """A tenant at its inode quota in a world of *existing* directories
    tries one mkdir: (metadata reads it cost, world before, world after)."""
    hac = HacFileSystem()
    grow(hac, "/world", existing)
    tenant = hac.tenants.create("t", quota=QuotaSpec(max_inodes=1))
    tenant.mkdir("/full")

    def world():
        return (hac.dirmap.snapshot(),
                {u: hac.depgraph.providers_of(u) for u in hac.depgraph.nodes()},
                [str(f) for f in hac.fsck()])

    before = world()
    reads0 = hac.counters.get("blockdev.meta_read_ops")
    with pytest.raises(QuotaExceeded):
        tenant.mkdir("/over")
    reads = hac.counters.get("blockdev.meta_read_ops") - reads0
    return reads, before, world()


def test_refused_op_rolls_back_without_reading_the_world():
    small_reads, before, after = refused_mkdir(300)
    assert after == before
    assert [f for f in after[2] if f.startswith("[error]")] == []
    big_reads, _before, _after = refused_mkdir(900)
    assert big_reads == small_reads
    assert small_reads <= 4
