"""Property: the segment store is the one index change log, and both of
its readers reproduce the live engine exactly.

Every engine owns a segment store (DESIGN.md §3i).  Replicas catch up by
folding the segments sealed at each publish, and the file system's
restore folds the persisted frozen list back into an engine.  This file
checks each reader directly against the live engine it copies, under a
fuzzed interleaving of writes, removals, moves, strong and snapshot
queries, async syncs, drains, publishes, and reindexes:

* at every publish, each replica's serialized index and registry equal
  its primary's (per shard on a cluster);
* a world restored from its persisted segments equals the live world —
  serialized index, registry, links, and canonical state digest (per
  shard on a cluster, which restores from one segment list per shard).

Term ids in the lexicon are allocation-order artefacts: a fold applies
each document's final row in doc-id order, while the live engine
interned terms in mutation order.  :func:`canonical_engine_obj` therefore
compares ``to_obj()`` with term ids spelled as their terms; every other
byte — postings, block counts, per-document term sets, block membership,
document rows — is compared as serialized.  A replica's next doc id may
trail its primary's, which also counts ids reserved for documents still
pending in the scheduler; a replica never allocates ids.

A separate crash test arms a device crash inside the batched drain and
proves the restored world converges to a fault-free twin's state digest.

``SEG_SEED`` shifts the fuzz seeds and ``SEG_K`` (>0) runs the same
property against a sharded search cluster (CI matrix).
"""

import os
import random
from array import array
from types import SimpleNamespace

import pytest

from repro.cba.queryparser import parse_query
from repro.chaos.invariants import state_digest
from repro.core.hacfs import HacFileSystem
from repro.errors import DeviceCrashed
from repro.shell.session import HacShell
from repro.util.clock import VirtualClock
from repro.util.stats import Counters
from repro.vfs.blockdev import FaultPlan
from repro.vfs.filesystem import FileSystem

BASE_SEED = int(os.environ.get("SEG_SEED", "0"))
K = int(os.environ.get("SEG_K", "0"))

NAMES = [f"m{i}.txt" for i in range(8)]
WORDS = ["fingerprint", "banana", "ridge", "recipe", "lunch", "budget",
         "minutiae", "bread"]
QUERIES = ["fingerprint", "banana AND recipe", "fingerprint OR lunch",
           "ridge AND NOT banana", '"fingerprint ridge"']


def build_world() -> HacShell:
    # a pinned fsid: doc keys embed it, so a restored world's keys and
    # serialized rows line up with the live world's byte for byte
    clock = VirtualClock()
    counters = Counters()
    fs = FileSystem(name="hac", clock=clock, counters=counters,
                    fsid="hac#segeq")
    backend = {"kind": "cluster", "shards": K, "latency": 0.0} if K else None
    shell = HacShell(HacFileSystem(fs=fs, clock=clock, counters=counters,
                                   backend=backend))
    hac = shell.hacfs
    hac.makedirs("/mail")
    hac.write_file("/mail/seed.txt", b"fingerprint ridge baseline\n")
    hac.clock.tick()
    hac.ssync("/")
    hac.smkdir("/fp", "fingerprint")
    hac.watch("/mail")
    hac.maintenance.set_mode("batched")
    return shell


def op_script(seed: int, n_ops: int = 90):
    rng = random.Random(seed)
    ops = []
    for _ in range(n_ops):
        r = rng.random()
        if r < 0.40:
            text = " ".join(rng.choices(WORDS, k=rng.randint(2, 6))) + "\n"
            ops.append(("write", rng.choice(NAMES), text))
        elif r < 0.52:
            ops.append(("rm", rng.choice(NAMES)))
        elif r < 0.62:
            ops.append(("mv", rng.choice(NAMES), rng.choice(NAMES)))
        elif r < 0.74:
            ops.append(("query", rng.choice(QUERIES)))
        elif r < 0.80:
            ops.append(("snap_query", rng.choice(QUERIES)))
        elif r < 0.86:
            ops.append(("ssync_async",))
        elif r < 0.92:
            ops.append(("drain",))
        elif r < 0.96:
            ops.append(("publish",))
        else:
            ops.append(("reindex",))
    ops.append(("query", QUERIES[0]))
    return ops


def apply_op(shell: HacShell, op):
    """Run one scripted op; guards depend only on the tree, so twins
    built from the same script stay op-for-op identical."""
    hac = shell.hacfs
    kind = op[0]
    if kind == "write":
        shell.write(f"/mail/{op[1]}", op[2])
        hac.clock.tick()
    elif kind == "rm":
        if hac.isfile(f"/mail/{op[1]}"):
            shell.rm(f"/mail/{op[1]}")
    elif kind == "mv":
        src, dst = f"/mail/{op[1]}", f"/mail/{op[2]}"
        if hac.isfile(src) and not hac.exists(dst):
            shell.mv(src, dst)
    elif kind == "query":
        return shell.glimpse(op[1])
    elif kind == "snap_query":
        # the zero-barrier path: answered by a replica fed segments
        return shell.glimpse(op[1], consistency="snapshot")
    elif kind == "ssync_async":
        shell.ssync("/", asynchronous=True)
    elif kind == "drain":
        shell.sched_drain()
    elif kind == "publish":
        hac.maintenance.publish()
    elif kind == "reindex":
        hac.reindex()
    return None


def canonical_engine_obj(obj) -> dict:
    """``CBAEngine.to_obj()`` with lexicon ids replaced by their terms
    and the document rows in doc-id order; everything else verbatim."""
    index = obj["index"]
    term_of = {tid: term for term, (tid, _df) in index["lexicon"].items()}

    def unpack(raw):
        arr = array("I")
        arr.frombytes(raw)
        return arr

    def block_counts(raw):
        flat = unpack(raw)
        return sorted((term_of[flat[i]], flat[i + 1])
                      for i in range(0, len(flat), 2))

    return {
        "num_blocks": index["num_blocks"],
        "df": {term: df for term, (_tid, df) in index["lexicon"].items()},
        "postings": {term_of[int(tid)]: raw
                     for tid, raw in index["postings"].items()},
        "block_counts": {b: block_counts(raw)
                         for b, raw in index["block_counts"].items()},
        "doc_terms": {doc: sorted(term_of[t] for t in unpack(raw))
                      for doc, raw in index["doc_terms"].items()},
        "block_docs": index["block_docs"],
        "docs": sorted(obj["docs"]),
        "next": obj["next"],
    }


def registry(engine) -> dict:
    return {"docs": dict(engine._docs), "by_key": dict(engine._by_key)}


def primaries(hac: HacFileSystem) -> list:
    """The engines that own replicas: the monolith, or every shard."""
    if K:
        return [shard.engine for shard in hac.engine.shards.values()]
    return [hac.engine]


def raw_answer(hac: HacFileSystem, query: str) -> bytes:
    ast = parse_query(query, resolve_dir=hac.dirmap.uid_of)
    return hac.engine.search(ast).to_bytes()


def as_world(shell: HacShell) -> SimpleNamespace:
    return SimpleNamespace(hac=shell.hacfs, shell=shell)


@pytest.mark.parametrize("seed",
                         [BASE_SEED, BASE_SEED + 1, BASE_SEED + 2])
def test_replicas_match_primary_at_every_publish(seed):
    shell = build_world()
    hac = shell.hacfs
    hac.engine.snapshot_view()  # attach replicas before the first write
    checked = []

    def check_after(engine):
        publish = engine.publish

        def checked_publish():
            version = publish()
            primary = canonical_engine_obj(engine.to_obj())
            for replica in engine.replicas:
                assert replica.version == version, (seed, version)
                mirror = canonical_engine_obj(replica.engine.to_obj())
                # the primary's next id also counts ids the scheduler
                # reserved for still-pending documents; a replica never
                # allocates ids, so it only trails behind them
                assert mirror["next"] <= primary["next"], seed
                mirror["next"] = primary["next"]
                assert mirror == primary, (seed, replica.replica_id, version)
                assert registry(replica.engine) == registry(engine), \
                    (seed, replica.replica_id, version)
            assert engine.segments.sealed_log == [], (seed, version)
            checked.append(version)
            return version
        engine.publish = checked_publish

    for engine in primaries(hac):
        check_after(engine)
    for op in op_script(seed):
        apply_op(shell, op)
    hac.maintenance.barrier()
    hac.maintenance.publish()

    # the change log actually engaged: rows were noted and sealed, and
    # every publish was checked against the primary
    assert checked, seed
    assert hac.counters.get("segments.noted") > 0, seed
    assert hac.counters.get("segments.seals") > 0, seed
    for query in QUERIES:
        assert shell.glimpse(query, consistency="snapshot") == \
            shell.glimpse(query, consistency="strong"), (seed, query)


@pytest.mark.parametrize("seed",
                         [BASE_SEED, BASE_SEED + 1, BASE_SEED + 2])
def test_restore_from_segments_matches_live(seed):
    shell = build_world()
    hac = shell.hacfs
    for op in op_script(seed):
        apply_op(shell, op)
    # settle: reindex seals and compacts inside its intent, so the
    # persisted segment list covers every live document
    hac.maintenance.barrier()
    hac.reindex()
    revived = HacFileSystem.restore(hac.fs, clock=hac.clock)
    assert revived.counters.get("restore.index_from_segments") == 1, seed
    assert revived.counters.get("engine.indexed") == 0, seed
    assert revived.counters.get("engine.tokenisations") == 0, seed
    assert len(primaries(revived)) == len(primaries(hac)), seed
    for folded, live in zip(primaries(revived), primaries(hac)):
        mirror = canonical_engine_obj(folded.to_obj())
        primary = canonical_engine_obj(live.to_obj())
        if K:
            # a shard never allocates ids (the coordinator pins them),
            # so its fold only knows the ids still live on it; the
            # cluster-wide next id is compared exactly below
            assert mirror["next"] <= primary["next"], seed
            mirror["next"] = primary["next"]
        assert mirror == primary, seed
        assert registry(folded) == registry(live), seed
    assert registry(revived.engine) == registry(hac.engine), seed
    assert revived.engine._next_doc_id == hac.engine._next_doc_id, seed
    for query in QUERIES:
        assert raw_answer(revived, query) == raw_answer(hac, query), \
            (seed, query)
    assert set(revived.links("/fp")) == set(hac.links("/fp")), seed
    assert state_digest(as_world(HacShell(revived)), queries=QUERIES) == \
        state_digest(as_world(shell), queries=QUERIES), seed


@pytest.mark.parametrize("seed",
                         [BASE_SEED, BASE_SEED + 1, BASE_SEED + 2])
def test_crash_recovery_converges_identically(seed):
    """Crash a world mid-drain, restore it, and require the canonical
    state digest of a fault-free twin that ran the same ops.  The intact
    intent journal makes the crash atomic; restore's catch-up sync then
    converges the segment fold (or the rebuild, when the crash beat the
    first persist) to the twin."""
    crashed, twin = build_world(), build_world()
    script = op_script(seed)
    for shell in (crashed, twin):
        for op in script[:40]:
            apply_op(shell, op)
        hac = shell.hacfs
        hac.clock.tick()
        hac.write_file("/mail/crashy.txt", b"fingerprint at the scene\n")
        hac.write_file("/mail/seed.txt", b"ridge rewritten baseline\n")
    hac = crashed.hacfs
    dev = hac.fs.device
    dev.set_fault_plan(FaultPlan(crash_at=dev.record_write_index + seed % 3))
    with pytest.raises(DeviceCrashed):
        hac.maintenance.drain()
        hac.ssync("/")
    revived = HacFileSystem.restore(hac.fs)
    assert [f for f in revived.fsck() if f.severity == "error"] == [], seed
    twin.hacfs.maintenance.drain()
    twin.hacfs.ssync("/")
    assert state_digest(as_world(HacShell(revived)), queries=QUERIES) == \
        state_digest(as_world(twin), queries=QUERIES), seed
