"""Property: batched maintenance is observationally identical to eager.

The maintenance scheduler's contract (DESIGN.md §3f) is that coalescing
changes *when* index work happens, never *what* the index ends up saying:
after any interleaving of writes, removals, moves, queries, and async
syncs, the batched world's final index state and every query answer along
the way must be bit-identical to the eager world fed the same events.
Doc ids are reserved at enqueue time precisely so block placement
(``doc_id % num_blocks``) cannot drift — this suite fuzzes that claim.

Both worlds run the same scripted op sequence; queries go through the
shell (``glimpse``), so the batched side exercises the real pre-query
barrier rather than a test-only drain.

``SCHED_SEED`` shifts the fuzz seeds and ``SCHED_K`` (>0) runs the same
property against a sharded search cluster (CI matrix).
"""

import os
import random

import pytest

from repro.cba.queryparser import parse_query
from repro.cluster import ClusterFactory
from repro.core.hacfs import HacFileSystem
from repro.shell.session import HacShell

BASE_SEED = int(os.environ.get("SCHED_SEED", "0"))
K = int(os.environ.get("SCHED_K", "0"))

NAMES = [f"m{i}.txt" for i in range(8)]
WORDS = ["fingerprint", "banana", "ridge", "recipe", "lunch", "budget",
         "minutiae", "bread"]
QUERIES = ["fingerprint", "banana AND recipe", "fingerprint OR lunch",
           "ridge AND NOT banana", '"fingerprint ridge"']


def build_world(mode: str) -> HacShell:
    # latency 0 keeps the virtual clock identical across modes in cluster
    # runs (fewer RPCs batched would otherwise skew later mtimes)
    factory = ClusterFactory(shards=K, latency=0.0) if K else None
    shell = HacShell(HacFileSystem(backend=factory))
    hac = shell.hacfs
    hac.makedirs("/mail")
    hac.write_file("/mail/seed.txt", b"fingerprint ridge baseline\n")
    hac.clock.tick()
    hac.ssync("/")
    hac.smkdir("/fp", "fingerprint")
    hac.watch("/mail")
    hac.maintenance.set_mode(mode)
    return shell


def op_script(seed: int, n_ops: int = 90):
    rng = random.Random(seed)
    ops = []
    for _ in range(n_ops):
        r = rng.random()
        if r < 0.45:
            text = " ".join(rng.choices(WORDS, k=rng.randint(2, 6))) + "\n"
            ops.append(("write", rng.choice(NAMES), text))
        elif r < 0.60:
            ops.append(("rm", rng.choice(NAMES)))
        elif r < 0.72:
            ops.append(("mv", rng.choice(NAMES), rng.choice(NAMES)))
        elif r < 0.88:
            ops.append(("query", rng.choice(QUERIES)))
        elif r < 0.94:
            ops.append(("ssync_async",))
        else:
            ops.append(("drain",))
    ops.append(("query", QUERIES[0]))
    return ops


def apply_op(shell: HacShell, op):
    """Run one scripted op; both worlds guard identically (same tree), so
    an op that is a no-op in one is a no-op in the other."""
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
    elif kind == "ssync_async":
        shell.ssync("/", asynchronous=True)
    elif kind == "drain":
        shell.sched_drain()
    return None


def engine_state(hac: HacFileSystem) -> dict:
    # doc keys are (fsid, ino) and neither half is cross-world comparable
    # (fsids embed a process-global counter; link materialisation timing
    # shifts ino allocation), so docs are identified by doc id — which the
    # reservation scheme pins — plus path and mtime
    eng = hac.engine
    docs = []
    for doc_id in eng.all_docs():
        doc = eng.doc_by_id(doc_id)
        docs.append((doc_id, doc.path, doc.mtime))
    return {
        "next_doc_id": eng._next_doc_id,
        "all_docs": eng.all_docs().to_bytes(),
        "mtimes": {eng.doc_id_of(k): m
                   for k, m in eng.mtime_snapshot().items()},
        "docs": sorted(docs),
    }


def raw_answer(hac: HacFileSystem, query: str) -> bytes:
    ast = parse_query(query, resolve_dir=hac.dirmap.uid_of)
    return hac.engine.search(ast).to_bytes()


@pytest.mark.parametrize("seed",
                         [BASE_SEED, BASE_SEED + 1, BASE_SEED + 2])
def test_batched_is_bit_identical_to_eager(seed):
    eager, batched = build_world("eager"), build_world("batched")
    for op in op_script(seed):
        a = apply_op(eager, op)
        b = apply_op(batched, op)
        if op[0] == "query":
            assert a == b, (seed, op)

    batched.hacfs.maintenance.barrier()
    assert engine_state(eager.hacfs) == engine_state(batched.hacfs), seed
    for query in QUERIES:
        assert raw_answer(eager.hacfs, query) == \
            raw_answer(batched.hacfs, query), (seed, query)
    # the semantic directory converged to the same membership too
    assert set(eager.hacfs.links("/fp")) == set(batched.hacfs.links("/fp"))

    # and batching actually batched: updates coalesced, fewer drains and
    # fewer tokenisation passes than one-per-event
    e, b = eager.hacfs.counters, batched.hacfs.counters
    assert b.get("sched.coalesced") > 0, seed
    assert b.get("sched.drains") < e.get("sched.drains"), seed
    assert b.get("engine.tokenisations") <= e.get("engine.tokenisations")


def test_mode_change_strands_nothing():
    """Leaving batched mode drains the queue — no update may be lost."""
    shell = build_world("batched")
    shell.write("/mail/m0.txt", "solitary fingerprint clue\n")
    assert shell.hacfs.maintenance.pending > 0
    shell.hacfs.maintenance.set_mode("eager")
    assert shell.hacfs.maintenance.pending == 0
    assert "m0.txt" in {p.rsplit("/", 1)[-1]
                        for p in shell.glimpse("clue")}
