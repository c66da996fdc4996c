"""``library``: Table 3/4 query serving plus a digital-library ingest.

Set-up populates a 3000-document corpus in 30 directories and runs the
first ``ssync`` (the full index build).  The timed part is ten rounds of:
300 ``glimpse`` queries (half strong, half snapshot) with 10 ``smkdir``
among them, then an ingest wave of 30 new documents and an ``ssync``.
The semantic directories sit at the root, whose scope is every document.

Queries are drawn Zipf-skewed from 1199 distinct ones — far more than
the engine's 64-entry result cache holds, while the head of the
distribution fits in it.

Answers are checked against a bare :class:`CBAEngine` built from the
benchmark's own copy of the documents: one ``glimpse`` answer in
``CHECK_EVERY`` must equal its ``naive_search``, and every ``smkdir`` link
set must equal the bare engine's answer to its query, both when it is
made and after the last ingest.
"""

from __future__ import annotations

import random
import time
from types import SimpleNamespace

from repro.cba.engine import CBAEngine
from repro.cba.queryparser import parse_query
from repro.cba.transducers import default_transducer
from repro.core.hacfs import HacFileSystem
from repro.shell.session import HacShell
from repro.workloads.corpus import CorpusConfig, CorpusGenerator
from repro.workloads.digilib import DigitalLibraryGenerator, ZipfSampler

DOCS = 3000
DIRS = 30
WORDS_PER_DOC = 100
VOCABULARY = 3000
TOPICS = {"fingerprint": 0.01, "minutiae": 0.05, "ridge": 0.2}
ROUNDS = 10
QUERIES_PER_ROUND = 300
SMKDIRS_PER_ROUND = 10
WAVE_DOCS = 30
DISTINCT_QUERIES = 1199
#: query shapes cycle with this period along the popularity ranks
SHAPES = 11
#: one glimpse in CHECK_EVERY is compared with a naive scan (about 0.2 s
#: each, so the sample stays small)
CHECK_EVERY = 150
ROOT = "/lib"
SEQUENCE_SEED = 11


class Library:
    name = "library"
    key_op = "glimpse"

    def __init__(self, seed: int):
        corpus = CorpusGenerator(CorpusConfig(
            n_files=DOCS, words_per_file=WORDS_PER_DOC,
            vocabulary=VOCABULARY, dirs=DIRS, topics=TOPICS, seed=seed))
        self.corpus = [(f"{ROOT}/{rel}", text)
                       for rel, text in corpus.documents()]
        stacks = DigitalLibraryGenerator(seed=seed)
        self.waves = [[(f"{ROOT}/stacks/vol{i:04d}.txt", stacks.render(i))
                       for i in range(w * WAVE_DOCS, (w + 1) * WAVE_DOCS)]
                      for w in range(ROUNDS)]
        # The generator's vocabulary is in Zipf rank order, so a rank has
        # the same frequency under every seed.  Queries are built from
        # ranks by a fixed rule, with the shapes repeating along the
        # popularity ranks (two in eleven of each, one phrase), and the op
        # sequence (query ranks, strong or snapshot, where the smkdirs
        # fall) is the same for every seed: the seed changes the words,
        # documents and ingested volumes, not the shape of the load, so
        # the costly first sightings of rare queries do not vary by seed.
        rng = random.Random(SEQUENCE_SEED)
        vocab = corpus._vocab
        terms = (list(TOPICS) + list(stacks.subjects)
                 + vocab[5:60] + vocab[60:600:3])
        rare = vocab[600:1500]
        pool = []
        for rank in range(DISTINCT_QUERIES):
            a = terms[rank * 7 % len(terms)]
            b = terms[(rank * 13 + 5) % len(terms)]
            shape = rank % SHAPES // 2
            if shape == 0:
                pool.append(a)
            elif shape == 1:
                pool.append(f"{a} AND {b}")
            elif shape == 2:
                pool.append(f"{a} OR {b}")
            elif shape == 3:
                pool.append(f"{a} AND NOT {b}")
            elif shape == 4:
                pool.append(f"scope:{ROOT}/dir{rank % DIRS:03d} AND {a}")
            else:
                # postings cannot answer a phrase, so candidate blocks are
                # scanned (Glimpse's second level)
                pool.append(f'"{rare[rank * 7 % len(rare)]} '
                            f'{rare[(rank * 13 + 5) % len(rare)]}"')
        zipf = ZipfSampler(DISTINCT_QUERIES, s=1.0)
        self.rounds = []
        made = 0
        for _ in range(ROUNDS):
            ops = [("glimpse" if rng.random() < 0.5 else "glimpse_snapshot",
                    pool[zipf.draw(rng)]) for _ in range(QUERIES_PER_ROUND)]
            for _ in range(SMKDIRS_PER_ROUND):
                # the shapes in turn, spread over the popularity ranks
                rank = made * 7 % (DISTINCT_QUERIES // SHAPES) * SHAPES \
                    + made % SHAPES
                ops.insert(rng.randrange(len(ops) + 1),
                           ("smkdir", (f"/sem{made:03d}", pool[rank])))
                made += 1
            self.rounds.append(ops)

    def inputs(self):
        return [self.corpus, self.waves, self.rounds]

    def setup(self, client):
        hac = HacFileSystem()
        made = set()
        for path, text in self.corpus:
            parent = path.rsplit("/", 1)[0]
            if parent not in made:
                client.call("setup", hac.makedirs, parent)
                made.add(parent)
            client.call("setup", hac.write_file, path, text.encode("utf-8"))
        client.call("setup", hac.makedirs, f"{ROOT}/stacks")
        client.call("index", hac.ssync, "/")
        out = {"index_s": client.samples["index"][0],
               "index_bytes": (hac.engine.index_size_bytes()
                               + hac.metadata_bytes())}
        shell = HacShell(hac)
        # the first snapshot read attaches and hydrates a replica: a
        # one-time cost, paid here rather than by the first timed query
        client.call("setup", shell.glimpse, next(iter(TOPICS)),
                    consistency="snapshot")
        return SimpleNamespace(hac=hac, tenants=(), shell=shell,
                               out=out, failures=[],
                               naive={})

    def reference(self, world) -> None:
        """A bare engine over the same corpus: Table 3's "direct Glimpse"
        and the answer oracle."""
        world.texts = dict(self.corpus)
        world.ref = CBAEngine(loader=world.texts.__getitem__,
                              transducer=default_transducer)
        t0 = time.perf_counter()
        for path, text in self.corpus:
            world.ref.index_document(path, path=path, mtime=0.0, text=text)
        world.out["ref_index_s"] = time.perf_counter() - t0
        world.out["ref_index_bytes"] = world.ref.index_size_bytes()

    def run(self, world, client) -> None:
        hac, shell = world.hac, world.shell
        with client.paused():
            self.reference(world)
        n = 0
        for ops, wave in zip(self.rounds, self.waves):
            for kind, arg in ops:
                n += 1
                if kind == "smkdir":
                    path, query = arg
                    client.call("smkdir", hac.smkdir, path, query)
                    with client.paused():
                        self._check_links(world, path, query)
                    continue
                consistency = "strong" if kind == "glimpse" else "snapshot"
                answer = client.call(kind, shell.glimpse, arg,
                                     consistency=consistency)
                if n % CHECK_EVERY == 0:
                    with client.paused():
                        self._check_answer(world, arg, answer)
            for path, text in wave:
                client.call("write", hac.write_file, path,
                            text.encode("utf-8"))
                with client.paused():
                    world.texts[path] = text
                    world.ref.index_document(path, path=path, mtime=0.0,
                                             text=text)
                    world.naive.clear()
            client.call("ssync", hac.ssync, "/")

    @staticmethod
    def _paths(world, hits):
        return sorted(world.ref.doc_by_id(d).path for d in hits)

    def _check_answer(self, world, query, answer) -> None:
        expected = world.naive.get(query)
        if expected is None:
            expected = world.naive[query] = self._paths(
                world, world.ref.naive_search(parse_query(query)))
        if answer != expected:
            world.failures.append(f"library: glimpse {query!r} differs from "
                                  f"naive_search")

    def _check_links(self, world, path, query) -> None:
        hac = world.hac
        state = hac.meta.get(hac.dirmap.uid_of(path))
        links = sorted(hac.path_for_target(t)
                       for t in state.links.transient.values())
        if links != self._paths(world, world.ref.search(parse_query(query))):
            world.failures.append(f"library: smkdir {path} ({query!r}) "
                                  f"links differ from the bare engine")

    def changed_docs(self, client) -> int:
        return len(client.samples["write"])

    def check(self, world) -> list:
        # the final ssync re-evaluated every semantic directory over the
        # ingested documents: their link sets must still match
        for ops in self.rounds:
            for kind, arg in ops:
                if kind == "smkdir":
                    self._check_links(world, *arg)
        return world.failures
