"""``churn``: code-repository churn inside a quota'd Tenant.

Set-up: a tenant with a quota, 400 :class:`CodeRepoGenerator` files, 64
semantic "view" directories at the tenant root, a watch on the tenant's
``/``, and batched maintenance.  The timed part is 50 commits; each
makes 4 edits and one create, rename or delete, concentrated on a hot
set of about 40 files, runs one strong ``glimpse`` (read-your-writes, so the
pre-query barrier drains the commit), then ``ssync``, then 4 more strong
``glimpse`` queries.
"""

from __future__ import annotations

import random
from types import SimpleNamespace

from repro.core.hacfs import HacFileSystem
from repro.core.quota import QuotaSpec
from repro.workloads.coderepo import _WORDS, CodeRepoGenerator

FILES = 400
VIEWS = 64
COMMITS = 50
CHANGES_PER_COMMIT = 5
GLIMPSES_PER_COMMIT = 5
HOT = 40
QUOTA = dict(max_inodes=4000, max_bytes=8_000_000, max_docs=4000)


SEQUENCE_SEED = 23
#: nearly every file holds any one word, so views exclude two words to
#: match a few percent of the files
VIEW_SHAPES = ("{a} AND NOT {b} AND NOT {c}",
               "{a} AND {b} AND NOT {c} AND NOT {d}",
               "({a} OR {b}) AND NOT {c} AND NOT {d}")
QUERY_SHAPES = ("{a}", "{a} AND NOT {b}", "{a} AND {b} AND NOT {c}")
#: every commit makes four edits and one of these, in turn
OTHER_CHANGES = ("rename", "create", "rename", "delete")


def _fill(shape: str, rng: random.Random) -> str:
    a, b, c, d = rng.sample(_WORDS, 4)
    return shape.format(a=a, b=b, c=c, d=d)


class Churn:
    name = "churn"
    key_op = "ssync"

    def __init__(self, seed: int):
        self.gen = CodeRepoGenerator(seed=seed)
        self.files = [(self.gen.file_path(i), self.gen.render(i))
                      for i in range(FILES)]
        # the seed picks files, contents and query words; the commit
        # structure (where in a commit each change falls, which hot-set
        # position it hits) is the same for every seed, so seeds differ
        # in inputs, not in the shape of the load
        words = random.Random(seed * 7919 + 23)
        rng = random.Random(SEQUENCE_SEED)
        modules = self.gen.modules
        self.views = [(f"/src/{modules[i % len(modules)]}/view{i:02d}",
                       _fill(VIEW_SHAPES[i % len(VIEW_SHAPES)], words))
                      for i in range(VIEWS)]
        # the commit stream, generated against a model of the live tree
        live = {path: text for path, text in self.files}
        hot = [path for path, _t in self.files[:HOT]]
        self.commits = []
        serial = FILES
        for c in range(COMMITS):
            changes = []
            kinds = ["edit"] * (CHANGES_PER_COMMIT - 1)
            kinds.insert(rng.randrange(CHANGES_PER_COMMIT),
                         OTHER_CHANGES[c % len(OTHER_CHANGES)])
            for k, kind in enumerate(kinds):
                if kind == "create":
                    path = self.gen.file_path(serial)
                    text = self.gen.render(serial)
                    serial += 1
                    hot.append(path)
                    live[path] = text
                    changes.append(("write", path, text))
                elif kind == "edit":
                    path = rng.choice(hot)
                    text = self.gen.render(words.randrange(FILES), c + 1)
                    live[path] = text
                    changes.append(("write", path, text))
                elif kind == "rename":
                    pos = rng.randrange(len(hot))
                    old = hot[pos]
                    new = old.replace(".py", f"_c{c}k{k}.py")
                    hot[pos] = new
                    live[new] = live.pop(old)
                    changes.append(("rename", old, new))
                else:
                    path = hot.pop(rng.randrange(len(hot)))
                    del live[path]
                    changes.append(("unlink", path, None))
            queries = [_fill(QUERY_SHAPES[(c + i) % len(QUERY_SHAPES)], words)
                       for i in range(GLIMPSES_PER_COMMIT)]
            self.commits.append((changes, queries))
        self.final = live

    def inputs(self):
        return [self.files, self.views, self.commits]

    def setup(self, client):
        hac = HacFileSystem()
        tenant = client.call("setup", hac.tenants.create, "repo",
                             QuotaSpec(**QUOTA))
        hac.maintenance.set_mode("batched")
        made = set()
        for path, text in self.files:
            parent = path.rsplit("/", 1)[0]
            if parent not in made:
                client.call("setup", tenant.makedirs, parent)
                made.add(parent)
            client.call("setup", tenant.write_file, path,
                        text.encode("utf-8"))
        for path, query in self.views:
            client.call("setup", tenant.smkdir, path, query)
        client.call("setup", tenant.watch, "/")
        client.call("setup", tenant.ssync, "/")
        return SimpleNamespace(hac=hac, tenants=(tenant,), tenant=tenant,
                               out={})

    def run(self, world, client) -> None:
        t = world.tenant
        for changes, queries in self.commits:
            for kind, path, arg in changes:
                if kind == "write":
                    client.call("write", t.write_file, path,
                                arg.encode("utf-8"))
                elif kind == "rename":
                    client.call("rename", t.rename, path, arg)
                else:
                    client.call("unlink", t.unlink, path)
            client.call("glimpse", t.glimpse, queries[0])
            client.call("ssync", t.ssync, "/")
            for query in queries[1:]:
                client.call("glimpse", t.glimpse, query)

    def changed_docs(self, client) -> int:
        return sum(len(client.samples[k])
                   for k in ("write", "rename", "unlink"))

    def check(self, world) -> list:
        """fsck is clean, the quota ledger matches a recount, and the
        live tree is exactly what the commit stream should leave."""
        hac, t = world.hac, world.tenant
        failures = [f"churn: fsck {f}" for f in hac.fsck()
                    if f.severity == "error"]
        usage = t.usage()
        recount = t.recount()
        if usage != recount:
            failures.append(f"churn: quota usage {usage} != recount {recount}")
        tree = {}
        for parent in {p.rsplit("/", 1)[0] for p in self.final} | {
                p.rsplit("/", 1)[0] for p, _t in self.files}:
            if not t.isdir(parent):
                continue
            for name in t.listdir(parent):
                path = f"{parent}/{name}"
                if t.isfile(path) and not t.islink(path):
                    tree[path] = t.read_file(path).decode("utf-8")
        if tree != self.final:
            missing = sorted(set(self.final) - set(tree))[:3]
            extra = sorted(set(tree) - set(self.final))[:3]
            failures.append(f"churn: live tree differs from the op log "
                            f"(missing {missing}, extra {extra})")
        return failures
