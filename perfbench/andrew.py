"""``andrew``: the paper's Table 1 Andrew benchmark through HacFileSystem.

All five phases (Makedir, Copy, Scan, Read, Make) of
:class:`repro.workloads.andrew.AndrewBenchmark`, at 1000 module
directories of four files each.  Set-up installs the source tree; the
timed part is the five phases, every file-system call timed at the
public boundary.  No semantic directory, no watch: the metadata path
does the work and the content engine almost none.
"""

from __future__ import annotations

from types import SimpleNamespace

from repro.core.hacfs import HacFileSystem
from repro.vfs.filesystem import FileSystem
from repro.workloads.andrew import (PHASES, AndrewBenchmark, AndrewConfig,
                                    RawFsAdapter)

DIRS = 1000
FILES_PER_DIR = 4
FUNCTIONS_PER_FILE = 6
SRC, DST = "/src", "/dst"


class TimedTarget:
    """The Andrew target interface, each call timed by the client."""

    def __init__(self, client, system):
        self._client = client
        self._system = system

    def mkdir(self, path):
        return self._client.call("mkdir", self._system.mkdir, path)

    def write_file(self, path, data):
        return self._client.call("write", self._system.write_file, path, data)

    def write(self, fd, data):
        return self._client.call("write", self._system.write, fd, data)

    def read_file(self, path):
        return self._client.call("lookup", self._system.read_file, path)

    def stat(self, path):
        return self._client.call("lookup", self._system.stat, path)

    def listdir(self, path):
        return self._client.call("lookup", self._system.listdir, path)

    def open(self, path, mode="r"):
        return self._client.call("lookup", self._system.open, path, mode)

    def read(self, fd, size=-1):
        return self._client.call("lookup", self._system.read, fd, size)

    def close(self, fd):
        return self._client.call("lookup", self._system.close, fd)


class Andrew:
    name = "andrew"
    #: the op whose mean latency is bounded
    key_op = "mkdir"

    def __init__(self, seed: int):
        config = AndrewConfig(dirs=DIRS, files_per_dir=FILES_PER_DIR,
                              functions_per_file=FUNCTIONS_PER_FILE,
                              seed=seed)
        # one generated source tree, reused by every world of the run
        self.bench = AndrewBenchmark(None, config, src_root=SRC, dst_root=DST)
        self.source = self.bench.source

    def inputs(self):
        return sorted(self.source.items())

    def setup(self, client):
        hac = HacFileSystem()
        self.bench.target = TimedTarget(client, hac)
        self.bench.install_sources()
        return SimpleNamespace(hac=hac, tenants=(), out={})

    def run(self, world, client) -> None:
        self._phases(world, client, world.hac)

    def _phases(self, world, client, system) -> None:
        self.bench.target = TimedTarget(client, system)
        for phase in PHASES:
            with client.phase(phase):
                world.out[phase] = getattr(self.bench, f"phase_{phase}")()

    def changed_docs(self, client) -> int:
        return len(client.samples["write"])

    def check(self, world) -> list:
        """The copy is byte-identical and Scan saw the whole tree."""
        fs = world.hac.fs
        bad = [rel for rel, text in self.source.items()
               if fs.read_file(f"{DST}/{rel}") != text.encode("utf-8")]
        failures = [f"andrew: {len(bad)} copied files differ, e.g. {bad[:3]}"
                    ] if bad else []
        dirs = {rel.rsplit("/", 1)[0] for rel in self.source}
        expected = len(dirs) + len(self.source)
        if world.out.get("scan") != expected:
            failures.append(f"andrew: scan counted {world.out.get('scan')}, "
                            f"expected {expected}")
        total = sum(len(t.encode("utf-8")) for t in self.source.values())
        if world.out.get("read") != total:
            failures.append(f"andrew: read {world.out.get('read')} bytes, "
                            f"expected {total}")
        return failures

    def reference(self, client_factory) -> dict:
        """The same phases through a plain FileSystem (Table 1's UNIX
        row): seconds per phase."""
        fs = FileSystem()
        self.bench.target = RawFsAdapter(fs)
        self.bench.install_sources()
        world = SimpleNamespace(hac=None, out={})
        client = client_factory(fs.counters)
        client.start()
        self._phases(world, client, RawFsAdapter(fs))
        client.stop()
        return dict(client.phases)
