"""Benchmark-side instrumentation: counting meters and layer spans.

Nothing here edits the program.  Both tools replace *instance* attributes
of the layer objects a world holds with thin wrappers, so internal calls
made through ``self.method`` are seen too, and throwing the world away
removes them.

* :class:`Meters` counts what the program's own counters do not: record
  payload bytes handed to the block device (split WAL / non-WAL), record
  bytes per ``mkdir``, quota checks, and re-evaluations whose link set
  changed.  They are deterministic, so a traced and an untraced pass must
  agree on them exactly.
* :class:`SpanRecorder` records one span per wrapped call (name, layer,
  start, end, parent, op id) in memory, derives per-layer self time, and
  writes the spans out when the run ends.
"""

from __future__ import annotations

import gzip
import inspect
import json
import time
from array import array
from collections import defaultdict
from typing import Callable, Dict, List, Optional

#: the layers a span can belong to, outermost first; ``client`` is the
#: benchmark's own call at the public API boundary
LAYERS = ("client", "tenant", "hacfs", "journal", "scheduler", "consistency",
          "cba", "segments", "vfs", "blockdev")


class Meters:
    """Deterministic per-layer counts taken from outside the program."""

    def __init__(self):
        self.values: Dict[str, float] = defaultdict(float)
        #: (non-WAL bytes, WAL bytes) written inside each ``mkdir`` call
        self.mkdir_bytes: List[tuple] = []

    def install(self, world, detailed: bool) -> None:
        """Meter *world*; *detailed* adds the meters only the per-layer
        split needs (they cost a little time on every call)."""
        device = world.hac.fs.device
        write_record = device.write_record
        values = self.values
        block = device.block_size

        def metered_write(key, data):
            write_record(key, data)
            values["record_writes"] += 1
            values["record_blocks"] += max(1, -(-len(data) // block))
            if key.startswith("wal:"):
                values["wal_record_bytes"] += len(data)
            else:
                values["data_record_bytes"] += len(data)

        device.write_record = metered_write
        if not detailed:
            return
        hac = world.hac
        mkdir = hac.mkdir

        def metered_mkdir(*args, **kwargs):
            data0 = values["data_record_bytes"]
            wal0 = values["wal_record_bytes"]
            try:
                return mkdir(*args, **kwargs)
            finally:
                self.mkdir_bytes.append((values["data_record_bytes"] - data0,
                                         values["wal_record_bytes"] - wal0))

        hac.mkdir = metered_mkdir
        reevaluate = hac.consistency.reevaluate

        def metered_reevaluate(uid):
            state = hac.meta.get(uid)
            if state is None or not state.is_semantic:
                return reevaluate(uid)
            before = _link_set(state)
            try:
                return reevaluate(uid)
            finally:
                values["reevaluations"] += 1
                if _link_set(hac.meta.get(uid) or state) != before:
                    values["useful_reevaluations"] += 1

        hac.consistency.reevaluate = metered_reevaluate
        for tenant in getattr(world, "tenants", ()):
            tenant.ledger = _CountingLedger(tenant.ledger, values)

    def counts(self) -> Dict[str, float]:
        out = dict(self.values)
        out["mkdir_calls"] = len(self.mkdir_bytes)
        return out


def _link_set(state):
    links = state.links
    return (frozenset(links.transient.items()),
            frozenset(links.permanent.items()))


class _CountingLedger:
    """A tenant's quota ledger that counts checks (the ledger itself has
    ``__slots__``, so its methods cannot be wrapped in place)."""

    def __init__(self, ledger, values):
        object.__setattr__(self, "_ledger", ledger)
        object.__setattr__(self, "_values", values)

    def __getattr__(self, name):
        return getattr(self._ledger, name)

    def __setattr__(self, name, value):
        setattr(self._ledger, name, value)

    def check(self, *args, **kwargs):
        self._values["quota_checks"] += 1
        return self._ledger.check(*args, **kwargs)

    def check_docs(self, *args, **kwargs):
        self._values["quota_checks"] += 1
        return self._ledger.check_docs(*args, **kwargs)


def slope(values: List[float]) -> float:
    """Mean of the last tenth over the mean of the first tenth (flat is
    1.0); 0.0 when there are fewer than ten values or the head is 0."""
    tenth = len(values) // 10
    if tenth == 0:
        return 0.0
    head = sum(values[:tenth]) / tenth
    tail = sum(values[-tenth:]) / tenth
    return tail / head if head else 0.0


class SpanRecorder:
    """In-memory spans around every public function of each layer object.

    Spans are kept column-wise in typed arrays (a churn run records about
    a million), each with a name id, start, end, parent index and op id;
    a name's layer is fixed when the name is registered.
    """

    def __init__(self):
        self.names: List[str] = []
        self.layers: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name, self.start, self.end, self.parent, self.op = (
            array(code) for code in _COLUMNS.values())
        self._stack: List[int] = []
        #: the client op being run, or -1 outside one
        self.op_id = -1
        self._wrapped: set = set()

    def _name_id(self, name: str, layer: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.layers.append(layer)
        return nid

    # -- recording -----------------------------------------------------------

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def op_call(self, kind: str, op_id: int, fn: Callable, *args, **kwargs):
        """Run one client operation under a root span."""
        self.op_id = op_id
        idx = self._open(self._name_id(kind, "client"))
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)
            self.op_id = -1

    def wrap(self, obj, layer: str, names=None,
             after: Optional[Dict[str, Callable]] = None) -> None:
        """Wrap *names* (default: every public method of *obj*'s class);
        ``after[name]`` is called with that method's return value."""
        if obj is None or id(obj) in self._wrapped:
            return
        self._wrapped.add(id(obj))
        label = type(obj).__name__
        if names is None:
            names = [n for n, fn in inspect.getmembers(type(obj))
                     if not n.startswith("_") and inspect.isfunction(fn)]
        after = after or {}
        for name in names:
            nid = self._name_id(f"{label}.{name}", layer)
            setattr(obj, name, self._wrapper(getattr(obj, name), nid,
                                             after.get(name)))

    def _wrapper(self, fn: Callable, nid: int,
                 after: Optional[Callable]) -> Callable:
        def spanned(*args, **kwargs):
            if self.op_id < 0:
                # outside a client op (set-up, checks): not part of the run
                result = fn(*args, **kwargs)
            else:
                idx = self._open(nid)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self._close(idx)
            if after is not None:
                after(result)
            return result
        return spanned

    def wrap_world(self, world) -> None:
        """Wrap the public functions of every layer object in *world*."""
        hac = world.hac
        for tenant in getattr(world, "tenants", ()):
            self.wrap(tenant, "tenant")
        self.wrap(hac, "hacfs")
        self.wrap(hac.journal, "journal", ("begin", "commit"))
        self.wrap(hac.maintenance, "scheduler", ("drain", "barrier"))
        self.wrap(hac.consistency, "consistency",
                  ("on_scope_changed", "reevaluate_all", "reevaluate"))
        engine = hac.engine
        # snapshot reads run on a replica: wrap each one as it is handed out
        self.wrap(engine, "cba",
                  ("search", "reindex", "publish", "snapshot_view"),
                  after={"snapshot_view":
                         lambda view: self.wrap(view, "cba", ("search",))})
        self.wrap(getattr(engine, "segments", None), "segments",
                  ("seal", "compact"))
        self.wrap(hac.fs, "vfs", ("resolve",))
        self.wrap(hac.fs.device, "blockdev", ("write_record", "read_record"))

    # -- derivation ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.start)

    def self_ms(self) -> Dict[str, float]:
        """Per-layer self time: span time minus its child spans' time."""
        start, end, parent = self.start, self.end, self.parent
        own = [e - s for s, e in zip(start, end)]
        for i, p in enumerate(parent):
            if p >= 0:
                own[p] -= end[i] - start[i]
        out = {layer: 0.0 for layer in LAYERS}
        layers = self.layers
        for nid, t in zip(self.name, own):
            out[layers[nid]] += t * 1000.0
        return out

    def _outermost(self, nids):
        """Indices of spans named in *nids* with no ancestor so named."""
        parent, name = self.parent, self.name
        for i, nid in enumerate(name):
            if nid not in nids:
                continue
            p = parent[i]
            while p >= 0 and name[p] not in nids:
                p = parent[p]
            if p < 0:
                yield i

    def calls(self, name: str) -> List[float]:
        """Durations (ms) of the outermost spans called *name*."""
        nids = {self._ids.get(name)}
        return [(self.end[i] - self.start[i]) * 1000.0
                for i in self._outermost(nids)]

    def ms_under_ops(self, names, op_kinds) -> float:
        """Total ms of outermost spans named in *names* whose root client
        op is of a kind in *op_kinds*."""
        nids = {self._ids.get(n) for n in names}
        roots = {self._ids.get(k) for k in op_kinds}
        parent, name = self.parent, self.name
        total = 0.0
        for i in self._outermost(nids):
            root = i
            while parent[root] >= 0:
                root = parent[root]
            if name[root] in roots:
                total += (self.end[i] - self.start[i]) * 1000.0
        return total

    def dump(self, path: str) -> int:
        """Write the spans (see :func:`load_spans`); returns their count."""
        header = {"names": self.names, "layers": self.layers,
                  "count": len(self), "columns": list(_COLUMNS)}
        with gzip.open(path, "wb", compresslevel=1) as out:
            out.write((json.dumps(header) + "\n").encode("utf-8"))
            for column in _COLUMNS:
                out.write(getattr(self, column).tobytes())
        return len(self)


#: span columns and their array type codes
_COLUMNS = {"name": "H", "start": "d", "end": "d", "parent": "i", "op": "i"}


def load_spans(path: str) -> List[dict]:
    """Read a span file written by :meth:`SpanRecorder.dump` back as dicts
    (``name``, ``layer``, ``start``, ``end``, ``parent``, ``op``)."""
    with gzip.open(path, "rb") as f:
        header = json.loads(f.readline())
        columns = {}
        for column in header["columns"]:
            values = array(_COLUMNS[column])
            values.frombytes(f.read(values.itemsize * header["count"]))
            columns[column] = values
    return [{"name": header["names"][nid], "layer": header["layers"][nid],
             "start": columns["start"][i], "end": columns["end"][i],
             "parent": columns["parent"][i], "op": columns["op"][i]}
            for i, nid in enumerate(columns["name"])]
