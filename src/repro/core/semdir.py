"""Per-directory HAC state and its persistence (the MetaStore).

The paper's Table 1 analysis is explicit about what HAC does on every
``mkdir``: it creates and initialises *to empty* the data structures storing
the directory's query, its query-result, and its permanent and prohibited
link sets; records the directory in the global map; and adds an empty node
to the dependency graph — all persisted to disk.  We reproduce that with
two small records per directory: **every** directory gets a
:class:`SemanticDirState` and a global-map entry; its graph node is derived
from those on reload.  A directory is "semantic" exactly when a query has
been attached to it.

:class:`MetaStore` persists each state record write-through onto the
simulated block device using the record codec, so the Makedir/Copy overheads
in the Table 1 bench come from real (simulated) I/O, and the space-overhead
bench can report HAC's metadata footprint the way the paper does (222 KB vs
210 KB in their example).
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Tuple

from repro.util import serialization
from repro.util.bitmap import Bitmap
from repro.vfs.blockdev import BlockDevice
from repro.cba import queryast
from repro.core.links import LinkSets


#: the parts of a directory's state made on first use
_LAZY = {"links": LinkSets, "result_cache": Bitmap,
         "degraded_remote": dict, "degraded_shards": dict}


class SemanticDirState:
    """Everything HAC knows about one directory beyond the VFS itself.

    Besides the query, a state has four parts, each made on first use
    (most directories are plain and never touch them):

    * ``links`` — the permanent/transient/prohibited :class:`LinkSets`;
    * ``result_cache`` — bitmap of local doc-ids in the last evaluated
      result (the paper's N/8-byte stored representation);
    * ``degraded_remote`` — namespace id → virtual time since when that
      back-end has been unreachable; its links are last-known-good
      (stale) while listed;
    * ``degraded_shards`` — search-cluster shard id → virtual time since
      when that shard has been missing from this directory's evaluations
      (same degradation contract as ``degraded_remote``).
    """

    __slots__ = ("uid", "query", "query_text", "links", "result_cache",
                 "degraded_remote", "degraded_shards")

    def __init__(self, uid: int):
        self.uid = uid
        #: the user's query AST, or None for a plain directory
        self.query: Optional[queryast.Node] = None
        #: the original query text as the user typed it (for display)
        self.query_text: Optional[str] = None

    def __getattr__(self, name: str):
        # only reached for a slot never set: make that lazy part now
        factory = _LAZY.get(name)
        if factory is None:
            raise AttributeError(name)
        value = factory()
        setattr(self, name, value)
        return value

    def _made(self, name: str):
        """The lazy part *name*, or None when it was never made."""
        try:
            return object.__getattribute__(self, name)
        except AttributeError:
            return None

    @property
    def is_semantic(self) -> bool:
        return self.query is not None

    def to_obj(self):
        links, result = self._made("links"), self._made("result_cache")
        return {
            "uid": self.uid,
            "query": self.query.to_obj() if self.query is not None else None,
            "query_text": self.query_text,
            "links": (links if links is not None else LinkSets()).to_obj(),
            "result": result.to_bytes() if result is not None else b"",
            "degraded_remote": dict(self._made("degraded_remote") or {}),
            "degraded_shards": dict(self._made("degraded_shards") or {}),
        }

    @classmethod
    def from_obj(cls, obj) -> "SemanticDirState":
        state = cls(obj["uid"])
        if obj["query"] is not None:
            state.query = queryast.from_obj(obj["query"])
        state.query_text = obj["query_text"]
        state.links = LinkSets.from_obj(obj["links"])
        state.result_cache = Bitmap.from_bytes(obj["result"])
        # records written before degradation tracking lack the fields
        state.degraded_remote = {str(k): float(v)
                                 for k, v in obj.get("degraded_remote", {}).items()}
        state.degraded_shards = {str(k): float(v)
                                 for k, v in obj.get("degraded_shards", {}).items()}
        return state

    def __repr__(self):
        kind = "semantic" if self.is_semantic else "plain"
        return f"SemanticDirState(uid={self.uid}, {kind}, {self.links!r})"


class MetaStore:
    """Write-through persistence of HAC state onto the block device.

    Records:
      * ``semdir:<uid>`` — one per directory: query, links, result bitmap;
      * ``dir:<uid>`` — one per directory but the root: ``[parent uid,
        name]``, the global map's entry (paths are composed from these,
        see :func:`repro.util.idmap.compose_paths`);
      * ``uidmark`` — the UID high-water mark, written when a removal
        takes away the highest UID handed out so far.

    The dependency graph has no record: its hierarchy edges are the
    ``dir:`` parents and its reference edges the persisted queries'
    directory references, so it is derived on reload.  Every write is
    O(one directory) — an O(1) namespace op never rewrites a whole table.

    The in-memory copy is authoritative during a run; the store exists to
    (a) charge honest I/O for every state mutation and (b) support
    save/restore across :class:`HacFileSystem` instances (tested by the
    durability tests).
    """

    def __init__(self, device: BlockDevice):
        self.device = device
        self._states: Dict[int, SemanticDirState] = {}

    # -- directory state ------------------------------------------------------

    def create(self, uid: int) -> SemanticDirState:
        if uid in self._states:
            raise ValueError(f"state already exists for uid {uid}")
        state = SemanticDirState(uid)
        self._states[uid] = state
        self.flush(uid)
        return state

    def get(self, uid: int) -> Optional[SemanticDirState]:
        return self._states.get(uid)

    def require(self, uid: int) -> SemanticDirState:
        state = self._states.get(uid)
        if state is None:
            raise KeyError(f"no HAC state for uid {uid}")
        return state

    def drop(self, uid: int) -> None:
        """Delete a directory's records, then forget its state."""
        self.device.delete_record(f"dir:{uid}")
        self.device.delete_record(f"semdir:{uid}")
        self._states.pop(uid, None)

    def write_dir(self, uid: int, parent_uid: Optional[int],
                  name: str) -> None:
        """Persist a directory's global-map entry: its parent and name."""
        self.device.write_record(f"dir:{uid}",
                                 serialization.dumps([parent_uid, name]))

    def load_dirs(self) -> Dict[int, Tuple[Optional[int], str]]:
        """Every persisted ``dir:`` entry, as uid → (parent uid, name)."""
        out: Dict[int, Tuple[Optional[int], str]] = {}
        for key in self.device.record_keys():
            if key.startswith("dir:"):
                raw = self.device.read_record(key)
                if raw is not None:
                    parent, name = serialization.loads(raw)
                    out[int(key[4:])] = (parent, name)
        return out

    def flush(self, uid: int) -> None:
        """Write-through one directory's record to the device."""
        state = self._states[uid]
        self.device.write_record(f"semdir:{uid}",
                                 serialization.dumps(state.to_obj()))

    def flush_aux(self, name: str, obj) -> None:
        """Persist an auxiliary record (UID mark, tenant table, manifest)."""
        self.device.write_record(name, serialization.dumps(obj))

    def load_aux(self, name: str):
        raw = self.device.read_record(name)
        return serialization.loads(raw) if raw is not None else None

    def uids(self) -> Iterator[int]:
        return iter(list(self._states))

    def __len__(self) -> int:
        return len(self._states)

    def __contains__(self, uid: int) -> bool:
        return uid in self._states

    # -- reporting / durability -------------------------------------------------

    def metadata_bytes(self) -> int:
        """Bytes of persisted HAC metadata (the paper's +5 % figure)."""
        return self.device.record_bytes

    def reload_all(self) -> None:
        """Rebuild the in-memory states from device records (crash recovery)."""
        self._states.clear()
        for key in self.device.record_keys():
            if key.startswith("semdir:"):
                raw = self.device.read_record(key)
                if raw is None:
                    continue
                state = SemanticDirState.from_obj(serialization.loads(raw))
                self._states[state.uid] = state
