"""The global UID ↔ directory-path map (paper §2.5).

Queries may reference other directories by path (``"fingerprint AND
/projects/fbi"``).  If queries stored raw path names, every rename would
invalidate every query referring to the renamed directory or anything under
it.  The paper's fix, reproduced here: HAC keeps one global mapping from
stable unique identifiers to current path names and stores only UIDs inside
query ASTs.  A rename then updates this map once instead of rewriting
queries.

:class:`GlobalDirectoryMap` owns that mapping.  A rename of ``/a`` to ``/b``
must also re-root every registered path under ``/a`` — the map handles the
whole subtree in :meth:`rename_subtree`.

On disk the map is not stored as a table: each directory persists its
parent's UID and its own name (the UNIX directory-entry layout), and
:func:`compose_paths` derives the path table from those entries.  A rename
therefore rewrites one entry however large the moved subtree is.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from repro.util import pathutil


def compose_paths(entries: Dict[int, Tuple[Optional[int], str]]
                  ) -> Dict[int, str]:
    """The UID→path table for directories persisted as ``uid → (parent
    uid, name)`` entries, each path composed up its parent chain.  The root
    (UID 0) needs no entry; an entry whose chain does not reach the root
    (a missing parent, a loop) is left out."""
    paths: Dict[int, str] = {GlobalDirectoryMap.ROOT_UID: "/"}
    for uid in entries:
        chain: List[int] = []
        cur: Optional[int] = uid
        while cur is not None and cur not in paths and cur in entries \
                and len(chain) <= len(entries):
            chain.append(cur)
            cur = entries[cur][0]
        base = paths.get(cur) if cur is not None else None
        if base is None:
            continue
        for link in reversed(chain):
            base = pathutil.join(base, entries[link][1])
            paths[link] = base
    return paths


class GlobalDirectoryMap:
    """Bidirectional map between directory UIDs and their current paths.

    The root directory is always registered with UID 0 at path ``/``.
    UIDs are never reused: :attr:`next_uid` only grows.
    """

    ROOT_UID = 0

    def __init__(self):
        #: the UID the next :meth:`register` hands out
        self.next_uid = 1
        self._uid_to_path: Dict[int, str] = {self.ROOT_UID: "/"}
        self._path_to_uid: Dict[str, int] = {"/": self.ROOT_UID}

    # -- registration --------------------------------------------------------

    def register(self, path: str) -> int:
        """Register a new directory; returns its fresh UID."""
        norm = pathutil.normalize(path)
        if norm in self._path_to_uid:
            raise ValueError(f"path already registered: {norm}")
        uid = self.next_uid
        self.next_uid += 1
        self._uid_to_path[uid] = norm
        self._path_to_uid[norm] = uid
        return uid

    def unregister(self, path: str) -> int:
        """Remove a directory from the map (on rmdir); returns its UID."""
        norm = pathutil.normalize(path)
        uid = self._path_to_uid.pop(norm)
        del self._uid_to_path[uid]
        return uid

    # -- lookup ---------------------------------------------------------------

    def uid_of(self, path: str) -> Optional[int]:
        return self._path_to_uid.get(pathutil.normalize(path))

    def path_of(self, uid: int) -> Optional[str]:
        return self._uid_to_path.get(uid)

    def __contains__(self, path: str) -> bool:
        return pathutil.normalize(path) in self._path_to_uid

    def __len__(self) -> int:
        return len(self._uid_to_path)

    def uids(self) -> Iterator[int]:
        return iter(list(self._uid_to_path))

    def items(self) -> Iterator[Tuple[int, str]]:
        return iter(list(self._uid_to_path.items()))

    # -- rename ---------------------------------------------------------------

    def rename_subtree(self, old_path: str, new_path: str) -> List[Tuple[int, str, str]]:
        """Re-root every registered path at or below *old_path*.

        Returns ``[(uid, old, new), ...]`` for the affected directories so the
        caller can update any per-path side tables (e.g. semantic-dir state
        keyed by path).
        """
        old = pathutil.normalize(old_path)
        new = pathutil.normalize(new_path)
        if old == "/":
            raise ValueError("cannot rename the root")
        moved: List[Tuple[int, str, str]] = []
        for path, uid in list(self._path_to_uid.items()):
            if pathutil.is_ancestor(old, path, strict=False):
                rebased = pathutil.rebase(path, old, new)
                moved.append((uid, path, rebased))
        for uid, src, dst in moved:
            del self._path_to_uid[src]
        for uid, src, dst in moved:
            if dst in self._path_to_uid:
                raise ValueError(f"rename collides with registered path: {dst}")
            self._path_to_uid[dst] = uid
            self._uid_to_path[uid] = dst
        return moved

    def subtree_uids(self, path: str, strict: bool = False) -> List[int]:
        """UIDs of every registered directory at/below *path*."""
        norm = pathutil.normalize(path)
        return [
            uid
            for p, uid in self._path_to_uid.items()
            if pathutil.is_ancestor(norm, p, strict=strict)
        ]

    # -- persistence ----------------------------------------------------------

    def snapshot(self) -> Dict[int, str]:
        """A copy of the UID→path table."""
        return dict(self._uid_to_path)

    def load_snapshot(self, snapshot: Dict[int, str],
                      next_uid: int = 0) -> None:
        """Replace the whole table *in place* (rollback/recovery reload).

        In place matters: other components hold this map's bound methods
        (``uid_of``/``path_of``), so recovery must mutate the live object
        rather than swap in a new one.  The allocator resumes above every
        loaded UID and at no less than *next_uid*, the persisted high-water
        mark that keeps a removed top UID from being handed out again.
        """
        self._uid_to_path = dict(snapshot)
        self._path_to_uid = {p: u for u, p in snapshot.items()}
        if self.ROOT_UID not in self._uid_to_path:
            self._uid_to_path[self.ROOT_UID] = "/"
            self._path_to_uid["/"] = self.ROOT_UID
        self.next_uid = max(max(self._uid_to_path) + 1, next_uid)

    @classmethod
    def restore(cls, snapshot: Dict[int, str]) -> "GlobalDirectoryMap":
        gm = cls()
        gm.load_snapshot(snapshot)
        return gm
