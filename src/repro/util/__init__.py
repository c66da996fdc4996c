"""Shared low-level utilities for the HAC reproduction.

Nothing in this package knows about file systems or queries; these are the
data structures the substrates are built from:

* :mod:`repro.util.bitmap` — the compact N/8-byte file-set representation
  the paper uses for stored query results.
* :mod:`repro.util.pathutil` — pure-string path algebra (normalise, split,
  join, ancestry tests).
* :mod:`repro.util.idmap` — the global UID ↔ directory-path map that keeps
  queries valid across renames (paper §2.5).
* :mod:`repro.util.clock` — a virtual clock with timers, used for mtimes and
  for the periodic reindex scheduler.
* :mod:`repro.util.lru` — a bounded LRU mapping (attribute cache).
* :mod:`repro.util.stats` — hierarchical counters for instrumentation.
* :mod:`repro.util.serialization` — a small self-describing record codec used
  by the MetaStore to persist per-directory HAC state.
"""

from repro.util.bitmap import Bitmap
from repro.util.clock import VirtualClock
from repro.util.idmap import GlobalDirectoryMap
from repro.util.lru import LRUCache
from repro.util.stats import Counters

__all__ = [
    "Bitmap",
    "VirtualClock",
    "GlobalDirectoryMap",
    "LRUCache",
    "Counters",
]
