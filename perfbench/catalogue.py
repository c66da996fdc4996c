"""Every metric and workload of the benchmark, with what it means.

``BENCHMARK.json`` at the repository root carries the fields its format
allows (name, unit, direction, bound, one-line why); this module carries
the rest: each metric's layer, its exact definition, and for a per-layer
metric the end-to-end metrics and workloads it should move.  ``run.py``
refuses to start when the two disagree on names, units or directions.

Measurement conditions, the same on every run and on both sides of a
comparison:

* The block device is the program's simulated one with its default
  policy: records are written through on every call, nothing is
  batched or deferred, 4096-byte blocks.  No flush is added or removed.
* Latencies are wall time of a pure-Python simulation in a sandbox,
  measured at the public call boundary; they are not a real device's.
* Each workload runs in one process with one closed-loop client (the
  next op starts when the previous one returned) and no extra threads.
"""

from __future__ import annotations

WORKLOADS = {
    "andrew": {
        "why": "Table 1 Andrew: metadata path (hacfs maps, journal, vfs, "
               "blockdev) does the work, cba almost none; a growing "
               "namespace shows O(world) mkdir cost",
        "sizes": "1000 module dirs x 4 files x 6 functions; set-up installs "
                 "the source tree; timed: Makedir (1001 mkdir), Copy, Scan, "
                 "Read, Make; no semantic dir, no watch",
        "key_op": "mkdir",
        "loop": "closed", "clients": 1,
    },
    "library": {
        "why": "Table 3/4 serving plus ingest: cba (planner, postings, "
               "blocks, result cache, CAS, segments) does the work; 1199 "
               "Zipf queries overflow the 64-entry cache, its head fits",
        "sizes": "set-up: 3000 docs in 30 dirs + first ssync; timed: 10 "
                 "rounds of 300 glimpse (half strong, half snapshot) with "
                 "10 smkdir, then 30 new docs + ssync",
        "key_op": "strong glimpse",
        "loop": "closed", "clients": 1,
    },
    "churn": {
        "why": "Code-repo churn in a quota'd tenant: writes beside reads; "
               "scheduler, consistency cascade, journal, segments, "
               "symlink resolution and the tenant facade do the work",
        "sizes": "set-up: tenant with quota, 400 files, 64 views, watch, "
                 "batched maintenance; timed: 50 commits of 4 edits + 1 "
                 "create/rename/delete, 1 strong glimpse, ssync, 4 strong "
                 "glimpses",
        "key_op": "ssync",
        "loop": "closed", "clients": 1,
    },
}

ALL = ("andrew", "library", "churn")


def _m(name, unit, better, layer, definition, moves=(), bound=None):
    entry = {"name": name, "unit": unit, "better": better, "layer": layer,
             "definition": definition, "moves": list(moves)}
    if bound is not None:
        entry["bound"] = bound
    return entry


#: printed with ``--trace 0``; each has a bound in BENCHMARK.json (the
#: share by which its median may worsen).  Every workload
#: reports every one of them.  Times are scaled to the reference speed
#: (see ``client.py``).  Sub-millisecond medians and the key op's p95
#: and p99 still moved 10-25 % from run to run in the sandbox, because
#: its speed swings inside a run, so they are reported (per-layer
#: section) but not bounded; the key op is bounded on its mean.
END_TO_END = [
    _m("setup_s", "s", "lower", "e2e",
       "median over the run's set-ups (at least 3) of the time to build the "
       "world, including the initial index build; each set-up step is "
       "timed and scaled like an op", bound=0.25),
    _m("ops_per_s", "1/s", "higher", "e2e",
       "timed ops completed per second of timed-phase wall time",
       bound=0.25),
    _m("key_op_mean_ms", "ms", "lower", "e2e",
       "mean latency of the workload's key op: mkdir on andrew, strong "
       "glimpse on library, ssync on churn", bound=0.25),
    _m("device_write_bytes_per_op", "B/op", "lower", "e2e",
       "bytes handed to the block device per timed op: data blocks x block "
       "size plus every write_record payload, WAL included "
       "(deterministic)", bound=0.1),
    _m("stored_bytes_per_user_byte", "ratio", "lower", "e2e",
       "at the end of the run: device data bytes plus live record bytes, "
       "over live user file bytes (Table 3's space axis; deterministic "
       "for a seed, but the seed's word lengths move it by a few %)",
       bound=0.25),
    _m("peak_rss_mb", "MB", "lower", "e2e",
       "peak resident memory of the workload process", bound=0.15),
]

#: printed with ``--trace 1``.  Every workload reports every one; a
#: workload that does not exercise a metric reports 0, as does a
#: percentile with fewer than 10 samples beyond it.
PER_LAYER = [
    # -- the end-to-end latencies of single op kinds.  Not every workload
    # has every kind, so they cannot carry a bound; they come from the
    # untraced pass of the traced run.
    _m("mkdir_p50_ms", "ms", "lower", "api", "median mkdir latency"),
    _m("write_p50_ms", "ms", "lower", "api",
       "median latency of write_file (create and overwrite) and write"),
    _m("mkdir_p99_ms", "ms", "lower", "api", "p99 mkdir latency"),
    _m("write_p99_ms", "ms", "lower", "api", "p99 write latency"),
    _m("lookup_p50_ms", "ms", "lower", "api",
       "median of stat, listdir, read_file, open, read, close"),
    _m("ssync_p50_ms", "ms", "lower", "api", "median ssync latency"),
    _m("ssync_p90_ms", "ms", "lower", "api", "p90 ssync latency"),
    _m("glimpse_p50_ms", "ms", "lower", "api",
       "median strong glimpse latency"),
    _m("glimpse_p99_ms", "ms", "lower", "api", "p99 strong glimpse latency"),
    _m("smkdir_p50_ms", "ms", "lower", "api", "median smkdir latency"),
    _m("failed_op_frac", "ratio", "lower", "api",
       "failed or refused ops over ops attempted"),
    # -- self time: a layer's wrapped-call time minus its child layers'
    _m("client.self_ms_per_op", "ms/op", "lower", "client",
       "time in the op not inside any wrapped layer (shell parsing and "
       "query evaluation outside CBAEngine.search) per timed op"),
    _m("tenant.self_ms_per_op", "ms/op", "lower", "core.tenant",
       "Tenant self time per timed op",
       [("write_p50_ms", "churn"), ("ops_per_s", "churn")]),
    _m("hacfs.self_ms_per_op", "ms/op", "lower", "core.hacfs",
       "HacFileSystem self time per timed op",
       [("ops_per_s", "andrew"), ("mkdir_p50_ms", "andrew")]),
    _m("journal.self_ms", "ms/op", "lower", "core.journal",
       "Journal.begin/commit self time per timed op",
       [("device_write_bytes_per_op", "andrew"), ("mkdir_p99_ms", "andrew"),
        ("ssync_p50_ms", "churn")]),
    _m("scheduler.self_ms_per_op", "ms/op", "lower", "core.scheduler",
       "MaintenanceScheduler.drain/barrier self time per timed op",
       [("ssync_p50_ms", "churn")]),
    _m("consistency.self_ms_per_ssync", "ms/ssync", "lower",
       "core.consistency",
       "ConsistencyManager self time per ssync",
       [("ssync_p50_ms", "churn"), ("ssync_p90_ms", "churn"),
        ("ssync_p50_ms", "library"), ("ssync_p90_ms", "library")]),
    _m("cba.self_ms_per_op", "ms/op", "lower", "cba",
       "CBAEngine (and replica) self time per timed op",
       [("glimpse_p50_ms", "library"), ("ops_per_s", "library")]),
    _m("segments.self_ms_per_op", "ms/op", "lower", "cba.segments",
       "SegmentStore.seal/compact self time per timed op",
       [("ssync_p50_ms", "churn"), ("ssync_p50_ms", "library")]),
    _m("vfs.self_ms_per_op", "ms/op", "lower", "vfs",
       "FileSystem.resolve self time per timed op",
       [("lookup_p50_ms", "andrew"), ("ssync_p50_ms", "churn")]),
    _m("blockdev.self_ms_per_op", "ms/op", "lower", "vfs.blockdev",
       "BlockDevice.write_record/read_record self time per timed op",
       [("device_write_bytes_per_op", "andrew")]),
    # -- core.tenant
    _m("tenant.quota_checks_per_op", "count/op", "lower", "core.tenant",
       "QuotaLedger.check/check_docs calls per timed op",
       [("write_p50_ms", "churn"), ("ops_per_s", "churn")]),
    # -- core.hacfs
    _m("hacfs.record_bytes_per_mkdir", "B/mkdir", "lower", "core.hacfs",
       "non-WAL write_record bytes inside HacFileSystem.mkdir, per mkdir",
       [("mkdir_p99_ms", "andrew"), ("device_write_bytes_per_op", "andrew")]),
    _m("hacfs.mkdir_bytes_slope", "ratio", "lower", "core.hacfs",
       "non-WAL record bytes per mkdir over the last tenth of the run's "
       "mkdirs divided by the first tenth (flat is 1.0)",
       [("mkdir_p99_ms", "andrew")]),
    # -- core.journal
    _m("journal.intents_per_op", "count/op", "lower", "core.journal",
       "journal intents begun per timed op",
       [("device_write_bytes_per_op", "andrew"), ("ssync_p50_ms", "churn")]),
    _m("journal.preimages_per_intent", "count", "lower", "core.journal",
       "pre-images captured per intent",
       [("device_write_bytes_per_op", "andrew"), ("mkdir_p99_ms", "andrew"),
        ("ssync_p50_ms", "churn")]),
    _m("journal.wal_bytes_per_op", "B/op", "lower", "core.journal",
       "WAL bytes per timed op",
       [("device_write_bytes_per_op", "andrew"), ("mkdir_p99_ms", "andrew"),
        ("ssync_p50_ms", "churn")]),
    _m("journal.wal_bytes_slope", "ratio", "lower", "core.journal",
       "WAL bytes per mkdir, last tenth of the mkdirs over the first tenth",
       [("mkdir_p99_ms", "andrew")]),
    # -- core.scheduler
    _m("scheduler.drain_ms", "ms", "lower", "core.scheduler",
       "total time in outermost MaintenanceScheduler.drain calls",
       [("ssync_p50_ms", "churn")]),
    _m("scheduler.drains", "count", "lower", "core.scheduler",
       "maintenance drains (sched.drains)", [("ssync_p50_ms", "churn")]),
    _m("scheduler.docs_per_drain", "count", "higher", "core.scheduler",
       "documents applied per drain", [("ssync_p50_ms", "churn")]),
    _m("scheduler.barrier_ms_per_glimpse", "ms/glimpse", "lower",
       "core.scheduler",
       "time in MaintenanceScheduler.barrier inside strong glimpses, per "
       "strong glimpse (about 0 on library)",
       [("glimpse_p99_ms", "churn")]),
    # -- core.consistency
    _m("consistency.reevaluations_per_ssync", "count", "lower",
       "core.consistency", "semantic-dir re-evaluations per ssync",
       [("ssync_p50_ms", "churn"), ("ssync_p90_ms", "churn"),
        ("ssync_p50_ms", "library"), ("ssync_p90_ms", "library")]),
    _m("consistency.reevaluations_per_ssync_per_view", "count", "lower",
       "core.consistency",
       "re-evaluations per ssync over the semantic-dir count (the scaling "
       "slope against the view count)",
       [("ssync_p50_ms", "churn")]),
    _m("consistency.useful_ratio", "ratio", "higher", "core.consistency",
       "re-evaluations whose link set changed over all re-evaluations",
       [("ssync_p50_ms", "churn"), ("ssync_p90_ms", "churn"),
        ("ssync_p50_ms", "library"), ("ssync_p90_ms", "library")]),
    # -- cba
    _m("cba.search_ms", "ms", "lower", "cba",
       "mean time per outermost CBAEngine.search call",
       [("glimpse_p50_ms", "library"), ("glimpse_p99_ms", "library"),
        ("smkdir_p50_ms", "library")]),
    _m("cba.docs_scanned_per_search", "count", "lower", "cba",
       "documents agrep-scanned per engine search",
       [("glimpse_p50_ms", "library"), ("glimpse_p99_ms", "library"),
        ("smkdir_p50_ms", "library")]),
    _m("cba.blocks_nominated_per_search", "count", "lower", "cba",
       "Glimpse blocks nominated per engine search",
       [("glimpse_p50_ms", "library"), ("glimpse_p99_ms", "library"),
        ("smkdir_p50_ms", "library")]),
    _m("cba.postings_answer_ratio", "ratio", "higher", "cba",
       "searches answered from doc-level postings over engine searches",
       [("glimpse_p50_ms", "library"), ("glimpse_p99_ms", "library"),
        ("smkdir_p50_ms", "library")]),
    _m("cba.cache_hit_ratio", "ratio", "higher", "cba",
       "result-cache hits over engine searches",
       [("glimpse_p50_ms", "library"), ("glimpse_p99_ms", "library"),
        ("smkdir_p50_ms", "library")]),
    _m("cba.snapshot_read_ms", "ms/glimpse", "lower", "cba",
       "time in snapshot_view and replica search per snapshot glimpse",
       [("ops_per_s", "library")]),
    _m("cba.tokenisations_per_changed_doc", "count", "lower", "cba",
       "engine tokenisations per content-changing op (write, rename, "
       "unlink)", [("ssync_p50_ms", "churn")]),
    _m("cba.index_bytes_per_corpus_byte", "ratio", "lower", "cba",
       "engine index size over indexed corpus bytes at the end",
       [("stored_bytes_per_user_byte", "library")]),
    # -- cba.segments
    _m("segments.rows_rewritten_per_row_noted", "ratio", "lower",
       "cba.segments", "rows sealed plus rows compacted over rows noted",
       [("ssync_p50_ms", "churn"), ("ssync_p50_ms", "library"),
        ("device_write_bytes_per_op", "churn"),
        ("device_write_bytes_per_op", "library")]),
    _m("segments.seal_ms", "ms", "lower", "cba.segments",
       "mean time per SegmentStore.seal call",
       [("ssync_p50_ms", "churn"), ("ssync_p50_ms", "library")]),
    _m("segments.compact_ms", "ms", "lower", "cba.segments",
       "mean time per SegmentStore.compact call",
       [("ssync_p50_ms", "churn"), ("ssync_p50_ms", "library")]),
    # -- vfs (filesystem, pathmap, attrcache)
    _m("vfs.resolve_ms", "ms", "lower", "vfs",
       "mean time per outermost FileSystem.resolve call",
       [("lookup_p50_ms", "andrew"), ("ssync_p50_ms", "churn")]),
    _m("vfs.namei_per_op", "count/op", "lower", "vfs",
       "path resolutions (vfs.namei) per timed op",
       [("lookup_p50_ms", "andrew"), ("ssync_p50_ms", "churn")]),
    _m("vfs.pathmap_hit_ratio", "ratio", "higher", "vfs",
       "path-map hits over lookups",
       [("lookup_p50_ms", "andrew"), ("ssync_p50_ms", "churn")]),
    _m("vfs.attrcache_hit_ratio", "ratio", "higher", "vfs",
       "attribute-cache hits over lookups", [("lookup_p50_ms", "andrew")]),
    # -- vfs.blockdev
    _m("blockdev.record_writes_per_op", "count/op", "lower", "vfs.blockdev",
       "write_record calls per timed op",
       [("device_write_bytes_per_op", w) for w in ALL]),
    _m("blockdev.record_bytes_per_op", "B/op", "lower", "vfs.blockdev",
       "write_record payload bytes (WAL included) per timed op",
       [("device_write_bytes_per_op", w) for w in ALL]),
    _m("blockdev.write_record_ms", "ms", "lower", "vfs.blockdev",
       "mean time per outermost BlockDevice.write_record call",
       [("device_write_bytes_per_op", w) for w in ALL]),
    _m("blockdev.used_bytes", "B", "lower", "vfs.blockdev",
       "device used bytes at the end of the run",
       [("stored_bytes_per_user_byte", w) for w in ALL]),
    # -- the benchmark itself
    _m("bench.trace_overhead_frac", "ratio", "lower", "bench",
       "traced timed-phase wall time over the untraced pass's, minus 1"),
    # -- the paper's reference rows (report only)
    _m("paper.andrew_makedir_ratio", "ratio", "lower", "paper",
       "HAC / plain VFS Makedir seconds on andrew (paper Table 1: 2.0)"),
    _m("paper.andrew_copy_ratio", "ratio", "lower", "paper",
       "HAC / plain VFS Copy seconds (paper: 1.8)"),
    _m("paper.andrew_scan_ratio", "ratio", "lower", "paper",
       "HAC / plain VFS Scan seconds (paper: 1.6)"),
    _m("paper.andrew_read_ratio", "ratio", "lower", "paper",
       "HAC / plain VFS Read seconds (paper: 1.75)"),
    _m("paper.andrew_make_ratio", "ratio", "lower", "paper",
       "HAC / plain VFS Make seconds (paper: 1.16)"),
    _m("paper.andrew_total_ratio", "ratio", "lower", "paper",
       "HAC / plain VFS total seconds (paper: 1.5)"),
    _m("paper.index_time_overhead", "ratio", "lower", "paper",
       "library's first ssync over a bare CBAEngine indexing the same "
       "corpus, minus 1 (paper Table 3: 0.27)"),
    _m("paper.index_space_overhead", "ratio", "lower", "paper",
       "HAC index plus metadata bytes over the bare engine's index bytes, "
       "minus 1 (paper Table 3: 0.15)"),
]
