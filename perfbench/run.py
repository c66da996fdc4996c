"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload andrew --seed 1 --seconds 5 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing: it builds
the world at least three times (``setup_s`` is their median), then runs
the workload's timed part on fresh worlds until ``--seconds`` of timed
wall time have passed (at least once), pooling the samples.

``--trace 1`` runs the timed part twice on fresh worlds, first untraced,
then with spans around every layer, checks that the program's
deterministic counters agree exactly between the two, and reports the
per-layer split plus the paper's reference rows.

Every line but the last is for people; the last is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
0 only when every correctness check passed.  Spans and a full report go
to ``.perfbench_out/`` under the current directory.

The run re-executes itself once with ``PYTHONHASHSEED=0``, so the same
seed gives the same inputs and the same deterministic counters in every
process.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = ".perfbench_out"
#: set-ups per untraced run; setup_s is their median
SETUP_SAMPLES = 3
HASH_SEED = "0"


def _import_workloads():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    from andrew import Andrew
    from churn import Churn
    from library import Library

    return {w.name: w for w in (Andrew, Library, Churn)}


def _check_declaration(catalogue) -> list:
    """Names, units and directions must match BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        declared = json.load(f)
    problems = []
    for section, ours in (("end_to_end", catalogue.END_TO_END),
                          ("per_layer", catalogue.PER_LAYER)):
        theirs = [{k: m[k] for k in ("name", "unit", "better")}
                  for m in declared[section]]
        mine = [{k: m[k] for k in ("name", "unit", "better")} for m in ours]
        if theirs != mine:
            problems.append(f"{section} differs from perfbench/catalogue.py")
    names = sorted(w["name"] for w in declared["workloads"])
    if names != sorted(catalogue.WORKLOADS):
        problems.append("workloads differ from perfbench/catalogue.py")
    return problems


# ----------------------------------------------------------------------
# one pass: set up, run the timed part, check
# ----------------------------------------------------------------------

class Pass:
    """What one timed pass over a fresh world measured."""

    def __init__(self, workload, world, client, meters, failures):
        hac = world.hac
        device = hac.fs.device
        self.client = client
        #: what the workload noted about its world (phase results, ...)
        self.out = world.out
        self.meters = meters.counts()
        self.mkdir_bytes = list(meters.mkdir_bytes)
        self.failures = failures
        self.changed_docs = workload.changed_docs(client)
        record_blocks_bytes = -(-device.record_bytes // device.block_size) \
            * device.block_size
        self.used_bytes = device.used_bytes
        self.stored_bytes = (device.used_bytes - record_blocks_bytes
                             + device.record_bytes)
        from repro.vfs.walker import iter_files

        self.user_bytes = sum(len(node.data)
                              for _p, node in iter_files(hac.fs, "/"))
        engine = hac.engine
        self.index_bytes = engine.index_size_bytes()
        self.corpus_bytes = engine.corpus_bytes()
        self.semdirs = len(hac.semantic_dirs())
        self.block_size = device.block_size

    def deterministic(self) -> dict:
        """Counters that must repeat exactly for the same inputs."""
        out = {f"counter.{k}": v for k, v in self.client.counter_delta.items()}
        out.update({f"meter.{k}": v for k, v in self.meters.items()})
        out["meter.mkdir_bytes"] = self.mkdir_bytes
        return out

    def device_write_bytes(self) -> float:
        data_blocks = (self.client.counter_delta.get("blockdev.write_blocks", 0)
                       - self.meters.get("record_blocks", 0))
        return (data_blocks * self.block_size
                + self.meters.get("data_record_bytes", 0)
                + self.meters.get("wal_record_bytes", 0))


def run_pass(workload, world, speed, detailed: bool,
             recorder=None) -> Pass:
    from client import Client
    from spans import Meters

    meters = Meters()
    meters.install(world, detailed)
    if recorder is not None:
        recorder.wrap_world(world)
    client = Client(world.hac.counters, speed, recorder)
    gc.collect()
    failures = []
    client.start()
    try:
        workload.run(world, client)
    except Exception as exc:  # a failed op aborts the pass; report it
        failures.append(f"{workload.name}: aborted: {exc!r}")
    client.stop()
    result = Pass(workload, world, client, meters, failures)
    if not failures:
        failures.extend(workload.check(world))
    failures.extend(client.errors)
    return result


def build(workload, speed):
    """Set up a world; returns it with the set-up time as measured and at
    the reference speed (each set-up step scaled like a timed op)."""
    from client import Client

    gc.collect()
    client = Client(None, speed)
    client.start()
    world = workload.setup(client)
    client.stop()
    if client.errors:
        raise RuntimeError(f"set-up failed: {client.errors[:3]}")
    return world, (client.wall, client.scaled_wall())


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------

def _ms(values, pct):
    from client import percentile

    if pct == 50 and len(values) >= 20:
        return statistics.median(values) * 1000.0
    value = percentile(values, pct)
    return None if value is None else value * 1000.0


def _pooled(passes, kind):
    return [v for p in passes for v in p.client.samples.get(kind, ())]


def op_latencies(passes) -> dict:
    """The per-op-kind latencies and failure fraction, where they apply."""
    out = {}
    for kind, pcts in (("mkdir", (50, 99)), ("write", (50, 99)),
                       ("lookup", (50,)), ("ssync", (50, 90)),
                       ("glimpse", (50, 99)), ("smkdir", (50,))):
        for pct in pcts:
            out[f"{kind}_p{pct}_ms"] = _ms(_pooled(passes, kind), pct)
    attempted = sum(p.client.attempted for p in passes)
    out["failed_op_frac"] = sum(p.client.failed for p in passes) / attempted
    return out


def end_to_end(workload, passes, setups, scaled: bool) -> dict:
    """The bounded metrics, with times at the reference speed (*scaled*)
    or as measured."""
    kind = workload.key_op
    attempted = sum(p.client.attempted for p in passes)
    done = attempted - sum(p.client.failed for p in passes)
    last = passes[-1]
    if scaled:
        key = [v for p in passes for v in p.client.scaled[kind]]
        wall = sum(p.client.scaled_wall() for p in passes)
    else:
        key = [v for p in passes for v in p.client.samples[kind]]
        wall = sum(p.client.wall for p in passes)
    return {
        "setup_s": statistics.median(s[scaled] for s in setups),
        "ops_per_s": done / wall,
        "key_op_mean_ms": _mean(key) * 1000.0,
        "device_write_bytes_per_op":
            sum(p.device_write_bytes() for p in passes) / attempted,
        "stored_bytes_per_user_byte": last.stored_bytes / last.user_bytes,
        "peak_rss_mb": peak_rss_mb(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _div(a, b) -> float:
    return a / b if b else 0.0


def _mean(values) -> float:
    return sum(values) / len(values) if values else 0.0


def per_layer(untraced: Pass, traced: Pass, recorder, reference) -> dict:
    from spans import slope

    c = traced.client.counter_delta
    m = traced.meters
    ops = traced.client.attempted
    kinds = traced.client.samples
    ssyncs = len(kinds.get("ssync", ()))
    strong = len(kinds.get("glimpse", ()))
    snapshot = len(kinds.get("glimpse_snapshot", ()))
    searches = c.get("engine.searches", 0)
    self_ms = recorder.self_ms()
    reevals = c.get("consistency.reevaluations", 0)
    out = {k: (v or 0.0) for k, v in op_latencies([untraced]).items()}
    out.update({
        "client.self_ms_per_op": _div(self_ms["client"], ops),
        "tenant.self_ms_per_op": _div(self_ms["tenant"], ops),
        "hacfs.self_ms_per_op": _div(self_ms["hacfs"], ops),
        "journal.self_ms": _div(self_ms["journal"], ops),
        "scheduler.self_ms_per_op": _div(self_ms["scheduler"], ops),
        "consistency.self_ms_per_ssync":
            _div(self_ms["consistency"], ssyncs),
        "cba.self_ms_per_op": _div(self_ms["cba"], ops),
        "segments.self_ms_per_op": _div(self_ms["segments"], ops),
        "vfs.self_ms_per_op": _div(self_ms["vfs"], ops),
        "blockdev.self_ms_per_op": _div(self_ms["blockdev"], ops),
        "tenant.quota_checks_per_op": _div(m.get("quota_checks", 0), ops),
        "hacfs.record_bytes_per_mkdir":
            _mean([b for b, _w in traced.mkdir_bytes]),
        "hacfs.mkdir_bytes_slope": slope([b for b, _w in traced.mkdir_bytes]),
        "journal.intents_per_op": _div(c.get("journal.begins", 0), ops),
        "journal.preimages_per_intent":
            _div(c.get("journal.preimages", 0), c.get("journal.begins", 0)),
        "journal.wal_bytes_per_op": _div(c.get("journal.wal_bytes", 0), ops),
        "journal.wal_bytes_slope": slope([w for _b, w in traced.mkdir_bytes]),
        "scheduler.drain_ms":
            sum(recorder.calls("MaintenanceScheduler.drain")),
        "scheduler.drains": c.get("sched.drains", 0),
        "scheduler.docs_per_drain":
            _div(c.get("sched.drained_docs", 0), c.get("sched.drains", 0)),
        "scheduler.barrier_ms_per_glimpse": _div(recorder.ms_under_ops(
            ("MaintenanceScheduler.barrier",), ("glimpse",)), strong),
        "consistency.reevaluations_per_ssync": _div(reevals, ssyncs),
        "consistency.reevaluations_per_ssync_per_view":
            _div(_div(reevals, ssyncs), traced.semdirs),
        "consistency.useful_ratio":
            _div(m.get("useful_reevaluations", 0), m.get("reevaluations", 0)),
        "cba.search_ms": _mean(recorder.calls("CBAEngine.search")),
        "cba.docs_scanned_per_search":
            _div(c.get("engine.docs_scanned", 0), searches),
        "cba.blocks_nominated_per_search":
            _div(c.get("glimpse.blocks_nominated", 0), searches),
        "cba.postings_answer_ratio":
            _div(c.get("engine.postings_answers", 0), searches),
        "cba.cache_hit_ratio": _div(c.get("engine.cache_hits", 0), searches),
        "cba.snapshot_read_ms": _div(recorder.ms_under_ops(
            ("CBAEngine.snapshot_view", "ReadReplica.search"),
            ("glimpse_snapshot",)), snapshot),
        "cba.tokenisations_per_changed_doc":
            _div(c.get("engine.tokenisations", 0), traced.changed_docs),
        "cba.index_bytes_per_corpus_byte":
            _div(traced.index_bytes, traced.corpus_bytes),
        "segments.rows_rewritten_per_row_noted":
            _div(c.get("segments.sealed_rows", 0)
                 + c.get("segments.compacted_rows", 0),
                 c.get("segments.noted", 0)),
        "segments.seal_ms": _mean(recorder.calls("SegmentStore.seal")),
        "segments.compact_ms": _mean(recorder.calls("SegmentStore.compact")),
        "vfs.resolve_ms": _mean(recorder.calls("FileSystem.resolve")),
        "vfs.namei_per_op": _div(c.get("vfs.namei", 0), ops),
        "vfs.pathmap_hit_ratio": _div(
            c.get("pathmap.hit", 0),
            c.get("pathmap.hit", 0) + c.get("pathmap.miss", 0)),
        "vfs.attrcache_hit_ratio": _div(
            c.get("attrcache.hit", 0),
            c.get("attrcache.hit", 0) + c.get("attrcache.miss", 0)),
        "blockdev.record_writes_per_op": _div(m.get("record_writes", 0), ops),
        "blockdev.record_bytes_per_op": _div(
            m.get("data_record_bytes", 0) + m.get("wal_record_bytes", 0),
            ops),
        "blockdev.write_record_ms":
            _mean(recorder.calls("BlockDevice.write_record")),
        "blockdev.used_bytes": traced.used_bytes,
        "bench.trace_overhead_frac":
            traced.client.wall / untraced.client.wall - 1.0,
    })
    out.update(reference)
    return out


def paper_rows(workload, untraced: Pass) -> dict:
    """Table 1 and Table 3 reference rows (0 where they do not apply)."""
    from andrew import Andrew
    from client import Client, Speed
    from library import Library

    out = {f"paper.andrew_{p}_ratio": 0.0
           for p in ("makedir", "copy", "scan", "read", "make", "total")}
    out["paper.index_time_overhead"] = 0.0
    out["paper.index_space_overhead"] = 0.0
    if isinstance(workload, Andrew):
        hac = dict(untraced.client.phases)
        vfs = workload.reference(lambda counters: Client(counters, Speed()))
        hac["total"] = sum(hac.values())
        vfs["total"] = sum(vfs.values())
        for phase in hac:
            out[f"paper.andrew_{phase}_ratio"] = _div(hac[phase], vfs[phase])
    elif isinstance(workload, Library):
        built = untraced.out
        out["paper.index_time_overhead"] = _div(
            built["index_s"], built["ref_index_s"]) - 1.0
        out["paper.index_space_overhead"] = _div(
            built["index_bytes"], built["ref_index_bytes"]) - 1.0
    return out


# ----------------------------------------------------------------------
# the two kinds of run
# ----------------------------------------------------------------------

def timed_run(workload, seconds: float):
    from client import Speed

    speed = Speed()
    setups, passes = [], []
    while True:
        world, setup_s = build(workload, speed)
        setups.append(setup_s)
        if not passes and len(setups) < SETUP_SAMPLES:
            del world
            continue
        passes.append(run_pass(workload, world, speed, detailed=False))
        del world
        if passes[-1].failures or \
                sum(p.client.wall for p in passes) >= seconds:
            break
    metrics = end_to_end(workload, passes, setups, scaled=True)
    for name, value in metrics.items():
        if value is None:
            passes[-1].failures.append(f"{name}: too few samples")
    raw = end_to_end(workload, passes, setups, scaled=False)
    report = dict(metrics, **op_latencies(passes), setups=len(setups),
                  passes=len(passes), speed_factor=speed.factor(),
                  **{f"unscaled.{k}": v for k, v in raw.items()})
    return passes, metrics, report


def traced_run(workload, name: str, seed: int):
    from client import Speed
    from spans import SpanRecorder

    speed = Speed()
    world, _s = build(workload, speed)
    untraced = run_pass(workload, world, speed, detailed=True)
    del world
    world, _s = build(workload, speed)
    recorder = SpanRecorder()
    traced = run_pass(workload, world, speed, detailed=True,
                      recorder=recorder)
    del world
    failures = traced.failures
    a, b = untraced.deterministic(), traced.deterministic()
    if a != b:
        diff = sorted(k for k in set(a) | set(b) if a.get(k) != b.get(k))
        failures.append(f"trace: deterministic counters differ between the "
                        f"untraced and traced pass: {diff[:8]}")
    metrics = per_layer(untraced, traced, recorder,
                        paper_rows(workload, untraced))
    os.makedirs(OUT_DIR, exist_ok=True)
    spans = recorder.dump(os.path.join(OUT_DIR,
                                       f"spans-{name}-seed{seed}.bin.gz"))
    report = dict(metrics, spans=spans,
                  untraced_wall_s=untraced.client.wall,
                  traced_wall_s=traced.client.wall,
                  counters=traced.client.counter_delta)
    return [untraced, traced], metrics, report


def inputs_digest(workload) -> str:
    return hashlib.sha256(repr(workload.inputs()).encode("utf-8")).hexdigest()


def main(argv=None) -> int:
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # str hashes order sets and dicts of paths, which steers caches and
        # counters; a fixed hash seed makes a run repeat exactly (the
        # process replaces itself, it starts no other)
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        os.execv(sys.executable, [sys.executable, os.path.abspath(__file__)]
                 + (sys.argv[1:] if argv is None else list(argv)))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        workloads = _import_workloads()
        import catalogue
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    problems = _check_declaration(catalogue)
    if args.workload not in workloads:
        problems.append(f"unknown workload {args.workload!r}")
    if problems:
        for problem in problems:
            print(f"perfbench: {problem}", file=sys.stderr)
        return 2

    workload = workloads[args.workload](args.seed)
    digest = inputs_digest(workload)
    if args.trace:
        passes, metrics, report = traced_run(workload, args.workload,
                                             args.seed)
        declared = catalogue.PER_LAYER
    else:
        passes, metrics, report = timed_run(workload, args.seconds)
        declared = catalogue.END_TO_END
    failures = [f for p in passes for f in p.failures]
    attempted = passes[-1].client.attempted if args.trace else \
        sum(p.client.attempted for p in passes)
    failed = passes[-1].client.failed if args.trace else \
        sum(p.client.failed for p in passes)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"inputs sha256 {digest[:16]}")
    print("times: wall time of a Python simulation in a sandbox, taken at the "
          "public call boundary; bounded (--trace 0) times are scaled to the "
          "reference speed; block device: default write-through policy")
    units = {m["name"]: m["unit"] for m in
             catalogue.END_TO_END + catalogue.PER_LAYER}
    for name, value in report.items():
        if isinstance(value, dict):
            continue  # in the report file only
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:44s} {shown:>14s} {units.get(name, '')}")
    for failure in failures:
        print(f"CHECK FAILED {failure}")

    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"report-{args.workload}-seed{args.seed}"
                           f"-trace{args.trace}.json"), "w") as f:
        json.dump(dict(report, failures=failures, inputs_sha256=digest), f,
                  indent=1, sort_keys=True)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]] or 0.0,
                                "unit": m["unit"]} for m in declared},
    }
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
