"""Ablation L — serving latency: barrier reads vs snapshot reads.

PR 5's batched maintenance made writes cheap but left every query behind
a pre-query barrier: a read arriving after a burst of writes first pays
to drain the whole pending batch.  The serving tier decouples them —
queries read the last *published* snapshot with zero barrier — and this
ablation measures what that buys under concurrent load.

An open-loop traffic generator (``repro.bench.serving``) schedules
Poisson arrivals across several sessions with a configurable read/write
mix and plays them through a single-server queue.  Service times are
*virtual*: deterministic work counters (device ops, tokenisations, docs
scanned) converted to milliseconds at fixed weights, so every asserted
ratio is pinned to counters and reproducible bit-for-bit.  Wall time for
the whole experiment is reported but never asserted (the PR 3 deflake
convention).

Asserted shape, for the monolith and a K=3 cluster:

* snapshot-mode reads perform **zero** scheduler drains (the counter, not
  a timing artefact);
* barrier-mode read p99 is at least **5x** snapshot-mode read p99 under
  the same write load — the barrier convoy collapses the tail while the
  snapshot path stays flat;
* both modes answer the probe queries identically once settled (the
  equivalence property suite covers the full interleaving space).
"""

import pytest

from repro.bench.harness import BenchResult, report, time_call
from repro.bench.serving import (CostMeter, ServingConfig, poisson_schedule,
                                 simulate, summarize)
from repro.cba.queryparser import parse_query
from repro.cluster import ClusterFactory
from repro.core.hacfs import HacFileSystem
from repro.shell.session import HacShell
from repro.workloads.mailgen import MailGenerator

SEED_DOCS = 24            # settled corpus before the open-loop phase
LIVE_DOCS = 16            # rotating hot files the write stream rewrites
QUERIES = ["fingerprint", "project", "fingerprint AND project",
           "budget OR deadline", "glimpse AND NOT lunch"]


def build_world(backend: str) -> HacShell:
    factory = (ClusterFactory(shards=3, latency=0.0)
               if backend == "cluster" else None)
    shell = HacShell(HacFileSystem(backend=factory))
    hac = shell.hacfs
    hac.makedirs("/mail")
    gen = MailGenerator()
    for index in range(SEED_DOCS):
        hac.write_file(f"/mail/msg{index:04d}.txt",
                       gen.render(index).encode("utf-8"))
    hac.clock.tick()
    hac.ssync("/")
    hac.watch("/mail")
    hac.maintenance.set_mode("batched")
    return shell


def replica_counters(hac):
    """Replica-side counters, wherever replicas live (they attach lazily,
    so this is re-evaluated per measurement)."""
    engine = hac.engine
    shards = getattr(engine, "shards", None)
    if shards is not None:
        return [replica.counters for shard in shards.values()
                for replica in shard.engine.replicas]
    return [replica.counters for replica in engine.replicas]


def run_serving(shell: HacShell, consistency: str, config: ServingConfig):
    """Play one open-loop schedule; returns (samples, read-drain count)."""
    hac = shell.hacfs
    gen = MailGenerator()
    meter = CostMeter(lambda: [hac.counters] + replica_counters(hac))
    state = {"reads": 0, "writes": 0, "read_drains": 0.0}

    def execute(kind: str):
        if kind == "read":
            query = QUERIES[state["reads"] % len(QUERIES)]
            state["reads"] += 1
            before = hac.counters.get("sched.drains")
            hits = shell.glimpse(query, consistency=consistency)
            state["read_drains"] += hac.counters.get("sched.drains") - before
            return hits
        index = state["writes"]
        state["writes"] += 1
        hac.clock.tick()
        text = gen.render(SEED_DOCS + index) + f"revision {index}\n"
        return shell.write(f"/mail/live{index % LIVE_DOCS}.txt", text)

    samples = simulate(poisson_schedule(config), execute, meter)
    return samples, state["read_drains"]


def settled_answers(shell: HacShell):
    shell.hacfs.maintenance.barrier()
    return [shell.hacfs.engine.search(parse_query(q)).to_bytes()
            for q in QUERIES]


@pytest.mark.benchmark(group="serving")
def test_snapshot_reads_flatten_the_tail(benchmark, record_report,
                                         record_json, scale):
    config = ServingConfig(rate_per_s=200.0, duration_s=4.0 * scale,
                           read_fraction=0.75, sessions=4, seed=0)

    def run():
        out = {}
        for backend in ("monolith", "cluster"):
            per_mode = {}
            for consistency in ("strong", "snapshot"):
                shell = build_world(backend)
                secs, (samples, read_drains) = time_call(
                    lambda: run_serving(shell, consistency, config))
                per_mode[consistency] = {
                    "summary": summarize(samples),
                    "read_drains": read_drains,
                    "wall_s": secs,
                    "answers": settled_answers(shell),
                }
            out[backend] = per_mode
        return out

    measured = benchmark.pedantic(run, rounds=1, iterations=1)

    results = [BenchResult("arrival rate /s", config.rate_per_s),
               BenchResult("read fraction", config.read_fraction),
               BenchResult("sessions", config.sessions)]
    ratios = {}
    for backend, per_mode in measured.items():
        strong = per_mode["strong"]
        snap = per_mode["snapshot"]
        s_reads = strong["summary"]["read"]
        z_reads = snap["summary"]["read"]

        # --- correctness: both modes settle to identical answers ---------
        assert strong["answers"] == snap["answers"], backend

        # --- deterministic guards (counters, never wall time) ------------
        assert snap["read_drains"] == 0, (
            f"{backend}: snapshot reads must never drain "
            f"(saw {snap['read_drains']})")
        assert strong["read_drains"] > 0, (
            f"{backend}: barrier reads should be paying for drains — "
            f"the workload lost its contention")
        ratio = s_reads["p99_ms"] / max(z_reads["p99_ms"], 1e-9)
        ratios[backend] = ratio
        assert ratio >= 5.0, (
            f"{backend}: barrier-mode read p99 {s_reads['p99_ms']:.3f}ms is "
            f"only {ratio:.1f}x snapshot-mode {z_reads['p99_ms']:.3f}ms "
            f"(need >= 5x)")

        for mode, summary in (("barrier", s_reads), ("snapshot", z_reads)):
            results.extend([
                BenchResult(f"{backend} {mode} read p50", summary["p50_ms"],
                            unit="ms"),
                BenchResult(f"{backend} {mode} read p99", summary["p99_ms"],
                            unit="ms"),
                BenchResult(f"{backend} {mode} read p999",
                            summary["p999_ms"], unit="ms"),
            ])
        results.extend([
            BenchResult(f"{backend} p99 ratio (>= 5)", ratio),
            BenchResult(f"{backend} barrier read drains",
                        strong["read_drains"]),
            BenchResult(f"{backend} snapshot read drains",
                        snap["read_drains"]),
            BenchResult(f"{backend} snapshot saturation ops/s",
                        snap["summary"]["all"]["saturation_ops_per_s"]),
            BenchResult(f"{backend} barrier wall s", strong["wall_s"],
                        unit="s"),
            BenchResult(f"{backend} snapshot wall s", snap["wall_s"],
                        unit="s"),
        ])

    record_report(report("Ablation L: serving latency "
                         "(barrier vs snapshot reads)", results))
    record_json("serving", results, extra={
        "config": dict(config._asdict()),
        "p99_ratio": ratios,
        "latency_ms": {
            backend: {mode: {k: v for k, v in
                             per_mode[c]["summary"].items()}
                      for mode, c in (("barrier", "strong"),
                                      ("snapshot", "snapshot"))}
            for backend, per_mode in measured.items()},
    })
