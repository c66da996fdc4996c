"""Ablation G — recovery cost: rebuild the index vs restore the persisted one.

Real Glimpse persists its index files; recovery then costs whatever changed
since they were written rather than a full re-read of the corpus.  HAC
persists its index as a segment list inside every ``reindex`` and
maintenance drain, with no explicit save step.  This ablation measures
both recovery paths for the same HAC file system, plus the two
costs the write-ahead intent journal introduces: replaying an interrupted
intent on restore, and the steady-state write amplification of journaling
every multi-structure mutation.
"""

import pytest

from repro.bench.harness import (BenchResult, merge_breakdowns, report,
                                 time_call)
from repro.core.hacfs import HacFileSystem
from repro.errors import DeviceCrashed
from repro.obs import Observability
from repro.vfs.blockdev import FaultPlan
from repro.workloads.corpus import CorpusConfig, CorpusGenerator

N_FILES = 600


def build():
    gen = CorpusGenerator(CorpusConfig(n_files=N_FILES, words_per_file=120,
                                       dirs=12, seed=77))
    hac = HacFileSystem()
    gen.populate(hac, "/db")
    hac.clock.tick()
    hac.ssync("/")
    hac.smkdir("/q", "data OR file")
    return hac


@pytest.mark.benchmark(group="ablation-recovery")
def test_rebuild_vs_restore(benchmark, record_report, record_json):
    def run(repetitions=2):
        rebuild_s = restore_s = None
        rebuild_spans = restore_spans = None
        for _ in range(repetitions):
            cold = build()
            obs = Observability(enabled=True)
            secs, revived = time_call(
                lambda: HacFileSystem.restore(cold.fs, reuse_index=False,
                                              obs=obs))
            rebuild_retokenised = revived.counters.get("engine.indexed")
            rebuild_spans = obs.trace.breakdown()
            rebuild_s = secs if rebuild_s is None else min(rebuild_s, secs)

            warm = build()
            dev = warm.fs.device
            seg_bytes = sum(len(dev.read_record(key))
                            for key in dev.record_keys()
                            if key.startswith("seg:"))
            obs = Observability(enabled=True)
            secs, revived = time_call(
                lambda: HacFileSystem.restore(warm.fs, obs=obs))
            restore_spans = obs.trace.breakdown()
            restore_s = secs if restore_s is None else min(restore_s, secs)
            retokenised = revived.counters.get("engine.indexed")
            from_segments = revived.counters.get(
                "restore.index_from_segments")
        return (rebuild_s, restore_s, seg_bytes, retokenised,
                rebuild_retokenised, from_segments, rebuild_spans,
                restore_spans)

    (rebuild_s, restore_s, seg_bytes, retokenised, rebuild_retokenised,
     from_segments, rebuild_spans, restore_spans) = benchmark.pedantic(
        run, rounds=1, iterations=1, warmup_rounds=1)

    results = [
        BenchResult("corpus files", N_FILES),
        BenchResult("recovery by full rebuild s", rebuild_s,
                    spans=rebuild_spans),
        BenchResult("recovery from persisted segments s", restore_s,
                    spans=restore_spans),
        BenchResult("rebuild / restore", rebuild_s / restore_s),
        BenchResult("persisted seg: record bytes", seg_bytes),
        BenchResult("docs re-tokenised on restore", retokenised),
        BenchResult("docs re-tokenised on rebuild", rebuild_retokenised),
    ]
    record_report(report("Ablation G: recovery — rebuild vs persisted "
                         "segments", results))
    record_json("ablation_recovery", results,
                spans=merge_breakdowns(rebuild_spans, restore_spans))

    # the persisted segments win because folding them skips re-tokenising
    # the corpus; asserted on counts, which cannot flake (the wall times
    # above are reported only)
    assert from_segments == 1, "restore must fold the persisted segments"
    assert retokenised == 0, "restore must not re-read unchanged documents"
    assert rebuild_retokenised >= N_FILES, (
        f"a rebuild must re-tokenise the whole corpus, got "
        f"{rebuild_retokenised} of {N_FILES}")


@pytest.mark.benchmark(group="ablation-recovery")
def test_journal_replay_and_write_amplification(benchmark, record_report,
                                                record_json):
    def run():
        # -- crash replay: restore with one interrupted intent in the wal --
        crashed = build()
        dev = crashed.fs.device
        dev.set_fault_plan(FaultPlan(crash_at=dev.record_write_index + 4))
        try:
            crashed.smkdir("/crashq", "data")
        except DeviceCrashed:
            pass
        obs = Observability(enabled=True)
        replay_s, revived = time_call(
            lambda: HacFileSystem.restore(crashed.fs, obs=obs))
        replay_spans = obs.trace.breakdown()
        rolled_back = len(revived.last_recovery.rolled_back)

        clean = build()
        clean_s, _ = time_call(lambda: HacFileSystem.restore(clean.fs))

        # -- steady-state WAL write amplification over journaled mutations --
        hac = build()
        c, dev = hac.counters, hac.fs.device
        begins0 = c.get("journal.begins")
        pre0 = c.get("journal.preimages")
        ops0 = dev.record_write_index
        for i in range(30):
            hac.mkdir(f"/m{i}")
            hac.set_query("/q", "file" if i % 2 else "data OR file")
        wal_writes = (c.get("journal.begins") - begins0) \
            + (c.get("journal.preimages") - pre0)
        total_ops = dev.record_write_index - ops0
        # every committed wal record costs a write and a GC delete, and both
        # consume a record-op index; the rest is payload
        payload_writes = total_ops - 2 * wal_writes
        amplification = total_ops / payload_writes
        return (replay_s, clean_s, rolled_back, wal_writes, payload_writes,
                amplification, replay_spans)

    (replay_s, clean_s, rolled_back, wal_writes, payload_writes,
     amplification, replay_spans) = benchmark.pedantic(
        run, rounds=1, iterations=1, warmup_rounds=1)

    results = [
        BenchResult("restore with wal replay s", replay_s,
                    spans=replay_spans),
        BenchResult("restore with empty wal s", clean_s),
        BenchResult("intents rolled back", rolled_back),
        BenchResult("wal record writes", wal_writes),
        BenchResult("payload record writes", payload_writes),
        BenchResult("record write amplification", amplification),
    ]
    record_report(report("Ablation G2: journal — replay cost and "
                         "write amplification", results))
    record_json("ablation_journal", results, spans=replay_spans)

    assert rolled_back == 1, "the interrupted intent must be rolled back"
    assert amplification <= 4.0, (
        f"WAL steady-state write amplification regressed: {amplification:.2f}x "
        f"({wal_writes} wal writes for {payload_writes} payload writes)")
