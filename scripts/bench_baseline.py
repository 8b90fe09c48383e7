#!/usr/bin/env python
"""Measure engine hot-path wall-clock throughput -> BENCH_engine.json.

Unlike the paper experiments (virtual time, deterministic), these
numbers are *host* throughput of the Python engine itself — the thing
the fast-lane optimizations target. Run before and after an engine
change and compare:

    PYTHONPATH=src python scripts/bench_baseline.py          # writes BENCH_engine.json
    PYTHONPATH=src python scripts/bench_baseline.py out.json # custom path

The JSON maps benchmark name -> ops/sec, plus host metadata.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time

from repro.bench.keygen import format_key
from repro.hardware.profile import make_profile
from repro.lsm.db import DB
from repro.lsm.iterator import memtable_source, merge_sources, user_view
from repro.lsm.options import Options
from repro.lsm.skiplist import SkipList
from repro.lsm.sstable import ReadStats

VALUE = b"v" * 100


def _open_db(path: str) -> DB:
    return DB.open(
        path,
        Options({"write_buffer_size": 64 * 1024,
                 "bloom_filter_bits_per_key": 10.0}),
        profile=make_profile(4, 8),
    )


def bench_put(n: int = 8000, repeats: int = 3) -> float:
    """Best-of-``repeats`` fillrandom throughput.

    The write path is the engine's hottest loop and the one the fast-lane
    work targets; best-of-N filters scheduler noise on shared hosts the
    same way hyperfine's min does.
    """
    best = 0.0
    for r in range(repeats):
        db = DB.open(f"/bench-baseline-put-{r}",
                     Options({"write_buffer_size": 256 * 1024}),
                     profile=make_profile(4, 8))
        start = time.perf_counter()
        for i in range(n):
            db.put(format_key(i * 7919 % 100_000), VALUE)
        elapsed = time.perf_counter() - start
        db.close()
        best = max(best, n / elapsed)
    return best


def bench_fillrandom_sustained(
    n: int = 30_000, min_compactions: int = 8
) -> dict[str, float]:
    """Compaction-heavy sustained fill, inline vs the parallel executors.

    A small write buffer over a narrow key range keeps compaction debt
    building for the whole run (the regime the background pipeline
    targets). Two numbers per executor mode:

    * ``wall``  — ops/sec over wall-clock, ``close()`` included: the
      window ends only once close has joined every leftover background
      job, so a mode is not credited with work it has not finished. On
      a multi-core host the parallel modes can pull ahead here; on a
      single-core container (CI) total work is conserved and wall stays
      flat.
    * ``fg``    — ops/sec over *foreground host time*, the foreground
      thread's own CPU time (``time.thread_time``). Inline runs every
      merge on the foreground thread so its fg time includes them; the
      parallel modes run merges on a worker (thread or forked child),
      whose compute never ticks the foreground clock — this is the time
      a spare core would absorb, i.e. the wall-clock win portably. It
      covers the put loop only (close excluded).

    Asserts the run actually compacted (>= ``min_compactions``) so a
    tuning change cannot quietly turn this into a memtable-only bench.
    """
    from repro.lsm.statistics import Statistics, Ticker

    out: dict[str, float] = {}
    for mode in ("inline", "thread", "process"):
        stats = Statistics()
        db = DB.open(
            f"/bench-baseline-sustained-{mode}",
            Options({"write_buffer_size": 64 * 1024,
                     "background_executor": mode}),
            profile=make_profile(4, 8),
            statistics=stats,
        )
        wall0 = time.perf_counter()
        fg0 = time.thread_time()
        for i in range(n):
            db.put(format_key(i * 2654435761 % 16_384), VALUE)
        fg = time.thread_time() - fg0
        compactions = stats.ticker(Ticker.COMPACTION_COUNT)
        db.close()  # joins leftovers inside the wall window
        wall = time.perf_counter() - wall0
        assert compactions >= min_compactions, (
            f"{mode}: only {compactions} compactions -- not sustained"
        )
        out[f"fillrandom_sustained_{mode}_wall_ops_per_sec"] = round(n / wall, 1)
        out[f"fillrandom_sustained_{mode}_fg_ops_per_sec"] = round(n / fg, 1)
    inline_fg = out["fillrandom_sustained_inline_fg_ops_per_sec"]
    out["fillrandom_sustained_thread_fg_speedup"] = round(
        out["fillrandom_sustained_thread_fg_ops_per_sec"] / inline_fg, 2
    )
    out["fillrandom_sustained_process_fg_speedup"] = round(
        out["fillrandom_sustained_process_fg_ops_per_sec"] / inline_fg, 2
    )
    return out


def bench_gets(n: int = 6000, repeats: int = 3) -> tuple[float, float]:
    """Best-of-``repeats`` (hit, miss) point-get throughput.

    Best-of-N like :func:`bench_put`: a single shot of this loop swung
    2x between otherwise identical runs on a shared host.
    """
    hit = miss = 0.0
    for r in range(repeats):
        db = _open_db(f"/bench-baseline-get-{r}")
        for i in range(5000):
            db.put(format_key(i), VALUE)
        db.flush()
        start = time.perf_counter()
        for i in range(n):
            db.get(format_key(i % 5000))
        hit = max(hit, n / (time.perf_counter() - start))
        start = time.perf_counter()
        for i in range(n):
            db.get(format_key(10_000_000 + i))
        miss = max(miss, n / (time.perf_counter() - start))
        db.close()
    return hit, miss


def bench_skiplist(n: int = 50_000) -> float:
    sl = SkipList(seed=1)
    keys = [format_key(i * 2654435761 % 1_000_000) for i in range(n)]
    start = time.perf_counter()
    for key in keys:
        sl.insert(key, None)
    return n / (time.perf_counter() - start)


def bench_scan(n: int = 300) -> float:
    db = _open_db("/bench-baseline-scan")
    for i in range(5000):
        db.put(format_key(i), VALUE)
    db.flush()
    start = time.perf_counter()
    for i in range(n):
        db.scan(start=format_key((i * 37) % 4900), limit=100)
    elapsed = time.perf_counter() - start
    db.close()
    return n / elapsed


def _eager_scan(db: DB, start: bytes, limit: int) -> list:
    """The pre-lazy read path, kept as a re-measurable 'before'.

    Opens an iterator on *every* candidate table up front (the old
    ``DB.scan`` behaviour), so the bounded-scan speedup recorded in
    BENCH_engine.json stays an apples-to-apples comparison against the
    lazy cursor on the same tree, same process, same host.
    """
    shared = ReadStats()
    sources = [memtable_source(db._mem, start)]
    sources += [memtable_source(mt, start) for mt in reversed(db._imm)]
    for level in range(db._version.num_levels):
        for meta in db._version.files_at(level):
            if meta.largest_key < start:
                continue
            reader, _ = db._table_cache.get(meta.file_number)
            sources.append(reader.iter_from(
                start, cache_get=db._cache_get,
                cache_put=db._cache_put, stats=shared))
    out: list = []
    for user_key, value in user_view(merge_sources(sources)):
        out.append((user_key, value))
        if len(out) >= limit:
            break
    return out


def _open_multilevel(path: str) -> DB:
    """A quiesced multi-level tree (L1 + a wide L2) for scan benches.

    Small buffers and file sizes keep the level structure deep at a
    size the host can build quickly; ``flush()`` waits for the full
    compaction backlog so the timed loops measure the read path, not
    background work draining through ``_process_completions``.
    """
    db = DB.open(
        path,
        Options({"write_buffer_size": 32 * 1024,
                 "bloom_filter_bits_per_key": 10.0,
                 "target_file_size_base": 16 * 1024,
                 "max_bytes_for_level_base": 64 * 1024}),
        profile=make_profile(4, 8),
    )
    for i in range(80_000):
        db.put(format_key(i * 2654435761 % 200_000), VALUE)
    db.flush()
    db.scan(limit=None)  # warm table + block caches for both variants
    return db


def bench_bounded_scan(n: int = 300, limit: int = 10) -> tuple[float, float]:
    """(eager, lazy) ops/sec for short bounded scans on a deep tree."""
    db = _open_multilevel("/bench-baseline-bounded")
    probe = format_key(12_345)
    assert _eager_scan(db, probe, limit) == db.scan(start=probe, limit=limit)
    start = time.perf_counter()
    for i in range(n):
        _eager_scan(db, format_key((i * 37) % 180_000), limit)
    eager = n / (time.perf_counter() - start)
    start = time.perf_counter()
    for i in range(n):
        db.scan(start=format_key((i * 37) % 180_000), limit=limit)
    lazy = n / (time.perf_counter() - start)
    db.close()
    return eager, lazy


def bench_readseq(n: int = 20_000) -> float:
    """Sequential cursor reads: one ``next()`` per op, rewind on end."""
    db = _open_db("/bench-baseline-readseq")
    for i in range(5000):
        db.put(format_key(i), VALUE)
    db.flush()
    cursor = db.iterator()
    cursor.seek(None)
    start = time.perf_counter()
    for _ in range(n):
        if cursor.valid:
            cursor.next()
        else:
            cursor.seek(None)
    elapsed = time.perf_counter() - start
    cursor.close()
    db.close()
    return n / elapsed


def bench_seekrandom(n: int = 1000, nexts: int = 10) -> float:
    """Random seeks, each followed by a short forward scan."""
    db = _open_multilevel("/bench-baseline-seekrandom")
    cursor = db.iterator()
    start = time.perf_counter()
    for i in range(n):
        cursor.seek(format_key(i * 7919 % 180_000))
        for _ in range(nexts):
            if not cursor.valid:
                break
            cursor.next()
    elapsed = time.perf_counter() - start
    cursor.close()
    db.close()
    return n / elapsed


def main() -> None:
    out_path = sys.argv[1] if len(sys.argv) > 1 else "BENCH_engine.json"
    get_hit, get_miss = bench_gets()
    bounded_eager, bounded_lazy = bench_bounded_scan()
    report = {
        "put_ops_per_sec": round(bench_put(), 1),
        **bench_fillrandom_sustained(),
        "get_hit_ops_per_sec": round(get_hit, 1),
        "get_miss_ops_per_sec": round(get_miss, 1),
        "skiplist_insert_ops_per_sec": round(bench_skiplist(), 1),
        "scan100_ops_per_sec": round(bench_scan(), 1),
        "scan_bounded10_eager_ops_per_sec": round(bounded_eager, 1),
        "scan_bounded10_lazy_ops_per_sec": round(bounded_lazy, 1),
        "scan_bounded10_speedup": round(bounded_lazy / bounded_eager, 2),
        "readseq_ops_per_sec": round(bench_readseq(), 1),
        "seekrandom_ops_per_sec": round(bench_seekrandom(), 1),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }
    with open(out_path, "w", encoding="utf-8") as f:
        json.dump(report, f, indent=2, sort_keys=True)
        f.write("\n")
    # Append-only history next to the snapshot: one JSON object per run,
    # so throughput regressions are visible across commits, not just
    # against the single latest snapshot.
    history_path = os.path.join(os.path.dirname(out_path) or ".",
                                "BENCH_history.jsonl")
    with open(history_path, "a", encoding="utf-8") as f:
        f.write(json.dumps(report, sort_keys=True) + "\n")
    print(json.dumps(report, indent=2, sort_keys=True))
    print(f"\nwrote {out_path} (history -> {history_path})")


if __name__ == "__main__":
    main()
