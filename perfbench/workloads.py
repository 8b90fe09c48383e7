"""The three workloads: one round of each, with its output checks.

A round is one set-up followed by one measured phase, each a
drift-corrected :class:`~drift.Interval`. Every workload runs default
``Options`` apart from the knobs named here, so a change of default is
measured. Sizes and the reasons for each choice are in README.md.
"""

from __future__ import annotations

import random
import statistics
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

from repro.bench.keygen import ValueGenerator, format_key, make_generator
from repro.bench.spec import (
    DEFAULT_BYTE_SCALE,
    DEFAULT_SCALE,
    paper_workload,
    workload,
)
from repro.core.stopping import StoppingCriteria
from repro.core.tuner import ElmoTune, TunerConfig
from repro.hardware.device import device_by_name
from repro.hardware.profile import make_profile
from repro.llm.simulated import SimulatedExpert
from repro.lsm.db import DB
from repro.lsm.env import Env
from repro.lsm.options import Options
from repro.lsm.options_file import load_options_file
from repro.lsm.statistics import OpClass, Statistics, Ticker
from repro.obs.events import BenchProgress
from repro.obs.sinks import TraceSink
from repro.service.service import ShardedService

from drift import DriftClock

KEY_BYTES = 16

#: tune-fillrandom: tuning iterations after the baseline (six DbBench runs).
TUNE_ITERATIONS = 5
#: The simulated expert's seed, fixed so that every workload seed runs
#: the same tuning trajectory: with the expert seeded from --seed, the
#: options it picked moved a session's merge work, and with it wall
#: time, by 30% between seeds. --seed still makes every key and value.
TUNE_EXPERT_SEED = 42
#: Session constructions per round; set-up is the median of their
#: times (one takes ~0.1 ms, so a single timing is mostly noise).
TUNE_CONSTRUCTIONS = 25
#: DbBench progress samples (one per 500 puts) per R sample inside a
#: bench run; iteration boundaries alone left ~2 s between samples.
TUNE_SPLIT_EVERY = 20
#: Floors: a session that flushes or compacts less than this has
#: quietly become a memtable-only benchmark.
TUNE_MIN_FLUSHES = 12
TUNE_MIN_COMPACTIONS = 6

#: readrandom-uncached: point gets per round, and gets per R sample.
READ_GETS = 50_000
READ_SPLIT_EVERY = 5_000
#: Hit-rate ceiling that keeps this workload uncached.
READ_MAX_HIT_RATE = 0.05

#: service-rww-cached: 4 shards, 8 open-loop clients (1 writer, 7
#: readers), each at this virtual rate. Cache sized to hold the data.
SERVICE_SHARDS = 4
SERVICE_CLIENTS = 8
SERVICE_CLIENT_OPS_PER_SEC = 2_000.0
#: Requests per round (twice the scaled readwhilewriting's 25k): at
#: 25k the p99 read moved 2x between seeds with whichever flush landed
#: in a burst; at 50k it is the cache-miss tail and moves ~1%.
SERVICE_OPS = 50_000
#: Progress samples (one per 2,000 requests) per R sample.
SERVICE_SPLIT_EVERY = 5
SERVICE_CACHE_BYTES = 4 << 30
#: Hit-rate floor that keeps this workload cached.
SERVICE_MIN_HIT_RATE = 0.9
#: Virtual throughput must stay within this share of the offered rate
#: (no growing backlog).
SERVICE_MIN_RATE_SHARE = 0.95

PROFILE = make_profile(4, 4, device_by_name("nvme-ssd"))


@dataclass
class Round:
    """What one round measured."""

    setup_raw: float
    setup_s: float
    wall_raw: float
    wall_s: float
    #: Engine operations completed in the measured phase.
    ops: int
    attempted: int
    failed: int
    #: Exact virtual-time metrics; identical for every round of a seed.
    virt: dict[str, float]
    #: Figures the program reports about itself, for the per-layer table.
    layer: dict[str, float] = field(default_factory=dict)
    #: Failed checks, one line each.
    problems: list[str] = field(default_factory=list)
    #: Human-readable facts for the diagnostic lines.
    notes: dict[str, object] = field(default_factory=dict)


def _user_bytes(value_size: int) -> int:
    return KEY_BYTES + value_size


def _write_amp(tickers: dict, user_bytes: int) -> float:
    written = tickers.get(Ticker.BYTES_WRITTEN.value, 0) + tickers.get(
        Ticker.WAL_BYTES.value, 0
    )
    return written / user_bytes


# -- tune-fillrandom ----------------------------------------------------------


class _ProgressSplitter(TraceSink):
    """Splits the session's interval every :data:`TUNE_SPLIT_EVERY`
    progress samples, while the bench runs the inline executor (then no
    host background job is ever in flight when R is sampled)."""

    def __init__(self, interval) -> None:
        self.interval = interval
        self.inline = False
        self._samples = 0

    def emit(self, event) -> None:
        if self.inline and isinstance(event, BenchProgress):
            self._samples += 1
            if self._samples % TUNE_SPLIT_EVERY == 0:
                self.interval.split()


def tune_round(seed: int, clock: DriftClock, spans, out_dir: Path) -> Round:
    """A full ELMo-Tune session on paper fillrandom."""
    spec = paper_workload("fillrandom", DEFAULT_SCALE).with_seed(seed)
    setup = clock.interval()
    spans.begin_root("setup")
    setup.start()
    builds = []
    for _ in range(TUNE_CONSTRUCTIONS):
        t0 = time.perf_counter()
        tuner = ElmoTune(
            TunerConfig(
                workload=spec,
                profile=PROFILE,
                byte_scale=DEFAULT_BYTE_SCALE,
                stopping=StoppingCriteria(max_iterations=TUNE_ITERATIONS),
            ),
            SimulatedExpert(seed=TUNE_EXPERT_SEED),
        )
        builds.append(time.perf_counter() - t0)
    setup.stop()
    build_raw = statistics.median(builds)
    spans.end_root()

    wall = clock.interval()
    results = []
    run_bench = tuner._run_bench
    splitter = _ProgressSplitter(wall)

    def split_then_run_bench(options, reference_ops):
        # Iteration boundary: the previous DbBench closed its DB, so no
        # background job is in flight while R is sampled.
        wall.split()
        splitter.inline = options.get("background_executor") == "inline"
        out = run_bench(options, reference_ops)
        results.append(out[0])
        return out

    tuner._run_bench = split_then_run_bench
    tuner.tracer.add_sink(splitter)
    spans.begin_root("measured")
    wall.start()
    session = tuner.run()
    wall.stop()
    spans.end_root()

    problems = []
    options_path = out_dir / f"tune-fillrandom-{seed}.OPTIONS"
    options_path.write_text(tuner.final_options_text(session), encoding="utf-8")
    loaded, warnings = load_options_file(str(options_path))
    if warnings:
        problems.append(f"final OPTIONS reload warned: {warnings}")
    if loaded != session.final_options:
        problems.append("final OPTIONS reload differs from final_options")
    flushes = sum(r.flush_count for r in results)
    compactions = sum(r.compaction_count for r in results)
    if flushes < TUNE_MIN_FLUSHES or compactions < TUNE_MIN_COMPACTIONS:
        problems.append(
            f"floor: {flushes} flushes / {compactions} compactions in the "
            f"session, need {TUNE_MIN_FLUSHES} / {TUNE_MIN_COMPACTIONS}"
        )

    ops = sum(r.ops_done for r in results)
    user = sum(r.writes_done for r in results) * _user_bytes(spec.value_size)
    tickers: dict[str, int] = {}
    for r in results:
        for name, value in r.tickers.items():
            tickers[name] = tickers.get(name, 0) + value
    best = session.best.metrics
    later = session.iterations[1:]
    return Round(
        setup_raw=build_raw,
        setup_s=build_raw * setup.corrected / setup.raw,
        wall_raw=wall.raw,
        wall_s=wall.corrected,
        ops=ops,
        attempted=ops,
        failed=ops if problems else 0,
        virt={
            "virt_ops_per_s": best.ops_per_sec,
            "tune_gain": session.improvement_factor(),
            "virt_p99_us": best.p99_write_us,
            "write_amp": _write_amp(tickers, user),
            "space_amp": sum(r.db_size_bytes for r in results) / user,
        },
        layer={
            "lsm.stall_us": sum(r.stall_micros for r in results),
            "core.rejected": session.total_rejections(),
            "core.kept_frac": (
                sum(1 for r in later if r.kept) / len(later) if later else 0.0
            ),
            "core.early_stops": sum(1 for r in later if r.aborted_early),
        },
        problems=problems,
        notes={
            "bench_runs": len(results),
            "flushes": flushes,
            "compactions": compactions,
            "stop_reason": session.stop_reason,
        },
    )


# -- readrandom-uncached ------------------------------------------------------


def read_round(seed: int, clock: DriftClock, spans, out_dir: Path) -> Round:
    """Uniform point gets against a preloaded DB 350x its scaled cache."""
    spec = replace(
        paper_workload("readrandom", DEFAULT_SCALE).with_seed(seed),
        num_ops=READ_GETS,
    )
    stats = Statistics()
    env = Env()
    setup = clock.interval()
    spans.begin_root("setup")
    setup.start()
    db = DB.open(
        "/perfbench/readrandom",
        Options(),
        env=env,
        profile=PROFILE,
        statistics=stats,
        byte_scale=DEFAULT_BYTE_SCALE,
    )
    values = ValueGenerator(spec.value_size, seed=seed ^ 0x5EED)
    order = list(range(spec.preload_keys))
    random.Random(seed ^ 0x10AD).shuffle(order)
    expected: dict[bytes, bytes] = {}
    for index in order:
        key = format_key(index)
        value = values.next_value()
        expected[key] = value
        db.put(key, value)
    # Compact the whole key range into one sorted run (db_bench's
    # fillrandom,compact,readrandom): the merge kernel runs only in
    # set-up, and the read cost no longer depends on how many L0 files
    # the seed's load order happened to leave behind.
    db.flush(wait_compactions=True)
    setup.split()
    db.compact_range(format_key(0), format_key(spec.num_keys - 1))
    setup.stop()
    spans.end_root()

    user = len(expected) * _user_bytes(spec.value_size)
    write_amp = _write_amp(stats.as_dict(), user)
    space_amp = db.approximate_size() / user
    stats.reset()
    keys = make_generator(spec.distribution, spec.num_keys, seed)
    wrong = 0
    start_us = env.clock.now_us
    wall = clock.interval()
    spans.begin_root("measured")
    wall.start()
    for i in range(spec.num_ops):
        if i and i % READ_SPLIT_EVERY == 0:
            wall.split()
        key = keys.next_key()
        if db.get(key) != expected[key]:
            wrong += 1
    virt_s = (env.clock.now_us - start_us) / 1e6
    db.close()
    wall.stop()
    spans.end_root()

    problems = []
    if wrong:
        problems.append(f"{wrong} gets returned a value other than the one written")
    hit_rate = stats.cache_hit_rate()
    if hit_rate > READ_MAX_HIT_RATE:
        problems.append(
            f"floor: block-cache hit rate {hit_rate:.3f} above "
            f"{READ_MAX_HIT_RATE}; the workload is no longer uncached"
        )
    return Round(
        setup_raw=setup.raw,
        setup_s=setup.corrected,
        wall_raw=wall.raw,
        wall_s=wall.corrected,
        ops=spec.num_ops,
        attempted=spec.num_ops,
        failed=wrong,
        virt={
            "virt_ops_per_s": spec.num_ops / virt_s,
            "tune_gain": 1.0,
            "virt_p99_us": stats.histogram(OpClass.GET).summary().p99,
            "write_amp": write_amp,
            "space_amp": space_amp,
        },
        layer={"lsm.stall_us": stats.ticker(Ticker.STALL_MICROS)
               + stats.ticker(Ticker.DELAYED_WRITE_MICROS)},
        problems=problems,
        notes={"hit_rate": hit_rate, "user_bytes": user,
               "scaled_cache_bytes": int(
                   Options().get("block_cache_size") * DEFAULT_BYTE_SCALE)},
    )


# -- service-rww-cached -------------------------------------------------------


def service_round(seed: int, clock: DriftClock, spans, out_dir: Path) -> Round:
    """ShardedService readwhilewriting with a cache that holds the data."""
    spec = replace(
        workload("readwhilewriting", DEFAULT_SCALE).with_seed(seed),
        num_ops=SERVICE_OPS,
    )
    options = Options(
        {"shard_count": SERVICE_SHARDS, "block_cache_size": SERVICE_CACHE_BYTES}
    )
    # With the inline executor no host background job is ever in
    # flight, so R may be sampled inside run(); otherwise the service
    # is timed from its own edges only.
    inline = options.get("background_executor") == "inline"
    service = ShardedService(
        spec,
        options,
        PROFILE,
        num_clients=SERVICE_CLIENTS,
        client_ops_per_sec=SERVICE_CLIENT_OPS_PER_SEC,
        byte_scale=DEFAULT_BYTE_SCALE,
    )
    service.write_audit = {}
    setup = clock.interval()
    wall = clock.interval()
    problems: list[str] = []

    def serving_start(_service) -> None:
        setup.stop(sample=inline)
        spans.end_root()
        spans.begin_root("measured")
        wall.start(r=None if inline else clock.samples[-1])

    progress = [0]

    def split(_service, _event) -> None:
        progress[0] += 1
        if progress[0] % SERVICE_SPLIT_EVERY == 0:
            wall.split()

    def check(svc) -> None:
        token = spans.begin("bench.check", phase="check")
        t0 = time.perf_counter()
        problems.extend(svc.verify_write_audit())
        wall.exclude(time.perf_counter() - t0)
        spans.end(token)

    service.on_serving_start = serving_start
    service.on_complete = check
    if inline:
        service.on_progress = split
    spans.begin_root("setup")
    setup.start()
    result = service.run()
    wall.stop()
    spans.end_root()

    agg = result.aggregate
    failed = len(problems) + result.sheds + (spec.num_ops - agg.ops_done)
    if result.sheds:
        problems.append(f"{result.sheds} requests shed")
    if agg.cache_hit_rate < SERVICE_MIN_HIT_RATE:
        problems.append(
            f"floor: block-cache hit rate {agg.cache_hit_rate:.3f} below "
            f"{SERVICE_MIN_HIT_RATE}; the workload is no longer cached"
        )
    offered = SERVICE_CLIENTS * SERVICE_CLIENT_OPS_PER_SEC
    if agg.ops_per_sec < SERVICE_MIN_RATE_SHARE * offered:
        problems.append(
            f"floor: virtual throughput {agg.ops_per_sec:.0f}/s fell below "
            f"{SERVICE_MIN_RATE_SHARE} of the offered {offered:.0f}/s"
        )
    unit = _user_bytes(spec.value_size)
    ingested = (spec.preload_keys + agg.writes_done) * unit
    read_p99 = agg.read_summary.p99
    write_p99 = agg.write_summary.p99
    return Round(
        setup_raw=setup.raw,
        setup_s=setup.corrected,
        wall_raw=wall.raw,
        wall_s=wall.corrected,
        ops=agg.ops_done,
        attempted=spec.num_ops,
        failed=failed,
        virt={
            "virt_ops_per_s": agg.ops_per_sec,
            "tune_gain": 1.0,
            "virt_p99_us": max(read_p99, write_p99),
            "write_amp": _write_amp(agg.tickers, agg.writes_done * unit),
            "space_amp": agg.db_size_bytes / ingested,
        },
        layer={
            "lsm.stall_us": agg.stall_micros,
            "service.groups": result.groups,
            "service.writes_per_group": (
                result.grouped_writes / result.groups if result.groups else 0.0
            ),
            "service.wal_syncs_per_write": result.syncs_per_write,
        },
        problems=problems,
        notes={"hit_rate": agg.cache_hit_rate, "read_p99_us": read_p99,
               "write_p99_us": write_p99, "offered_ops_per_s": offered},
    )


WORKLOADS = {
    "tune-fillrandom": tune_round,
    "readrandom-uncached": read_round,
    "service-rww-cached": service_round,
}
