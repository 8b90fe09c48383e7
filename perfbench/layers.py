"""Per-layer metrics from the traced run, and the table that prints them.

Every host-time metric here is a *self time*: the seconds a layer's
own code ran, excluding the layers it called. Self times therefore
partition the measured interval, and ``trace.self_sum_frac`` (their
sum over the measured interval's raw seconds) checks that they do.
"""

from __future__ import annotations

import statistics

from spans import SpanRecorder

#: Self-time metric -> span names it sums.
SELF_METRICS = {
    "bench.keygen_s": ("bench.keygen",),
    "bench.loop_self_s": ("bench.dbbench",),
    "bench.report_s": ("bench.report",),
    "lsm.put_self_s": ("lsm.put",),
    "lsm.get_self_s": ("lsm.get",),
    "lsm.write_self_s": ("lsm.write",),
    "lsm.other_self_s": ("lsm.open", "lsm.close", "lsm.flush_call"),
    "lsm.flush_s": ("lsm.flush_job",),
    "lsm.compaction_s": ("lsm.compaction_job",),
    "lsm.compress_s": ("lsm.compress",),
    "lsm.decompress_s": ("lsm.decompress",),
    "lsm.decode_block_s": ("lsm.decode_block",),
    "lsm.perf_model_s": ("lsm.perf_model",),
    "core.prompt_s": ("core.prompt",),
    "llm.complete_s": ("llm.complete",),
    "core.parse_s": ("core.parse",),
    "core.safeguard_s": ("core.safeguard",),
    "obs.emit_s": ("obs.emit",),
}

#: The measured root's own self time is the code that drives the
#: workload: the tuner loop, the benchmark's read loop, or the service
#: scheduler (``ShardedService.run`` minus DB calls; preload is set-up).
ROOT_SELF_METRIC = {
    "tune-fillrandom": "core.tuner_self_s",
    "readrandom-uncached": "bench.loop_self_s",
    "service-rww-cached": "service.sched_self_s",
}

#: Call-count metric -> span name.
COUNT_METRICS = {
    "lsm.put_calls": "lsm.put",
    "lsm.get_calls": "lsm.get",
    "lsm.compress_calls": "lsm.compress",
    "lsm.decode_block_calls": "lsm.decode_block",
    "llm.calls": "llm.complete",
    "obs.events": "obs.emit",
}

#: Layer (its modules) -> the self-time metrics that make it up.
LAYERS = (
    ("harness (repro.bench)",
     ("bench.keygen_s", "bench.loop_self_s", "bench.report_s")),
    ("engine foreground (repro.lsm.db)",
     ("lsm.put_self_s", "lsm.get_self_s", "lsm.write_self_s",
      "lsm.other_self_s")),
    ("merge kernel (lsm.flush, lsm.compaction, lsm.background)",
     ("lsm.flush_s", "lsm.compaction_s")),
    ("block codec (lsm.block, lsm.sstable)",
     ("lsm.compress_s", "lsm.decompress_s", "lsm.decode_block_s")),
    ("cost model (lsm.perf_model)", ("lsm.perf_model_s",)),
    ("service scheduler (repro.service)", ("service.sched_self_s",)),
    ("tuner and LLM (repro.core, repro.llm)",
     ("core.tuner_self_s", "core.prompt_s", "llm.complete_s",
      "core.parse_s", "core.safeguard_s")),
    ("observability (repro.obs)", ("obs.emit_s",)),
)

#: Every per-layer metric with its unit, in BENCHMARK.json order.
PER_LAYER = (
    ("bench.keygen_s", "s"), ("bench.loop_self_s", "s"),
    ("bench.report_s", "s"), ("bench.check_s", "s"),
    ("lsm.put_self_s", "s"), ("lsm.put_calls", "count"),
    ("lsm.get_self_s", "s"), ("lsm.get_calls", "count"),
    ("lsm.get_host_p50_us", "us"), ("lsm.get_host_p99_us", "us"),
    ("lsm.write_self_s", "s"), ("lsm.other_self_s", "s"),
    ("lsm.flush_s", "s"), ("lsm.flush_count", "count"),
    ("lsm.compaction_s", "s"), ("lsm.compaction_count", "count"),
    ("lsm.compaction_bytes", "bytes"), ("lsm.bg_join_stall_s", "s"),
    ("lsm.merge_total_s", "s"),
    ("lsm.compress_s", "s"), ("lsm.compress_calls", "count"),
    ("lsm.decompress_s", "s"), ("lsm.decode_block_s", "s"),
    ("lsm.decode_block_calls", "count"),
    ("lsm.block_cache_hit_rate", "ratio"),
    ("lsm.block_cache_evictions", "count"),
    ("lsm.bloom_useful_rate", "ratio"),
    ("lsm.perf_model_s", "s"), ("lsm.stall_us", "us"),
    ("service.sched_self_s", "s"), ("service.groups", "count"),
    ("service.writes_per_group", "ratio"),
    ("service.wal_syncs_per_write", "ratio"),
    ("core.tuner_self_s", "s"), ("core.prompt_s", "s"),
    ("llm.complete_s", "s"), ("llm.calls", "count"),
    ("core.parse_s", "s"), ("core.safeguard_s", "s"),
    ("core.rejected", "count"), ("core.kept_frac", "ratio"),
    ("core.early_stops", "count"),
    ("obs.emit_s", "s"), ("obs.events", "count"),
    ("trace.overhead_frac", "ratio"), ("trace.self_sum_frac", "ratio"),
    ("trace.off_thread_s", "s"),
)


def _percentile(sorted_values, q: float) -> float:
    if not sorted_values:
        return 0.0
    return sorted_values[min(len(sorted_values) - 1, int(q * len(sorted_values)))]


def per_layer(
    workload: str,
    rec: SpanRecorder,
    traced_rounds: list,
    untraced_rounds: list,
) -> dict[str, float]:
    """Per-layer metrics, each a mean per traced round."""
    n = len(traced_rounds)
    measured = rec.phase_self("measured")
    check = rec.phase_self("check")
    out: dict[str, float] = {name: 0.0 for name, _unit in PER_LAYER}
    for metric, names in SELF_METRICS.items():
        out[metric] = sum(measured.get(s, (0, 0.0))[1] for s in names) / n
    root_self = measured["measured"][1] / n
    out[ROOT_SELF_METRIC[workload]] += root_self
    for metric, name in COUNT_METRICS.items():
        out[metric] = measured.get(name, (0,))[0] / n
    out["lsm.merge_total_s"] = sum(
        measured.get(s, (0, 0.0, 0.0))[2]
        for s in ("lsm.flush_job", "lsm.compaction_job")
    ) / n
    out["bench.check_s"] = check.get("bench.check", (0, 0.0, 0.0))[2] / n
    gets = sorted(rec.get_durations)
    out["lsm.get_host_p50_us"] = _percentile(gets, 0.50) * 1e6
    out["lsm.get_host_p99_us"] = _percentile(gets, 0.99) * 1e6
    db = rec.db_totals
    blocks = db.get("cache_hit", 0) + db.get("cache_miss", 0)
    out["lsm.block_cache_hit_rate"] = db.get("cache_hit", 0) / blocks if blocks else 0.0
    checked = db.get("bloom_checked", 0)
    out["lsm.bloom_useful_rate"] = db.get("bloom_useful", 0) / checked if checked else 0.0
    out["lsm.block_cache_evictions"] = db.get("evictions", 0) / n
    out["lsm.flush_count"] = db.get("flush_count", 0) / n
    out["lsm.compaction_count"] = db.get("compaction_count", 0) / n
    out["lsm.compaction_bytes"] = db.get("compaction_bytes", 0) / n
    out["lsm.bg_join_stall_s"] = db.get("join_stall_s", 0.0) / n
    for rnd in traced_rounds:
        for metric, value in rnd.layer.items():
            out[metric] += value / n
    measured_raw = sum(r.wall_raw for r in traced_rounds)
    out["trace.self_sum_frac"] = (
        sum(row[1] for row in measured.values()) / measured_raw
    )
    out["trace.off_thread_s"] = sum(rec.off_thread_s.values()) / n
    out["trace.overhead_frac"] = (
        statistics.median(r.wall_s for r in traced_rounds)
        / statistics.median(r.wall_s for r in untraced_rounds)
        - 1.0
    )
    return out


def table(workload: str, metrics: dict[str, float]) -> list[str]:
    """The per-layer table: self seconds and share of the measured interval."""
    total = sum(
        metrics[m] for _layer, members in LAYERS for m in members
    )
    lines = [f"per-layer self time, {workload} (mean per traced round):"]
    ranked = []
    for layer, members in LAYERS:
        secs = sum(metrics[m] for m in members)
        ranked.append((secs, layer))
        detail = ", ".join(
            f"{m}={metrics[m]:.4f}" for m in members if metrics[m]
        )
        lines.append(
            f"  {layer:<58} {secs:9.4f} s {100 * secs / total:6.2f}%"
            + (f"  [{detail}]" if detail else "")
        )
    top = max(ranked)
    lines.append(f"  top host-time layer: {top[1]} ({100 * top[0] / total:.1f}%)")
    lines.append(
        f"  merge kernel inclusive of the codec calls inside it: "
        f"{metrics['lsm.merge_total_s']:.4f} s "
        f"({100 * metrics['lsm.merge_total_s'] / total:.1f}%)"
    )
    lines.append(
        f"  trace.overhead_frac={metrics['trace.overhead_frac']:.3f} "
        f"trace.self_sum_frac={metrics['trace.self_sum_frac']:.4f}"
    )
    return lines
