"""The repository's end-to-end benchmark: one command, three workloads.

    python3 perfbench/run.py --workload tune-fillrandom --seed 1 \\
        --seconds 20 --trace 0

Run from the repository root. ``--trace 0`` prints every end-to-end
metric; ``--trace 1`` alternates untraced and traced rounds of the same
seed and prints every per-layer metric plus the per-layer table. The
last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Output checks run in every round; any failed check makes ``correct``
false and the exit code 1. See README.md for the workloads, the layer
map and the drift correction.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"

#: Every run executes in a fresh interpreter with this hash seed, so
#: set and dict iteration orders repeat from run to run.
HASH_SEED = "0"

#: Stop starting rounds after this many seconds, whatever --seconds says,
#: so a slow host still exits well within the harness's time limit.
MAX_ELAPSED_S = 120.0

#: Every end-to-end metric: (name, unit).
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("host_ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "ratio"),
    ("virt_ops_per_s", "1/s"),
    ("tune_gain", "ratio"),
    ("virt_p99_us", "virt_us"),
    ("write_amp", "ratio"),
    ("space_amp", "ratio"),
)

#: Virtual-time metrics: exact, and identical in every round of a seed.
VIRTUAL = ("virt_ops_per_s", "tune_gain", "virt_p99_us", "write_amp", "space_amp")


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measured seconds per run (rounds repeat until reached)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _traced_sampler(rec, sample):
    def sampler() -> float:
        token = rec.begin("perfbench.drift", phase="drift")
        try:
            return sample()
        finally:
            rec.end(token)

    return sampler


def run(args: argparse.Namespace) -> tuple[dict, list[str]]:
    """Run rounds until --seconds of measured time; returns (result, lines)."""
    import drift
    import spans
    from workloads import WORKLOADS

    round_fn = WORKLOADS[args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    clock = drift.DriftClock()
    rec = None
    if args.trace:
        span_file = OUT_DIR / f"{args.workload}-{args.seed}.spans"
        span_file.unlink(missing_ok=True)
        rec = spans.SpanRecorder(span_file)
    untraced: list = []
    traced: list = []
    started = time.perf_counter()
    measured = 0.0
    while (not untraced or measured < args.seconds) and (
        time.perf_counter() - started < MAX_ELAPSED_S or not untraced
    ):
        rnd = round_fn(args.seed, clock, spans.NULL_SPANS, OUT_DIR)
        untraced.append(rnd)
        measured += rnd.wall_raw
        # The last round's DBs sit in reference cycles; collect them
        # here, untimed, so every round starts from the same heap and
        # the peak RSS is one round's, not a function of GC timing.
        gc.collect()
        if rec is not None:
            undo = spans.install(rec)
            clock.sampler = _traced_sampler(rec, drift.sample_r)
            try:
                rnd = round_fn(args.seed, clock, rec, OUT_DIR)
            finally:
                clock.sampler = drift.sample_r
                spans.uninstall(undo)
            rec.flush()
            traced.append(rnd)
            measured += rnd.wall_raw
            gc.collect()

    rounds = untraced + traced
    problems = [p for r in rounds for p in r.problems]
    for rnd in rounds[1:]:
        if rnd.virt != rounds[0].virt:
            problems.append(
                f"virtual metrics differ between rounds of seed {args.seed}: "
                f"{rnd.virt} != {rounds[0].virt}"
            )
    attempted = sum(r.attempted for r in untraced)
    failed = sum(r.failed for r in untraced)
    lines = [
        f"workload {args.workload} seed {args.seed}: "
        f"{len(untraced)} untraced + {len(traced)} traced rounds",
        "  raw setup_s: " + " ".join(f"{r.setup_raw:.4f}" for r in rounds),
        "  raw wall_s:  " + " ".join(f"{r.wall_raw:.4f}" for r in rounds),
        "  corrected wall_s: " + " ".join(f"{r.wall_s:.4f}" for r in rounds),
        "  R samples (ms): median {:.4f} min {:.4f} max {:.4f} n {}; R0 {:.4f}".format(
            1e3 * statistics.median(clock.samples), 1e3 * min(clock.samples),
            1e3 * max(clock.samples), len(clock.samples), 1e3 * drift.R0,
        ),
        f"  notes: {rounds[0].notes}",
    ]
    lines += [f"  CHECK FAILED: {p}" for p in problems]
    if rec is None:
        metrics = {
            "setup_s": statistics.median(r.setup_s for r in untraced),
            "wall_s": statistics.median(r.wall_s for r in untraced),
            "host_ops_per_s": statistics.median(r.ops / r.wall_s for r in untraced),
            "peak_rss_mb": _peak_rss_mb(),
            "ok_frac": (attempted - failed) / attempted,
            **rounds[0].virt,
        }
        units = dict(END_TO_END)
    else:
        import layers

        metrics = layers.per_layer(args.workload, rec, traced, untraced)
        units = dict(layers.PER_LAYER)
        lines += layers.table(args.workload, metrics)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }
    return result, lines


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # Fresh interpreter with a fixed hash seed; exec keeps this PID,
        # so no child process outlives or escapes the run.
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve()), *argv], env)
    src = ROOT / "src"
    if not (src / "repro").is_dir():
        print(f"perfbench: no program to measure at {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"known: {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    result, lines = run(args)
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
