#!/usr/bin/env bash
# Tier-1 gate + engine microbench smoke, in one command.
#
#   scripts/check.sh          # from the repo root
#
# 1. Runs the tier-1 test suite (tests/), exactly as ROADMAP.md defines.
# 2. Smoke-runs the engine microbenchmarks (benchmarks/test_engine_
#    microbench.py) with timing disabled, so hot-path regressions that
#    *break* (rather than slow) the engine are caught here too.
#
# For actual wall-clock numbers, use scripts/bench_baseline.py.

set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== tier-1: tests/ =="
python -m pytest -x -q

echo
echo "== microbench smoke (timing disabled) =="
python -m pytest -x -q --benchmark-disable benchmarks/test_engine_microbench.py

echo
echo "== trace schema: every event round-trips through JSONL =="
python scripts/validate_trace_schema.py

echo
echo "== crash consistency: bounded seeded sweep (3 styles) =="
# 200 seeded crash schedules; the full 1000-schedule acceptance sweep
# is scripts/crashmonkey.py with defaults (docs/crash_consistency.md).
python scripts/crashmonkey.py --schedules 200 --seed 77 --quiet

echo
echo "== service chaos: replica crashes + failover, seeded sweep, twice =="
# 200 seeded replica-crash schedules over the replicated service (both
# scenario shapes: mid-group-commit and mid-drain), run twice and
# byte-compared; the full 1000-schedule sweep is scripts/chaosmonkey.py
# with defaults (docs/service.md, docs/crash_consistency.md).
python scripts/chaosmonkey.py --schedules 200 --seed 77 --twice --quiet

echo
echo "== background determinism: inline/thread/process, byte-identical =="
python scripts/check_bg_determinism.py

echo
echo "== service determinism: 4 shards x 8 clients, two byte-identical runs =="
python scripts/check_service_determinism.py

echo
echo "== scan determinism: seekrandom twice, byte-identical traces =="
python scripts/check_scan_determinism.py

echo
echo "== online determinism: phased workload, tuner mid-flight, twice =="
python scripts/check_online_determinism.py

echo
echo "== reshard determinism: live split mid-run, audit clean, twice =="
python scripts/check_reshard_determinism.py

echo
echo "== perfbench contract: imports, identical virtual metrics, traced self times =="
python -m pytest -q perfbench/tests

echo
echo "== perf smoke: write-path throughput vs recorded baseline =="
# Opt-in (wall-clock timing is meaningless on loaded CI hosts): export
# PERF_SMOKE=1 to fail the gate when fillrandom throughput drops >30%
# below the put_ops_per_sec recorded in BENCH_engine.json.
if [[ "${PERF_SMOKE:-0}" == "1" ]]; then
  python scripts/profile_write_path.py --smoke
else
  echo "skipped (export PERF_SMOKE=1 to enable)"
fi

echo
echo "== console audit: no direct print() outside repro/obs/console.py =="
# Match print( as a call (not substrings like fingerprint(); the
# sanctioned helper is the only allowed caller).
if grep -rnE '(^|[^a-zA-Z0-9_."])print\(' src/repro --include='*.py' \
    | grep -v 'repro/obs/console.py'; then
  echo "FAIL: direct print() found in src/repro (use repro.obs.console)" >&2
  exit 1
fi
echo "console audit OK"

echo
echo "check.sh: all green"
