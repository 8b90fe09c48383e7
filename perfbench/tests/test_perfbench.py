"""The benchmark's own tests: python3 -m pytest perfbench/tests"""

from __future__ import annotations

import ast
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import run as bench_run  # noqa: E402
from spans import SpanRecorder  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _run(workload: str, seed: int, trace: int, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_reference_loop_imports_nothing_from_repro():
    tree = ast.parse((BENCH_DIR / "drift.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
    assert imported <= {"__future__", "time"}, imported
    probe = subprocess.run(
        [sys.executable, "-c",
         "import sys; sys.path.insert(0, sys.argv[1]); import drift; "
         "drift.sample_r(3); "
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'repro'))",
         str(BENCH_DIR)],
        capture_output=True, text=True, check=True,
    )
    assert probe.stdout.strip() == "[]"


def test_every_metric_has_a_valid_name_and_unit():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    per_layer = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    assert end_to_end == list(bench_run.END_TO_END)
    assert per_layer == list(layers.PER_LAYER)
    names = [name for name, _unit in end_to_end + per_layer]
    assert len(names) == len(set(names))
    for name, unit in end_to_end + per_layer:
        assert NAME.fullmatch(name) and len(name) <= 64, name
        assert UNIT.fullmatch(unit), (name, unit)
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_self_times_sum_to_root():
    rec = SpanRecorder()

    def leaf(n):
        return sum(range(n))

    wrapped_leaf = rec.wrap("leaf", leaf)

    def middle():
        total = sum(wrapped_leaf(2000) for _ in range(5))
        return total + sum(range(3000))

    wrapped_middle = rec.wrap("middle", middle)
    rec.begin_root("measured")
    for _ in range(20):
        wrapped_middle()
        wrapped_leaf(500)
    token = rec.begin("bench.check", phase="check")
    wrapped_leaf(10_000)
    rec.end(token)
    rec.end_root()
    measured = rec.phase_self("measured")
    check = rec.phase_self("check")
    root_total = measured["measured"][2]
    self_sum = sum(row[1] for row in measured.values())
    assert self_sum == pytest.approx(root_total - check["bench.check"][2], rel=1e-9)
    assert measured["leaf"][0] == 20 * 5 + 20
    assert check["leaf"][0] == 1
    assert all(row[1] >= 0 for row in measured.values())


@pytest.mark.parametrize(
    "workload", ["readrandom-uncached", "service-rww-cached", "tune-fillrandom"]
)
def test_two_runs_of_one_seed_give_identical_virtual_metrics(workload):
    first = _result(_run(workload, 7, 0))
    second = _result(_run(workload, 7, 0))
    assert first["correct"] and second["correct"]
    assert first["metrics"]["ok_frac"]["value"] == 1.0
    for name in bench_run.VIRTUAL:
        assert first["metrics"][name] == second["metrics"][name], name
    assert set(first["metrics"]) == {name for name, _ in bench_run.END_TO_END}


def test_traced_run_accounts_for_the_measured_interval():
    proc = _run("readrandom-uncached", 3, 1)
    result = _result(proc)
    metrics = result["metrics"]
    assert set(metrics) == {name for name, _ in layers.PER_LAYER}
    assert metrics["trace.self_sum_frac"]["value"] == pytest.approx(1.0, abs=0.01)
    assert metrics["lsm.get_calls"]["value"] > 0
    assert metrics["lsm.flush_count"]["value"] == 0
    assert "top host-time layer" in proc.stdout


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = _run("readrandom-uncached", 1, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
