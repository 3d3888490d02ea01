"""Smoke test of the benchmark harness: every workload, tiny, with every check.

Run with ``python -m pytest bench/test_smoke.py``. It runs ``bench/run.py
--smoke`` as its own process, the way the benchmark is run, and fails when
any workload's checks fail or a metric goes missing.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from run import END_TO_END, PER_LAYER  # noqa: E402


@pytest.fixture(scope="module")
def smoke_results():
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--smoke"],
                          cwd=BENCH.parent, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-3000:]
    return [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]


def test_every_workload_runs_traced_and_untraced(smoke_results):
    assert len(smoke_results) == 6
    for index, result in enumerate(smoke_results):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["failed"] == 0 and result["attempted"] >= 1
        want = PER_LAYER if index % 2 else END_TO_END
        assert {name: m["unit"] for name, m in result["metrics"].items()} == want


def test_end_to_end_metrics_are_positive(smoke_results):
    for result in smoke_results[0::2]:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_benchmark_json_matches_the_runner():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER


def test_refuses_to_run_without_the_sources(tmp_path):
    (tmp_path / "bench").mkdir()
    for path in BENCH.glob("*.py"):
        (tmp_path / "bench" / path.name).write_bytes(path.read_bytes())
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "fetch-cache",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
