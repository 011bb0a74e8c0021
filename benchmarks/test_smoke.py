"""Smoke test of the benchmark: every workload for a few steps, every check on.

    python -m pytest benchmarks/test_smoke.py -q
"""

import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


def _smoke(trace: int) -> list:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--smoke", "--trace", str(trace)],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return [json.loads(line) for line in proc.stdout.splitlines()]


def _check(results, metric_list):
    assert len(results) == len(SPEC["workloads"])
    want = {m["name"]: m["unit"] for m in metric_list}
    for r in results:
        assert set(r) == {"correct", "attempted", "failed", "metrics"}
        assert r["correct"] and r["failed"] == 0 and r["attempted"] >= 1
        assert {k: v["unit"] for k, v in r["metrics"].items()} == want


def test_smoke_end_to_end_metrics_and_checks():
    _check(_smoke(0), SPEC["end_to_end"])


def test_smoke_traced_per_module_metrics():
    _check(_smoke(1), SPEC["per_layer"])
