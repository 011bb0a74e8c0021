"""Run-to-run spread of the benchmark's metrics over several seeds.

    python3 benchmarks/spread.py --workloads recipe wide --seeds 1-10

Runs the benchmark's command untraced once per (workload, seed), one run
at a time, for ``run_seconds`` of BENCHMARK.json, and prints for every
end-to-end metric the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``) and the spread (q3 - q1) / median
next to the bound in BENCHMARK.json.  Every run's result and the summary
go to ``benchmarks/out/spread-<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def parse_seeds(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def summarise(runs: list, bounds: dict) -> dict:
    summary = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        summary[name] = {"median": med, "q1": q1, "q3": q3,
                         "spread": (q3 - q1) / med if med else 0.0,
                         "bound": bounds.get(name)}
    return summary


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads", nargs="+", required=True)
    ap.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    (BENCH_DIR / "out").mkdir(exist_ok=True)
    status = 0
    for workload in args.workloads:
        runs = []
        for seed in parse_seeds(args.seeds):
            cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                     "--seconds", str(seconds),
                                     "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=600)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return proc.returncode
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            result["seed"] = seed
            runs.append(result)
            print(f"{workload} seed {seed}: attempted {result['attempted']} "
                  f"failed {result['failed']}", file=sys.stderr, flush=True)
        summary = summarise(runs, bounds)
        out = BENCH_DIR / "out" / f"spread-{workload}.json"
        out.write_text(json.dumps({"runs": runs, "summary": summary}, indent=1))
        print(f"== {workload} ({len(runs)} runs, {seconds} s each)")
        for name, s in summary.items():
            bound = "" if s["bound"] is None else f"bound {s['bound']:.2f}"
            flag = ("  <-- over a third of the bound"
                    if s["bound"] is not None and s["spread"] > s["bound"] / 3
                    else "")
            print(f"  {name:28s} median {s['median']:12.6g}  q1 {s['q1']:12.6g}"
                  f"  q3 {s['q3']:12.6g}  spread {s['spread']:.3f}  {bound}{flag}")
        if any(not r["correct"] or r["failed"] for r in runs):
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
