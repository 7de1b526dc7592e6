#!/usr/bin/env python3
"""Run one workload once per seed and report each metric's median,
quartiles and spread (interquartile range over median) against its bound.

Usage: python3 perfbench/repeat.py --workload W --seeds 1-10 [--trace 0|1]
Prints one line per run, then a table, then the summary as one JSON line.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = contract["per_layer" if args.trace else "end_to_end"]

    runs = []
    for seed in args.seeds:
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(contract["run_seconds"]),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, check=True,
        )
        result = json.loads(done.stdout.strip().splitlines()[-1])
        runs.append(result)
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} "
              + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
              flush=True)

    summary = {}
    for metric in section:
        values = [r["metrics"][metric["name"]]["value"] for r in runs]
        q1, median, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / abs(median) if median else float("inf")
        summary[metric["name"]] = {"median": median, "q1": q1, "q3": q3, "spread": spread}
        bound = metric.get("bound")
        verdict = "" if bound is None else (
            f"bound {bound}: " + ("ok" if spread < bound / 3 else "WIDE"))
        print(f"{metric['name']:42s} median {median:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  "
              f"spread {spread:.4f}  {verdict}")
    print(json.dumps({
        "workload": args.workload, "seeds": args.seeds,
        "all_correct": all(r["correct"] for r in runs),
        "attempted": [r["attempted"] for r in runs],
        "failed": [r["failed"] for r in runs],
        "metrics": summary,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
