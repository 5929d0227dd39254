#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/spread.py --workload big-diagrams --seeds 1-10

For each metric this prints the median of the per-run values and the
distance between their first and third quartiles (``statistics.
quantiles(values, n=4)``) as a share of the median, next to the bound in
BENCHMARK.json.  It also prints the share of failed ops.  Each run's JSON
line is appended to bench/results/<workload>.jsonl.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    args = ap.parse_args()
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    runs = []
    for seed in args.seeds:
        cmd = [sys.executable, *spec["command"][1:], "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
               "--trace", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        line = proc.stdout.strip().splitlines()[-1]
        with open(out_dir / f"{args.workload}.jsonl", "a") as fh:
            fh.write(json.dumps({"seed": seed, **json.loads(line)}) + "\n")
        runs.append(json.loads(line))
        print(f"seed {seed}: {proc.stderr.strip().splitlines()[-1]}", file=sys.stderr)
    shares = {r["failed"] / r["attempted"] for r in runs}
    print(f"{args.workload}: {len(runs)} runs, correct {all(r['correct'] for r in runs)}, "
          f"failed share {sorted(shares)}")
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        iqr = (q3 - q1) / med if med else float("nan")
        bound = bounds[name]
        flag = "  OVER 1/3" if iqr > bound / 3 else ""
        print(f"  {name:28s} median {med:.5g}  iqr/median {iqr:.3f}  bound {bound}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
