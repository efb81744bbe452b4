"""Run-to-run spread of the end-to-end metrics over several seeds.

Usage, from the root of a checkout::

    python3 perfbench/spread.py --runs 10 [--workload serve-warm ...]

Runs ``run.py`` once per seed (seeds ``--first-seed`` onwards) for each
workload and prints, per metric, the median and quartiles of the runs
(``statistics.quantiles(values, n=4)``) and the spread: the distance
between the quartiles as a share of the median.  A spread at or above a
third of the metric's bound in ``BENCHMARK.json`` is flagged, because
two sets of runs must then be expected to disagree by more than the
bound.  Exits non-zero if any run fails.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import ROOT, quartiles  # noqa: E402
from run import WORKLOADS, load_definition  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    args = parser.parse_args()
    definition = load_definition()
    seconds = args.seconds or definition["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in definition["end_to_end"]}
    status = 0
    for workload in args.workload or WORKLOADS:
        values = {name: [] for name in bounds}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            proc = subprocess.run(
                [sys.executable, os.path.join("perfbench", "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=600)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed={seed}: FAILED "
                      f"(exit {proc.returncode})\n{proc.stdout[-2000:]}"
                      f"{proc.stderr[-2000:]}")
                status = 1
                continue
            result = json.loads(lines[-1])
            row = {name: m["value"] for name, m in result["metrics"].items()}
            wall = {line.split()[2]: line.rsplit("wall-clock ", 1)[1][:-1]
                    for line in lines if "wall-clock" in line}
            print(f"{workload} seed={seed} " + " ".join(
                f"{name}={value:.6g} (wall {wall.get(name, '?')})"
                for name, value in row.items()), flush=True)
            for name in bounds:
                values[name].append(row[name])
        for name, bound in bounds.items():
            if len(values[name]) < 2:
                continue
            q = quartiles(values[name])
            spread = (q["q3"] - q["q1"]) / q["median"]
            flag = "" if spread < bound / 3 else "  <-- spread >= bound/3"
            print(f"spread {workload} {name}: median={q['median']:.6g} "
                  f"q1={q['q1']:.6g} q3={q['q3']:.6g} "
                  f"spread={spread:.4f} bound={bound}{flag}", flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
