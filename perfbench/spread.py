"""Run-to-run spread of the end-to-end metrics, against their bounds.

    python3 perfbench/spread.py [--seeds 101-110] [--workload NAME ...]
        [--seconds S] [--out spread.json] [--against earlier.json]

Runs ``perfbench/run.py --trace 0`` once per seed and workload, one run
after another, and prints for every end-to-end metric the median of the
runs, the interquartile spread (``statistics.quantiles(n=4)``, third
minus first quartile) and the largest difference between two runs, both
as a share of the median, next to the metric's bound in
``BENCHMARK.json``.  ``--against`` also prints how far each median moved
from an earlier ``--out`` file.  Ten seeds on all three workloads take
about twenty minutes at the default 40 s per run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode != 0 or not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: run failed\n"
                           + proc.stderr[-2000:])
    return {name: m["value"] for name, m in result["metrics"].items()}


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="101-110")
    ap.add_argument("--workload", nargs="+",
                    default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--out")
    ap.add_argument("--against")
    args = ap.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    earlier = {}
    if args.against:
        with open(args.against) as f:
            earlier = json.load(f)
    values: dict = {}
    for workload in args.workload:
        runs = values.setdefault(workload, {})
        for seed in parse_seeds(args.seeds):
            metrics = run_once(workload, seed, args.seconds)
            print(workload, seed, {k: round(v, 4) for k, v in metrics.items()},
                  flush=True)
            for name, value in metrics.items():
                runs.setdefault(name, []).append(value)
        print(f"{'workload':<15s} {'metric':<18s} {'median':>12s} "
              f"{'IQR':>7s} {'max-min':>7s} {'bound':>6s} {'moved':>7s}")
        for name, vals in runs.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            moved = ""
            if name in earlier.get(workload, {}):
                before = statistics.median(earlier[workload][name])
                moved = f"{(med - before) / before:+7.1%}"
            print(f"{workload:<15s} {name:<18s} {med:12.4f} "
                  f"{(q3 - q1) / med:7.1%} {(max(vals) - min(vals)) / med:7.1%}"
                  f" {bounds[name]:6.2f} {moved:>7s}", flush=True)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(values, f, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
