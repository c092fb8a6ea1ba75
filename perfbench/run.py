"""The repository benchmark: one workload, measured end to end or per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
        [--out results.json]
    python3 perfbench/run.py --compare base.json change.json

Each repetition runs in a fresh process (``perfbench/rep.py``), so every
one pays the import and the design build.  Repetitions continue while
the next one is expected to finish within ``--seconds`` (at least three
untraced, or one untraced and one traced with ``--trace 1``); each
metric is the median over the repetitions.  Untraced runs also start a
set-up-only process every ``SETUP_EVERY_S`` seconds, so ``setup_s`` is
a median over more samples than the workload's few repetitions give.  ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` alternates untraced and traced
repetitions and reports the per-layer metrics of ``BENCHMARK.json``,
with ``trace.overhead_ratio`` as traced over untraced ``verdict_s``.

Every verdict is checked against ``perfbench/expected.py``; the last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--out`` merges the full
record of this workload into a results file; ``--compare`` prints the
per-workload deltas between two such files.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REP = os.path.join(ROOT, "perfbench", "rep.py")
MAX_REPS = 40
SETUP_EVERY_S = 3.0
#: A repetition that outlives this is a hang: the run fails.
REP_TIMEOUT_S = 150.0
#: Workloads defined in perfbench/workloads.py but not in BENCHMARK.json:
#: runnable by name, not part of the gated set (see README.md).
MANUAL_WORKLOADS = ("fifo_integrity",)


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_child(workload: str, seed: int, trace: bool, tiny: bool,
              setup_only: bool = False) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src"), ROOT]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    cmd = [sys.executable, REP, "--workload", workload, "--seed", str(seed),
           "--trace", "1" if trace else "0"] + (["--tiny"] if tiny else []) \
        + (["--setup-only"] if setup_only else [])
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=REP_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"repetition failed ({proc.returncode}):\n"
                           + proc.stderr[-4000:])
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    record["wall_s"] = time.perf_counter() - t0
    return record


def measure(workload: str, seed: int, seconds: float, trace: bool,
            tiny: bool = False) -> tuple[list[dict], list[float]]:
    """Repetitions until the next one would overrun ``seconds``.

    Returns the repetition records and every untraced ``setup_s`` sample
    (the repetitions' and the set-up-only processes').
    """
    start = time.perf_counter()
    records: list[dict] = []
    setups: list[float] = []
    min_reps = 2 if trace else 3
    while len(records) < MAX_REPS:
        traced = trace and len(records) % 2 == 1
        records.append(run_child(workload, seed, traced, tiny))
        if not trace:
            setups.append(records[-1]["setup_s"])
            while len(setups) < (time.perf_counter() - start) / SETUP_EVERY_S:
                setups.append(run_child(workload, seed, False, tiny,
                                        setup_only=True)["setup_s"])
        elapsed = time.perf_counter() - start
        if len(records) >= min_reps and \
                elapsed + elapsed / len(records) > seconds:
            break
    return records, setups


def summarize(spec: dict, records: list[dict], setups: list[float],
              trace: bool) -> dict:
    plain = [r for r in records if not r["trace"]]
    traced = [r for r in records if r["trace"]]
    samples = {m["name"]: [r[m["name"]] for r in plain]
               for m in spec["end_to_end"]}
    if setups:
        samples["setup_s"] = setups
    out = {"reps": len(plain), "traced_reps": len(traced),
           "end_to_end": {name: statistics.median(values)
                          for name, values in samples.items()},
           "samples": samples,
           "verdict_errors": sum(len(r["errors"]) for r in records),
           "verdicts": sum(len(r["verdicts"]) for r in records),
           "errors": sorted({e for r in records for e in r["errors"]})}
    if trace:
        layer = {}
        for m in spec["per_layer"]:
            name = m["name"]
            if name == "trace.overhead_ratio":
                layer[name] = (statistics.median(r["verdict_s"] for r in traced)
                               / statistics.median(r["verdict_s"] for r in plain))
            else:
                layer[name] = statistics.median(
                    r["layers"]["metrics"][name] for r in traced)
        out["per_layer"] = layer
        out["detail"] = traced[len(traced) // 2]["layers"]["detail"]
    return out


def _fmt(value) -> str:
    if isinstance(value, float) and not value.is_integer():
        return f"{value:.4f}"
    return f"{int(value)}"


def report(spec: dict, workload: str, seed: int, summary: dict,
           trace: bool) -> None:
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    print(f"workload {workload}  seed {seed}  {summary['reps']} untraced "
          f"+ {summary['traced_reps']} traced repetitions (medians; "
          f"setup_s over {len(summary['samples']['setup_s'])} samples)")
    for name, value in summary["end_to_end"].items():
        print(f"  {name:<28s} {_fmt(value):>14s} {units[name]}")
    print(f"  {'verdict_errors':<28s} {summary['verdict_errors']:>14d} "
          f"of {summary['verdicts']} verdicts")
    for err in summary["errors"]:
        print(f"    error: {err}")
    if trace:
        for name, value in summary["per_layer"].items():
            print(f"  {name:<28s} {_fmt(value):>14s} {units[name]}")
        print(f"  {'solve.tail_ms percentile':<28s} "
              f"{summary['detail']['solve_tail_pct']:>14.1f} %")
        for mem, secs in sorted(summary["detail"]["emm_s_per_memory"].items()):
            print(f"  {'encode.emm_s[' + mem + ']':<28s} {secs:>14.4f} s")
        if summary["detail"]["worker_glue_s"]:
            print(f"  {'worker glue (service.job)':<28s} "
                  f"{summary['detail']['worker_glue_s']:>14.4f} s")


def save(path: str, workload: str, seed: int, summary: dict) -> None:
    data = {"workloads": {}}
    if os.path.exists(path):
        with open(path) as f:
            data = json.load(f)
    entry = data["workloads"].setdefault(workload, {})
    entry["seed"] = seed
    for key, value in summary.items():
        entry[key] = value
    with open(path, "w") as f:
        json.dump(data, f, indent=1, sort_keys=True)


def compare(path_a: str, path_b: str) -> int:
    """Per-workload deltas of every end-to-end and per-layer metric."""
    with open(path_a) as f:
        a = json.load(f)["workloads"]
    with open(path_b) as f:
        b = json.load(f)["workloads"]
    for workload in sorted(set(a) & set(b)):
        print(f"workload {workload}")
        for section in ("end_to_end", "per_layer"):
            left = a[workload].get(section, {})
            right = b[workload].get(section, {})
            for name in sorted(set(left) & set(right)):
                x, y = left[name], right[name]
                rel = f"{(y - x) / x:+8.1%}" if x else "       -"
                print(f"  {name:<28s} {_fmt(x):>14s} -> {_fmt(y):>14s}"
                      f"  {y - x:+14.4f} {rel}")
    only = sorted(set(a) ^ set(b))
    if only:
        print("in one file only: " + ", ".join(only))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description="EMM verification benchmark (see perfbench/README.md)")
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="merge this workload's record into FILE")
    ap.add_argument("--compare", nargs=2, metavar=("BASE", "CHANGE"))
    ap.add_argument("--tiny", action="store_true",
                    help="smoke-test depths (verdicts from expected.TINY)")
    args = ap.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("perfbench: the package source (src/repro) is missing",
              file=sys.stderr)
        return 1
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]] + list(MANUAL_WORKLOADS)
    if args.workload not in names:
        print(f"perfbench: --workload must be one of {names}", file=sys.stderr)
        return 2
    trace = bool(args.trace)
    try:
        records, setups = measure(args.workload, args.seed, args.seconds,
                                  trace, args.tiny)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    summary = summarize(spec, records, setups, trace)
    report(spec, args.workload, args.seed, summary, trace)
    if args.out:
        save(args.out, args.workload, args.seed, summary)
    section = summary["per_layer"] if trace else summary["end_to_end"]
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    failed = summary["verdict_errors"]
    print(json.dumps({
        "correct": failed == 0, "attempted": summary["verdicts"],
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in section.items()}}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
