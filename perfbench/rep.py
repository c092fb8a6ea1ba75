"""One repetition of one workload, in a fresh process.

    python3 perfbench/rep.py --workload NAME --seed N --trace 0|1 [--tiny]
        [--setup-only]

Prints one JSON object: set-up and verdict times, peak RSS, CNF size,
the verdicts and their errors against the expected table, and with
``--trace 1`` the per-layer record of :mod:`perfbench.tracer`.
``--setup-only`` stops after the design build and prints only the
set-up times.
``perfbench/run.py`` launches this once per repetition, so every
repetition pays the import and the build the way a CLI run does.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _import_repro() -> None:
    """The package imports every workload needs (timed as set-up)."""
    import repro  # noqa: F401
    import repro.bmc  # noqa: F401
    import repro.casestudies  # noqa: F401
    import repro.pba.abstraction  # noqa: F401
    import repro.service  # noqa: F401


def _peak_rss_mb() -> float:
    """Peak RSS of this process or of any reaped child, in MiB.

    The service workload encodes and solves in pooled workers, which the
    service reaps on close; their peak counts as the workload's.  Scaled
    per platform as ``repro.perf.peak_rss_mb`` does.
    """
    divisor = 1024.0 * 1024.0 if sys.platform == "darwin" else 1024.0
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF,
                           resource.RUSAGE_CHILDREN)) / divisor


def run_rep(workload: str, seed: int, trace: bool, tiny: bool = False,
            expected: dict | None = None, setup_only: bool = False) -> dict:
    """Run one repetition in this process and return its record."""
    t0 = time.perf_counter()
    _import_repro()
    t_import = time.perf_counter() - t0
    from perfbench import expected as expected_mod
    from perfbench import layers
    from perfbench.tracer import SessionRegistry, Tracer
    from perfbench.workloads import WORKLOADS

    wl = WORKLOADS[workload]
    t0 = time.perf_counter()
    design = wl.build()
    t_build = time.perf_counter() - t0
    if setup_only:
        return {"workload": workload, "import_s": t_import,
                "build_s": t_build, "setup_s": t_import + t_build}

    tracer = Tracer() if trace else None
    registry = tracer.registry if trace else SessionRegistry()
    hooks = tracer or registry
    hooks.install()
    try:
        t0 = time.perf_counter()
        if trace:
            tracer.enter("verdict")
        try:
            verdicts, cnf = wl.run(design, seed, trace, tiny, registry)
        finally:
            if trace:
                tracer.exit()
        verdict_s = time.perf_counter() - t0
    finally:
        hooks.restore()

    if expected is None:
        expected = (expected_mod.TINY if tiny else expected_mod.EXPECTED)[workload]
    record = {
        "workload": workload, "seed": seed, "trace": trace,
        "import_s": t_import, "build_s": t_build,
        "setup_s": t_import + t_build, "verdict_s": verdict_s,
        "peak_rss_mb": _peak_rss_mb(), "cnf_clauses_vars": cnf,
        "verdicts": verdicts,
        "errors": expected_mod.check(verdicts, expected),
    }
    if trace:
        record["layers"] = layers.summarize(tracer, verdict_s, verdicts)
        record["layers"]["metrics"].update({"design.import_s": t_import,
                                            "design.build_s": t_build})
    return record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    record = run_rep(args.workload, args.seed, bool(args.trace), args.tiny,
                     setup_only=args.setup_only)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.path[:0] = [os.path.join(_ROOT, "src"), _ROOT]
    sys.exit(main())
