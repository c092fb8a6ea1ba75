"""Cross-check the expected-verdict table against oracles without EMM.

    python3 perfbench/oracles.py [--workload NAME]

For each entry of :data:`perfbench.expected.EXPECTED` this rebuilds the
workload's design, expands every memory into word latches
(``expand_memories``) and runs plain BMC without EMM constraints — the
explicit engine, which shares no memory-modelling code with the EMM
encoders.  An expected ``bounded`` at depth D agrees when the oracle
finds no counterexample up to D (a proof also agrees); ``cex`` needs a
counterexample at the same depth with a validated replay; ``proof``
needs a proof at the same depth by the same method.  ``bdd_model_check``
was tried on the expanded designs and ran out of nodes on all four.

This takes about two minutes (the SoC's 40 frames dominate) and is not
part of a benchmark run; its outcome is recorded in each entry's
``oracle`` field.  Exits 1 on any disagreement.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

sys.path[:0] = [os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"),
    os.path.dirname(os.path.dirname(os.path.abspath(__file__)))]

from perfbench.expected import EXPECTED  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402
from repro.bmc import BmcOptions, verify_many  # noqa: E402
from repro.design import expand_memories  # noqa: E402


def _agrees(want: dict, got) -> bool:
    if want["status"] == "bounded":
        return got.status == "proof" or (got.status == "bounded"
                                         and got.depth >= want["depth"])
    if want["status"] == "cex":
        return (got.status == "cex" and got.depth == want["depth"]
                and got.trace_validated is True)
    return (got.status, got.depth, got.method) == \
        (want["status"], want["depth"], want["method"])


def check_workload(name: str) -> int:
    design = expand_memories(WORKLOADS[name].build())
    expected = EXPECTED[name]
    # Bounded expectations need only "no CEX up to depth"; any proof or
    # CEX expectation runs the induction checks too.  One shared session
    # per workload keeps the SoC's nine properties to one unrolling.
    find_proof = any(w["status"] != "bounded" for w in expected.values())
    depth = max(w["depth"] for w in expected.values())
    if find_proof:
        depth = max(depth, 20)
    t0 = time.perf_counter()
    results = verify_many(design, sorted(expected),
                          BmcOptions(use_emm=False, find_proof=find_proof,
                                     max_depth=depth))
    elapsed = time.perf_counter() - t0
    disagreements = 0
    for prop, want in sorted(expected.items()):
        got = results[prop]
        ok = _agrees(want, got)
        disagreements += not ok
        print(f"{name:<15s} {prop:<15s} expected {want['status']}@"
              f"{want['depth']}  explicit {got.status}@{got.depth} "
              f"({got.method})  {'agrees' if ok else 'DISAGREES'}",
              flush=True)
    print(f"{name:<15s} explicit engine took {elapsed:.1f}s", flush=True)
    return disagreements


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(EXPECTED))
    args = ap.parse_args(argv)
    names = [args.workload] if args.workload else sorted(EXPECTED)
    bad = sum(check_workload(name) for name in names)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
