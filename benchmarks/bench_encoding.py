"""Experiment A3b — hybrid vs pure-gate EMM encodings, measured at solve.

`bench_constraint_growth.bench_hybrid_vs_pure_gate` compares the two
representations by their closed-form sizes (the paper's Section 3
numbers).  This bench runs both encodings end to end on real workloads
— same verdicts required, sizes and times reported — so the hybrid
representation's advantage is measured, not just counted.
"""

from dataclasses import replace

import pytest

from benchmarks import common
from repro.bmc import BmcOptions, bmc3, verify
from repro.casestudies.cpu import CpuParams, build_cpu, memcpy_program
from repro.casestudies.fifo import FifoParams, build_fifo
from repro.casestudies.quicksort import QuicksortParams, build_quicksort

common.table(
    "A3b — hybrid vs gate EMM encodings (measured at solve)",
    ["workload", "encoding", "verdict", "depth", "SAT clauses", "strash h/f",
     "time"],
    note="Section 3's closing comparison run for real: both encodings must "
         "agree; the hybrid one keeps the CNF smaller, and structural "
         "hashing closes most of the gate encoding's gap",
)


def _quicksort():
    d = build_quicksort(QuicksortParams(n=2, addr_width=3, data_width=3,
                                        stack_addr_width=3))
    return d, "P2", bmc3(max_depth=30, pba=False)


def _fifo():
    d = build_fifo(FifoParams(addr_width=3, data_width=8))
    return d, "data_integrity", BmcOptions(find_proof=False, max_depth=10)


def _cpu():
    p = CpuParams(pc_width=5, addr_width=3, data_width=4)
    d = build_cpu(memcpy_program(2, src=0, dst=4, params=p), p)
    return d, "halted_acc_one", bmc3(max_depth=20, pba=False)


WORKLOADS = {"quicksort-P2": _quicksort, "fifo-integrity": _fifo,
             "cpu-memcpy": _cpu}


#: ``emm_encoding`` values measured per workload.
VARIANTS = ["hybrid", "gates"]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def bench_encoding(benchmark, workload):
    def run():
        out = {}
        for encoding in VARIANTS:
            design, prop, opts = WORKLOADS[workload]()
            out[encoding] = verify(design, prop,
                                   replace(opts, emm_encoding=encoding))
        return out

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    hybrid, gates = results["hybrid"], results["gates"]
    assert hybrid.status == gates.status, (hybrid.status, gates.status)
    assert hybrid.depth == gates.depth
    for label in VARIANTS:
        r = results[label]
        common.add_row(
            "A3b — hybrid vs gate EMM encodings (measured at solve)",
            workload, label, r.status, r.depth, r.stats.sat_clauses,
            f"{r.stats.strash_hits}h/{r.stats.strash_folds}f",
            f"{r.stats.wall_time_s:.2f}s")
