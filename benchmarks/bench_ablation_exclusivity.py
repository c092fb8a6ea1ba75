"""Experiment A1 — ablation: exclusive valid-read signals (Section 3).

The paper (citing its CAV'04 predecessor) claims the explicit exclusivity
constraints "improve the SAT solve time significantly".  This bench runs
the same bounded checks with the paper's raw-CNF S/PS exclusivity chain
and with the naive long-clause encoding of equation (3), comparing wall
time, conflicts and formula size.  Both rows emit hand-written CNF and
the ablation changes only the chain, as in Section 3.
"""

import pytest

from benchmarks import common
from repro.bmc import BmcOptions, verify
from repro.casestudies.quicksort import QuicksortParams, build_quicksort
from repro.casestudies.stack_machine import StackMachineParams, build_stack_machine

common.table(
    "A1 — exclusivity-chain ablation",
    ["workload", "encoding", "status", "time", "conflicts", "decisions",
     "clauses"],
    note="paper claim: exclusive S/PS signals cut SAT solve time",
)

DEPTH = 24 if common.is_full() else 16


def _quicksort():
    return build_quicksort(QuicksortParams(
        n=3, addr_width=3, data_width=3, stack_addr_width=3))


def _stack():
    return build_stack_machine(StackMachineParams(addr_width=3, data_width=8))


WORKLOADS = [
    ("quicksort-P1-bounded", _quicksort, "P1"),
    ("stack-roundtrip-bounded", _stack, "push_pop_roundtrip"),
]


@pytest.mark.parametrize("label,factory,prop", WORKLOADS,
                         ids=[w[0] for w in WORKLOADS])
@pytest.mark.parametrize("exclusivity", [True, False],
                         ids=["with-S-chain", "naive-eq3"])
def bench_exclusivity(benchmark, label, factory, prop, exclusivity):
    opts = BmcOptions(find_proof=False, max_depth=DEPTH,
                      exclusivity=exclusivity)

    def run():
        return verify(factory(), prop, opts)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    assert result.status == "bounded", result.describe()
    benchmark.extra_info["conflicts"] = result.stats.solver["conflicts"]
    common.add_row(
        "A1 — exclusivity-chain ablation",
        label, "S/PS chain" if exclusivity else "naive eq.(3)",
        result.status, f"{result.stats.wall_time_s:.2f}s",
        result.stats.solver["conflicts"], result.stats.solver["decisions"],
        result.stats.sat_clauses)
