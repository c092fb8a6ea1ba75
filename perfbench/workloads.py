"""The benchmark's fixed workloads, driven through the package's public API.

Each workload is a design builder (timed as set-up) plus one verdict call
(timed as ``verdict_s``).  On ``soc_falsify`` the seed permutes the
property order handed to ``verify_many``: that changes the order in
which property literals are emitted and solver variables are numbered,
never the verdicts or the work.  The other workloads ignore the seed.

``tiny=True`` shrinks every depth so the smoke tests can run each
workload end to end in about a second; the verdicts then differ and are
checked against :data:`perfbench.expected.TINY`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from repro.bmc import BmcOptions, verify, verify_many
from repro.casestudies import (CpuParams, FifoParams, MultiportSocParams,
                               QuicksortParams, build_cpu, build_fifo,
                               build_multiport_soc, build_quicksort,
                               memcpy_program)
from repro.pba.abstraction import verify_with_pba
from repro.service import VerificationService, shard_depths


def cpu_memcpy_design():
    """The CLI's default ``cpu`` design: a 2-word memcpy program.

    Module-level so pooled service workers can rebuild it by name.
    """
    params = CpuParams(pc_width=5, addr_width=3, data_width=4)
    return build_cpu(memcpy_program(2, src=0, dst=4, params=params), params)


def _verdict(name, result) -> dict:
    return {"property": name, "status": result.status, "depth": result.depth,
            "method": result.method, "trace_validated": result.trace_validated}


def run_fifo(design, seed, profile, tiny, registry):
    depth = 3 if tiny else 11
    result = verify(design, "data_integrity",
                    BmcOptions(max_depth=depth, profile=profile))
    return [_verdict("data_integrity", result)], registry.clause_var_total()


def run_soc(design, seed, profile, tiny, registry):
    names = sorted(design.properties)
    random.Random(seed).shuffle(names)
    results = verify_many(design, names,
                          BmcOptions(max_depth=3 if tiny else 40,
                                     find_proof=False, profile=profile))
    return ([_verdict(n, results[n]) for n in sorted(results)],
            registry.clause_var_total())


def run_quicksort(design, seed, profile, tiny, registry):
    depths = (1, 3, 4) if tiny else (3, 10, 20)
    out = verify_with_pba(design, "P2", stability_depth=depths[0],
                          abstraction_max_depth=depths[1],
                          proof_max_depth=depths[2],
                          options=BmcOptions(profile=profile))
    phase = out.phase
    verdict = _verdict("P2", out.proof_result)
    verdict["status"] = out.status
    verdict["pba"] = {
        "stable": phase.stable, "stable_depth": phase.stable_depth,
        "latch_reasons": len(phase.latch_reasons),
        "kept_latch_bits": phase.kept_latch_bits,
        "orig_latch_bits": phase.orig_latch_bits,
        "kept_memories": sorted(phase.kept_memories),
    }
    return [verdict], registry.clause_var_total()


def run_cpu_service(design, seed, profile, tiny, registry):
    # The seed is not used: the plan order decides which worker draws
    # which job and which jobs first-CEX-wins cancels, so permuting it
    # would change the work done, not just the numbering.
    depth = 5 if tiny else 20
    names = sorted(design.properties)
    with VerificationService(cpu_memcpy_design,
                             BmcOptions(max_depth=depth, profile=profile),
                             jobs=2) as svc:
        results, records = svc.collect(names,
                                       depth_windows=shard_depths(depth, 2))
    # Pooled sessions live in the workers, and which worker drew which
    # job is a race; the largest session any job ended on is the
    # scheduling-independent size measure (see perfbench/README.md).
    size = max(r.result.stats.sat_vars + r.result.stats.sat_clauses
               for r in records if r.result is not None)
    return [_verdict(n, results[n]) for n in sorted(results)], size


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable
    run: Callable


#: The reasons for each workload live in BENCHMARK.json and README.md;
#: ``fifo_integrity`` is runnable by name but not in the gated set.
WORKLOADS = {w.name: w for w in (
    Workload("fifo_integrity", lambda: build_fifo(FifoParams(3, 8)),
             run_fifo),
    Workload("soc_falsify",
             lambda: build_multiport_soc(MultiportSocParams(5, 8)), run_soc),
    Workload("quicksort_pba",
             lambda: build_quicksort(QuicksortParams(
                 n=3, addr_width=3, data_width=4, stack_addr_width=3)),
             run_quicksort),
    Workload("cpu_service", cpu_memcpy_design, run_cpu_service),
)}
