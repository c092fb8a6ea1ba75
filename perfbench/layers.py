"""Per-layer metrics computed from one traced repetition.

:func:`summarize` folds the parent's spans and, for the service
workload, the span records its pooled workers shipped back, into the
flat metric names ``BENCHMARK.json`` lists under ``per_layer``.  A layer
a workload never reaches reports 0.  Coverage is computed on the
parent's spans only: worker time runs in parallel with the parent's
wait, which the ``service`` span already covers.
"""

from __future__ import annotations

import statistics

from perfbench.tracer import GLUE_SPANS, SOLVER_COUNTERS, session_counters


def _merge_jobs(tracer) -> dict:
    """Sum the parent's span data and every worker job's."""
    acc = {"self_s": dict(tracer.self_s), "incl_s": dict(tracer.incl_s),
           "calls": dict(tracer.calls), "solve_ms": list(tracer.solve_ms),
           "solver": dict(tracer.solver), "counts": dict(tracer.counts)}
    sessions = {}
    for job in tracer.jobs:
        for key in ("self_s", "incl_s", "calls", "solver", "counts"):
            for name, value in job[key].items():
                acc[key][name] = acc[key].get(name, 0) + value
        acc["solve_ms"].extend(job["solve_ms"])
        for sid, counters in job["sessions"].items():
            # A worker's session grows job by job: keep its last snapshot.
            sessions[(job["pid"], sid)] = counters
    acc["worker_sessions"] = list(sessions.values())
    return acc


def _tail(samples: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it, and that
    percentile.  Below 20 samples no percentile above the median has ten
    samples beyond it, and the median is reported as the tail."""
    ordered = sorted(samples)
    n = len(ordered)
    if n < 20:
        return (statistics.median(ordered) if ordered else 0.0), 50.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def summarize(tracer, verdict_s: float, verdicts: list[dict]) -> dict:
    acc = _merge_jobs(tracer)
    self_s, incl_s, calls = acc["self_s"], acc["incl_s"], acc["calls"]
    solver = acc["solver"]
    m: dict[str, float] = {}

    # sat.solver
    solve_s = incl_s.get("solve", 0.0)
    tail_ms, tail_pct = _tail(acc["solve_ms"])
    m["solve.s"] = solve_s
    m["solve.n"] = calls.get("solve", 0)
    m["solve.p50_ms"] = (statistics.median(acc["solve_ms"])
                         if acc["solve_ms"] else 0.0)
    m["solve.tail_ms"] = tail_ms
    for key in SOLVER_COUNTERS:
        if not key.startswith("time_"):
            m["solver." + key] = solver[key]
    m["solver.propagations_per_s"] = (solver["propagations"] / solve_s
                                      if solve_s else 0.0)
    phases = 0.0
    for phase in ("propagate", "analyze", "reduce", "simplify"):
        m[f"solver.{phase}_s"] = solver[f"time_{phase}_s"]
        phases += solver[f"time_{phase}_s"]
    m["solver.unattributed_s"] = solve_s - phases

    # bmc.session / aig / emm
    emm_per_memory = {name[len("encode.emm."):]: s
                      for name, s in self_s.items()
                      if name.startswith("encode.emm.")}
    m["encode.s"] = (incl_s.get("encode.session", 0.0)
                     + incl_s.get("encode.prop", 0.0))
    m["encode.session_s"] = self_s.get("encode.session", 0.0)
    m["encode.unroll_s"] = self_s.get("encode.unroll", 0.0)
    m["encode.emm_s"] = sum(emm_per_memory.values())
    m["encode.lfp_s"] = self_s.get("encode.lfp", 0.0)
    m["encode.prop_s"] = self_s.get("encode.prop", 0.0)
    m["tseitin.self_s"] = self_s.get("tseitin", 0.0)
    m["sat.add_clause.s"] = self_s.get("sat.add_clause", 0.0)
    m["sat.add_clause.n"] = calls.get("sat.add_clause", 0)
    counters = session_counters(tracer.registry.sessions)
    for worker_session in acc["worker_sessions"]:
        for key, value in worker_session.items():
            counters[key] += value
    hits, nodes = counters["aig.strash_hits"], counters["aig.nodes"]
    m["aig.nodes"] = nodes
    m["aig.strash_hit_ratio"] = hits / (hits + nodes) if hits + nodes else 0.0
    for key in ("tseitin.ite_lowered", "emm.clauses",
                "emm.addr_eq_cache_hits", "emm.addr_eq_folded",
                "emm.cross_mem_cmp_hits", "emm.chain_suffix_hits"):
        m[key] = counters[key]

    # pba
    phase_s = incl_s.get("pba.phase", 0.0)
    m["pba.phase_s"] = phase_s
    m["pba.proof_s"] = incl_s.get("verdict", 0.0) - phase_s if phase_s else 0.0
    m["pba.core_s"] = incl_s.get("pba.core", 0.0)
    m["pba.core_n"] = calls.get("pba.core", 0)
    pba = [v["pba"] for v in verdicts if "pba" in v]
    m["pba.kept_latch_ratio"] = (
        sum(p["kept_latch_bits"] for p in pba)
        / sum(p["orig_latch_bits"] for p in pba)) if pba else 0.0
    m["pba.core_unlabeled"] = acc["counts"]["pba.core_unlabeled"]

    # bmc.counterexample + sim
    cex_n = calls.get("cex", 0)
    m["cex.s"] = incl_s.get("cex", 0.0)
    m["cex.n"] = cex_n
    m["cex.validated_ratio"] = (acc["counts"]["cex.validated"] / cex_n
                                if cex_n else 0.0)

    # service
    timeline = tracer.service
    makespan = timeline.get("makespan_s", 0.0)
    busy = sum(job["busy_s"] for job in tracer.jobs)
    m["service.first_result_s"] = timeline.get("first_result_s", 0.0)
    m["service.makespan_s"] = makespan
    m["service.jobs"] = sum(n for key, n in timeline.items()
                            if key.startswith("records.")
                            and key != "records.retry")
    m["service.retries"] = timeline.get("records.retry", 0)
    m["service.failed"] = timeline.get("records.failed", 0)
    m["service.cancelled"] = timeline.get("records.cancelled", 0)
    m["service.worker_busy_s"] = busy
    m["service.utilization"] = (busy / (makespan * timeline["workers"])
                                if makespan else 0.0)

    # bmc.engine: the parent's time no layer span claims.
    engine_self = sum(tracer.self_s.get(name, 0.0) for name in GLUE_SPANS)
    m["engine.self_s"] = engine_self
    m["trace.coverage"] = 1.0 - engine_self / verdict_s

    detail = {
        "solve_tail_pct": tail_pct,
        "emm_s_per_memory": emm_per_memory,
        "worker_glue_s": self_s.get("service.job", 0.0),
        "spans": {name: {"self_s": self_s[name], "incl_s": incl_s[name],
                         "n": calls[name]} for name in sorted(self_s)},
    }
    return {"metrics": m, "detail": detail}
