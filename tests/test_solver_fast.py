"""Differential and regression tests for the fast solver back-end.

The fast CDCL loop (blocker literals, dedicated binary watch lists,
LBD clause tiers, root-level clause shrinking, assumption-trail reuse)
must be *observationally identical* to the historical baseline loop:
same verdicts, sound models, sound failed-assumption sets, checkable
proofs.  The baseline (``Solver(fast=False)`` /
``BmcOptions(solver_baseline=True)``) is kept precisely to be the
differential oracle here and in ``benchmarks/bench_solver_wall.py``.
"""

import random

import pytest

from repro.bmc import BmcOptions, verify, verify_many
from repro.sat import Solver, certify_unsat
from repro.sim.fuzzfarm import build_fuzz_netlist


# ---------------------------------------------------------------------------
# Random-CNF differential: fast vs baseline on the same formula.
# ---------------------------------------------------------------------------


def random_cnf(seed, nvars=30, nclauses=None):
    """Random CNF near the SAT/UNSAT boundary, rich in binary clauses
    (the fast back-end's dedicated watch list must earn its keep)."""
    rng = random.Random(seed)
    nclauses = nclauses or int(nvars * rng.uniform(3.0, 4.6))
    clauses = []
    for _ in range(nclauses):
        width = rng.choice([2, 2, 2, 3, 3, 3, 3, 4])
        vs = rng.sample(range(1, nvars + 1), width)
        clauses.append([v if rng.random() < 0.5 else -v for v in vs])
    return clauses


def build(clauses, fast, proof=True):
    s = Solver(proof=proof, fast=fast)
    nvars = max(abs(l) for c in clauses for l in c)
    for _ in range(nvars):
        s.new_var()
    for i, c in enumerate(clauses):
        s.add_clause(c, ("c", i))
    return s


@pytest.mark.parametrize("seed", range(25))
def test_fast_matches_baseline_on_random_cnf(seed):
    clauses = random_cnf(seed)
    fast = build(clauses, fast=True)
    base = build(clauses, fast=False)
    rf = fast.solve()
    rb = base.solve()
    assert rf.sat == rb.sat, seed
    if rf.sat:
        # The model must actually satisfy the formula, clause by clause.
        for c in clauses:
            assert any(fast.model_value(l) for l in c), (seed, c)
    else:
        # The fast proof trace must survive independent RUP checking.
        assert certify_unsat(fast).ok, seed


@pytest.mark.parametrize("seed", range(12))
def test_fast_matches_baseline_under_assumption_sequences(seed):
    """Incremental differential: the same solver objects answer a
    sequence of assumption queries (shared prefixes included, so the
    fast side's trail reuse is live) and must agree round for round."""
    rng = random.Random(1000 + seed)
    clauses = random_cnf(seed, nvars=24)
    fast = build(clauses, fast=True)
    base = build(clauses, fast=False)
    prefix = [1 if rng.random() < 0.5 else -1,
              2 if rng.random() < 0.5 else -2]
    for rnd in range(8):
        extra = [v if rng.random() < 0.5 else -v
                 for v in rng.sample(range(3, 25), rng.randrange(0, 4))]
        assumps = (prefix if rnd % 2 else []) + extra
        rf = fast.solve(assumps)
        rb = base.solve(assumps)
        ctx = (seed, rnd, assumps)
        assert rf.sat == rb.sat, ctx
        if rf.sat:
            for c in clauses:
                assert any(fast.model_value(l) for l in c), ctx
            for a in assumps:
                assert fast.model_value(a), ctx
        else:
            for r in (rf, rb):
                assert set(r.failed_assumptions) <= set(assumps), ctx
            # The failed-assumption set must itself be UNSAT — re-verify
            # it on a fresh baseline solver.
            chk = build(clauses, fast=False, proof=False)
            assert not chk.solve(list(rf.failed_assumptions)).sat, ctx


def test_assumption_trail_reuse_keeps_verdicts_and_saves_levels():
    clauses = random_cnf(18, nvars=20)  # seed chosen SAT under the prefix
    fast = build(clauses, fast=True, proof=False)
    prefix = [1, -2, 3]
    queries = [prefix + [4], prefix + [-4], prefix + [5, 6], prefix]
    verdicts = [fast.solve(q).sat for q in queries]
    # The shared 3-assumption prefix must have been kept assigned at
    # least once instead of being cancelled and re-propagated.
    assert fast.stats.trail_saved_levels > 0
    for q, got in zip(queries, verdicts):
        chk = build(clauses, fast=False, proof=False)
        assert chk.solve(q).sat == got, q


def test_clause_addition_invalidates_saved_trail():
    """add_clause keeps the assumption levels but attaches the new clause
    against them; a later solve must see the conflict the clause closes
    rather than trust the implications saved before it arrived."""
    s = Solver(proof=False, fast=True)
    for _ in range(4):
        s.new_var()
    s.add_clause([1, 2])
    assert s.solve([1, 3]).sat
    s.add_clause([-1, -3])  # now 1 and 3 conflict
    r = s.solve([1, 3])
    assert not r.sat
    assert set(r.failed_assumptions) <= {1, 3}


# ---------------------------------------------------------------------------
# LBD tiers: glue <= LBD_CORE clauses are pinned across reductions.
# ---------------------------------------------------------------------------


def hard_3sat(seed, nvars=60, ratio=4.3):
    """Uniform 3-SAT at the hardness ratio — enough conflicts to learn a
    populated, tiered clause database."""
    rng = random.Random(seed)
    return [[v if rng.random() < 0.5 else -v
             for v in rng.sample(range(1, nvars + 1), 3)]
            for _ in range(int(nvars * ratio))]


def test_reduce_db_pins_core_glue_clauses():
    clauses = hard_3sat(0)
    s = build(clauses, fast=True, proof=False)
    s._max_learnts = 15.0  # force frequent reductions during search
    s.solve()
    assert s.stats.deleted > 0, "workload never triggered a reduction"
    core_before = [cid for cid in s._learned_ids
                   if s._clauses[cid] is not None
                   and (len(s._clauses[cid]) <= 2
                        or s._clause_lbd.get(cid, 99) <= Solver.LBD_CORE)]
    assert core_before, "workload learned no core-tier clauses"
    deleted_before = s.stats.deleted
    s._reduce_db()
    for cid in core_before:
        assert s._clauses[cid] is not None, cid  # pinned forever
        assert cid in s._learned_ids, cid
    assert s.stats.deleted >= deleted_before


def test_reduce_db_tier2_survives_when_used():
    clauses = hard_3sat(1)
    s = build(clauses, fast=True, proof=False)
    s._max_learnts = 15.0
    s.solve()
    tier2 = [cid for cid in s._learned_ids
             if s._clauses[cid] is not None and len(s._clauses[cid]) > 2
             and Solver.LBD_CORE < s._clause_lbd.get(cid, 99)
             <= Solver.LBD_TIER2]
    if not tier2:
        pytest.skip("workload learned no tier2 clauses at rest")
    s._clause_used.update(tier2)  # mark as used since the last reduce
    s._reduce_db()
    for cid in tier2:
        assert s._clauses[cid] is not None, cid


# ---------------------------------------------------------------------------
# Deadline polling: a conflict-free search must still honor the wall
# deadline (regression — it used to be polled on conflict counts only).
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("fast", [True, False])
def test_deadline_polled_on_decisions_without_conflicts(monkeypatch, fast):
    import repro.sat.solver as solver_mod

    s = Solver(proof=False, fast=fast)
    n = 400
    for _ in range(n):
        s.new_var()
    for i in range(1, n, 2):
        s.add_clause([i, i + 1])  # satisfiable by any assignment touching
    clock = [0.0]                 # one positive literal: zero conflicts

    def fake_monotonic():
        clock[0] += 0.5
        return clock[0]

    monkeypatch.setattr(solver_mod.time, "monotonic", fake_monotonic)
    r = s.solve(deadline=0.3)
    assert r.unknown, "conflict-free search ran straight through the deadline"
    assert r.limit == "deadline"


def _unknown_result(limit):
    s = Solver(proof=False)
    for _ in range(12):
        s.new_var()
    # Pigeonhole 4 -> 3 needs conflicts to refute.
    pig = [[h * 4 + p + 1 for h in range(3)] for p in range(4)]
    for holes in pig:
        s.add_clause(holes)
    for h in range(3):
        for p in range(4):
            for q in range(p + 1, 4):
                s.add_clause([-pig[p][h], -pig[q][h]])
    if limit == "conflicts":
        return s.solve(max_conflicts=0)
    return s.solve(deadline=0.0)


@pytest.mark.parametrize("limit", ["conflicts", "deadline"])
def test_unknown_result_truthiness_names_its_limit(limit):
    r = _unknown_result(limit)
    assert r.unknown and r.limit == limit
    with pytest.raises(RuntimeError, match=f"aborted on {limit} limit"):
        bool(r)


# ---------------------------------------------------------------------------
# BMC-level differential: full engine runs, fast vs solver_baseline.
# ---------------------------------------------------------------------------


FAST_OPTS = dict(find_proof=True, pba=True, max_depth=4)


@pytest.mark.parametrize("seed", range(4))
def test_bmc_fast_vs_baseline_verdicts(seed):
    design = build_fuzz_netlist(seed)
    for prop in sorted(design.properties):
        rf = verify(build_fuzz_netlist(seed), prop, BmcOptions(**FAST_OPTS))
        rb = verify(build_fuzz_netlist(seed), prop,
                    BmcOptions(solver_baseline=True, **FAST_OPTS))
        ctx = (seed, prop)
        assert (rf.status, rf.depth, rf.method) == \
            (rb.status, rb.depth, rb.method), ctx
        assert rf.trace_validated == rb.trace_validated, ctx
        if rf.trace is not None:
            assert len(rf.trace.cycles) == len(rb.trace.cycles), ctx
        # PBA core labels: cores are not unique, but both back-ends'
        # accumulated reason sets must be sound, i.e. re-running the
        # *same* back-end reproduces them (determinism) — cross-backend
        # we require equal lengths (one entry per completed depth).
        assert len(rf.latch_reasons) == len(rb.latch_reasons), ctx
        assert len(rf.memory_reasons) == len(rb.memory_reasons), ctx


@pytest.mark.parametrize("seed", range(3))
def test_verify_many_fast_vs_baseline(seed):
    design = build_fuzz_netlist(seed)
    shared_f = verify_many(design, options=BmcOptions(**FAST_OPTS))
    shared_b = verify_many(build_fuzz_netlist(seed),
                           options=BmcOptions(solver_baseline=True,
                                              **FAST_OPTS))
    assert set(shared_f) == set(shared_b) == set(design.properties)
    for name in shared_f:
        rf, rb = shared_f[name], shared_b[name]
        assert (rf.status, rf.depth, rf.method) == \
            (rb.status, rb.depth, rb.method), (seed, name)


def test_verify_many_shares_assumption_trail():
    """Depth-major scheduling on one session must actually exercise the
    solver's saved-trail path (the whole point of the check ordering)."""
    design = build_fuzz_netlist(1)
    results = verify_many(design,
                          options=BmcOptions(find_proof=False, max_depth=4))
    saved = max(r.stats.solver["trail_saved_levels"]
                for r in results.values())
    assert saved > 0


def test_baseline_engine_reports_zero_saved_levels():
    design = build_fuzz_netlist(1)
    results = verify_many(design,
                          options=BmcOptions(find_proof=False, max_depth=4,
                                             solver_baseline=True))
    assert all(r.stats.solver["trail_saved_levels"] == 0
               for r in results.values())
