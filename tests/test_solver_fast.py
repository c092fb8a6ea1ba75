"""Oracle and regression tests for the CDCL solver's search machinery.

The solver's blocker literals, dedicated binary watch lists, LBD clause
tiers, root-level clause shrinking and assumption-trail reuse are
checked against oracles independent of the search: every SAT answer's
model must satisfy each clause and assumption, every UNSAT answer must
pass :func:`repro.sat.certify_unsat` (RUP over the learned clauses plus
a re-solve of the core and failed assumptions), and small CNFs are
decided by the truth table in ``tests/sat_oracle.py``.  Full BMC runs
are checked against BDD reachability and the explicit-memory expansion.
"""

import functools
import random

import pytest

from repro.bmc import BmcOptions, verify, verify_many
from repro.sat import Solver, certify_unsat
from repro.sim.fuzzfarm import build_fuzz_netlist
from tests.bmc_oracle import (assert_verdict, bdd_verdict, explicit_falsify,
                              verdict_of)
from tests.sat_oracle import brute_force_sat


# ---------------------------------------------------------------------------
# Random CNFs: models and proof certificates.
# ---------------------------------------------------------------------------


def random_cnf(seed, nvars=30, nclauses=None):
    """Random CNF near the SAT/UNSAT boundary, rich in binary clauses
    (the dedicated binary watch list must earn its keep)."""
    rng = random.Random(seed)
    nclauses = nclauses or int(nvars * rng.uniform(3.0, 4.6))
    clauses = []
    for _ in range(nclauses):
        width = rng.choice([2, 2, 2, 3, 3, 3, 3, 4])
        vs = rng.sample(range(1, nvars + 1), width)
        clauses.append([v if rng.random() < 0.5 else -v for v in vs])
    return clauses


def build(clauses, proof=True):
    s = Solver(proof=proof)
    nvars = max(abs(l) for c in clauses for l in c)
    for _ in range(nvars):
        s.new_var()
    for i, c in enumerate(clauses):
        s.add_clause(c, ("c", i))
    return s


def hard_3sat(seed, nvars=60, ratio=4.3):
    """Uniform 3-SAT at the hardness ratio — enough conflicts to learn a
    populated, tiered clause database."""
    rng = random.Random(seed)
    return [[v if rng.random() < 0.5 else -v
             for v in rng.sample(range(1, nvars + 1), 3)]
            for _ in range(int(nvars * ratio))]


def assert_certified(s, r, clauses, assumps=(), ctx=None):
    """Check one answer of proof-logging solver ``s`` independently.

    SAT: the model satisfies every clause and assumption.  UNSAT: the
    failed assumptions are a subset of ``assumps``, every learned clause
    is RUP-implied by its antecedents, and the core plus the failed
    assumptions re-solves UNSAT.
    """
    if r.sat:
        for c in clauses:
            assert any(s.model_value(lt) for lt in c), (ctx, c)
        for a in assumps:
            assert s.model_value(a), (ctx, a)
    else:
        assert set(r.failed_assumptions) <= set(assumps), ctx
        assert certify_unsat(s, assumps).ok, ctx


@pytest.mark.parametrize("seed", range(25))
def test_random_cnf_answers_are_certified(seed):
    clauses = random_cnf(seed)
    s = build(clauses)
    assert_certified(s, s.solve(), clauses, ctx=seed)


@pytest.mark.parametrize("seed", range(8))
def test_hard_3sat_answers_are_certified(seed):
    """Dozens to hundreds of conflicts per instance, so learned clauses,
    minimization and reductions all feed the certificate."""
    clauses = hard_3sat(seed)
    s = build(clauses)
    s._max_learnts = 15.0  # reduce the database during the search
    r = s.solve()
    assert s.stats.conflicts > 10, seed
    assert_certified(s, r, clauses, ctx=seed)


@pytest.mark.parametrize("seed", range(12))
def test_assumption_sequence_answers_are_certified(seed):
    """One solver answers a sequence of assumption queries (shared
    prefixes included, so trail reuse is live); every answer is checked
    on its own — models against clauses and assumptions, UNSAT by
    certificate over the failed assumptions."""
    rng = random.Random(1000 + seed)
    clauses = random_cnf(seed, nvars=24)
    s = build(clauses)
    prefix = [1 if rng.random() < 0.5 else -1,
              2 if rng.random() < 0.5 else -2]
    for rnd in range(8):
        extra = [v if rng.random() < 0.5 else -v
                 for v in rng.sample(range(3, 25), rng.randrange(0, 4))]
        assumps = (prefix if rnd % 2 else []) + extra
        assert_certified(s, s.solve(assumps), clauses, assumps,
                         ctx=(seed, rnd, assumps))


# The tests above run the compiled kernel when it is built; these run
# the same instances on the pure-Python loops.
without_kernel = pytest.mark.parametrize("solver_mode", ["python"],
                                         indirect=True)


@without_kernel
@pytest.mark.parametrize("seed", range(25))
def test_random_cnf_without_kernel(seed, solver_mode):
    test_random_cnf_answers_are_certified(seed)


@without_kernel
@pytest.mark.parametrize("seed", range(8))
def test_hard_3sat_without_kernel(seed, solver_mode):
    test_hard_3sat_answers_are_certified(seed)


@without_kernel
@pytest.mark.parametrize("seed", range(12))
def test_assumption_sequence_without_kernel(seed, solver_mode):
    test_assumption_sequence_answers_are_certified(seed)


def test_assumption_trail_reuse_keeps_verdicts_and_saves_levels():
    clauses = random_cnf(18, nvars=20)  # seed chosen SAT under the prefix
    s = build(clauses, proof=False)
    prefix = [1, -2, 3]
    queries = [prefix + [4], prefix + [-4], prefix + [5, 6], prefix]
    verdicts = [s.solve(q).sat for q in queries]
    # The shared 3-assumption prefix must have been kept assigned at
    # least once instead of being cancelled and re-propagated.
    assert s.stats.trail_saved_levels > 0
    for q, got in zip(queries, verdicts):
        assert brute_force_sat(20, clauses, q) == got, q


def test_clause_addition_invalidates_saved_trail():
    """add_clause keeps the assumption levels but attaches the new clause
    against them; a later solve must see the conflict the clause closes
    rather than trust the implications saved before it arrived."""
    s = Solver(proof=False)
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


def test_reduce_db_pins_core_glue_clauses():
    clauses = hard_3sat(0)
    s = build(clauses, proof=False)
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
    s = build(clauses, proof=False)
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


@pytest.mark.parametrize("proof", [True, False])
def test_deadline_polled_on_decisions_without_conflicts(monkeypatch, proof):
    import repro.sat.solver as solver_mod

    s = Solver(proof=proof)
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
# BMC-level oracles: full engine runs against engines independent of the
# EMM encoding and of the solver's search.
# ---------------------------------------------------------------------------


BMC_OPTS = dict(find_proof=True, pba=True, max_depth=4)

#: Fuzz netlists whose expanded model BDD reachability decides within its
#: default node limit; on the others it hits the limit, so their oracle
#: is explicit-memory BMC falsification.
BDD_SEEDS = (1, 2)


@functools.lru_cache(maxsize=None)
def _oracle(seed):
    """``{prop: (status, cex depth)}`` from an independent engine.

    BDD seeds give "proof" or "cex"; the others give "cex" or "bounded"
    (no counterexample up to ``max_depth``).
    """
    design = build_fuzz_netlist(seed)
    out = {}
    for prop in sorted(design.properties):
        if seed in BDD_SEEDS:
            out[prop] = bdd_verdict(build_fuzz_netlist(seed), prop)
        else:
            out[prop] = verdict_of(explicit_falsify(
                build_fuzz_netlist(seed), prop, BMC_OPTS["max_depth"]))
    return out


@pytest.mark.parametrize("seed", range(4))
def test_bmc_verify_matches_independent_oracle(seed):
    oracle = _oracle(seed)
    for prop in sorted(oracle):
        r = verify(build_fuzz_netlist(seed), prop, BmcOptions(**BMC_OPTS))
        assert_verdict(r, oracle[prop], (seed, prop))


@pytest.mark.parametrize("seed", range(4))
def test_verify_many_matches_independent_oracle(seed):
    oracle = _oracle(seed)
    shared = verify_many(build_fuzz_netlist(seed),
                         options=BmcOptions(**BMC_OPTS))
    assert set(shared) == set(oracle)
    for prop, r in shared.items():
        assert_verdict(r, oracle[prop], (seed, prop))


def test_verify_many_shares_assumption_trail():
    """Depth-major scheduling on one session must actually exercise the
    solver's saved-trail path (the whole point of the check ordering)."""
    design = build_fuzz_netlist(1)
    results = verify_many(design,
                          options=BmcOptions(find_proof=False, max_depth=4))
    saved = max(r.stats.solver["trail_saved_levels"]
                for r in results.values())
    assert saved > 0


@without_kernel
@pytest.mark.parametrize("seed", range(4))
def test_bmc_oracles_without_kernel(seed, solver_mode):
    test_bmc_verify_matches_independent_oracle(seed)
    test_verify_many_matches_independent_oracle(seed)
