"""Randomized differential tests for clause additions under a kept trail.

Without proof logging the solver keeps its assumption levels across
``add_clause`` and asserts root units (added or learned) at level 0 without cancelling the
levels above.  Each new clause is attached against the current trail: it
may already be satisfied there, be unit (its last literal is asserted
with the clause as reason) or be false (the solver backtracks first).
These tests interleave exactly those clause shapes with assumption
solves on small CNFs and check every answer against the truth table of
the whole formula.
"""

import random

import pytest

from repro.sat import Solver, check_all_learned, check_core
from tests.sat_oracle import brute_force_sat

NVARS = 14


def _fresh_verdict(clauses, assumptions):
    return brute_force_sat(NVARS, clauses, assumptions)


def _random_clause(rng):
    width = rng.choice([1, 2, 2, 3, 3, 3, 4])
    vs = rng.sample(range(1, NVARS + 1), width)
    return [v if rng.random() < 0.5 else -v for v in vs]


def _trail_clauses(rng, assumps, model):
    """Clauses shaped against the trail the last solve left behind."""
    kind = rng.choice(["false", "unit", "sat", "root", "root_assumed",
                       "root_pair"])
    if kind == "root":
        v = rng.randrange(1, NVARS + 1)
        return [[v if rng.random() < 0.5 else -v]]
    if not assumps:
        return [_random_clause(rng)]
    if kind == "root_assumed":
        # A unit on an assumed variable: true under the trail (promoted
        # in place) or false (the solver must backtrack past it).
        a = rng.choice(assumps)
        return [[a if rng.random() < 0.5 else -a]]
    negs = [-a for a in rng.sample(assumps, rng.randrange(1, len(assumps) + 1))]
    if kind == "false":
        return [negs]
    free = [v for v in range(1, NVARS + 1)
            if v not in {abs(a) for a in assumps}]
    if kind == "root_pair":
        # Two queued root units that together falsify a clause whose
        # remaining literals sit at assumption levels: the conflict has
        # no literal at the current level.
        x, y = rng.sample(free, 2)
        return [[-x, -y] + negs, [x], [y]]
    v = rng.choice(free)
    lit = v if rng.random() < 0.5 else -v
    if kind == "unit":
        return [negs + [lit]]
    # Satisfied: one literal true in the last model.
    return [negs + [lit if model.get(v, False) == (lit > 0) else -lit]]


def _check_answer(s, clauses, assumps, res, proof):
    assert res.sat == _fresh_verdict(clauses, assumps), (clauses, assumps)
    if res.sat:
        for c in clauses:
            assert any(s.model_value(lt) for lt in c), c
        for a in assumps:
            assert s.model_value(a), a
        return
    failed = res.failed_assumptions
    assert set(failed) <= set(assumps)
    assert not _fresh_verdict(clauses, failed)
    if proof:
        assert check_all_learned(s).ok
        assert check_core(s, assumps)


def _run_session(seed, proof, instrument=None):
    rng = random.Random(seed)
    s = Solver(proof=proof)
    if instrument is not None:
        instrument(s)
    for _ in range(NVARS):
        s.new_var()
    clauses = []
    for _ in range(rng.randrange(8, 30)):
        c = _random_clause(rng)
        clauses.append(c)
        s.add_clause(c)
    prefix = [v if rng.random() < 0.5 else -v
              for v in rng.sample(range(1, NVARS + 1), 3)]
    assumps: list[int] = []
    model: dict[int, bool] = {}
    for _ in range(12):
        for _ in range(rng.randrange(0, 4)):
            for c in _trail_clauses(rng, assumps, model):
                clauses.append(c)
                s.add_clause(c)
        if not assumps or rng.random() < 0.6:
            # Otherwise re-solve under the same assumptions, so the whole
            # kept trail meets the clauses just added.
            extra = [v if rng.random() < 0.5 else -v
                     for v in rng.sample(range(1, NVARS + 1),
                                         rng.randrange(0, 3))
                     if v not in {abs(p) for p in prefix}]
            assumps = prefix[:rng.randrange(0, 4)] + extra
        res = s.solve(assumps)
        _check_answer(s, clauses, assumps, res, proof)
        model = s.model() if res.sat else {}
        if s.is_broken:
            break


@pytest.mark.parametrize("seed", range(150))
def test_kept_trail_matches_fresh_solver(seed):
    _run_session(seed, proof=False)


@pytest.mark.parametrize("seed", range(50))
def test_kept_trail_with_proof_logging_certifies(seed):
    _run_session(7000 + seed, proof=True)


# The sessions above run the compiled kernel when it is built; these run
# the same seeds on the pure-Python loops.
@pytest.mark.parametrize("solver_mode", ["python"], indirect=True)
@pytest.mark.parametrize("seed", range(150))
def test_kept_trail_without_kernel(seed, solver_mode):
    _run_session(seed, proof=False)


@pytest.mark.parametrize("solver_mode", ["python"], indirect=True)
@pytest.mark.parametrize("seed", range(50))
def test_kept_trail_proof_logging_without_kernel(seed, solver_mode):
    _run_session(7000 + seed, proof=True)


def _full_walk_failed(s, p):
    """Failed assumptions behind falsified assumption ``p``, walking the
    whole implication graph, level-0 facts included."""
    failed = {p}
    seen = {p >> 1}
    stack = [p >> 1]
    level0 = 0
    while stack:
        v = stack.pop()
        r = s._reasons[v]
        if s._levels[v] == 0:
            level0 += 1
        if r == -1:
            if s._levels[v] > 0:
                failed.add(v << 1 | (s._vals[v << 1] != 1))
            continue
        for q in s._clauses[r]:
            if q >> 1 not in seen:
                seen.add(q >> 1)
                stack.append(q >> 1)
    ext = tuple(sorted(-(lt >> 1) if lt & 1 else lt >> 1 for lt in failed))
    return ext, level0


def test_failed_assumptions_skip_level0_walk():
    """Without proof logging the final-conflict walk skips level-0
    variables; the failed assumptions must equal the full walk's."""
    level0_walked = 0
    for seed in range(60):
        def instrument(s):
            analyze_final = s._analyze_final

            def checked(p):
                nonlocal level0_walked
                expected, level0 = _full_walk_failed(s, p)
                level0_walked += level0
                analyze_final(p)
                assert s.failed_assumptions() == expected

            s._analyze_final = checked

        _run_session(seed, proof=False, instrument=instrument)
    assert level0_walked > 0


def _prefixed_solver(proof):
    s = Solver(proof=proof)
    for _ in range(8):
        s.new_var()
    s.add_clause([-1, 4])
    s.add_clause([-2, 5, 6])
    s.add_clause([-4, -5, 7])
    return s


def _saved_levels_across_add(proof):
    """Levels kept by the solve right after an ``add_clause``."""
    s = _prefixed_solver(proof)
    assert s.solve([1, 2, 3]).sat
    s.add_clause([-7, 8])
    before = s.stats.trail_saved_levels
    assert s.solve([1, 2, 3]).sat
    return s.stats.trail_saved_levels - before


def test_fast_solver_keeps_trail_across_add_clause():
    assert _saved_levels_across_add(proof=False) == 3


def test_proof_solver_cancels_on_add_clause():
    assert _saved_levels_across_add(proof=True) == 0


def test_root_unit_under_kept_trail_survives_backtrack():
    """A unit added under kept levels is a root fact: it must hold in the
    model even after later solves drop the levels it arrived under."""
    s = _prefixed_solver(proof=False)
    assert s.solve([1, 2]).sat
    s.add_clause([8])
    s.add_clause([-8, -6])
    assert s.solve([-1]).sat
    assert s.model_value(8) and not s.model_value(6)
    assert not s.solve([6]).sat
    assert s.failed_assumptions() == (6,)


def test_clause_false_under_kept_trail_backtracks():
    s = _prefixed_solver(proof=False)
    assert s.solve([1, 2, 3]).sat
    s.add_clause([-1, -2])  # false under the kept assumption levels
    r = s.solve([1, 2, 3])
    assert not r.sat
    assert set(r.failed_assumptions) == {1, 2}
    assert s.solve([1, 3]).sat


def test_queued_root_units_conflict_below_current_level():
    """Two root units queued under three kept assumption levels falsify
    a clause whose other literal sits at level 2: the solver must back
    up to level 2 and analyze there, then blame assumption 2 alone."""
    s = _prefixed_solver(proof=False)
    assert s.solve([1, 2, 3]).sat
    s.add_clause([-6, -8, -2])
    s.add_clause([6])
    s.add_clause([8])
    r = s.solve([1, 2, 3])
    assert not r.sat and not s.is_broken
    assert r.failed_assumptions == (2,)
    assert s.solve([1, 3]).sat
    assert s.model_value(6) and s.model_value(8) and not s.model_value(2)
