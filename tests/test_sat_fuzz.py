"""Property-based tests: solver vs brute force, core sufficiency."""

from hypothesis import given, settings, strategies as st

from repro.sat import Solver
from tests.sat_oracle import brute_force_sat


@st.composite
def cnf_instances(draw, max_vars=7, max_clauses=28):
    nv = draw(st.integers(1, max_vars))
    lits = st.integers(1, nv).map(lambda v: v).flatmap(
        lambda v: st.sampled_from([v, -v]))
    clause = st.lists(lits, min_size=1, max_size=4)
    clauses = draw(st.lists(clause, min_size=1, max_size=max_clauses))
    return nv, clauses


@settings(max_examples=120, deadline=None)
@given(cnf_instances())
def test_agrees_with_brute_force(instance):
    nv, clauses = instance
    s = Solver()
    for _ in range(nv):
        s.new_var()
    for c in clauses:
        s.add_clause(c)
    result = s.solve()
    assert result.sat == brute_force_sat(nv, clauses)


@settings(max_examples=120, deadline=None)
@given(cnf_instances())
def test_models_satisfy_all_clauses(instance):
    nv, clauses = instance
    s = Solver()
    for _ in range(nv):
        s.new_var()
    for c in clauses:
        s.add_clause(c)
    if s.solve().sat:
        model = [s.model_value(v) for v in range(1, nv + 1)]
        for c in clauses:
            assert any((model[abs(lit) - 1] if lit > 0 else not model[abs(lit) - 1])
                       for lit in c)


@settings(max_examples=100, deadline=None)
@given(cnf_instances())
def test_unsat_cores_are_unsat(instance):
    nv, clauses = instance
    s = Solver()
    for _ in range(nv):
        s.new_var()
    cid_map = {}
    for c in clauses:
        cid = s.add_clause(c)
        if cid >= 0:
            cid_map[cid] = c
    if s.solve().sat:
        return
    core = s.core_clause_ids()
    assert core <= set(cid_map), "core must reference original clauses"
    s2 = Solver(proof=False)
    for _ in range(nv):
        s2.new_var()
    for cid in core:
        s2.add_clause(cid_map[cid])
    assert not s2.solve().sat, "core must be sufficient for UNSAT"


@settings(max_examples=100, deadline=None)
@given(cnf_instances(max_vars=6, max_clauses=20),
       st.lists(st.integers(1, 6).flatmap(
           lambda v: st.sampled_from([v, -v])), min_size=1, max_size=4))
def test_assumptions_match_added_units(instance, assumptions):
    nv, clauses = instance
    assumptions = [a for a in set(assumptions) if abs(a) <= nv]
    if not assumptions:
        return
    s = Solver()
    for _ in range(nv):
        s.new_var()
    for c in clauses:
        s.add_clause(c)
    if s.is_broken:
        return
    result = s.solve(assumptions)
    expected = brute_force_sat(nv, clauses, extra_units=assumptions)
    assert result.sat == expected
    if not result.sat:
        assert set(result.failed_assumptions) <= set(assumptions)
        # failed assumptions + core must be jointly unsatisfiable
        core_clauses = [c for cid, c in _cid_map(s, clauses).items()
                        if cid in s.core_clause_ids()]
        s2 = Solver(proof=False)
        for _ in range(nv):
            s2.new_var()
        for c in core_clauses:
            s2.add_clause(c)
        for a in result.failed_assumptions:
            s2.add_clause([a])
        assert not s2.solve().sat


def _cid_map(solver, clauses):
    # Re-derive the cid->clause map by re-adding in a twin solver.
    twin = Solver()
    for _ in range(solver.num_vars):
        twin.new_var()
    out = {}
    for c in clauses:
        cid = twin.add_clause(c)
        if cid >= 0:
            out[cid] = c
    return out


@settings(max_examples=40, deadline=None)
@given(cnf_instances(max_vars=5, max_clauses=14), cnf_instances(max_vars=5, max_clauses=14))
def test_incremental_equals_monolithic(first, second):
    nv = max(first[0], second[0])
    s = Solver()
    for _ in range(nv):
        s.new_var()
    for c in first[1]:
        s.add_clause(c)
    s.solve()
    if s.is_broken:
        return
    for c in second[1]:
        s.add_clause(c)
    incremental = s.solve().sat if not s.is_broken else False
    assert incremental == brute_force_sat(nv, first[1] + second[1])
