"""Stress tests for the solver's flat data layout.

The solver keeps truth values per internal literal, long-clause watches
as flat ``cid, blocker`` slot pairs that deleted clauses leave behind
until the next visit, binary watches as flat ``cid, other`` slot pairs
(a watch slot holds None until its first watch), and a VSIDS heap
sifted inline.  These tests run randomized incremental sessions that
exercise every path that rewrites those structures: kept assumption
trails across ``add_clause``,
restarts (forced every few conflicts), clause-database reductions
(forced between solves, with a tiny ``_max_learnts`` during them and
no glue tier pinned) and
root-level shrinking.  Every answer is checked against the truth table
in ``tests/sat_oracle.py`` and the layout invariants are checked after
every solve.  The compiled kernel and the pure-Python loops must leave
the same layout behind, slot for slot.
"""

import random

import pytest

import repro.sat.solver as solver_mod
from repro.sat import Solver, check_all_learned
from repro.sat.solver import UNASSIGNED
from tests.sat_oracle import brute_force_sat

NVARS = 20


def _random_clause(rng, widths=(1, 2, 2, 3, 3, 3, 3, 4, 5)):
    vs = rng.sample(range(1, NVARS + 1), rng.choice(widths))
    return [v if rng.random() < 0.5 else -v for v in vs]


def check_layout(s):
    """Assert the flat-layout invariants; returns the number of watch
    slots still naming a deleted clause."""
    # The kernel's context tuples hold the live lists, never copies.
    for ctx, live in (
            (s._prop_ctx, (s._trail, s._clauses, s._vals, s._watches,
                           s._bin_watches, s._levels, s._reasons)),
            (s._unassign_ctx, (s._trail, s._vals, s._saved_phase,
                               s._reasons, s._levels, s._heap, s._heap_pos,
                               s._activity)),
            (s._pick_ctx, (s._heap, s._heap_pos, s._activity, s._vals,
                           s._saved_phase, s._lit_objs)),
            (s._intake_ctx, (s._vals, s._levels, s._clauses, s._watches,
                             s._bin_watches, s._lit_objs)),
            (s._analyze_ctx, (s._clauses, s._trail, s._levels, s._reasons,
                              s._activity, s._heap, s._heap_pos, s._seen,
                              s._l0_memo, s._clause_act)),
            (s._final_ctx, (s._clauses, s._levels, s._reasons, s._vals,
                            s._seen)),
            (s._new_var_ctx, (s._vals, s._levels, s._reasons, s._activity,
                              s._saved_phase, s._watches, s._bin_watches,
                              s._heap, s._heap_pos, s._seen, s._lit_objs))):
        assert len(ctx) == len(live)
        assert all(a is b for a, b in zip(ctx, live))
    # Conflict analysis leaves its scratch flags clear.
    assert len(s._seen) == len(s._levels) and not any(s._seen)
    # One literal object per internal literal.
    assert s._lit_objs == list(range(len(s._vals)))
    # One label per run, the runs' first cids strictly ascending from 0.
    starts = s._label_starts
    assert len(s._label_vals) == len(starts)
    assert starts == sorted(set(starts))
    if s._clauses:
        assert starts[0] == 0 and starts[-1] < len(s._clauses)
    vals = s._vals
    for v in range(1, s.num_vars + 1):
        pos, neg = vals[2 * v], vals[2 * v + 1]
        assert (pos, neg) in ((UNASSIGNED, UNASSIGNED), (1, 0), (0, 1)), v
    # Both kinds of watch list hold flat ``cid, literal`` slot pairs; a
    # slot is None until the first watch on its literal.  Each live
    # clause is watched once on each of its first two literals, all in
    # one kind of list: the binary lists hold 2-literal clauses with the
    # other literal, the long lists clauses stored with 3+ literals (a
    # learned one may have shrunk to two since) with a blocker.
    stale = 0
    watched = {}
    for kind, lists in (("long", s._watches), ("binary", s._bin_watches)):
        assert len(lists) == len(vals)
        for lit, wl in enumerate(lists):
            if wl is None:
                continue
            assert type(wl) is list and len(wl) % 2 == 0, (kind, lit)
            for cid, other in zip(wl[0::2], wl[1::2]):
                lits = s._clauses[cid]
                if lits is None:
                    assert kind == "long", (lit, cid)
                    stale += 1
                    continue
                if kind == "binary":
                    assert len(lits) == 2 and other is s._lit_objs[other]
                    assert {lit, other} == set(lits), (lit, cid, lits)
                watched.setdefault(cid, []).append((kind, lit))
    # A clause found false at level 0 breaks the solver and is stored
    # unwatched.
    for cid, lits in enumerate(s._clauses):
        if lits is not None and len(lits) >= 2 and not s.is_broken:
            got = watched.pop(cid, [])
            kind = "binary" if got and got[0][0] == "binary" else "long"
            want = [(kind, lits[0]), (kind, lits[1])]
            assert sorted(got) == sorted(want), (cid, lits, got)
    # Every watch names a live clause of two or more literals.
    assert s.is_broken or not watched, watched
    heap, pos, act = s._heap, s._heap_pos, s._activity
    for i, var in enumerate(heap):
        assert pos[var] == i
        if i:
            assert act[heap[(i - 1) >> 1]] >= act[var]
    for v in range(1, s.num_vars + 1):
        if vals[2 * v] == UNASSIGNED:
            assert pos[v] != -1, v
    return stale


def _check_answer(s, clauses, assumps, res):
    assert res.sat == brute_force_sat(NVARS, clauses, assumps)
    if res.sat:
        for c in clauses:
            assert any(s.model_value(lt) for lt in c), c
        for a in assumps:
            assert s.model_value(a), a
    else:
        assert set(res.failed_assumptions) <= set(assumps)
        assert not brute_force_sat(NVARS, clauses, res.failed_assumptions)


def _label(i):
    """No label, one tag or a tag set, so core labels have members."""
    return (None, i, frozenset((i, -i)))[i % 3]


def run_session(seed, proof, monkeypatch, answers=None):
    """One randomized session; returns the solver and coverage counters.

    ``answers`` collects the failed assumptions and core labels of every
    UNSAT answer."""
    # Restart after every one or two conflicts; let every reduction
    # delete half of the learned clauses longer than two literals.
    monkeypatch.setattr(solver_mod, "luby", lambda n: 0.01 * (1 + n % 2))
    monkeypatch.setattr(Solver, "LBD_CORE", 0)
    monkeypatch.setattr(Solver, "LBD_TIER2", 0)
    rng = random.Random(seed)
    s = Solver(proof=proof)
    for _ in range(NVARS):
        s.new_var()
    clauses = []
    # Random 3-SAT near the threshold: enough conflicts per solve to
    # learn clauses longer than two literals.
    for _ in range(rng.randrange(80, 88)):
        c = _random_clause(rng, widths=(3,))
        clauses.append(c)
        s.add_clause(c, _label(len(clauses)))
    prefix = [v if rng.random() < 0.5 else -v
              for v in rng.sample(range(1, NVARS + 1), 4)]
    stale_seen = 0
    for _ in range(10):
        s._max_learnts = float(rng.randrange(1, 4))
        assumps = prefix[:rng.randrange(0, 5)]
        assumps += [v if rng.random() < 0.5 else -v
                    for v in rng.sample(range(1, NVARS + 1),
                                        rng.randrange(0, 3))
                    if v not in {abs(p) for p in assumps}]
        res = s.solve(assumps)
        _check_answer(s, clauses, assumps, res)
        if answers is not None and not res.sat:
            answers.append((s.failed_assumptions(),
                            s.core_labels() if proof else None))
        stale_seen += check_layout(s)
        if s.is_broken:
            break
        if rng.random() < 0.5:
            s._reduce_db()
            stale_seen += check_layout(s)
        # Clauses meet the kept trail (no proof logging) or level 0.
        for _ in range(rng.randrange(0, 4)):
            c = _random_clause(rng)
            clauses.append(c)
            s.add_clause(c, _label(len(clauses)))
        check_layout(s)
    if proof and not s.is_broken:
        assert check_all_learned(s).ok
    st = s.stats
    return s, {"stale": stale_seen, "restarts": st.restarts,
               "deleted": st.deleted, "saved": st.trail_saved_levels}


@pytest.mark.parametrize("proof", [False, True])
@pytest.mark.parametrize("seed", range(12))
def test_flat_layout_session(seed, proof, monkeypatch):
    run_session(seed, proof, monkeypatch)


@pytest.mark.parametrize("solver_mode", ["python"], indirect=True)
@pytest.mark.parametrize("proof", [False, True])
@pytest.mark.parametrize("seed", range(12))
def test_flat_layout_session_without_kernel(seed, proof, solver_mode,
                                            monkeypatch):
    run_session(seed, proof, monkeypatch)


def search_state(s):
    """Everything the search decides and records: counters, clause
    database (literal order included), assignment, trail, watches, order
    heap, phases, activities (exact floats), glue and use marks, labels,
    proof bookkeeping (antecedent order included) and the last answer."""
    counters = {k: v for k, v in s.stats.snapshot().items()
                if not k.startswith("time_")}
    return {
        "counters": counters, "clauses": s._clauses, "vals": s._vals,
        "levels": s._levels, "reasons": s._reasons, "trail": s._trail,
        "trail_lim": s._trail_lim, "assump_levels": s._assump_levels,
        "qhead": s._qhead, "watches": s._watches, "bins": s._bin_watches,
        "heap": s._heap, "heap_pos": s._heap_pos,
        "saved_phase": s._saved_phase, "activity": s._activity,
        "var_inc": s._var_inc, "cla_inc": s._cla_inc,
        "clause_act": s._clause_act, "clause_lbd": s._clause_lbd,
        "clause_used": s._clause_used, "learned_ids": s._learned_ids,
        "derivations": s._derivations, "simplify_deps": s._simplify_deps,
        "proof_lits": s._proof_lits, "label_starts": s._label_starts,
        "label_vals": s._label_vals, "lit_objs": s._lit_objs,
        "n_original": s._n_original, "l0_memo": s._l0_memo,
        "seen": s._seen, "broken": s._broken,
        "core": s._unsat_core_cids, "failed": s._last_failed,
    }


@pytest.mark.parametrize("proof", [False, True])
@pytest.mark.parametrize("seed", range(12))
def test_kernel_and_python_loops_search_identically(seed, proof,
                                                    monkeypatch):
    if solver_mod._kernel is None:
        pytest.skip(f"no compiled solver kernel: {solver_mod._kernel_error}")
    got, want = [], []
    native, _ = run_session(seed, proof, monkeypatch, got)
    monkeypatch.setattr(solver_mod, "_kernel", None)
    python, _ = run_session(seed, proof, monkeypatch, want)
    assert got == want
    native, python = search_state(native), search_state(python)
    for key in native:
        assert native[key] == python[key], key


@pytest.mark.slow
@pytest.mark.parametrize("proof", [False, True])
@pytest.mark.parametrize("seed", range(12, 100))
def test_flat_layout_session_wide(seed, proof, monkeypatch):
    run_session(seed, proof, monkeypatch)


def test_sessions_reach_the_stressed_paths(monkeypatch):
    """The seed budget above really restarts, deletes, keeps trails and
    leaves deleted clauses in the watch lists."""
    total = {"stale": 0, "restarts": 0, "deleted": 0, "saved": 0}
    for seed in range(12):
        for key, n in run_session(seed, False, monkeypatch)[1].items():
            total[key] += n
    assert all(n > 0 for n in total.values()), total
