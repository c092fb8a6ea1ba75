"""The solver's compact clause storage.

Every literal the solver stores is its one int object for that literal
(``Solver._lit_objs``), and clause labels are kept as runs of equal
labels (``_label_starts`` / ``_label_vals``).  These tests check both
against what was added, on the kept-trail streams of
``tests/test_kept_trail.py`` and on a multiport-SoC encoding session,
with the compiled kernel and with the pure-Python loops, with and
without proof logging; and they pin the footprint of a 20-frame SoC
encode.
"""

import os
import sys
import tracemalloc
from collections import Counter

import pytest

from repro.bmc import BmcOptions, EncodingSession, verify_many
from repro.casestudies import MultiportSocParams, build_multiport_soc
from repro.sat import Solver
from tests.test_kept_trail import _run_session


def _stored_literals(s):
    """Every literal object the solver holds: clause literals (live and
    retained for the proof), watch blockers, binary-watch implications,
    the trail and the assumption levels."""
    for lits in s._clauses:
        if lits is not None:
            yield from lits
    for lits in s._proof_lits.values():
        yield from lits
    for wl in s._watches:
        yield from wl[1::2]
    for bl in s._bin_watches:
        for _cid, other in bl:
            yield other
    yield from s._trail
    yield from (p for p in s._assump_levels if p)


def check_shared_literals(s):
    """Every stored literal is the ``_lit_objs`` entry for it, and that
    object has one reference per place that stores it, plus the one in
    ``_lit_objs``: a reference the kernel fails to take, or takes twice,
    shows here.  (Small ints are shared with the whole interpreter, so
    references are counted from literal 257 up.)"""
    lit_objs = s._lit_objs
    assert lit_objs == list(range(2 * s.num_vars + 2))
    unshared = [lit for lit in _stored_literals(s) if lit is not lit_objs[lit]]
    assert not unshared, unshared[:10]
    uses = Counter(map(id, _stored_literals(s)))
    for i in range(257, len(lit_objs)):
        obj = lit_objs[i]
        # ``obj`` and getrefcount's argument are two more references.
        assert sys.getrefcount(obj) == 3 + uses[id(obj)], obj


def _record_labels(monkeypatch, inject=None):
    """Wrap ``Solver.add_clause`` to record, per solver, the label each
    stored clause id was added with.  ``inject(k)`` replaces the label
    of the k-th call (counted per solver)."""
    refs = {}
    add = Solver.add_clause

    def add_clause(self, lits, label=None):
        ref = refs.setdefault(self, {})
        if inject is not None:
            label = inject(len(ref))
        cid = add(self, lits, label)
        ref[len(ref)] = (cid, label)
        return cid

    monkeypatch.setattr(Solver, "add_clause", add_clause)
    return refs


def check_labels(s, calls):
    """``clause_label`` reads back the label of every stored clause id;
    learned clauses and unused ids read None."""
    want = {cid: label for cid, label in calls.values() if cid >= 0}
    assert len(want) == s.num_clauses
    for cid in range(-1, len(s._clauses) + 1):
        assert s.clause_label(cid) == want.get(cid), cid


def _injected_label(k):
    """Runs of three calls: no label, then a tuple built afresh on each
    call (equal within its run, and to the tuples of every other such
    run of the same parity), then an int."""
    run = k // 3
    kind = run % 3
    if kind == 0:
        return None
    if kind == 1:
        return ("mem", run % 2)
    return run % 5


@pytest.mark.parametrize("proof", [False, True])
def test_kept_trail_streams_store_shared_literals_and_label_runs(
        proof, solver_mode, monkeypatch):
    refs = _record_labels(monkeypatch, _injected_label)
    solvers = []
    for seed in range(40):
        _run_session(seed if not proof else 7000 + seed, proof,
                     instrument=solvers.append)
    assert sum(s.stats.learned for s in solvers) > 0
    assert sum(len(s._label_starts) for s in solvers) > 0
    for s in solvers:
        check_shared_literals(s)
        check_labels(s, refs.get(s, {}))


@pytest.mark.parametrize("pba", [False, True])
def test_soc_session_stores_shared_literals_and_label_runs(
        pba, solver_mode, monkeypatch):
    refs = _record_labels(monkeypatch)
    design = build_multiport_soc(MultiportSocParams(5, 8))
    opts = BmcOptions(max_depth=8, pba=pba)
    session = EncodingSession(design, opts)
    verify_many(design, options=opts, session=session)
    s = session.solver
    assert s.stats.learned > 0
    # Far fewer runs than labelled clauses.
    assert 0 < len(s._label_starts) < s.num_clauses // 4
    check_shared_literals(s)
    check_labels(s, refs[s])


#: tracemalloc blocks allocated from ``sat/solver.py`` (the kernel's
#: allocations included) per stored clause of the encode below:
#: measured 5.27 on CPython 3.11, plus 10% headroom.  The layout with a
#: new int per stored literal and a dict entry per label read 8.28.
BLOCKS_PER_CLAUSE = 5.8


def test_soc_encode_footprint():
    """A 20-frame multiport-SoC encode stores one int object per
    literal and allocates few blocks per clause.  Block counts, not
    bytes: object sizes differ across Python versions."""
    design = build_multiport_soc(MultiportSocParams(5, 8))
    tracemalloc.start()
    try:
        session = EncodingSession(design, BmcOptions())
        session.extend_to(20)
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    s = session.solver
    distinct = {id(lit) for lits in s._clauses if lits is not None
                for lit in lits}
    assert len(distinct) <= 2 * s.num_vars + 2
    here = os.path.join("sat", "solver.py")
    blocks = sum(stat.count for stat in snapshot.statistics("filename")
                 if stat.traceback[0].filename.endswith(here))
    assert blocks / len(s._clauses) < BLOCKS_PER_CLAUSE, blocks
