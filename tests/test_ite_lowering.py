"""Native ITE lowering in the Tseitin emitter (CnfEmitter, ite=True).

The ``or(and(s, t), and(!s, e))`` shape — every mux the word layer
builds, and xor as the ``t = !e`` special case — must lower to one SAT
variable and four clauses instead of three AND triples, while staying
function-equivalent to the plain lowering and invisible to every
verdict.  The plain path (``ite=False``) stays available as the
ablation the EMM accounting closed forms were derived against.
"""

import itertools

import pytest

from repro.aig.aig import Aig
from repro.aig.tseitin import CnfEmitter
from repro.sat.solver import Solver


def emit_mux(ite):
    aig = Aig()
    s = aig.new_input("s")
    t = aig.new_input("t")
    e = aig.new_input("e")
    solver = Solver(proof=False)
    em = CnfEmitter(aig, solver, ite=ite)
    out = em.sat_lit(aig.mux(s, t, e))
    return em, solver, out, [em.sat_lit(x) for x in (s, t, e)]


def assert_function(solver, out, ins, fn):
    """Exhaustively check ``out`` computes ``fn`` over the input lits."""
    for bits in itertools.product([False, True], repeat=len(ins)):
        assumps = [l if b else -l for l, b in zip(ins, bits)]
        r = solver.solve(assumps)
        assert r.sat
        assert solver.model_value(out) == fn(*bits), bits


def test_mux_lowered_to_four_clauses():
    em, solver, out, (ls, lt, le) = emit_mux(ite=True)
    assert em.ites_emitted == 1
    assert em.gates_emitted == 0  # the inner AND nodes got no CNF
    # 3 input vars + 1 ITE output var; 4 ITE clauses.
    assert solver.num_vars == 4
    assert solver.num_clauses == 4
    assert_function(solver, out, [ls, lt, le],
                    lambda s, t, e: t if s else e)


def test_plain_ablation_matches_mux_function():
    em, solver, out, ins = emit_mux(ite=False)
    assert em.ites_emitted == 0
    assert em.gates_emitted == 3  # two inner ANDs + the OR node
    assert_function(solver, out, ins, lambda s, t, e: t if s else e)


@pytest.mark.parametrize("ite", [True, False])
def test_xor_is_the_two_input_ite(ite):
    aig = Aig()
    a = aig.new_input("a")
    b = aig.new_input("b")
    solver = Solver(proof=False)
    em = CnfEmitter(aig, solver, ite=ite)
    out = em.sat_lit(aig.xor_(a, b))
    assert em.ites_emitted == (1 if ite else 0)
    assert_function(solver, out, [em.sat_lit(a), em.sat_lit(b)],
                    lambda a, b: a != b)


def mux_pair(swap=False):
    """The same AIG mux requested twice; ``swap`` spells the second one
    as ``ITE(!s, e, t)``."""
    aig = Aig()
    s = aig.new_input("s")
    t = aig.new_input("t")
    e = aig.new_input("e")
    solver = Solver(proof=False)
    em = CnfEmitter(aig, solver, ite=True)
    o1 = em.sat_lit(aig.mux(s, t, e))
    m2 = aig.mux(s ^ 1, e, t) if swap else aig.mux(s, t, e)
    return em, solver, o1, em.sat_lit(m2)


def test_repeated_mux_lowers_to_one_ite():
    """A repeated mux is one AIG node, so it lowers to one ITE."""
    em, solver, o1, o2 = mux_pair()
    assert o1 == o2
    assert em.ites_emitted == 1
    assert solver.num_clauses == 4


def test_polarity_swapped_mux_lowers_to_one_ite():
    """ITE(!s, e, t) == ITE(s, t, e): both spellings lower to one ITE."""
    em, solver, o1, o2 = mux_pair(swap=True)
    assert o1 == o2
    assert em.ites_emitted == 1


def test_lowered_inner_ands_fall_back_to_plain_triple():
    """When both inner AND cones already have CNF vars, one 3-clause
    triple over the existing vars beats a 4-clause ITE — the detector
    must step aside."""
    aig = Aig()
    s = aig.new_input("s")
    t = aig.new_input("t")
    e = aig.new_input("e")
    inner1 = aig.and_gate(s, t)
    inner2 = aig.and_gate(s ^ 1, e)
    m = aig.or_(inner1, inner2)
    solver = Solver(proof=False)
    em = CnfEmitter(aig, solver, ite=True)
    em.sat_lit(inner1)  # force both inner cones into CNF first
    em.sat_lit(inner2)
    out = em.sat_lit(m)
    assert em.ites_emitted == 0
    assert em.gates_emitted == 3
    assert_function(solver, out,
                    [em.sat_lit(x) for x in (s, t, e)],
                    lambda s, t, e: t if s else e)


def test_mux_word_counter_equivalence():
    """A word-level mux network lowered with and without ITE must agree
    on every output bit for every input assignment (4-bit exhaustive)."""
    def build(ite):
        aig = Aig()
        sel = aig.new_input("sel")
        a = [aig.new_input(f"a{i}") for i in range(2)]
        b = [aig.new_input(f"b{i}") for i in range(2)]
        outs = [aig.xor_(aig.mux(sel, a[i], b[i]), b[1 - i])
                for i in range(2)]
        solver = Solver(proof=False)
        em = CnfEmitter(aig, solver, ite=ite)
        out_lits = [em.sat_lit(o) for o in outs]
        in_lits = [em.sat_lit(x) for x in [sel] + a + b]
        return solver, out_lits, in_lits

    s1, outs1, ins1 = build(True)
    s2, outs2, ins2 = build(False)
    for bits in itertools.product([False, True], repeat=5):
        a1 = [l if v else -l for l, v in zip(ins1, bits)]
        a2 = [l if v else -l for l, v in zip(ins2, bits)]
        assert s1.solve(a1).sat and s2.solve(a2).sat
        got1 = [s1.model_value(o) for o in outs1]
        got2 = [s2.model_value(o) for o in outs2]
        assert got1 == got2, bits


def test_bmc_run_reports_ite_counter():
    from repro.bmc import BmcOptions, verify
    from repro.sim.fuzzfarm import build_fuzz_netlist

    r = verify(build_fuzz_netlist(0), "hit",
               BmcOptions(find_proof=False, max_depth=3))
    assert r.stats.ite_lowered > 0
    assert r.stats.to_dict()["ite_lowered"] == r.stats.ite_lowered
