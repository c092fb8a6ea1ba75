"""Structural hashing (repro.aig strash layer): oracle checks + accounting.

Mirrors ``tests/test_addr_cache.py`` one layer down: hash-consing in
:meth:`repro.aig.aig.Aig.and_gate` must be invisible to every
observable verification outcome.  Randomized recurring-address designs
are run through full BMC (induction + PBA) and checked against the
independent oracles of ``tests/bmc_oracle.py``.  Separate tests pin
exact gate counts for a small ``eq_word`` cone, the encoding size of
the recurring-address workload, and the comparator-aware
exclusivity-chain pruning of the hybrid EMM encoder.
"""

import random

import pytest

from repro.aig import Aig, CnfEmitter, FALSE, TRUE, evaluate
from repro.aig import ops
from repro.aig.eval import evaluate_word
from repro.bmc import BmcOptions, bmc3, verify
from repro.bmc.unroller import Unroller
from repro.design import Design
from repro.emm import EmmMemory
from repro.emm.gates import GateEmmMemory
from repro.sat import Solver
from tests.bmc_oracle import assert_matches_oracle, bdd_verdict


# ---------------------------------------------------------------------------
# Aig.and_gate: folding, hashing and counters.
# ---------------------------------------------------------------------------


class TestAndGateStrash:
    def test_folds_are_counted(self):
        g = Aig()
        a = g.new_input("a")
        assert g.and_gate(a, FALSE) == FALSE
        assert g.and_gate(a, TRUE) == a
        assert g.and_gate(a, a) == a
        assert g.and_gate(a, a ^ 1) == FALSE
        assert g.strash_folds == 4
        assert g.strash_hits == 0
        assert g.num_ands == 0

    def test_hash_hits_are_counted(self):
        g = Aig()
        a, b = g.new_input(), g.new_input()
        n1 = g.and_gate(a, b)
        n2 = g.and_gate(b, a)
        assert n1 == n2
        assert g.num_ands == 1
        assert g.strash_hits == 1

    def test_modes_agree_on_word_ops(self):
        """AIG evaluation, the Tseitin CNF under a SAT model, and integer
        arithmetic agree on strashed word operators."""
        rng = random.Random(7)
        for _ in range(20):
            va, vb = rng.randrange(256), rng.randrange(256)
            g = Aig()
            a = ops.input_word(g, "a", 8)
            b = ops.input_word(g, "b", 8)
            outs = (
                [ops.eq_word(g, a, b)]
                + ops.add_word(g, a, b)
                + ops.mux_word(g, a[0], a, b)
            )
            env = {bit: bool((va >> i) & 1) for i, bit in enumerate(a)}
            env.update({bit: bool((vb >> i) & 1) for i, bit in enumerate(b)})
            by_aig = evaluate(g, env, outs)
            assert by_aig[0] == (va == vb)
            assert evaluate_word(g, env, outs[1:9]) == (va + vb) & 0xFF
            solver = Solver(proof=False)
            em = CnfEmitter(g, solver)
            out_lits = [em.sat_lit(o) for o in outs]
            pins = [
                em.sat_lit(bit) if env[bit] else -em.sat_lit(bit) for bit in a + b
            ]
            assert solver.solve(pins).sat
            by_cnf = [solver.model_value(abs(lit)) == (lit > 0) for lit in out_lits]
            assert by_cnf == by_aig


class TestEqWordExactCounts:
    """Regression: exact gate counts for a width-3 ``eq_word`` cone."""

    WIDTH = 3
    #: 3 AND nodes per per-bit IFF, plus 2 chain nodes (the TRUE seed of
    #: ``and_many`` folds into the first conjunct).
    STRASHED = 3 * WIDTH + 2

    def test_strash_on_builds_once(self):
        g = Aig()
        a = ops.input_word(g, "a", self.WIDTH)
        b = ops.input_word(g, "b", self.WIDTH)
        e1 = ops.eq_word(g, a, b)
        assert g.num_ands == self.STRASHED
        assert g.strash_folds == 1  # the and_many TRUE seed
        e2 = ops.eq_word(g, a, b)
        assert e1 == e2
        assert g.num_ands == self.STRASHED
        assert g.strash_hits == self.STRASHED


# ---------------------------------------------------------------------------
# CnfEmitter over a strashed AIG.
# ---------------------------------------------------------------------------


class TestCnfGateCache:
    def test_default_modes_unchanged_behaviour(self):
        # AIG node identity dedups a repeated cone, so lowering it again
        # emits no new variables or clauses.
        solver = Solver(proof=False)
        aig = Aig()
        em = CnfEmitter(aig, solver)
        a = ops.input_word(aig, "a", 4)
        b = ops.input_word(aig, "b", 4)
        first = em.sat_lit(ops.eq_word(aig, a, b))
        size = (solver.num_vars, solver.num_clauses)
        assert em.sat_lit(ops.eq_word(aig, a, b)) == first
        assert (solver.num_vars, solver.num_clauses) == size
        assert aig.strash_hits > 0


# ---------------------------------------------------------------------------
# Randomized designs: the strashed encodings against independent oracles.
# ---------------------------------------------------------------------------


def random_recurring_design(rng):
    """A random single-memory design whose address cones recur.

    Same shape as the dedup cross-check generator: addresses drawn from
    a small pool (constants, a shared input, a walking latch) so both
    the AIG strash table and the comparator cache actually fire.
    """
    aw = rng.choice([2, 3])
    dw = rng.choice([2, 3])
    w_ports = rng.choice([1, 2])
    r_ports = rng.choice([2, 3])
    init = rng.choice([0, None, 3])
    d = Design("rand")
    t = d.latch("t", aw, init=0)
    t.next = t.expr + 1
    mem = d.memory("m", aw, dw, read_ports=r_ports, write_ports=w_ports, init=init)
    shared = d.input("sa", aw)
    addr_pool = [
        lambda: d.const(rng.randrange(1 << aw), aw),
        lambda: shared,
        lambda: t.expr,
    ]
    for w in range(w_ports):
        en = d.input(f"we{w}", 1)
        if w_ports > 1:
            addr = d.input(f"wa{w}", aw)
            en = en & addr[0].eq(w & 1)
        else:
            addr = rng.choice(addr_pool)()
        mem.write(w).connect(addr=addr, data=d.input(f"wd{w}", dw), en=en)
    for r in range(r_ports):
        mem.read(r).connect(addr=rng.choice(addr_pool)(), en=1)
    target = rng.randrange(1 << dw)
    d.reach("hit", mem.read(0).data.eq(target))
    return d, "hit"


#: Seeds whose memory-expanded model the BDD engine finishes on (seed 0
#: hits its node limit; explicit-memory BMC still covers it).
BDD_SEEDS = {1, 2, 3, 4, 5}


@pytest.mark.parametrize("seed", range(6))
def test_strash_is_invisible_to_gate_verification(seed):
    """Gate encoding: verdicts and traces match the independent oracles,
    and the strash layer actually fires."""
    rng = random.Random(seed)
    design, prop = random_recurring_design(rng)
    r = verify(design, prop, bmc3(max_depth=4, emm_encoding="gates"))
    assert_matches_oracle(r, design, prop, seed, bdd=seed in BDD_SEEDS)
    assert r.stats.strash_folds > 0
    if r.depth >= 2:  # a depth-0 cex ends the run before cones recur
        assert r.stats.strash_hits > 0


@pytest.mark.parametrize("seed", [1, 4])
def test_strash_is_invisible_to_hybrid_verification(seed):
    """Hybrid encoding: verdicts match the independent oracles."""
    rng = random.Random(seed)
    design, prop = random_recurring_design(rng)
    r = verify(design, prop, bmc3(max_depth=4))
    assert_matches_oracle(r, design, prop, seed, bdd=True)


# ---------------------------------------------------------------------------
# Depth-20 size pins of the gate EMM encoding.
# ---------------------------------------------------------------------------

#: Solver clauses+vars of the gate EMM encoding on the recurring-address
#: workload at depth 20 (init consistency off).  With hash-consing and
#: the CNF gate cache switched off it measured 41636 when that switch
#: was last available, so the sharing saves 43%.
GATE_FRAMES_D20 = 23820
#: The same for the full ``deep_recurring_design`` PBA run (44923
#: unshared, a 68% saving).
DEEP_D20 = 14472


def recurring_bench_design(aw=4, dw=4):
    """The recurring-address workload of the C1c and C2 size pins.

    One write port on a symbolic address; one read port pinned to a
    constant address and two sharing one address cone.  ``init=None``
    turns on the equation-(6) pairs, whose all-pairs comparator set is
    where recurring addresses bite hardest.
    """
    d = Design("recur")
    t = d.latch("t", 2, init=0)
    t.next = t.expr + 1
    mem = d.memory("m", aw, dw, read_ports=3, write_ports=1, init=None)
    mem.write(0).connect(
        addr=d.input("wa", aw), data=d.input("wd", dw), en=d.input("we", 1)
    )
    ra = d.input("ra", aw)
    mem.read(0).connect(addr=d.const(1, aw), en=1)
    mem.read(1).connect(addr=ra, en=1)
    mem.read(2).connect(addr=ra, en=1)
    d.invariant("p", mem.read(0).data.ule((1 << dw) - 1))
    return d


def build_gate_frames(design, depth, ite=True):
    solver = Solver(proof=False)
    emitter = CnfEmitter(Aig(), solver, ite=ite)
    unroller = Unroller(design, emitter)
    emm = GateEmmMemory(solver, unroller, "m", init_consistency=False)
    for k in range(depth + 1):
        unroller.add_frame()
        emm.add_frame(k)
    return solver, emm


def test_gate_emm_strash_cuts_40_percent_at_depth_20():
    depth = 20
    design = recurring_bench_design()
    on_solver, on_emm = build_gate_frames(design, depth)
    size_on = on_solver.num_clauses + on_solver.num_vars
    assert size_on == GATE_FRAMES_D20
    assert on_emm.counters.strash_hits > 0
    assert on_emm.counters.strash_folds > 0
    # Per-frame snapshots sum to the totals.
    assert (
        sum(f["strash_hits"] for f in on_emm.counters.per_frame)
        == on_emm.counters.strash_hits
    )
    assert (
        sum(f["strash_folds"] for f in on_emm.counters.per_frame)
        == on_emm.counters.strash_folds
    )


#: C1c: EMM clauses+vars (``total_clauses + vars_added``) of the hybrid
#: encoding on ``recurring_bench_design(aw, dw)`` at the given depth.
DEDUP_PINNED = {(4, 4, 20): 19004, (6, 8, 20): 30766, (8, 8, 24): 49574}


@pytest.mark.parametrize(
    "aw,dw,depth",
    list(DEDUP_PINNED),
    ids=[f"m{a}n{d}k{k}" for a, d, k in DEDUP_PINNED],
)
def test_hybrid_comparator_layer_pinned(aw, dw, depth):
    """The comparator cache fires, and the constant read address's
    fold-TRUE eq-(6) comparisons are answered by record merging."""
    c = run_hybrid_frames(recurring_bench_design(aw, dw), depth).counters
    assert c.total_clauses + c.vars_added == DEDUP_PINNED[(aw, dw, depth)]
    assert c.addr_eq_cache_hits > 0
    assert c.addr_eq_folded + c.init_records_merged > 0


#: C2: solver clauses+vars of the gate encoding on
#: ``recurring_bench_design(aw, dw)`` at the given depth, eq-(6) off and
#: native ITE lowering off, so only the strash layer shares.
STRASH_PINNED = {(4, 4, 8): 8608, (4, 4, 20): 42844, (6, 8, 24): 108486}


@pytest.mark.parametrize(
    "aw,dw,depth",
    list(STRASH_PINNED),
    ids=[f"m{a}n{d}k{k}" for a, d, k in STRASH_PINNED],
)
def test_gate_strash_pinned_without_ite(aw, dw, depth):
    solver, emm = build_gate_frames(recurring_bench_design(aw, dw), depth, ite=False)
    assert solver.num_clauses + solver.num_vars == STRASH_PINNED[(aw, dw, depth)]
    assert emm.counters.strash_hits > 0


def deep_recurring_design(aw=3, dw=2):
    """Recurring-address workload with an unreachable read-back target.

    Write data can never set bit 1, so reading back 3 is impossible:
    every falsification check is UNSAT and a ``find_proof=False`` run
    walks the full depth with PBA collecting reasons at every step.
    """
    d = Design("recur20")
    t = d.latch("t", 2, init=0)
    t.next = t.expr + 1
    mem = d.memory("m", aw, dw, read_ports=3, write_ports=1, init=0)
    wd = d.input("wd", dw)
    mem.write(0).connect(addr=d.input("wa", aw), data=wd & 1, en=d.input("we", 1))
    ra = d.input("ra", aw)
    mem.read(0).connect(addr=d.const(1, aw), en=1)
    mem.read(1).connect(addr=ra, en=1)
    mem.read(2).connect(addr=ra, en=1)
    d.reach("three", mem.read(1).data.eq(3))
    return d


def test_depth_20_verdict_and_pba_parity():
    """At depth 20 the gate encoding keeps its pinned size, agrees with
    the explicit-memory oracle and BDD reachability, and yields the
    hybrid encoding's PBA reason sets."""
    results = {}
    for encoding in ("gates", "hybrid"):
        results[encoding] = verify(
            deep_recurring_design(),
            "three",
            BmcOptions(
                find_proof=False, pba=True, max_depth=20, emm_encoding=encoding
            ),
        )
    gates, hybrid = results["gates"], results["hybrid"]
    assert (gates.status, gates.depth) == ("bounded", 20)
    assert_matches_oracle(gates, deep_recurring_design(), "three")
    assert bdd_verdict(deep_recurring_design(), "three") == ("proof", None)
    assert gates.latch_reasons == hybrid.latch_reasons
    assert gates.memory_reasons == hybrid.memory_reasons
    assert gates.memory_reasons[-1] == frozenset({"m"})
    size = gates.stats.sat_vars + gates.stats.sat_clauses
    assert size == DEEP_D20
    assert gates.stats.strash_hits > 0


# ---------------------------------------------------------------------------
# Comparator-aware exclusivity chains (hybrid encoder fold pruning).
# ---------------------------------------------------------------------------


def run_hybrid_frames(design, depth, **kw):
    solver = Solver(proof=False)
    emitter = CnfEmitter(Aig(), solver)
    unroller = Unroller(design, emitter)
    emm = EmmMemory(solver, unroller, "m", **kw)
    for k in range(depth + 1):
        unroller.add_frame()
        emm.add_frame(k)
    return emm


def const_addr_design(read_addr, write_addr, aw=3, dw=2):
    d = Design("constpair")
    t = d.latch("t", 2, init=0)
    t.next = t.expr + 1
    mem = d.memory("m", aw, dw, read_ports=1, write_ports=1, init=0)
    mem.write(0).connect(
        addr=d.const(write_addr, aw),
        data=d.input("wd", dw),
        en=d.input("we", 1),
    )
    mem.read(0).connect(addr=d.const(read_addr, aw), en=1)
    d.reach("hit", mem.read(0).data.eq((1 << dw) - 1))
    return d


class TestExclusivityFoldPruning:
    def test_false_fold_skips_all_three_gates(self):
        """Read 1 vs write 2: every pair folds FALSE -> zero chain gates.

        The unpruned encoding pays 3 gates per pair (s = E ∧ WE, the S
        signal and the PS step), all driven by a constant-false E.
        """
        depth = 4
        on = run_hybrid_frames(const_addr_design(1, 2), depth).counters
        assert on.excl_gates == 0
        assert on.addr_eq_folded == 1  # one distinct comparison, cached after
        assert on.rd_clauses == 0  # dead pairs lose eq-(5) too

    def test_true_fold_reuses_write_enable(self):
        """Read 5 vs write 5: E is constant TRUE, so s == WE (one gate
        saved per pair, the chain keeps its 2 gates)."""
        depth = 4
        pairs = sum(k for k in range(depth + 1))
        on = run_hybrid_frames(const_addr_design(5, 5), depth).counters
        assert on.excl_gates == 2 * pairs

    @pytest.mark.parametrize("read_addr,write_addr", [(1, 2), (5, 5)])
    def test_pruning_preserves_verdicts(self, read_addr, write_addr):
        d = const_addr_design(read_addr, write_addr)
        r = verify(d, "hit", bmc3(max_depth=4))
        assert_matches_oracle(r, d, "hit", bdd=True)
        # Matching addresses make the target reachable; disjoint ones
        # leave the read pinned to the (zero) initial contents.
        expected = "cex" if read_addr == write_addr else "proof"
        assert r.status == expected
        assert bdd_verdict(d, "hit")[0] == expected
