"""Address-comparator dedup (repro.emm.addrcmp): oracle checks + accounting.

The comparator cache and constant folding must be invisible to every
observable verification outcome: randomized multi-port designs are run
through full BMC (induction + PBA) and their verdicts, counterexample
depths and traces must match the independent oracles of
``tests/bmc_oracle.py`` — explicit-memory BMC, BDD reachability where it
finishes, and simulator replay.  Separate tests pin down the
accounting: recurring address cones produce cache hits, constant
addresses produce folds, the const-vs-symbolic form costs m+1 clauses,
and the comparator clauses stay within the paper's fresh-comparator
closed form.
"""

import random

import pytest

from repro.aig import Aig, CnfEmitter
from repro.bmc import BmcOptions, EncodingSession, bmc3, verify
from repro.design import Design
from repro.emm import AddrComparator, SharedComparatorTables, accounting
from repro.sat import Solver
from tests.bmc_oracle import assert_matches_oracle


# ---------------------------------------------------------------------------
# Randomized designs: the default encoding against independent oracles.
# ---------------------------------------------------------------------------

def random_design(rng: random.Random) -> tuple[Design, str]:
    """A random multi-port single-memory design with recurring addresses.

    Address cones are drawn from a small pool (constants, a shared input,
    a walking latch) so the comparator cache actually fires; the checked
    property is a reach target on read-back data, reachable or not
    depending on the draw.
    """
    aw = rng.choice([2, 3])
    dw = rng.choice([2, 3])
    w_ports = rng.choice([1, 2])
    r_ports = rng.choice([2, 3])
    init = rng.choice([0, None, 3])
    d = Design("rand")
    t = d.latch("t", aw, init=0)
    t.next = t.expr + 1
    mem = d.memory("m", aw, dw, read_ports=r_ports, write_ports=w_ports,
                   init=init)
    shared = d.input("sa", aw)
    addr_pool = [lambda: d.const(rng.randrange(1 << aw), aw),
                 lambda: shared,
                 lambda: t.expr]
    for w in range(w_ports):
        en = d.input(f"we{w}", 1)
        if w_ports > 1:
            # Ports write disjoint address parities: the EMM semantics
            # assume same-cycle same-address write races are absent.
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


#: Seeds whose memory-expanded model the BDD engine finishes on (seeds
#: 0 and 7 hit its node limit; explicit-memory BMC still covers them).
BDD_SEEDS = {1, 2, 3, 4, 5, 6}


@pytest.mark.parametrize("seed", range(8))
def test_dedup_is_invisible_to_verification(seed):
    """Verdicts, depths and traces match the independent oracles."""
    rng = random.Random(seed)
    design, prop = random_design(rng)
    r = verify(design, prop, bmc3(max_depth=4))
    assert_matches_oracle(r, design, prop, seed, bdd=seed in BDD_SEEDS)
    assert r.stats.core_unlabeled == 0


@pytest.mark.parametrize("seed", [0, 3, 5])
def test_dedup_never_grows_the_encoding(seed):
    """The comparator clauses stay within the paper's fresh-comparator
    closed form — ``4m+1`` clauses for every (read, earlier write) pair
    and every equation-(6) pair — and fall strictly below it once the
    cache or the folding fires."""
    rng = random.Random(seed)
    design, __ = random_design(rng)
    depth = 4
    session = EncodingSession(design, bmc3(max_depth=depth))
    session.extend_to(depth)
    mem = design.memories["m"]
    c = session.emms["m"].counters
    frames, w, r = depth + 1, mem.num_write_ports, mem.num_read_ports
    requests = (w * r * frames * (frames - 1) // 2
                + accounting.init_consistency_pairs_all(frames, r))
    bound = requests * accounting.addr_eq_clauses_full(mem.addr_width)
    used = c.addr_eq_clauses + c.init_addr_eq_clauses
    assert used <= bound, (used, bound)
    assert c.addr_eq_cache_hits + c.addr_eq_folded > 0
    assert used < bound


def test_gate_encoding_proves_constant_address_read():
    """The gate encoding's comparators fold and cache on a constant read
    address, and the induction proof agrees with BDD reachability."""
    d = Design("g")
    t = d.latch("t", 2, init=0)
    t.next = t.expr + 1
    mem = d.memory("m", 2, 2, init=None)
    mem.write(0).connect(addr=d.input("wa", 2), data=d.input("wd", 2),
                         en=d.input("we", 1))
    mem.read(0).connect(addr=d.const(1, 2), en=1)
    d.invariant("p", mem.read(0).data.ule(3))
    r = verify(d, "p", BmcOptions(max_depth=3, emm_encoding="gates"))
    assert r.status == "proof"
    assert_matches_oracle(r, d, "p", bdd=True)


# ---------------------------------------------------------------------------
# AddrComparator unit behaviour.
# ---------------------------------------------------------------------------

def fresh_cmp(nv=0, **kw):
    solver = Solver(proof=False)
    emitter = CnfEmitter(Aig(), solver)
    lits = [solver.new_var() for _ in range(nv)]
    from repro.emm.forwarding import EmmCounters
    return (AddrComparator(solver, emitter, SharedComparatorTables(), **kw),
            EmmCounters(), lits, solver)


class TestComparatorUnit:
    def test_cache_hit_is_symmetric(self):
        cmp_, c, v, _ = fresh_cmp(4)
        a, b = v[:2], v[2:]
        e1 = cmp_.eq(a, b, None, c, "addr_eq_clauses")
        e2 = cmp_.eq(b, a, None, c, "addr_eq_clauses")
        assert e1 == e2
        assert c.addr_eq_cache_hits == 1
        assert c.addr_eq_clauses == accounting.addr_eq_clauses_full(2)

    def test_identical_words_fold_true(self):
        cmp_, c, v, solver = fresh_cmp(2)
        e = cmp_.eq(v, v, None, c, "addr_eq_clauses")
        assert c.addr_eq_folded == 1
        assert c.addr_eq_clauses == 0
        assert solver.solve([-e]).sat is False  # e is the TRUE literal

    def test_complementary_bit_folds_false(self):
        cmp_, c, v, solver = fresh_cmp(2)
        e = cmp_.eq([v[0], v[1]], [v[0], -v[1]], None, c, "addr_eq_clauses")
        assert c.addr_eq_folded == 1
        assert solver.solve([e]).sat is False  # e is the FALSE literal

    def test_const_vs_const_folds(self):
        cmp_, c, _, solver = fresh_cmp(0)
        e_eq = cmp_.eq_const([], 0, None, c, "addr_eq_clauses")
        t = cmp_.emitter.true_lit()
        word = [t, -t]  # constant 0b01
        e1 = cmp_.eq_const(word, 1, None, c, "addr_eq_clauses")
        e2 = cmp_.eq_const(word, 2, None, c, "addr_eq_clauses")
        assert solver.solve([-e1]).sat is False
        assert solver.solve([e2]).sat is False
        assert c.addr_eq_clauses == 0
        assert c.addr_eq_folded >= 2
        assert e_eq == t

    def test_const_vs_symbolic_costs_m_plus_1(self):
        cmp_, c, v, _ = fresh_cmp(3)
        cmp_.eq_const(v, 5, None, c, "addr_eq_clauses")
        assert c.addr_eq_clauses == accounting.addr_eq_clauses_const(3)

    def test_width_mismatch_rejected(self):
        cmp_, c, v, _ = fresh_cmp(3)
        with pytest.raises(ValueError):
            cmp_.eq(v[:1], v[1:], None, c, "addr_eq_clauses")


# ---------------------------------------------------------------------------
# Race detection: a session check, independent of the comparator cache.
# ---------------------------------------------------------------------------

def racy_two_port_design(aw=3, dw=2):
    d = Design("racy")
    t = d.latch("t", 2, init=0)
    t.next = t.expr + 1
    mem = d.memory("m", aw, dw, read_ports=1, write_ports=2, init=0)
    for w in range(2):
        mem.write(w).connect(addr=d.input(f"wa{w}", aw),
                             data=d.input(f"wd{w}", dw),
                             en=d.input(f"we{w}", 1))
    mem.read(0).connect(addr=d.input("ra", aw), en=1)
    d.invariant("p", mem.read(0).data.ule((1 << dw) - 1))
    return d


class TestRaceAccounting:
    def test_race_detection_still_works_with_dedup(self):
        from repro.emm import find_data_race
        r = find_data_race(racy_two_port_design(), "m", max_depth=3)
        assert r.found
