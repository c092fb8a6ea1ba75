"""EMM constraint-size accounting: implementation vs the paper's formulas.

Section 3 and 4.1 give closed-form clause/gate counts; these tests assert
the constraint generator emits *exactly* those numbers, which is the
strongest evidence the encoding is the paper's encoding.
"""

import pytest

from repro.aig import Aig, CnfEmitter
from repro.bmc import BmcOptions, EncodingSession
from repro.bmc.unroller import Unroller
from repro.design import Design
from repro.emm import EmmMemory, accounting
from repro.sat import Solver


def make_port_design(aw, dw, r_ports, w_ports, init=0):
    d = Design("acct")
    t = d.latch("t", 2, init=0)
    t.next = t.expr + 1
    mem = d.memory("m", aw, dw, read_ports=r_ports, write_ports=w_ports,
                   init=init)
    for w in range(w_ports):
        mem.write(w).connect(addr=d.input(f"wa{w}", aw),
                             data=d.input(f"wd{w}", dw),
                             en=d.input(f"we{w}", 1))
    for r in range(r_ports):
        mem.read(r).connect(addr=d.input(f"ra{r}", aw), en=d.input(f"re{r}", 1))
    rd = mem.read(0).data
    d.invariant("p", rd.ule((1 << dw) - 1))
    return d


def run_frames(design, depth, **emm_kwargs):
    solver = Solver(proof=False)
    emitter = CnfEmitter(Aig(), solver)
    unroller = Unroller(design, emitter)
    emm = EmmMemory(solver, unroller, "m", **emm_kwargs)
    for k in range(depth + 1):
        unroller.add_frame()
        emm.add_frame(k)
    return emm


def test_default_session_is_the_paper_encoding():
    """The engine's default hybrid encoding is the paper's: on the C1
    fresh-address design (arbitrary init, eq-(6) off, as the C1 bench
    runs it) a session's EMM counters equal the Section 4.1 closed
    forms."""
    depth = 12
    session = EncodingSession(make_port_design(4, 4, 1, 1, init=None),
                              BmcOptions(find_proof=False,
                                         init_consistency=False))
    session.extend_to(depth)
    c = session.emms["m"].counters
    assert c.total_clauses == accounting.cumulative_clauses(depth, 1, 1, 4, 4)
    assert c.total_gates == accounting.cumulative_gates(depth, 1, 1)


@pytest.mark.parametrize("aw,dw", [(2, 2), (3, 5), (5, 8)])
@pytest.mark.parametrize("w_ports", [1, 2, 3])
@pytest.mark.parametrize("depth", [0, 1, 4])
def test_clause_count_matches_formula(aw, dw, w_ports, depth):
    """Per-depth clauses == ((4m+2n+1)kW + 2n+1) per read port (known init)."""
    design = make_port_design(aw, dw, r_ports=1, w_ports=w_ports)
    emm = run_frames(design, depth)
    frame = emm.counters.per_frame[depth]
    measured = (frame["addr_eq_clauses"] + frame["rd_clauses"]
                + frame["valid_clauses"] + frame["init_rd_clauses"])
    # With a known constant initial word the S_{-1} pair needs only n
    # clauses instead of the paper's 2n for a symbolic WD_{-1}; adjust.
    paper = accounting.clauses_per_read_port(depth, w_ports, aw, dw)
    assert measured == paper - dw


@pytest.mark.parametrize("aw,dw", [(3, 4)])
@pytest.mark.parametrize("w_ports", [1, 2])
@pytest.mark.parametrize("depth", [0, 2, 5])
def test_symbolic_init_matches_paper_count(aw, dw, w_ports, depth):
    """With a symbolic initial word the count matches the paper exactly."""
    design = make_port_design(aw, dw, r_ports=1, w_ports=w_ports, init=None)
    emm = run_frames(design, depth, init_consistency=False)
    frame = emm.counters.per_frame[depth]
    measured = (frame["addr_eq_clauses"] + frame["rd_clauses"]
                + frame["valid_clauses"] + frame["init_rd_clauses"])
    assert measured == accounting.clauses_per_read_port(depth, w_ports, aw, dw)


@pytest.mark.parametrize("w_ports", [1, 2, 4])
@pytest.mark.parametrize("depth", [0, 1, 3, 6])
def test_gate_count_matches_formula(w_ports, depth):
    """Exclusivity chain gates == 3kW per read port at depth k."""
    design = make_port_design(3, 4, r_ports=1, w_ports=w_ports)
    emm = run_frames(design, depth)
    frame = emm.counters.per_frame[depth]
    assert frame["excl_gates"] == accounting.gates_per_read_port(depth, w_ports)


@pytest.mark.parametrize("r_ports", [1, 2, 3])
def test_multi_read_port_multiplier(r_ports):
    """Totals scale linearly with R (paper: multiply by R)."""
    depth = 3
    design = make_port_design(3, 4, r_ports=r_ports, w_ports=2)
    emm = run_frames(design, depth)
    frame = emm.counters.per_frame[depth]
    measured = (frame["addr_eq_clauses"] + frame["rd_clauses"]
                + frame["valid_clauses"] + frame["init_rd_clauses"])
    single = accounting.clauses_per_read_port(depth, 2, 3, 4) - 4
    assert measured == single * r_ports
    assert frame["excl_gates"] == accounting.gates_per_read_port(depth, 2) * r_ports


def test_cumulative_growth_is_quadratic():
    """Cumulative clauses over depth follow the quadratic closed form."""
    design = make_port_design(3, 4, r_ports=1, w_ports=1)
    emm = run_frames(design, 8)
    c = emm.counters
    measured_total = (c.addr_eq_clauses + c.rd_clauses + c.valid_clauses
                      + c.init_rd_clauses)
    expected = accounting.cumulative_clauses(8, 1, 1, 3, 4) - 9 * 4
    assert measured_total == expected
    assert c.excl_gates == accounting.cumulative_gates(8, 1, 1)


#: C1 growth configurations (AW, DW, R, W, depth): small widths, then
#: Industry II's port structure and Industry I's memory shape at the
#: paper's widths.
GROWTH_CONFIGS = [
    (4, 4, 1, 1, 12),
    (6, 8, 1, 1, 12),
    (4, 4, 2, 1, 12),
    (4, 4, 1, 2, 12),
    (10, 32, 3, 1, 8),
    (10, 8, 1, 1, 10),
]


@pytest.mark.parametrize("aw,dw,r,w,depth", GROWTH_CONFIGS,
                         ids=[f"m{c[0]}n{c[1]}R{c[2]}W{c[3]}"
                              for c in GROWTH_CONFIGS])
def test_cumulative_counts_match_closed_forms(aw, dw, r, w, depth):
    """C1: with fresh symbolic addresses and arbitrary init (eq-(6)
    off) the cumulative EMM clauses and exclusivity gates equal the
    paper's ((4m+2n+1)kW + 2n+1)R clauses and 3kWR gates per depth k."""
    emm = run_frames(make_port_design(aw, dw, r, w, init=None), depth,
                     init_consistency=False)
    c = emm.counters
    measured = (c.addr_eq_clauses + c.rd_clauses + c.valid_clauses
                + c.init_rd_clauses)
    assert measured == accounting.cumulative_clauses(depth, w, r, aw, dw)
    assert c.excl_gates == accounting.cumulative_gates(depth, w, r)


def test_symbolic_words_per_depth():
    """Arbitrary init introduces one fresh word per read per frame."""
    design = make_port_design(3, 4, r_ports=2, w_ports=1, init=None)
    emm = run_frames(design, 4, init_consistency=True)
    # k+1 frames, R=2 reads/frame, dw=4 bits per symbolic word.
    expected_pairs = accounting.init_consistency_pairs_all(5, 2)
    assert emm.counters.init_pairs == expected_pairs


def test_paper_vs_allpairs_formulas():
    assert accounting.init_consistency_pairs_paper(4, 1) == 0
    assert accounting.init_consistency_pairs_all(4, 1) == 6
    assert accounting.init_consistency_pairs_paper(3, 2) == 6
    assert accounting.init_consistency_pairs_all(3, 2) == 15


def test_explicit_state_bits():
    assert accounting.explicit_model_state_bits(10, 32) == 32768
    assert accounting.explicit_model_state_bits(3, 4) == 32


def test_pure_gate_formula():
    assert accounting.pure_gate_single_port(5, 10, 32) == (40 + 64 + 2) * 5 + 32


# -- comparator dedup: the closed forms become upper bounds ---------------

def make_recurring_design(aw=3, dw=4):
    """Two read ports sharing one address cone + one constant-address port."""
    d = Design("recur")
    t = d.latch("t", 2, init=0)
    t.next = t.expr + 1
    mem = d.memory("m", aw, dw, read_ports=3, write_ports=1, init=0)
    mem.write(0).connect(addr=d.input("wa", aw), data=d.input("wd", dw),
                         en=d.input("we", 1))
    ra = d.input("ra", aw)
    mem.read(0).connect(addr=ra, en=1)
    mem.read(1).connect(addr=ra, en=1)
    mem.read(2).connect(addr=d.const(5, aw), en=1)
    rd = mem.read(0).data
    d.invariant("p", rd.ule((1 << dw) - 1))
    return d


def test_repeated_addresses_produce_cache_hits():
    """Port 1 duplicates port 0's cone: its k comparisons per frame all hit;
    port 2's constant address repeats across frames: k-1 hits per frame."""
    depth = 4
    emm = run_frames(make_recurring_design(), depth)
    c = emm.counters
    dup_hits = sum(k for k in range(depth + 1))          # port 1 vs port 0
    const_hits = sum(k - 1 for k in range(1, depth + 1))  # port 2 cross-frame
    assert c.addr_eq_cache_hits == dup_hits + const_hits
    assert c.addr_eq_folded == 0  # no const-vs-const comparison here


def test_constant_addresses_produce_folds():
    """Constant read address vs constant write address folds to a constant."""
    d = Design("constfold")
    t = d.latch("t", 2, init=0)
    t.next = t.expr + 1
    mem = d.memory("m", 3, 2, read_ports=2, write_ports=1, init=0)
    mem.write(0).connect(addr=d.const(5, 3), data=d.input("wd", 2),
                         en=d.input("we", 1))
    mem.read(0).connect(addr=d.const(5, 3), en=1)  # always equal: TRUE
    mem.read(1).connect(addr=d.const(2, 3), en=1)  # never equal: FALSE
    d.invariant("p", mem.read(0).data.ule(3))
    depth = 3
    emm = run_frames(d, depth)
    c = emm.counters
    # Every (read, write-pair) comparison is const-vs-const: zero
    # comparator clauses.  Each of the two distinct constant pairs folds
    # once; the remaining comparisons are answered from the cache.
    comparisons = 2 * sum(k for k in range(depth + 1))
    assert c.addr_eq_folded == 2
    assert c.addr_eq_cache_hits == comparisons - 2
    assert c.addr_eq_clauses == 0


def test_const_vs_symbolic_uses_short_form():
    """A constant read address against a symbolic write address books m+1
    clauses (the _addr_eq_const shape) instead of the full 4m+1."""
    aw = 4
    d = Design("constsym")
    t = d.latch("t", 2, init=0)
    t.next = t.expr + 1
    mem = d.memory("m", aw, 2, read_ports=1, write_ports=1, init=0)
    mem.write(0).connect(addr=d.input("wa", aw), data=d.input("wd", 2),
                         en=d.input("we", 1))
    mem.read(0).connect(addr=d.const(9, aw), en=1)
    d.invariant("p", mem.read(0).data.ule(3))
    emm = run_frames(d, 1)  # depth 1: exactly one fresh comparison
    c = emm.counters
    assert c.addr_eq_clauses == accounting.addr_eq_clauses_const(aw)
    assert c.addr_eq_cache_hits == 0


# -- initial-state machinery: accounting regressions ------------------------


def make_const_pair_design(aw=3, dw=3):
    """Two reads pinned to distinct constant addresses, arbitrary init."""
    d = Design("constpair")
    t = d.latch("t", 2, init=0)
    t.next = t.expr + 1
    mem = d.memory("m", aw, dw, read_ports=2, write_ports=1, init=None)
    mem.write(0).connect(addr=d.input("wa", aw), data=d.input("wd", dw),
                         en=d.input("we", 1))
    mem.read(0).connect(addr=d.const(1, aw), en=1)
    mem.read(1).connect(addr=d.const(2, aw), en=1)
    d.invariant("p", mem.read(0).data.ule((1 << dw) - 1))
    return d


class TestHybridStrashAccounting:
    """The init-consistency guard/prune counters must be exact and
    independent of the forwarding chain's form (the exclusive chain or
    the naive eq-(3) ablation), and the counters must reconcile with the
    clauses that really reached the solver (no clause counted twice
    through ``EmmCounters.frame_delta``)."""

    @pytest.mark.parametrize("exclusivity", [True, False])
    @pytest.mark.parametrize("depth", [1, 4, 7])
    def test_guard_and_prune_counts_exact(self, depth, exclusivity):
        """Two constant-address reads, depth d: two founding records
        (one guard clause each), every later read merges (one guard
        clause each, 2d total), and exactly the one cross-address
        eq-(6) pair is pruned on its folded-FALSE comparator."""
        emm = run_frames(make_const_pair_design(), depth,
                         exclusivity=exclusivity)
        c = emm.counters
        assert c.init_records_merged == 2 * depth
        assert c.init_guard_clauses == 2 + 2 * depth
        assert c.init_pairs_pruned == 1
        assert c.init_pairs == 0  # the only candidate pair was pruned

    def test_backends_agree_on_init_counters(self):
        """The init machinery is shared code: pins, guards, merges and
        prunes must book identically under both chain forms."""
        on = run_frames(make_const_pair_design(), 5, exclusivity=True)
        off = run_frames(make_const_pair_design(), 5, exclusivity=False)
        for key in ("init_guard_clauses", "init_pairs_pruned",
                    "init_records_merged", "init_pin_clauses",
                    "init_addr_eq_clauses", "init_consistency_clauses",
                    "init_pairs"):
            assert getattr(on.counters, key) == getattr(off.counters, key), key

    @pytest.mark.parametrize("init_consistency", [True, False])
    def test_total_clauses_not_double_counted(self, init_consistency):
        """The counters reconcile with the clauses the EMM frames really
        handed to the solver: booked clauses plus three per gate ==
        clauses added (absorbed ones included), with record merging and
        eq-(6) pairs (``True``) and under the eq-(6) ablation
        (``False``).  The single unbooked clause is the emitter's shared
        always-true unit (label ``("const",)``), allocated inside the
        first EMM frame on this constant-address workload — it belongs
        to the CNF substrate, not to any memory's constraints."""
        solver = Solver(proof=False)
        emitter = CnfEmitter(Aig(), solver)
        unroller = Unroller(make_const_pair_design(), emitter)
        emm = EmmMemory(solver, unroller, "m",
                        init_consistency=init_consistency)
        add_clause = solver.add_clause
        emm_added = 0

        def counting_add_clause(*args, **kwargs):
            nonlocal emm_added
            emm_added += 1
            return add_clause(*args, **kwargs)

        for k in range(6):
            unroller.add_frame()
            solver.add_clause = counting_add_clause
            emm.add_frame(k)
            solver.add_clause = add_clause
        c = emm.counters
        assert c.total_clauses + 3 * c.total_gates == emm_added - 1
        assert sum(f["clauses"] for f in c.per_frame) == c.total_clauses
        assert sum(f["gates"] for f in c.per_frame) == c.total_gates

    def test_fresh_addresses_stay_within_upper_bound(self):
        """No sharing to find: the paper's per-frame closed form holds on
        fully symbolic address cones (where it is tightest)."""
        depth = 5
        design = make_port_design(3, 4, r_ports=1, w_ports=2, init=None)
        emm = run_frames(design, depth, init_consistency=False)
        for k, frame in enumerate(emm.counters.per_frame):
            bound = accounting.clauses_per_read_port(k, 2, 3, 4)
            assert frame["clauses"] <= bound, (k, frame["clauses"], bound)

def test_recurring_design_pays_less_than_paper_counts():
    """The paper books a fresh 4m+1 comparator per (read, write) pair:
    3 ports x k pairs at depth k.  The recurring workload pays less."""
    depth = 3
    on = run_frames(make_recurring_design(), depth)
    pairs = 3 * sum(k for k in range(depth + 1))
    paper = pairs * accounting.addr_eq_clauses_full(3)
    assert on.counters.addr_eq_cache_hits > 0
    assert on.counters.addr_eq_clauses < paper
