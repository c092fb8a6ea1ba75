"""Cross-frame chain-suffix sharing + incremental equation (6).

Chain sharing must be invisible to every observable verification
outcome while shrinking the encoding: the EMM priority chain is built
oldest-write-first as a mux chain (frame k's chain becomes a strash
prefix of frame k+1's for recurring address cones), equation-(6) pairs
whose comparator folds FALSE are pruned, and fall-through reads whose
comparator folds TRUE are merged into the existing record.  Randomized
designs — multi-write-port, known-init and symbolic-init — are run
through full BMC (induction + PBA) and checked against the independent
oracles of ``tests/bmc_oracle.py``; shared-init groups are checked for
the proofs that need them.  A pinned-stimulus differential checks the
mux chain's write priority bit-for-bit against the reference
simulator, and a hypothesis fuzz checks the eq-(6) pruning in both
encoders against the explicit-memory model.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.aig import Aig, CnfEmitter
from repro.bmc import BmcOptions, bmc3, verify
from repro.bmc.unroller import Unroller
from repro.design import Design, expand_memories
from repro.emm import EmmMemory, InitReadRegistry, accounting
from repro.emm.gates import GateEmmMemory
from repro.sat import Solver
from repro.sim import Simulator
from tests.bmc_oracle import assert_matches_oracle
from tests.test_strash import recurring_bench_design


# ---------------------------------------------------------------------------
# Randomized designs: the chain-shared encodings against the oracles.
# ---------------------------------------------------------------------------


def random_chain_design(rng: random.Random):
    """Random multi-port single-memory design with recurring addresses.

    Covers the paths the chain-share pass touches: up to three write
    ports (disjoint address parities, so the no-race assumption holds),
    known-init and symbolic-init memories, and address cones drawn from
    a pool of constants, a shared input and a walking latch so both the
    suffix sharing and the eq-(6) merge/prune logic actually fire.
    """
    aw = rng.choice([2, 3])
    dw = rng.choice([2, 3])
    w_ports = rng.choice([1, 2, 3])
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
            # assume same-cycle same-address write races are absent.  A
            # third port shares port 0's parity, so it never fires — it
            # still exercises the three-port chain structure.
            addr = d.input(f"wa{w}", aw)
            en = en & addr[0].eq(w & 1)
            if w == 2:
                en = en & d.const(0, 1)
        else:
            addr = rng.choice(addr_pool)()
        mem.write(w).connect(addr=addr, data=d.input(f"wd{w}", dw), en=en)
    for r in range(r_ports):
        mem.read(r).connect(addr=rng.choice(addr_pool)(), en=1)
    target = rng.randrange(1 << dw)
    d.reach("hit", mem.read(0).data.eq(target))
    return d, "hit"


#: Seeds whose memory-expanded model the BDD engine finishes on (seeds
#: 0, 5 and 7 hit its node limit; explicit-memory BMC still covers them).
BDD_SEEDS = {1, 2, 3, 4, 6}


@pytest.mark.parametrize("seed", range(8))
def test_chain_share_is_invisible_to_gate_verification(seed):
    """Gate encoding: verdicts and traces match the independent oracles."""
    rng = random.Random(seed)
    design, prop = random_chain_design(rng)
    r = verify(design, prop, bmc3(max_depth=4, emm_encoding="gates"))
    assert_matches_oracle(r, design, prop, seed, bdd=seed in BDD_SEEDS)


@pytest.mark.parametrize("seed", [0, 2, 5, 7])
def test_chain_share_is_invisible_to_hybrid_verification(seed):
    """Hybrid encoding: the eq-(6) merge/prune pass preserves verdicts."""
    rng = random.Random(seed)
    design, prop = random_chain_design(rng)
    r = verify(design, prop, bmc3(max_depth=4))
    assert_matches_oracle(r, design, prop, seed, bdd=seed in BDD_SEEDS)


# ---------------------------------------------------------------------------
# Shared-init groups: merging across memory copies (the miter case).
# ---------------------------------------------------------------------------


def shared_init_pair_design(aw=2, dw=2):
    """Two arbitrary-init memories declared to share initial contents.

    Both copies see identical write traffic and read the same constant
    address, so ``rd1 == rd2`` is invariant — but proving it by
    induction *requires* the cross-memory equation-(6) machinery: with
    separate registries the two initial words are unrelated.
    """
    d = Design("pair")
    wa = d.input("wa", aw)
    wd = d.input("wd", dw)
    we = d.input("we", 1)
    m1 = d.memory("m1", aw, dw, init=None)
    m2 = d.memory("m2", aw, dw, init=None)
    m1.write(0).connect(addr=wa, data=wd, en=we)
    m2.write(0).connect(addr=wa, data=wd, en=we)
    rd1 = m1.read(0).connect(addr=d.const(1, aw), en=1)
    rd2 = m2.read(0).connect(addr=d.const(1, aw), en=1)
    d.invariant("same", rd1.eq(rd2))
    return d


@pytest.mark.parametrize("encoding", ["hybrid", "gates"])
def test_shared_init_group_parity_and_merging(encoding):
    design = shared_init_pair_design()
    group = (frozenset({"m1", "m2"}),)
    r = verify(design, "same", bmc3(
        max_depth=8, pba=False, emm_encoding=encoding,
        shared_init_memories=group))
    assert r.proved, (encoding, r.describe())
    # Both memories read one shared address cone: every fall-through
    # read after the first merges — across memory copies.
    assert r.stats.emm_init_records_merged > 0


def test_shared_init_group_still_required():
    """Without the shared group the invariant must stay unproved —
    merging never relates records living in separate registries."""
    r = verify(shared_init_pair_design(), "same",
               bmc3(max_depth=6, pba=False))
    assert not r.proved


@pytest.mark.parametrize("encoding", ["hybrid", "gates"])
def test_shared_init_group_with_conflicting_overrides(encoding):
    """Grouped memories may declare *different* ``init_words`` (grouping
    only checks ``init is None``).  Merging across them would let one
    copy inherit the other's a_meminit pins and silently drop its own —
    the declared-init signature in the merge key forbids exactly that:
    the conflicting pins make a_meminit unsatisfiable (no cex,
    vacuously)."""
    d = Design("conflict")
    wa = d.input("wa", 2)
    wd = d.input("wd", 2)
    we = d.input("we", 1)
    m1 = d.memory("m1", 2, 2, init=None, init_words={1: 2})
    m2 = d.memory("m2", 2, 2, init=None, init_words={1: 1})
    m1.write(0).connect(addr=wa, data=wd, en=we)
    m2.write(0).connect(addr=wa, data=wd, en=we)
    rd2 = m2.read(0).connect(addr=d.const(1, 2), en=1)
    m1.read(0).connect(addr=d.const(1, 2), en=1)
    # False under m2's own declared init — but the conflicting pins of
    # the (contradictory) group declaration make a_meminit UNSAT, so no
    # cex exists; a cross-memory merge would instead read m1's value
    # through the shared word and fabricate a cex.
    d.invariant("rd2_is_1", rd2.eq(1))
    group = (frozenset({"m1", "m2"}),)
    r = verify(d, "rd2_is_1", bmc3(
        max_depth=6, pba=False, emm_encoding=encoding,
        shared_init_memories=group))
    assert not r.falsified, r.describe()


# ---------------------------------------------------------------------------
# Chain ordering: bit-for-bit differential against the simulator.
# ---------------------------------------------------------------------------


def multiport_design(aw, dw, n_write, init=0, init_words=None):
    d = Design("mw")
    t = d.latch("t", 2, init=0)
    t.next = t.expr + 1
    mem = d.memory("m", aw, dw, read_ports=2, write_ports=n_write,
                   init=init, init_words=init_words or {})
    for w in range(n_write):
        en = d.input(f"we{w}", 1)
        addr = d.input(f"wa{w}", aw)
        guard = addr[0].eq(w & 1) if n_write > 1 else d.const(1, 1)
        mem.write(w).connect(addr=addr, data=d.input(f"wd{w}", dw),
                             en=en & guard)
    mem.read(0).connect(addr=d.input("ra", aw), en=1)
    mem.read(1).connect(addr=d.const(1, aw), en=1)
    d.invariant("p", mem.read(0).data.ule((1 << dw) - 1))
    return d


def solve_gates_pinned(design, depth, stimulus):
    solver = Solver(proof=False)
    emitter = CnfEmitter(Aig(), solver)
    un = Unroller(design, emitter)
    emm = GateEmmMemory(solver, un, "m")
    for k in range(depth + 1):
        un.add_frame()
        emm.add_frame(k)
    assumptions = []
    for k, vec in enumerate(stimulus):
        for name, value in vec.items():
            for i, bit in enumerate(un.input_word(name, k)):
                lit = emitter.sat_lit(bit)
                assumptions.append(lit if (value >> i) & 1 else -lit)
    for bit in un.latch_word("t", 0):
        assumptions.append(-emitter.sat_lit(bit))
    assert solver.solve(assumptions).sat
    reads = {}
    for port in range(2):
        for k in range(depth + 1):
            got = 0
            for i, bit in enumerate(un.rd_word("m", port, k)):
                var = emitter.var_for(bit)
                if var is not None and solver.model_value(var):
                    got |= 1 << i
            reads[(port, k)] = got
    return reads


@pytest.mark.parametrize("seed", range(5))
def test_mux_chain_priority_matches_simulator(seed):
    """Newest matching write must win under the oldest-first mux chain,
    on multi-write-port traffic, per bit."""
    rng = random.Random(seed)
    aw, dw = 2, 3
    n_write = rng.choice([1, 2])
    init_words = {1: 5} if seed % 2 else None
    design = multiport_design(aw, dw, n_write, init=rng.choice([0, 6]),
                              init_words=init_words)
    depth = 4
    stimulus = []
    for __ in range(depth + 1):
        vec = {"ra": rng.randrange(1 << aw)}
        for w in range(n_write):
            vec[f"wa{w}"] = rng.randrange(1 << aw)
            vec[f"wd{w}"] = rng.randrange(1 << dw)
            vec[f"we{w}"] = rng.randrange(2)
        stimulus.append(vec)
    reads = solve_gates_pinned(design, depth, stimulus)
    sim = Simulator(design)
    for k in range(depth + 1):
        sim.begin_cycle(stimulus[k])
        for port in range(2):
            expected = sim.eval(design.memories["m"].read(port).data)
            assert reads[(port, k)] == expected, (seed, port, k, stimulus)
        sim.commit_cycle()


def test_repeated_write_priority_deterministic():
    """Two writes to the same address at different frames: the read must
    return the newer one even though the mux chain applies it last."""
    d = multiport_design(2, 3, 1)
    stim = [
        {"ra": 2, "wa0": 2, "wd0": 3, "we0": 1},   # frame 0: write 3
        {"ra": 2, "wa0": 2, "wd0": 6, "we0": 1},   # frame 1: overwrite 6
        {"ra": 2, "wa0": 0, "wd0": 1, "we0": 0},   # frame 2: read back
    ]
    reads = solve_gates_pinned(d, 2, stim)
    assert reads[(0, 1)] == 3   # reads see pre-cycle contents
    assert reads[(0, 2)] == 6   # newest write wins


# ---------------------------------------------------------------------------
# Hypothesis fuzz: eq-(6) pruning/merging in both encoders.
# ---------------------------------------------------------------------------


@st.composite
def const_read_workloads(draw):
    aw = draw(st.integers(1, 2))
    dw = draw(st.integers(1, 2))
    depth = draw(st.integers(1, 3))
    addrs = draw(st.lists(st.integers(0, (1 << aw) - 1), min_size=2,
                          max_size=3))
    target = draw(st.integers(0, (1 << dw) - 1))
    return aw, dw, depth, addrs, target


def build_const_reads(aw, dw, addrs):
    d = Design("cr")
    t = d.latch("t", 2, init=0)
    t.next = t.expr + 1
    mem = d.memory("m", aw, dw, read_ports=len(addrs), write_ports=1,
                   init=None)
    mem.write(0).connect(addr=d.input("wa", aw), data=d.input("wd", dw),
                         en=d.input("we", 1))
    for r, a in enumerate(addrs):
        mem.read(r).connect(addr=d.const(a, aw), en=1)
    return d


@settings(max_examples=25, deadline=None)
@given(const_read_workloads())
def test_eq6_pruning_fuzz_both_encoders(workload):
    """Constant-address reads: the pruned/merged eq-(6) pass must agree
    with the explicit-memory model and BDD reachability in both
    encoders, prune every distinct-address pair and merge every repeated
    read."""
    aw, dw, depth, addrs, target = workload
    design = build_const_reads(aw, dw, addrs)
    design.reach("hit", design.memories["m"].read(0).data.eq(target))
    distinct = sorted(set(addrs))
    for encoding in ("hybrid", "gates"):
        on = verify(design, "hit", bmc3(max_depth=depth, pba=False,
                                        emm_encoding=encoding))
        assert_matches_oracle(on, design, "hit", (encoding, workload),
                              bdd=True)
        s = on.stats
        # Every read after the per-address first merges; surviving
        # records are one per distinct address, so the emitted pairs are
        # exactly the distinct-address cross pairs — all folded FALSE
        # and pruned.
        n_frames = on.depth + 1
        expected_merged = n_frames * len(addrs) - len(distinct)
        assert s.emm_init_records_merged == expected_merged, (encoding, workload)
        assert s.emm_init_pairs_pruned == \
            len(distinct) * (len(distinct) - 1) // 2


# ---------------------------------------------------------------------------
# Accounting: suffix hits, plateau, per-frame snapshots, closed forms.
# ---------------------------------------------------------------------------


def build_const_pair(aw=4, dw=4):
    """The constant-address variant of the recurring C2 workload."""
    d = Design("constvar")
    t = d.latch("t", 2, init=0)
    t.next = t.expr + 1
    mem = d.memory("m", aw, dw, read_ports=2, write_ports=1, init=None)
    mem.write(0).connect(addr=d.input("wa", aw), data=d.input("wd", dw),
                         en=d.input("we", 1))
    mem.read(0).connect(addr=d.const(1, aw), en=1)
    mem.read(1).connect(addr=d.const(2, aw), en=1)
    d.invariant("p", mem.read(0).data.ule((1 << dw) - 1))
    return d


def run_gate_frames(design, depth, sizes=None, **kw):
    """Encode frames 0..depth with the gate EMM; when ``sizes`` is a
    list, append the solver's clauses+vars after each frame to it."""
    solver = Solver(proof=False)
    emitter = CnfEmitter(Aig(), solver)
    unroller = Unroller(design, emitter)
    emm = GateEmmMemory(solver, unroller, "m", **kw)
    for k in range(depth + 1):
        unroller.add_frame()
        emm.add_frame(k)
        if sizes is not None:
            sizes.append(solver.num_clauses + solver.num_vars)
    return solver, emm


CHAIN_WORKLOADS = {"recurring": recurring_bench_design, "const": build_const_pair}

#: C3: cumulative solver clauses+vars of the gate EMM encoding at every
#: depth 8..24, per (workload, AW, DW).
CHAIN_PINNED = {
    ("recurring", 4, 4): [4674, 5649, 6714, 7869, 9114, 10449, 11874,
                          13389, 14994, 16689, 18474, 20349, 22314,
                          24369, 26514, 28749, 31074],
    ("const", 4, 4): [1312, 1468, 1624, 1780, 1936, 2092, 2248, 2404,
                      2560, 2716, 2872, 3028, 3184, 3340, 3496, 3652,
                      3808],
    ("const", 6, 8): [2320, 2594, 2868, 3142, 3416, 3690, 3964, 4238,
                      4512, 4786, 5060, 5334, 5608, 5882, 6156, 6430,
                      6704],
}


@pytest.mark.parametrize("workload,aw,dw", list(CHAIN_PINNED),
                         ids=[f"{w}-m{a}n{d}" for w, a, d in CHAIN_PINNED])
def test_chain_share_pinned_to_depth_24(workload, aw, dw):
    """The suffix-shared encoding's size at every depth 8..24; on the
    constant-address workload the per-frame new gates plateau after
    warmup while eq-(6) pairs are pruned and fall-through reads merge.
    At depth 8 both encodings agree with the explicit-memory model."""
    sizes = []
    __, emm = run_gate_frames(CHAIN_WORKLOADS[workload](aw, dw), 24, sizes)
    assert sizes[8:] == CHAIN_PINNED[(workload, aw, dw)]
    c = emm.counters
    assert c.chain_suffix_hits > 0
    if workload == "const":
        gates = [f["gates"] for f in c.per_frame]
        assert len(set(gates[3:])) == 1, gates
        assert c.init_pairs_pruned > 0
        assert c.init_records_merged > 0
    design = CHAIN_WORKLOADS[workload](aw, dw)
    results = [verify(design, "p", BmcOptions(find_proof=False, max_depth=8,
                                              emm_encoding=encoding))
               for encoding in ("gates", "hybrid")]
    results.append(verify(expand_memories(design), "p",
                          BmcOptions(find_proof=False, max_depth=8,
                                     use_emm=False)))
    assert [(r.status, r.depth) for r in results] == [("bounded", 8)] * 3


class TestSuffixSharingAccounting:
    def test_per_frame_gates_plateau_on_const_addresses(self):
        """After warmup the suffix-shared chain adds a *constant* number
        of new gates per frame, within the closed-form bound."""
        depth = 10
        __, on = run_gate_frames(build_const_pair(), depth)
        gates_on = [f["gates"] for f in on.counters.per_frame]
        plateau = set(gates_on[3:])
        assert len(plateau) == 1, gates_on
        assert plateau.pop() <= accounting.suffix_shared_frame_gates(4, 4) \
            + accounting.addr_eq_clauses_full(4)
        assert on.counters.chain_suffix_hits > 0
        assert on.counters.init_pairs_pruned == 1  # addr-1 vs addr-2 record
        assert on.counters.init_records_merged == 2 * depth

    def test_mux_chain_upper_bound_holds(self):
        """Unshared chains stay within the closed-form gate bound."""
        depth = 6
        d = Design("fresh")
        t = d.latch("t", 2, init=0)
        t.next = t.expr + 1
        mem = d.memory("m", 3, 4, read_ports=1, write_ports=2, init=0)
        for w in range(2):
            mem.write(w).connect(addr=d.input(f"wa{w}", 3),
                                 data=d.input(f"wd{w}", 4),
                                 en=d.input(f"we{w}", 1))
        mem.read(0).connect(addr=d.input("ra", 3), en=d.input("re", 1))
        d.invariant("p", mem.read(0).data.ule(15))
        __, emm = run_gate_frames(d, depth)
        chain_bound = sum(
            accounting.mux_chain_gates_per_read_port(k, 2, 4)
            for k in range(depth + 1))
        comparator_bound = sum(
            accounting.addr_eq_clauses_full(3) * 2 * k
            for k in range(depth + 1))
        assert emm.counters.excl_gates <= chain_bound + comparator_bound

    def test_hybrid_per_frame_matches_gate_keys(self):
        """Satellite: both encoders snapshot comparable per-frame growth."""
        design = build_const_pair(3, 3)
        solver = Solver(proof=False)
        emitter = CnfEmitter(Aig(), solver)
        unroller = Unroller(design, emitter)
        emm = EmmMemory(solver, unroller, "m")
        for k in range(4):
            unroller.add_frame()
            emm.add_frame(k)
        __, gate = run_gate_frames(build_const_pair(3, 3), 3)
        for frames in (emm.counters.per_frame, gate.counters.per_frame):
            assert len(frames) == 4
            for frame in frames:
                assert "gates" in frame and "clauses" in frame
                assert frame["gates"] == frame["excl_gates"]
                assert frame["clauses"] >= 0
        # The hybrid aggregates reconcile with the totals.
        c = emm.counters
        assert sum(f["clauses"] for f in c.per_frame) == c.total_clauses
        assert sum(f["gates"] for f in c.per_frame) == c.total_gates

    def test_gate_total_clauses_not_double_counted(self):
        """The blanket CNF delta must exclude init-booked clauses: the
        totals reconcile with the clauses the EMM frames really added to
        the solver (pin/consistency clauses are not counted a second
        time in ``rd_clauses``)."""
        solver = Solver(proof=False)
        emitter = CnfEmitter(Aig(), solver)
        unroller = Unroller(build_const_pair(3, 3), emitter)
        emm = GateEmmMemory(solver, unroller, "m")
        emm_added = 0
        for k in range(6):
            unroller.add_frame()
            before = solver.num_clauses
            emm.add_frame(k)
            emm_added += solver.num_clauses - before
        c = emm.counters
        assert c.total_clauses == emm_added + c.absorbed

    def test_engine_surfaces_chain_counters(self):
        r = verify(build_const_pair(3, 3), "p",
                   BmcOptions(find_proof=False, max_depth=5,
                              emm_encoding="gates"))
        assert r.status == "bounded" and r.depth == 5
        assert r.stats.emm_chain_suffix_hits > 0
        assert r.stats.emm_init_records_merged > 0
        assert r.stats.emm_init_pairs_pruned > 0


class TestInitReadRegistry:
    def test_first_record_wins_merge_index(self):
        from repro.emm.forwarding import _ReadRecord
        reg = InitReadRegistry()
        r1 = _ReadRecord(0, 0, [3, 4], 7, [10, 11])
        r2 = _ReadRecord(1, 0, [3, 4], 8, [12, 13])
        assert reg.find_mergeable([3, 4]) is None
        reg.add(r1, index=True)
        assert reg.find_mergeable([3, 4]) is r1
        reg.add(r2, index=True)  # same key: first registration sticks
        assert reg.find_mergeable([3, 4]) is r1
        assert len(reg) == 2

    def test_unindexed_records_never_merge(self):
        from repro.emm.forwarding import _ReadRecord
        reg = InitReadRegistry()
        reg.add(_ReadRecord(0, 0, [5], 2, [9]), index=False)
        assert reg.find_mergeable([5]) is None
        assert len(reg) == 1

    def test_guard_defaults_to_n_lit(self):
        from repro.emm.forwarding import _ReadRecord
        rec = _ReadRecord(0, 0, [5], 2, [9])
        assert rec.guard_lit == 2
        rec2 = _ReadRecord(0, 0, [5], 2, [9], guard_lit=42)
        assert rec2.guard_lit == 42
