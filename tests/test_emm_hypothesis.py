"""Property-based differential testing of EMM against the simulator.

For random single-memory workloads driven entirely by primary inputs, a
SAT model of the EMM-constrained unrolling — with all inputs pinned to a
random stimulus via assumptions — must assign every read-data word the
value the reference simulator computes.  This checks the forwarding
constraints bit-for-bit, not just through property verdicts.
"""

from hypothesis import given, settings, strategies as st

from repro.aig import Aig, CnfEmitter
from repro.bmc.unroller import Unroller
from repro.design import Design
from repro.emm import EmmMemory
from repro.sat import Solver
from repro.sim import Simulator


@st.composite
def workloads(draw):
    aw = draw(st.integers(1, 2))
    dw = draw(st.integers(1, 3))
    depth = draw(st.integers(1, 4))
    n_write = draw(st.integers(1, 2))
    stimulus = []
    for __ in range(depth + 1):
        vec = {"ra": draw(st.integers(0, (1 << aw) - 1))}
        for w in range(n_write):
            vec[f"wa{w}"] = draw(st.integers(0, (1 << aw) - 1))
            vec[f"wd{w}"] = draw(st.integers(0, (1 << dw) - 1))
            vec[f"we{w}"] = draw(st.integers(0, 1))
        stimulus.append(vec)
    return aw, dw, depth, n_write, stimulus


def build_design(aw, dw, n_write):
    d = Design("hw")
    t = d.latch("t", 2, init=0)
    t.next = t.expr + 1
    mem = d.memory("m", aw, dw, write_ports=n_write, init=0)
    for w in range(n_write):
        # Port w only writes addresses congruent to w (mod n_write-ish)
        # to avoid same-cycle same-address races between ports.
        en = d.input(f"we{w}", 1)
        addr = d.input(f"wa{w}", aw)
        guard = addr[0].eq(w & 1) if n_write > 1 else d.const(1, 1)
        mem.write(w).connect(addr=addr, data=d.input(f"wd{w}", dw),
                             en=en & guard)
    rd = mem.read(0).connect(addr=d.input("ra", aw), en=1)
    d.invariant("p", rd.ule((1 << dw) - 1))
    return d


def build_recurring_design(aw, dw, n_write, const_addr, shared=True):
    """Like :func:`build_design` plus comparator-cache fodder: a second
    read port duplicating port 0's address cone and a third reading a
    fixed constant address.  ``shared=False`` gives the two extra ports
    their own address inputs ``ra1`` / ``rc`` instead — the same
    behaviour when the stimulus drives ``ra1 = ra`` and
    ``rc = const_addr``, but every comparison is fresh, so the
    comparator cache and folding have nothing to find."""
    d = Design("hwc")
    t = d.latch("t", 2, init=0)
    t.next = t.expr + 1
    mem = d.memory("m", aw, dw, read_ports=3, write_ports=n_write, init=0)
    for w in range(n_write):
        en = d.input(f"we{w}", 1)
        addr = d.input(f"wa{w}", aw)
        guard = addr[0].eq(w & 1) if n_write > 1 else d.const(1, 1)
        mem.write(w).connect(addr=addr, data=d.input(f"wd{w}", dw),
                             en=en & guard)
    ra = d.input("ra", aw)
    mem.read(0).connect(addr=ra, en=1)
    mem.read(1).connect(addr=ra if shared else d.input("ra1", aw), en=1)
    mem.read(2).connect(addr=(d.const(const_addr, aw) if shared
                              else d.input("rc", aw)), en=1)
    d.invariant("p", mem.read(0).data.ule((1 << dw) - 1))
    return d


def solve_pinned(design, depth, stimulus):
    """Unroll + EMM-constrain, pin the stimulus, return (solver pieces)."""
    solver = Solver(proof=False)
    emitter = CnfEmitter(Aig(), solver)
    un = Unroller(design, emitter)
    emm = EmmMemory(solver, un, "m")
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
    result = solver.solve(assumptions)
    return result, solver, emitter, un, emm


@st.composite
def recurring_workloads(draw):
    aw = draw(st.integers(1, 2))
    dw = draw(st.integers(1, 3))
    depth = draw(st.integers(1, 4))
    n_write = draw(st.integers(1, 2))
    const_addr = draw(st.integers(0, (1 << aw) - 1))
    stimulus = []
    for __ in range(depth + 1):
        vec = {"ra": draw(st.integers(0, (1 << aw) - 1))}
        for w in range(n_write):
            vec[f"wa{w}"] = draw(st.integers(0, (1 << aw) - 1))
            vec[f"wd{w}"] = draw(st.integers(0, (1 << dw) - 1))
            vec[f"we{w}"] = draw(st.integers(0, 1))
        stimulus.append(vec)
    return aw, dw, depth, n_write, const_addr, stimulus


@settings(max_examples=40, deadline=None)
@given(recurring_workloads())
def test_cached_and_uncached_emm_agree_with_simulator(workload):
    """The recurring design (cache hits) and its fresh-input twin (no
    hits) read identical values, and both match the reference simulator
    on every read port — the dedup layer must be semantically invisible
    even at the bit level."""
    aw, dw, depth, n_write, const_addr, stimulus = workload
    twin_stimulus = [dict(vec, ra1=vec["ra"], rc=const_addr)
                     for vec in stimulus]
    runs = {}
    for cached in (True, False):
        design = build_recurring_design(aw, dw, n_write, const_addr,
                                        shared=cached)
        result, solver, emitter, un, emm = solve_pinned(
            design, depth, stimulus if cached else twin_stimulus)
        assert result.sat
        reads = {}
        for port in range(3):
            for k in range(depth + 1):
                got = 0
                for i, bit in enumerate(un.rd_word("m", port, k)):
                    var = emitter.var_for(bit)
                    if var is not None and solver.model_value(var):
                        got |= 1 << i
                reads[(port, k)] = got
        runs[cached] = reads
        if cached:
            assert emm.counters.addr_eq_cache_hits > 0
        else:
            assert emm.counters.addr_eq_cache_hits == 0
            assert emm.counters.addr_eq_folded == 0
    assert runs[True] == runs[False]

    design = build_recurring_design(aw, dw, n_write, const_addr)
    sim = Simulator(design)
    for k in range(depth + 1):
        sim.begin_cycle(stimulus[k])
        for port in range(3):
            expected = sim.eval(design.memories["m"].read(port).data)
            assert runs[True][(port, k)] == expected, (port, k, stimulus)
        sim.commit_cycle()


@settings(max_examples=60, deadline=None)
@given(workloads())
def test_emm_model_reads_match_simulator(workload):
    aw, dw, depth, n_write, stimulus = workload
    design = build_design(aw, dw, n_write)
    solver = Solver(proof=False)
    emitter = CnfEmitter(Aig(), solver)
    un = Unroller(design, emitter)
    emm = EmmMemory(solver, un, "m")
    for k in range(depth + 1):
        un.add_frame()
        emm.add_frame(k)

    # Pin all inputs and the initial latch values via assumptions.
    assumptions = []
    for k, vec in enumerate(stimulus):
        for name, value in vec.items():
            for i, bit in enumerate(un.input_word(name, k)):
                lit = emitter.sat_lit(bit)
                assumptions.append(lit if (value >> i) & 1 else -lit)
    for i, bit in enumerate(un.latch_word("t", 0)):
        assumptions.append(-emitter.sat_lit(bit))

    result = solver.solve(assumptions)
    assert result.sat

    sim = Simulator(design)
    for k in range(depth + 1):
        sim.begin_cycle(stimulus[k])
        expected = sim.eval(design.memories["m"].read(0).data)
        got = 0
        for i, bit in enumerate(un.rd_word("m", 0, k)):
            var = emitter.var_for(bit)
            if var is not None and solver.model_value(var):
                got |= 1 << i
        assert got == expected, (k, stimulus)
        sim.commit_cycle()
