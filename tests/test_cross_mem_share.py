"""Cross-memory comparator sharing through the session registry.

The session-scoped :class:`repro.emm.addrcmp.SharedComparatorTables`
registry lets two memories whose address cones lower to the same SAT
literals share one comparator encoding.  Each clause keeps one label:
a shared comparator's ``E`` enters the CNF only through clauses the
requesting memory labels itself, so an unsat core that needs a memory's
use of it names that memory.  These tests pin the registry mechanics,
the labels of every clause over a comparator output, and the PBA
attribution end to end: a model abstracted to a run's reasons admits
no counterexample the full model does not.
"""

from dataclasses import replace

import pytest

from repro.aig import Aig, CnfEmitter
from repro.bmc import BmcOptions, EncodingSession, verify
from repro.bmc.engine import BmcEngine
from repro.bmc.unroller import Unroller
from repro.casestudies.cpu import CpuParams, build_cpu, memcpy_program
from repro.casestudies.multiport_soc import (MultiportSocParams,
                                             build_multiport_soc)
from repro.design import Design, build_miter, expand_memories
from repro.design.equiv import shared_init_groups
from repro.emm import (AddrComparator, EmmCounters, EmmMemory,
                       SharedComparatorTables)
from repro.sat import Solver
from repro.sim.fuzzfarm import build_fuzz_netlist
from tests.bmc_oracle import assert_matches_oracle


def two_mem_design(same_cones=True, init=0):
    """Two memories read/written through shared input-driven cones.

    With ``same_cones`` both memories compare the *same* (waddr, raddr)
    literal tuples, so a session registry answers the second memory's
    comparators from the first's cache entries.  ``init=None`` gives
    both memories arbitrary initial state, which is what puts CNF-side
    eq-(6) comparators on the gate encoding's path.
    """
    d = Design("two")
    ra = d.input("ra", 3)
    wa = d.input("wa", 3)
    wd = d.input("wd", 4)
    we = d.input("we", 1)
    outs = []
    for name in ("ma", "mb"):
        mem = d.memory(name, addr_width=3, data_width=4, init=init)
        mem.write(0).connect(addr=wa, data=wd, en=we)
        rd = mem.read(0).connect(addr=ra if same_cones else wa, en=1)
        out = d.latch(f"o_{name}", 4, init=0)
        out.next = rd
        outs.append(out.expr)
    d.invariant("agree", outs[0].eq(outs[1]))
    d.reach("differ", ~outs[0].eq(outs[1]))
    return d


def fresh_cmp_pair(registry):
    """Two comparators for different memories over one solver/registry."""
    solver = Solver()
    em = CnfEmitter(Aig(), solver)
    ca, cb = EmmCounters(), EmmCounters()
    a = AddrComparator(solver, em, registry, owner="ma")
    b = AddrComparator(solver, em, registry, owner="mb")
    return solver, a, b, ca, cb


def word(solver, m):
    return [solver.new_var() for _ in range(m)]


class TestRegistry:
    def test_cross_memory_hit_returns_same_literal(self):
        reg = SharedComparatorTables()
        solver, a, b, ca, cb = fresh_cmp_pair(reg)
        x, y = word(solver, 3), word(solver, 3)
        ea = a.eq(x, y, ("emm", "ma", "addr_eq"), ca, "addr_eq_clauses")
        eb = b.eq(x, y, ("emm", "mb", "addr_eq"), cb, "addr_eq_clauses")
        assert ea == eb
        assert cb.addr_eq_cache_hits == 1 and cb.addr_eq_clauses == 0
        assert cb.cross_mem_cmp_hits == 1
        assert ca.cross_mem_cmp_hits == 0
        assert reg.cross_mem_hits == 1

    def test_same_memory_hit_not_counted_cross(self):
        reg = SharedComparatorTables()
        solver, a, __, ca, __cb = fresh_cmp_pair(reg)
        x, y = word(solver, 3), word(solver, 3)
        a.eq(x, y, ("emm", "ma", "addr_eq"), ca, "addr_eq_clauses")
        a.eq(x, y, ("emm", "ma", "addr_eq"), ca, "addr_eq_clauses")
        assert ca.addr_eq_cache_hits == 1
        assert ca.cross_mem_cmp_hits == 0
        assert reg.cross_mem_hits == 0

    def test_no_registry_keeps_per_memory_scope(self):
        """Encoders built without a session make their own registry: the
        second memory re-encodes every comparison the first one made."""
        solver = Solver(proof=False)
        un = Unroller(two_mem_design(), CnfEmitter(Aig(), solver))
        emms = [EmmMemory(solver, un, name) for name in ("ma", "mb")]
        for k in range(4):
            un.add_frame()
            for emm in emms:
                emm.add_frame(k)
        ca, cb = (emm.counters for emm in emms)
        assert cb.addr_eq_cache_hits == 0  # re-encoded, private table
        assert cb.addr_eq_clauses == ca.addr_eq_clauses > 0
        assert cb.cross_mem_cmp_hits == 0


class TestEndToEnd:
    # The gate encoding's AIG side already strash-shares across
    # memories; its CNF comparators only appear on eq-(6) paths, so it
    # is exercised with arbitrary-init memories (symbolic init).
    @pytest.mark.parametrize("encoding,init", [("hybrid", 0),
                                               ("hybrid", None),
                                               ("gates", None)])
    def test_sharing_shrinks_the_encoding(self, encoding, init):
        """Per-memory scope would make ``mb`` pay every comparator ``ma``
        pays (the copies are symmetric); the session registry answers all
        of them from ``ma``'s entries, and the verdict still matches the
        explicit-memory oracle."""
        d = two_mem_design(init=init)
        opts = BmcOptions(max_depth=6, find_proof=(init is None),
                          emm_encoding=encoding)
        session = EncodingSession(d, opts)
        r = BmcEngine(d, "agree", opts, session=session).run()
        assert r.stats.cross_mem_cmp_hits > 0
        ca, cb = (session.emms[name].counters for name in ("ma", "mb"))
        assert ca.addr_eq_clauses + ca.init_addr_eq_clauses > 0
        assert cb.addr_eq_clauses + cb.init_addr_eq_clauses == 0
        assert_matches_oracle(r, d, "agree", (encoding, init))

    def test_verdict_and_trace_parity(self):
        """Both copies read at the write address: the verdict matches
        the explicit-memory oracle."""
        d = two_mem_design(same_cones=False)
        r = verify(d, "differ", BmcOptions(max_depth=6))
        assert_matches_oracle(r, d, "differ")

    def test_pba_core_names_both_memories(self):
        """The headline regression: a PBA core through a comparator both
        memories share must attribute it to both — each memory's own
        read clauses carry the shared ``E``."""
        d = two_mem_design()
        opts = BmcOptions(max_depth=6, pba=True, find_proof=False)
        r = BmcEngine(d, "agree", opts).run()
        assert r.status == "bounded"
        assert r.memory_reasons, "no PBA reasons collected"
        assert r.memory_reasons[-1] == frozenset({"ma", "mb"})
        assert r.stats.core_unlabeled == 0


# ---------------------------------------------------------------------------
# C10: the two-copy miter and a single-memory design, pinned.
# ---------------------------------------------------------------------------


def build_memory_unit():
    """One three-read-port memory behind input-driven cones, plus a
    constant read address and a reuse of the write address, so the
    per-memory cache already fires and the miter's cross-memory hits
    come on top of it."""
    d = Design("unit")
    wa = d.input("wa", 3)
    wd = d.input("wd", 4)
    we = d.input("we", 1)
    ra0 = d.input("ra0", 3)
    mem = d.memory("m", addr_width=3, data_width=4, init=0, read_ports=3)
    mem.write(0).connect(addr=wa, data=wd, en=we)
    r0 = mem.read(0).connect(addr=ra0, en=1)
    r1 = mem.read(1).connect(addr=d.const(5, 3), en=1)
    r2 = mem.read(2).connect(addr=wa, en=1)
    out = d.latch("out", 4, init=0)
    out.next = r0 ^ r1 ^ r2
    return d, out.expr


def build_miter_workload():
    a, oa = build_memory_unit()
    b, ob = build_memory_unit()
    return build_miter(a, b, [(oa, ob)])


#: Session solver clauses+vars of the miter at each even depth 2..16.
MITER_PINNED = dict(zip(range(2, 17, 2),
                        [1663, 4196, 7837, 12586, 18443, 25408, 33481,
                         42662]))

#: Solver clauses+vars of the single-memory SoC run at depth 8.
SOC_PINNED = 6007


class TestPinned:
    def test_miter_sizes_pinned(self):
        """The a::/b:: copies see identical cones: the registry shares
        across them (zero hits means it went dead)."""
        session = EncodingSession(build_miter_workload(), BmcOptions())
        sizes = {}
        for depth in MITER_PINNED:
            session.extend_to(depth)
            sizes[depth] = session.clause_var_total()
        assert sizes == MITER_PINNED
        assert session.cmp_registry.cross_mem_hits > 0

    def test_miter_verdict_parity(self):
        """Sharing is invisible to the verdict, the PBA reasons and the
        trace, and the bounded run's PBA cores name both memory copies."""
        out = {encoding: verify(build_miter_workload(), "equiv",
                                BmcOptions(find_proof=False, pba=True,
                                           max_depth=10,
                                           emm_encoding=encoding))
               for encoding in ("hybrid", "gates")}
        explicit = verify(expand_memories(build_miter_workload()), "equiv",
                          BmcOptions(find_proof=False, use_emm=False,
                                     max_depth=10))
        on, gates = out["hybrid"], out["gates"]
        assert (on.status, on.depth, on.method) == \
            (gates.status, gates.depth, gates.method)
        assert (on.status, on.depth) == (explicit.status, explicit.depth)
        assert on.trace_validated == gates.trace_validated
        assert on.latch_reasons == gates.latch_reasons
        assert on.memory_reasons == gates.memory_reasons
        assert on.stats.cross_mem_cmp_hits > 0
        assert on.stats.core_unlabeled == 0
        assert {"a::m", "b::m"} <= on.memory_reasons[-1]

    def test_single_memory_soc_pinned(self):
        """One memory: the registry has nothing to share across."""
        design = build_multiport_soc(MultiportSocParams(
            addr_width=3, data_width=4, counter_width=3, num_properties=2))
        r = verify(design, sorted(design.properties)[0],
                   BmcOptions(find_proof=False, max_depth=8))
        assert (r.status, r.depth) == ("bounded", 8)
        assert r.stats.cross_mem_cmp_hits == 0
        assert r.stats.sat_clauses + r.stats.sat_vars == SOC_PINNED


# ---------------------------------------------------------------------------
# One label per clause: the reasons stay sufficient.
# ---------------------------------------------------------------------------


def fuzz_miter(seed):
    """Two copies of a farm netlist, every read port and ``seen`` paired;
    arbitrary-init copies share their initial contents, so the miter
    holds."""
    a, b = build_fuzz_netlist(seed), build_fuzz_netlist(seed)
    pairs = [(pa.data, pb.data) for pa, pb in
             zip(a.memories["m"].read_ports, b.memories["m"].read_ports)]
    pairs.append((a.latches["seen"].expr, b.latches["seen"].expr))
    return build_miter(a, b, pairs), shared_init_groups(a, b)


@pytest.mark.parametrize("encoding", ["hybrid", "gates"])
# Fuzz seeds 4 and 5 have arbitrary-init memories (5 with two write
# ports, and its reasons free the walking latch); 6 has a known init.
@pytest.mark.parametrize("miter", ["unit", 4, 5, 6])
def test_abstraction_to_the_reasons_keeps_the_verdict(miter, encoding):
    """Re-checking a PBA falsification run on the model abstracted to
    its latch and memory reasons finds no counterexample up to the same
    depth: the reasons name every memory the refutations used."""
    design, groups = ((build_miter_workload(), ()) if miter == "unit"
                      else fuzz_miter(miter))
    opts = BmcOptions(max_depth=6, find_proof=False, emm_encoding=encoding,
                      shared_init_memories=groups)
    run = verify(design, "equiv", replace(opts, pba=True))
    assert (run.status, run.depth) == ("bounded", 6)
    assert run.stats.core_unlabeled == 0
    latches, memories = run.latch_reasons[-1], run.memory_reasons[-1]
    assert memories == frozenset(design.memories)
    abstract = verify(design, "equiv",
                      replace(opts, kept_latches=latches,
                              kept_memories=memories))
    assert (abstract.status, abstract.depth) == ("bounded", 6)


def _cpu_memcpy():
    params = CpuParams(pc_width=5, addr_width=3, data_width=4)
    return build_cpu(memcpy_program(2, src=0, dst=4, params=params), params)


def _small_soc():
    return build_multiport_soc(MultiportSocParams(
        3, 4, counter_width=3, num_properties=3))


@pytest.mark.parametrize("encoding", ["hybrid", "gates"])
@pytest.mark.parametrize("build", [build_miter_workload, _small_soc,
                                   _cpu_memcpy],
                         ids=["miter", "soc", "cpu"])
def test_comparator_outputs_appear_only_in_emm_clauses(build, encoding):
    """Every stored clause over a cached comparator's output variable
    carries one ``("emm", memory, kind)`` label, so a core that uses a
    shared comparator names the memory whose clause consumed it."""
    design = build()
    session = EncodingSession(design, BmcOptions(pba=True,
                                                 emm_encoding=encoding))
    session.extend_to(8)
    const_value = session.emitter.const_value
    outputs = {abs(entry.lit) for entry in session.cmp_registry.table.values()
               if const_value(entry.lit) is None}
    assert outputs
    solver = session.solver
    assert not solver.learned_clause_ids()  # clause ids 0.. are originals
    seen = 0
    for cid in range(solver.num_clauses):
        lits = solver.proof_clause_literals(cid)
        if outputs.isdisjoint(abs(x) for x in lits):
            continue
        seen += 1
        label = solver.clause_label(cid)
        assert (isinstance(label, tuple) and len(label) == 3
                and label[0] == "emm" and label[1] in design.memories), \
            (cid, lits, label)
    assert seen > len(outputs)

