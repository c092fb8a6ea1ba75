"""Cross-memory comparator sharing through the session registry.

The session-scoped :class:`repro.emm.addrcmp.SharedComparatorTables`
registry lets two memories whose address cones lower to the same SAT
literals share one comparator encoding.  Soundness rests on per-clause
multi-labels: a hit joins the calling memory's label onto the entry's
clauses, so an unsat core through a shared comparator names *both*
memories.  These tests pin the registry mechanics, the label joining
and the PBA attribution end to end.
"""

import pytest

from repro.aig import Aig, CnfEmitter
from repro.bmc import BmcOptions, EncodingSession, verify
from repro.bmc.engine import BmcEngine
from repro.bmc.unroller import Unroller
from repro.casestudies.multiport_soc import (MultiportSocParams,
                                             build_multiport_soc)
from repro.design import Design, build_miter, expand_memories
from repro.emm import (AddrComparator, EmmCounters, EmmMemory,
                       SharedComparatorTables)
from repro.sat import Solver
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

    def test_hit_joins_label_onto_clauses(self):
        """Force the shared comparator into an unsat core: it must carry
        both memories' labels after the second consumer's hit."""
        reg = SharedComparatorTables()
        solver, a, b, ca, cb = fresh_cmp_pair(reg)
        x, y = word(solver, 2), word(solver, 2)
        e = a.eq(x, y, ("emm", "ma", "addr_eq"), ca, "addr_eq_clauses")
        b.eq(x, y, ("emm", "mb", "addr_eq"), cb, "addr_eq_clauses")
        # E asserted with unequal words: UNSAT through comparator clauses.
        solver.add_clause([x[0]], ("pin",))
        solver.add_clause([-y[0]], ("pin",))
        assert not solver.solve(assumptions=[e]).sat
        labels = solver.core_labels()
        assert ("emm", "ma", "addr_eq") in labels
        assert ("emm", "mb", "addr_eq") in labels
        assert solver.core_unlabeled_count() == 0

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
        memories share must attribute it to both — only the label
        joining makes it so."""
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
