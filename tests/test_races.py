"""Multi-write-port race monitor under both forwarding-chain forms.

The monitor (``repro.emm.races`` / ``EmmMemory(check_races=True)``) is
deliberately raw CNF with its own comparator and its own ``race_*``
counters; the form of the forwarding chain (the exclusive chain or the
naive eq-(3) ablation, ``exclusivity``) must leave every race
observable — detection depths, witness inputs and the dedicated
counters — exactly the same.
"""

import pytest

from repro.aig import Aig, CnfEmitter
from repro.bmc.unroller import Unroller
from repro.design import Design
from repro.emm import EmmMemory, accounting, find_data_race
from repro.sat import Solver
from repro.sim import Simulator


def three_port_design(aw=3, dw=2, disjoint=False):
    """Three write ports; optionally parity-guarded so no race exists."""
    d = Design("threeport")
    t = d.latch("t", 2, init=0)
    t.next = t.expr + 1
    mem = d.memory("m", aw, dw, read_ports=1, write_ports=3, init=0)
    for w in range(3):
        addr = d.input(f"wa{w}", aw)
        en = d.input(f"we{w}", 1)
        if disjoint:
            # Ports claim distinct address classes mod 4: never racy.
            en = en & addr[0].eq(w & 1) & addr[1].eq((w >> 1) & 1)
        mem.write(w).connect(addr=addr, data=d.input(f"wd{w}", dw), en=en)
    mem.read(0).connect(addr=d.input("ra", aw), en=1)
    d.invariant("p", mem.read(0).data.ule((1 << dw) - 1))
    return d


def run_monitored(design, depth, **kw):
    solver = Solver(proof=False)
    emitter = CnfEmitter(Aig(), solver)
    unroller = Unroller(design, emitter)
    emm = EmmMemory(solver, unroller, "m", check_races=True, **kw)
    for k in range(depth + 1):
        unroller.add_frame()
        emm.add_frame(k)
    return solver, emm


class TestRaceCountersUnderChainBuilders:
    @pytest.mark.parametrize("exclusivity", [True, False])
    def test_three_port_race_counters_pinned(self, exclusivity):
        """3 write ports on fresh address inputs (nothing for the
        comparator cache to hit): each frame books one full 4m+1
        comparator per port pair, one both-enables AND per pair and one
        pair AND per pair, plus the OR aggregation clauses."""
        depth = 4
        __, emm = run_monitored(three_port_design(), depth,
                                exclusivity=exclusivity)
        c = emm.counters
        frames, pairs = depth + 1, 3  # C(3, 2) write-port pairs
        assert c.race_addr_eq_clauses == \
            frames * pairs * accounting.addr_eq_clauses_full(3)
        assert c.race_gates == frames * pairs * 2
        # race <-> OR(pairs): one clause per pair one way, one closing.
        assert c.race_clauses == frames * (pairs + 1)
        assert len(emm.race_lits) == frames

    def test_race_counters_independent_of_chain_backend(self):
        """The monitor is its own subsystem: every ``race_*`` counter —
        and the paper-formula counters it must never skew — agree
        between the exclusive chain and the naive eq-(3) ablation."""
        runs = {excl: run_monitored(three_port_design(), 4,
                                    exclusivity=excl)[1].counters
                for excl in (True, False)}
        for key in ("race_addr_eq_clauses", "race_clauses", "race_gates",
                    "race_addr_eq_cache_hits", "race_addr_eq_folded"):
            assert getattr(runs[True], key) == getattr(runs[False], key), key
        assert runs[True].addr_eq_clauses == runs[False].addr_eq_clauses

    @pytest.mark.parametrize("exclusivity", [True, False])
    def test_race_literal_satisfiable_iff_racy(self, exclusivity):
        """The per-frame race literal must be reachable on the
        unguarded design and unreachable on the parity-guarded one."""
        for disjoint, expect in ((False, True), (True, False)):
            solver, emm = run_monitored(three_port_design(disjoint=disjoint),
                                        2, exclusivity=exclusivity)
            hits = [solver.solve([lit]).sat for lit in emm.race_lits]
            assert any(hits) is expect, (disjoint, hits)


class TestFindDataRace:
    def test_finds_three_port_race_with_witness(self):
        r = find_data_race(three_port_design(), "m", max_depth=3)
        assert r.found and r.depth == 0
        assert len(r.inputs) == 1
        # The witness must really race: replay it on the simulator and
        # check two enabled ports hit one address.
        design = three_port_design()
        sim = Simulator(design)
        sim.begin_cycle(r.inputs[0])
        targets = []
        for w in range(3):
            port = design.memories["m"].write(w)
            if sim.eval(port.en):
                targets.append(sim.eval(port.addr))
        assert len(targets) != len(set(targets))

    def test_no_race_on_disjoint_ports(self):
        r = find_data_race(three_port_design(disjoint=True), "m",
                           max_depth=3)
        assert not r.found

    def test_single_port_memory_short_circuits(self):
        d = Design("single")
        t = d.latch("t", 2, init=0)
        t.next = t.expr + 1
        mem = d.memory("m", 2, 2, init=0)
        mem.write(0).connect(addr=d.input("wa", 2), data=d.input("wd", 2),
                             en=d.input("we", 1))
        mem.read(0).connect(addr=d.input("ra", 2), en=1)
        d.invariant("p", d.const(1, 1))
        r = find_data_race(d, "m", max_depth=5)
        assert not r.found
        assert r.wall_time_s == 0.0  # structural short-circuit, no solve
