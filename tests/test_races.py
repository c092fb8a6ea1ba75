"""Write-write race detection (Section 4.1's no-race assumption).

:func:`repro.emm.find_data_race` is a plain bounded check on an encoding
session: the race predicate over the memory's write ports, assumed at
each depth under the initial-state literals.  The EMM encoders know
nothing about it.
"""

import pytest

from repro.design import Design
from repro.emm import find_data_race
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


class TestRaceCountersUnderChainBuilders:
    """The race must be reachable on the unguarded design and
    unreachable on the parity-guarded one."""

    @pytest.mark.parametrize("disjoint", [False, True])
    def test_race_literal_satisfiable_iff_racy(self, disjoint):
        r = find_data_race(three_port_design(disjoint=disjoint), "m",
                           max_depth=2)
        assert r.found is not disjoint
        assert r.depth == (None if disjoint else 0)


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

    def test_arbitrary_init_with_overrides(self):
        """``init=None`` plus ``init_words`` pins the overridden words
        under ``a_meminit``; the check must assume it, find the race at
        depth 0 and leave the design's fingerprint alone."""
        d = Design("rom_racy")
        t = d.latch("t", 1, init=0)
        t.next = ~t.expr
        mem = d.memory("m", 2, 2, read_ports=1, write_ports=2, init=None,
                       init_words={0: 3})
        for w in range(2):
            mem.write(w).connect(addr=d.input(f"wa{w}", 2),
                                 data=d.input(f"wd{w}", 2),
                                 en=d.input(f"we{w}", 1))
        mem.read(0).connect(addr=d.input("ra", 2), en=1)
        d.invariant("p", mem.read(0).data.ule(3))
        before = d.fingerprint()
        r = find_data_race(d, "m", max_depth=3)
        assert r.found and r.depth == 0
        vec = r.inputs[0]
        assert vec["wa0"] == vec["wa1"] and vec["we0"] == vec["we1"] == 1
        assert d.fingerprint() == before
