"""Invariant-aided memory abstraction (Industry Design II methodology)."""

import pytest

from repro.bmc import BmcOptions, bmc2, verify
from repro.design import Design
from repro.props import (abstract_memory_reads, free_memory_reads,
                         prove_with_memory_invariant)


def zero_memory_design():
    """A memory that provably stays all-zero, plus an alarm over its reads."""
    d = Design("zm")
    gate = d.latch("gate", 1, init=0)
    gate.next = gate.expr  # never becomes 1
    data_in = d.input("data", 4)
    wd = d.latch("wd", 4, init=0)
    wd.next = gate.expr.ite(data_in, d.const(0, 4))
    mem = d.memory("m", 2, 4, init=0)
    mem.write(0).connect(addr=d.input("wa", 2), data=wd.expr, en=1)
    rd = mem.read(0).connect(addr=d.input("ra", 2), en=1)
    alarm = d.latch("alarm", 1, init=0)
    alarm.next = rd.ne(0)
    d.invariant("wd_zero", wd.expr.eq(0))
    d.reach("alarm_fires", alarm.expr)
    return d


class TestRewrites:
    def test_abstract_memory_reads_removes_memory(self):
        d = zero_memory_design()
        reduced = abstract_memory_reads(d, "m", read_value=0)
        assert "m" not in reduced.memories
        assert set(reduced.properties) == set(d.properties)
        assert set(reduced.latches) == set(d.latches)

    def test_free_memory_reads_adds_inputs(self):
        d = zero_memory_design()
        freed = free_memory_reads(d, "m")
        assert "m" not in freed.memories
        assert "m_rd0_free" in freed.inputs

    def test_unknown_memory_rejected(self):
        d = zero_memory_design()
        with pytest.raises(KeyError):
            abstract_memory_reads(d, "nope")

    def test_other_memories_preserved(self):
        d = zero_memory_design()
        other = d.memory("keep", 2, 4, init=0)
        other.write(0).connect(addr=0, data=0, en=0)
        other.read(0).connect(addr=0, en=1)
        reduced = abstract_memory_reads(d, "m")
        assert "keep" in reduced.memories
        assert reduced.memories["keep"].num_read_ports == 1


class TestSpuriousVsSound:
    def test_free_reads_give_spurious_witness(self):
        d = zero_memory_design()
        freed = free_memory_reads(d, "m")
        r = verify(freed, "alarm_fires",
                   BmcOptions(find_proof=False, max_depth=4))
        assert r.falsified  # spurious: rd floated to nonzero
        assert r.depth == 1

    def test_emm_finds_no_witness(self):
        d = zero_memory_design()
        r = verify(d, "alarm_fires", bmc2(max_depth=6))
        assert r.status == "bounded"

    def test_constant_reads_allow_proof(self):
        d = zero_memory_design()
        reduced = abstract_memory_reads(d, "m", read_value=0)
        r = verify(reduced, "alarm_fires", BmcOptions(max_depth=10))
        assert r.proved


class TestPipeline:
    def test_prove_with_memory_invariant(self):
        d = zero_memory_design()
        flow = prove_with_memory_invariant(
            d, "m", invariant_name="wd_zero",
            property_names=["alarm_fires"],
            invariant_options=BmcOptions(max_depth=10),
            property_options=BmcOptions(max_depth=10))
        assert flow.invariant_result.proved
        assert flow.property_results["alarm_fires"].proved
        assert flow.all_proved
        assert flow.reduced_design is not None

    def test_failed_invariant_stops_flow(self):
        d = Design("bad")
        x = d.input("x", 4)
        wd = d.latch("wd", 4, init=0)
        wd.next = x  # NOT provably zero
        mem = d.memory("m", 2, 4, init=0)
        mem.write(0).connect(addr=0, data=wd.expr, en=1)
        mem.read(0).connect(addr=0, en=1)
        d.invariant("wd_zero", wd.expr.eq(0))
        flow = prove_with_memory_invariant(
            d, "m", invariant_name="wd_zero", property_names=[],
            invariant_options=BmcOptions(max_depth=5))
        assert not flow.all_proved
        assert flow.reduced_design is None

    def test_other_memories_keep_init_words(self):
        """The reduced design must keep the other memories' ROM words:
        rebuilt with ``init`` only, ``rom`` would read 0 at address 1
        and the flow would report an unsound PROOF."""
        d = Design("rom_clone")
        zero = d.memory("zero", 2, 4, init=0)
        zero.write(0).connect(addr=d.input("wa", 2), data=0,
                              en=d.input("we", 1))
        rz = zero.read(0).connect(addr=d.input("ra", 2), en=1)
        rom = d.memory("rom", 2, 4, init=0, init_words={1: 5})
        rom.write(0).connect(addr=0, data=0, en=0)
        rd = rom.read(0).connect(addr=1, en=1)
        d.invariant("zero_reads_0", rz.eq(0))
        d.invariant("rom1_is_0", rd.eq(0) | rz.ne(0))
        direct = verify(d, "rom1_is_0", BmcOptions(max_depth=5))
        assert (direct.status, direct.depth) == ("cex", 0)
        flow = prove_with_memory_invariant(
            d, "zero", invariant_name="zero_reads_0",
            property_names=["rom1_is_0"],
            invariant_options=BmcOptions(max_depth=5),
            property_options=BmcOptions(max_depth=5))
        assert flow.invariant_result.proved
        assert flow.reduced_design.memories["rom"].init_words == {1: 5}
        r = flow.property_results["rom1_is_0"]
        assert (r.status, r.depth) == ("cex", 0)
        assert not flow.all_proved
