"""Differential tests: EMM vs explicit modeling vs simulator.

The heart of the reproduction's validation — for crafted and random
memory workloads, the EMM path (BMC-2/BMC-3 on the design with memories
removed) must agree with the explicit baseline (BMC-1 on the expanded
design) on verdicts and counterexample depths, and every concrete
counterexample must replay on the reference simulator.
"""

import random

import pytest

from repro.bmc import BmcOptions, bmc1, bmc2, bmc3, verify
from repro.casestudies.quicksort import QuicksortParams, build_quicksort
from repro.casestudies.stack_machine import (StackMachineParams,
                                             build_stack_machine)
from repro.design import Design, expand_memories


def _verify_both(make_design, prop, max_depth=8, find_proof=False):
    emm_opts = BmcOptions(use_emm=True, find_proof=find_proof,
                          max_depth=max_depth)
    r_emm = verify(make_design(), prop, emm_opts)
    ex_opts = BmcOptions(use_emm=False, find_proof=find_proof,
                         max_depth=max_depth)
    r_ex = verify(expand_memories(make_design()), prop, ex_opts)
    assert r_emm.status == r_ex.status, (r_emm.describe(), r_ex.describe())
    if r_emm.status == "cex":
        assert r_emm.depth == r_ex.depth
        assert r_emm.trace_validated is True
        assert r_ex.trace_validated is True
    return r_emm, r_ex


class TestForwardingBasics:
    def _rw_design(self):
        d = Design("rw")
        waddr = d.input("waddr", 2)
        wdata = d.input("wdata", 4)
        we = d.input("we", 1)
        raddr = d.input("raddr", 2)
        t = d.latch("t", 2, init=0)
        t.next = t.expr + 1
        mem = d.memory("m", 2, 4, init=0)
        mem.write(0).connect(addr=waddr, data=wdata, en=we)
        rd = mem.read(0).connect(addr=raddr, en=1)
        d.invariant("never9", rd.ne(9))
        d.invariant("always0", rd.eq(0))
        return d

    def test_write_then_read_found_at_depth1(self):
        r_emm, __ = _verify_both(self._rw_design, "never9")
        assert r_emm.status == "cex" and r_emm.depth == 1

    def test_zero_init_holds_at_depth0(self):
        # always0 is violated only after a nonzero write: depth exactly 1.
        r_emm, __ = _verify_both(self._rw_design, "always0")
        assert r_emm.status == "cex" and r_emm.depth == 1

    def test_same_cycle_write_invisible(self):
        def make():
            d = Design("t")
            wdata = d.input("wdata", 4)
            t = d.latch("t", 1, init=0)
            t.next = d.const(1, 1)
            mem = d.memory("m", 2, 4, init=0)
            # Write and read address 0 in the SAME cycle, always.
            mem.write(0).connect(addr=0, data=wdata, en=1)
            rd = mem.read(0).connect(addr=0, en=1)
            # At cycle 0 the read must still see the initial 0 even though
            # a write to the same address is in flight.
            d.invariant("init_visible", t.expr.nonzero() | rd.eq(0))
            return d
        r_emm, __ = _verify_both(make, "init_visible", max_depth=4)
        assert r_emm.status == "bounded"  # holds: no counterexample

    def test_most_recent_write_wins(self):
        def make():
            d = Design("t")
            cnt = d.latch("cnt", 2, init=0)
            cnt.next = cnt.expr + 1
            mem = d.memory("m", 2, 4, init=0)
            # Writes 1, then 2, then 3 ... to address 0 each cycle.
            mem.write(0).connect(addr=0, data=cnt.expr.zext(4) + 1, en=1)
            rd = mem.read(0).connect(addr=0, en=1)
            # At cycle k>0: rd must equal k (the value written at k-1).
            d.invariant("latest", cnt.expr.eq(0) | rd.eq(cnt.expr.zext(4)))
            return d
        r_emm, __ = _verify_both(make, "latest", max_depth=5)
        assert r_emm.status == "bounded"

    def test_distinct_addresses_do_not_alias(self):
        def make():
            d = Design("t")
            t = d.latch("t", 2, init=0)
            t.next = t.expr + 1
            mem = d.memory("m", 2, 4, init=0)
            mem.write(0).connect(addr=1, data=0xF, en=t.expr.eq(0))
            rd = mem.read(0).connect(addr=2, en=1)
            d.invariant("other_addr_stays_zero", rd.eq(0))
            return d
        r_emm, __ = _verify_both(make, "other_addr_stays_zero", max_depth=5)
        assert r_emm.status == "bounded"


class TestMultiPort:
    def test_same_frame_port_priority(self):
        """Two write ports hit the same address: the higher port wins."""
        def make():
            d = Design("t")
            t = d.latch("t", 1, init=0)
            t.next = d.const(1, 1)
            mem = d.memory("m", 2, 4, write_ports=2, init=0)
            mem.write(0).connect(addr=0, data=0x1, en=~t.expr)
            mem.write(1).connect(addr=0, data=0x2, en=~t.expr)
            rd = mem.read(0).connect(addr=0, en=t.expr)
            d.invariant("port1_wins", ~t.expr | rd.eq(2))
            return d
        r_emm, __ = _verify_both(make, "port1_wins", max_depth=3)
        assert r_emm.status == "bounded"

    def test_three_read_ports_consistent(self):
        def make():
            d = Design("t")
            a = d.input("a", 2)
            t = d.latch("t", 2, init=0)
            t.next = t.expr + 1
            mem = d.memory("m", 2, 4, read_ports=3, init=0)
            mem.write(0).connect(addr=t.expr, data=t.expr.zext(4), en=1)
            r0 = mem.read(0).connect(addr=a, en=1)
            r1 = mem.read(1).connect(addr=a, en=1)
            r2 = mem.read(2).connect(addr=a, en=1)
            d.invariant("coherent", r0.eq(r1) & r1.eq(r2))
            return d
        r_emm, __ = _verify_both(make, "coherent", max_depth=5)
        assert r_emm.status == "bounded"

    def test_cross_port_forwarding(self):
        """Port 0 writes, port 1 reads the value back next cycle."""
        def make():
            d = Design("t")
            data = d.input("data", 4)
            prev = d.latch("prev", 4, init=0)
            t = d.latch("t", 2, init=0)
            t.next = t.expr + 1
            prev.next = data
            mem = d.memory("m", 2, 4, read_ports=2, write_ports=2, init=0)
            mem.write(0).connect(addr=1, data=data, en=1)
            mem.write(1).connect(addr=2, data=0, en=0)
            rd = mem.read(1).connect(addr=1, en=1)
            mem.read(0).connect(addr=0, en=1)
            d.invariant("forwarded", t.expr.eq(0) | rd.eq(prev.expr))
            return d
        r_emm, __ = _verify_both(make, "forwarded", max_depth=5)
        assert r_emm.status == "bounded"


@pytest.mark.parametrize("seed", range(10))
def test_random_workloads_agree(seed):
    """Random memory workloads: EMM and explicit verdicts must match."""
    rng = random.Random(seed)
    aw = rng.choice([2, 3])
    dw = rng.choice([2, 3, 4])
    n_read = rng.choice([1, 2])
    n_write = rng.choice([1, 2])
    threshold = rng.randrange(0, 1 << dw)
    cmp_cycle = rng.randrange(1, 4)

    def make():
        d = Design(f"rand{seed}")
        t = d.latch("t", 3, init=0)
        t.next = t.expr + 1
        mem = d.memory("m", aw, dw, read_ports=n_read,
                       write_ports=n_write, init=0)
        for w in range(n_write):
            waddr = d.input(f"wa{w}", aw)
            wdata = d.input(f"wd{w}", dw)
            wen = d.input(f"we{w}", 1)
            # Avoid same-address data races between ports: port w only
            # writes addresses with low bits == w.
            guard = waddr[0].eq(w & 1) if n_write > 1 else d.const(1, 1)
            mem.write(w).connect(addr=waddr, data=wdata, en=wen & guard)
        rds = []
        for r in range(n_read):
            raddr = d.input(f"ra{r}", aw)
            rds.append(mem.read(r).connect(addr=raddr, en=1))
        probe = rds[rng.randrange(n_read)]
        d.invariant("p", t.expr.ne(cmp_cycle) | probe.ne(threshold))
        return d

    r_emm = verify(make(), "p", bmc2(max_depth=6))
    r_ex = verify(expand_memories(make()), "p",
                  BmcOptions(use_emm=False, find_proof=False, max_depth=6))
    assert r_emm.status == r_ex.status, (seed, r_emm.describe(), r_ex.describe())
    if r_emm.status == "cex":
        assert r_emm.depth == r_ex.depth
        assert r_emm.trace_validated is True


@pytest.mark.parametrize("seed", range(6))
def test_random_workloads_with_proofs_agree(seed):
    """With induction on, proofs found by EMM match the explicit engine."""
    rng = random.Random(100 + seed)
    dw = rng.choice([2, 3])
    bound = rng.randrange(1, 1 << dw)

    def make():
        d = Design(f"randp{seed}")
        t = d.latch("t", 2, init=0)
        t.next = t.expr + 1
        data = d.input("data", dw)
        mem = d.memory("m", 2, dw, init=0)
        capped = data.ult(bound).ite(data, d.const(0, dw))
        mem.write(0).connect(addr=t.expr, data=capped, en=1)
        rd = mem.read(0).connect(addr=d.input("ra", 2), en=1)
        d.invariant("p", rd.ult(max(bound, 1)))
        return d

    r_emm = verify(make(), "p", bmc3(max_depth=10, pba=False))
    r_ex = verify(expand_memories(make()), "p",
                  bmc1(max_depth=10, pba=False))
    assert r_emm.status == r_ex.status == "proof", (
        seed, r_emm.describe(), r_ex.describe())


@pytest.mark.slow
@pytest.mark.parametrize("exclusivity", [True, False],
                         ids=["S-chain", "naive-eq3"])
@pytest.mark.parametrize("workload", ["quicksort-P1", "stack-roundtrip"])
def test_exclusivity_ablation_keeps_bounded_verdicts(workload, exclusivity):
    """A1: the naive eq-(3) read forwarding changes only the encoding,
    never the verdict: both forms stay bounded to depth 16."""
    if workload == "quicksort-P1":
        design, prop = build_quicksort(QuicksortParams(
            n=3, addr_width=3, data_width=3, stack_addr_width=3)), "P1"
    else:
        design, prop = build_stack_machine(StackMachineParams(
            addr_width=3, data_width=8)), "push_pop_roundtrip"
    r = verify(design, prop, BmcOptions(find_proof=False, max_depth=16,
                                        exclusivity=exclusivity))
    assert (r.status, r.depth) == ("bounded", 16), r.describe()


def walking_table(aw, dw=8):
    """A write pointer walks the table; bit 7 of a word can be neither
    initial (init=0) nor written, so ``impossible`` never fires."""
    d = Design(f"table_aw{aw}")
    ptr = d.latch("ptr", aw, init=0)
    ptr.next = ptr.expr + 1
    data = d.input("data", dw - 1)
    mem = d.memory("table", addr_width=aw, data_width=dw, init=0)
    mem.write(0).connect(addr=ptr.expr, data=data.zext(dw), en=1)
    rd = mem.read(0).connect(addr=d.input("raddr", aw), en=1)
    d.reach("impossible", rd.uge(1 << (dw - 1)))
    return d


@pytest.mark.slow
def test_emm_size_stays_flat_as_the_memory_grows():
    """The paper's motivation: from AW=3 to AW=6 (8x the words) the EMM
    CNF grows far slower than the word count, while the explicit model's
    grows roughly with it."""
    opts = BmcOptions(find_proof=False, max_depth=8)
    clauses = {}
    for aw in (3, 4, 5, 6):
        emm = verify(walking_table(aw), "impossible", opts)
        explicit = verify(expand_memories(walking_table(aw)), "impossible",
                          opts)
        assert (emm.status, explicit.status) == ("bounded", "bounded")
        clauses[aw] = emm.stats.sat_clauses, explicit.stats.sat_clauses
    words_ratio = (1 << 6) / (1 << 3)
    assert clauses[6][0] / clauses[3][0] < words_ratio / 2, clauses
    assert clauses[6][1] / clauses[3][1] > words_ratio / 4, clauses
