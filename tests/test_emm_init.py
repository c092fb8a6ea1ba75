"""Arbitrary-initial-state modeling (Section 4.2) and its ablations."""

from repro.bmc import BmcOptions, bmc2, bmc3, verify
from repro.design import Design, expand_memories
from repro.bmc.engine import bmc1


def two_reads_same_addr(init_consistency=True):
    """Two read ports hit the same (never-written) address."""
    d = Design("alias")
    a = d.input("a", 2)
    st = d.latch("st", 1, init=0)
    st.next = d.const(1, 1)
    mem = d.memory("m", 2, 4, init=None, read_ports=2)
    mem.write(0).connect(addr=0, data=0, en=0)
    rd0 = mem.read(0).connect(addr=a, en=1)
    rd1 = mem.read(1).connect(addr=a, en=1)
    d.invariant("same", rd0.eq(rd1))
    return d


def cross_frame_same_addr():
    """One read port, same address at two different frames, no writes."""
    d = Design("xframe")
    st = d.latch("st", 2, init=0)
    st.next = st.expr + 1
    first = d.latch("first", 4, init=0)
    mem = d.memory("m", 2, 4, init=None)
    mem.write(0).connect(addr=0, data=0, en=0)
    rd = mem.read(0).connect(addr=1, en=1)
    first.next = st.expr.eq(0).ite(rd, first.expr)
    # From cycle 1 on, reading address 1 again must give the same value.
    d.invariant("stable", st.expr.eq(0) | rd.eq(first.expr))
    return d


class TestConsistency:
    def test_cross_port_consistency_proved(self):
        r = verify(two_reads_same_addr(), "same", bmc3(max_depth=6, pba=False))
        assert r.proved

    def test_cross_port_without_eq6_spurious(self):
        r = verify(two_reads_same_addr(), "same",
                   BmcOptions(find_proof=True, init_consistency=False,
                              max_depth=4))
        assert r.falsified
        # the CE is spurious: simulator replay shows the property holding
        assert r.trace_validated is False

    def test_cross_frame_consistency_proved(self):
        r = verify(cross_frame_same_addr(), "stable", bmc3(max_depth=8, pba=False))
        assert r.proved, r.describe()

    def test_cross_frame_without_eq6_spurious(self):
        r = verify(cross_frame_same_addr(), "stable",
                   BmcOptions(find_proof=False, init_consistency=False,
                              max_depth=6))
        assert r.falsified
        assert r.trace_validated is False

    def test_explicit_agrees_on_consistency(self):
        ex = expand_memories(two_reads_same_addr())
        r = verify(ex, "same", bmc1(max_depth=6, pba=False))
        assert r.proved


class TestArbitraryInitFalsification:
    def test_arbitrary_init_cex_at_depth0(self):
        d = Design("arb")
        a = d.input("a", 2)
        lit = d.latch("l", 1, init=0)
        lit.next = lit.expr
        mem = d.memory("m", 2, 4, init=None)
        mem.write(0).connect(addr=0, data=0, en=0)
        rd = mem.read(0).connect(addr=a, en=1)
        d.invariant("no7", rd.ne(7))
        r = verify(d, "no7", bmc2(max_depth=3))
        assert r.falsified and r.depth == 0
        assert r.trace_validated is True
        # the reconstructed initial memory must contain the 7
        assert 7 in r.trace.init_memories["m"].values()

    def test_write_overrides_arbitrary_init(self):
        d = Design("arb2")
        st = d.latch("st", 2, init=0)
        st.next = st.expr + 1
        mem = d.memory("m", 2, 4, init=None)
        mem.write(0).connect(addr=2, data=5, en=st.expr.eq(0))
        rd = mem.read(0).connect(addr=2, en=1)
        # After the cycle-0 write, address 2 must read 5 forever.
        d.invariant("pinned", st.expr.eq(0) | rd.eq(5))
        r = verify(d, "pinned", bmc3(max_depth=8, pba=False))
        assert r.proved, r.describe()


class TestKnownInitInduction:
    def make(self):
        d = Design("ki")
        data = d.input("data", 4)
        t = d.latch("t", 2, init=0)
        t.next = t.expr + 1
        mem = d.memory("m", 2, 4, init=0)
        low = data.ult(8).ite(data, d.const(0, 4))
        mem.write(0).connect(addr=t.expr, data=low, en=1)
        rd = mem.read(0).connect(addr=d.input("ra", 2), en=1)
        d.invariant("lt8", rd.ult(8))
        return d

    def test_forward_proof_with_symbolic_fallthrough(self):
        r = verify(self.make(), "lt8", bmc3(max_depth=10, pba=False))
        assert r.proved
        assert r.method == "forward"

    def test_no_bogus_backward_proof_at_depth0(self):
        """Backward induction must treat the initial memory as arbitrary.

        If the fall-through were pinned to the declared zero init in the
        backward check, 'lt8' would be provable at depth 0 — unsoundly.
        """
        r = verify(self.make(), "lt8", bmc3(max_depth=10, pba=False))
        assert (r.method, r.depth) != ("backward", 0)

    def test_falsification_still_uses_declared_init(self):
        d = Design("ki2")
        t = d.latch("t", 1, init=0)
        t.next = t.expr
        mem = d.memory("m", 2, 4, init=3)
        mem.write(0).connect(addr=0, data=0, en=0)
        rd = mem.read(0).connect(addr=1, en=1)
        d.invariant("is3", rd.eq(3))
        r = verify(d, "is3", bmc3(max_depth=4, pba=False))
        assert r.proved, r.describe()  # holds (never written, init 3)
        d2 = Design("ki3")
        t2 = d2.latch("t", 1, init=0)
        t2.next = t2.expr
        mem2 = d2.memory("m", 2, 4, init=3)
        mem2.write(0).connect(addr=0, data=0, en=0)
        rd2 = mem2.read(0).connect(addr=1, en=1)
        d2.invariant("is4", rd2.eq(4))
        r2 = verify(d2, "is4", bmc2(max_depth=2))
        assert r2.falsified and r2.depth == 0
