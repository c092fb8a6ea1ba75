"""Extensions beyond the base algorithms: data-race checking, port-level
abstraction, iterative abstraction."""


from repro.bmc import BmcOptions, verify
from repro.design import Design
from repro.emm import find_data_race
from repro.pba import run_pba_phase, verify_with_pba


def racy_design(guarded: bool):
    """Two write ports that can (or, guarded, cannot) collide."""
    d = Design("racy")
    a0 = d.input("a0", 2)
    a1 = d.input("a1", 2)
    e0 = d.input("e0", 1)
    e1 = d.input("e1", 1)
    t = d.latch("t", 1, init=0)
    t.next = t.expr
    mem = d.memory("m", 2, 4, write_ports=2, init=0)
    en1 = e1 & a1.ne(a0) if guarded else e1
    mem.write(0).connect(addr=a0, data=1, en=e0)
    mem.write(1).connect(addr=a1, data=2, en=en1)
    mem.read(0).connect(addr=0, en=1)
    d.invariant("p", t.expr.eq(0))
    return d


class TestDataRaces:
    def test_race_found_when_unguarded(self):
        r = find_data_race(racy_design(guarded=False), "m", max_depth=4)
        assert r.found and r.depth == 0
        assert "race" in r.describe()
        # the reported inputs really do collide
        vec = r.inputs[r.depth]
        assert vec["a0"] == vec["a1"]
        assert vec["e0"] == 1 and vec["e1"] == 1

    def test_no_race_when_guarded(self):
        r = find_data_race(racy_design(guarded=True), "m", max_depth=4)
        assert not r.found

    def test_single_write_port_trivially_race_free(self):
        d = Design("single")
        t = d.latch("t", 1, init=0)
        t.next = t.expr
        mem = d.memory("m", 2, 4, init=0)
        mem.write(0).connect(addr=0, data=0, en=1)
        mem.read(0).connect(addr=0, en=1)
        d.invariant("p", t.expr.eq(0))
        r = find_data_race(d, "m", max_depth=4)
        assert not r.found

    def test_race_requires_reachability(self):
        """A collision gated by an unreachable mode is no race."""
        d = Design("gated")
        a = d.input("a", 2)
        err = d.latch("err", 1, init=0)
        err.next = err.expr  # stuck at 0
        mem = d.memory("m", 2, 4, write_ports=2, init=0)
        mem.write(0).connect(addr=a, data=1, en=err.expr)
        mem.write(1).connect(addr=a, data=2, en=err.expr)
        mem.read(0).connect(addr=0, en=1)
        d.invariant("p", err.expr.eq(0))
        r = find_data_race(d, "m", max_depth=5)
        assert not r.found


class TestPortAbstraction:
    def two_port_design(self):
        d = Design("pp")
        data = d.input("data", 4)
        addr_reg = d.latch("addr_reg", 2, init=0)
        addr_reg.next = addr_reg.expr + 1
        other_reg = d.latch("other_reg", 2, init=0)
        other_reg.next = other_reg.expr + 2
        mem = d.memory("m", 2, 4, read_ports=2, init=0)
        capped = data.ult(4).ite(data, d.const(0, 4))
        mem.write(0).connect(addr=addr_reg.expr, data=capped, en=1)
        rd0 = mem.read(0).connect(addr=addr_reg.expr, en=1)
        mem.read(1).connect(addr=other_reg.expr, en=1)
        d.invariant("p", rd0.ult(4))
        return d

    def test_engine_accepts_port_subset(self):
        d = self.two_port_design()
        r = verify(d, "p", BmcOptions(
            max_depth=8, kept_read_ports={"m": frozenset({0})}))
        assert r.proved, r.describe()

    def test_dropping_needed_port_loses_constraint(self):
        d = self.two_port_design()
        r = verify(d, "p", BmcOptions(
            max_depth=4, find_proof=False, validate_cex=False,
            kept_read_ports={"m": frozenset({1})}))
        assert r.falsified  # rd0 floats: spurious CE, as expected

    def test_pba_reports_port_subset(self):
        d = self.two_port_design()
        phase = run_pba_phase(d, "p", stability_depth=3, max_depth=16)
        if "m" in phase.kept_memories:
            ports = phase.kept_read_ports["m"]
            assert 0 in ports


class TestIterativeAbstraction:
    def layered_design(self):
        d = Design("layered")
        x = d.input("x", 1)
        a = d.latch("a", 1, init=0)
        b = d.latch("b", 1, init=0)
        c = d.latch("c", 4, init=0)
        a.next = a.expr | x
        b.next = a.expr
        c.next = c.expr + 1  # irrelevant counter
        d.invariant("mono", ~b.expr | a.expr)
        return d

    def test_reaches_fixpoint(self):
        out = verify_with_pba(self.layered_design(), "mono",
                              stability_depth=3, abstraction_max_depth=16,
                              max_rounds=4)
        assert out.converged
        assert out.status == "proof"
        assert "c" not in out.phase.latch_reasons

    def test_monotone_shrinking(self):
        out = verify_with_pba(self.layered_design(), "mono",
                              stability_depth=3, abstraction_max_depth=16,
                              max_rounds=4)
        sizes = [len(ph.latch_reasons) for ph in out.rounds]
        assert all(s2 <= s1 for s1, s2 in zip(sizes, sizes[1:]))

    def test_cex_on_concrete_round_reported(self):
        d = Design("bad")
        cnt = d.latch("cnt", 3, init=0)
        cnt.next = cnt.expr + 1
        d.invariant("lt3", cnt.expr.ult(3))
        out = verify_with_pba(d, "lt3", stability_depth=3,
                              abstraction_max_depth=10, max_rounds=3)
        assert out.status == "cex"
        assert out.proof_result is not None
        assert out.proof_result.depth == 3
