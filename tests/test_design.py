"""Tests for the word-level design IR."""

import pytest

from repro.design import Design, latch_support, memory_control_latches
from repro.design.netlist import leaf_support


def small_design():
    d = Design("t")
    x = d.input("x", 4)
    r = d.latch("r", 4, init=3)
    r.next = r.expr + x
    return d, x, r


class TestExpressions:
    def test_hash_consing(self):
        d, x, r = small_design()
        assert (r.expr + x) is (r.expr + x)
        assert (x & x) is (x & x)
        assert d.const(5, 4) is d.const(5, 4)
        assert d.const(5, 4) is not d.const(5, 5)

    def test_const_masking(self):
        d = Design("t")
        assert d.const(0x1F, 4).payload == 0xF

    def test_width_mismatch_rejected(self):
        d = Design("t")
        a = d.input("a", 4)
        b = d.input("b", 5)
        with pytest.raises(ValueError):
            __ = a + b
        with pytest.raises(ValueError):
            a.eq(b)

    def test_int_coercion(self):
        d, x, __ = small_design()
        e = x + 1
        assert e.kind == "add"
        assert e.args[1].payload == 1

    def test_slicing(self):
        d = Design("t")
        a = d.input("a", 8)
        assert a[3].width == 1
        assert a[2:6].width == 4
        with pytest.raises(IndexError):
            __ = a[0:9]

    def test_ite_width_inference(self):
        d = Design("t")
        c = d.input("c", 1)
        a = d.input("a", 4)
        assert c.ite(a, 0).width == 4
        assert c.ite(0, a).width == 4
        with pytest.raises(ValueError):
            c.ite(0, 1)

    def test_ite_selector_must_be_bit(self):
        d = Design("t")
        a = d.input("a", 4)
        with pytest.raises(ValueError):
            a.ite(a, a)

    def test_comparison_widths(self):
        d = Design("t")
        a = d.input("a", 4)
        assert a.eq(3).width == 1
        assert a.ult(3).width == 1
        assert a.uge(2).width == 1

    def test_concat_zext(self):
        d = Design("t")
        a = d.input("a", 3)
        b = d.input("b", 2)
        assert a.concat(b).width == 5
        assert a.zext(8).width == 8
        assert a.zext(3) is a
        with pytest.raises(ValueError):
            a.zext(2)

    def test_cross_design_rejected(self):
        d1 = Design("a")
        d2 = Design("b")
        x1 = d1.input("x", 2)
        x2 = d2.input("x", 2)
        with pytest.raises(ValueError):
            __ = x1 & x2


class TestDeclarations:
    def test_duplicate_names_rejected(self):
        d = Design("t")
        d.input("x", 1)
        with pytest.raises(ValueError):
            d.input("x", 2)
        d.latch("l", 1)
        with pytest.raises(ValueError):
            d.latch("l", 2)
        d.memory("m", 2, 2)
        with pytest.raises(ValueError):
            d.memory("m", 2, 2)

    def test_latch_init_masked(self):
        d = Design("t")
        lit = d.latch("l", 3, init=0xFF)
        assert lit.init == 7

    def test_arbitrary_init(self):
        d = Design("t")
        lit = d.latch("l", 3, init=None)
        assert lit.init is None

    def test_latch_next_width_check(self):
        d = Design("t")
        lit = d.latch("l", 3)
        with pytest.raises(ValueError):
            lit.next = d.input("x", 4)

    def test_memory_ports(self):
        d = Design("t")
        m = d.memory("m", addr_width=3, data_width=5, read_ports=2, write_ports=2)
        assert m.num_read_ports == 2 and m.num_write_ports == 2
        assert m.num_words == 8 and m.num_bits == 40
        assert m.read(1).data.width == 5

    def test_memory_needs_ports(self):
        d = Design("t")
        with pytest.raises(ValueError):
            d.memory("m", 2, 2, read_ports=0)


class TestValidation:
    def test_unconnected_latch(self):
        d = Design("t")
        d.latch("l", 1)
        with pytest.raises(ValueError, match="no next-state"):
            d.validate()

    def test_unconnected_port(self):
        d = Design("t")
        lit = d.latch("l", 1)
        lit.next = lit.expr
        d.memory("m", 2, 2)
        with pytest.raises(ValueError, match="unconnected"):
            d.validate()

    def test_port_cycle_detected(self):
        d = Design("t")
        lit = d.latch("l", 1)
        lit.next = lit.expr
        m = d.memory("m", 2, 2, read_ports=2)
        rd0 = m.read(0).data
        rd1 = m.read(1).data
        m.read(0).connect(addr=rd1, en=1)
        m.read(1).connect(addr=rd0, en=1)
        m.write(0).connect(addr=0, data=0, en=0)
        with pytest.raises(ValueError, match="cycle"):
            d.validate()

    def test_chained_ports_allowed(self):
        d = Design("t")
        lit = d.latch("l", 2)
        lit.next = lit.expr
        m = d.memory("m", 2, 2, read_ports=2)
        rd0 = m.read(0).connect(addr=lit.expr, en=1)
        m.read(1).connect(addr=rd0, en=1)
        m.write(0).connect(addr=0, data=0, en=0)
        d.validate()
        order = d.port_evaluation_order()
        assert order.index(("m", 0)) < order.index(("m", 1))

    def test_property_width(self):
        d = Design("t")
        with pytest.raises(ValueError):
            d.invariant("p", d.input("x", 2))

    def test_duplicate_property(self):
        d = Design("t")
        x = d.input("x", 1)
        d.invariant("p", x)
        with pytest.raises(ValueError):
            d.reach("p", x)


class TestCones:
    def test_latch_support_stops_at_memread(self):
        d = Design("t")
        a = d.latch("a", 2)
        b = d.latch("b", 2)
        a.next = a.expr
        b.next = b.expr
        m = d.memory("m", 2, 2)
        rd = m.read(0).connect(addr=a.expr, en=1)
        m.write(0).connect(addr=b.expr, data=rd, en=1)
        # rd's *value* depends on the memory, but latch_support of an
        # expression using rd must not leak through the read port.
        expr = rd.eq(1)
        assert latch_support(expr) == set()
        assert leaf_support((expr,), "memread") == {("m", 0)}

    def test_memory_control_latches(self):
        d = Design("t")
        a = d.latch("a", 2)
        b = d.latch("b", 2)
        c = d.latch("c", 2)
        a.next = a.expr
        b.next = b.expr
        c.next = c.expr
        m = d.memory("m", 2, 2)
        m.read(0).connect(addr=a.expr, en=1)
        m.write(0).connect(addr=b.expr, data=0, en=1)
        assert memory_control_latches(d, "m") == {"a", "b"}
        assert memory_control_latches(d, m) == {"a", "b"}

    def test_stats(self):
        d = Design("t")
        d.input("x", 3)
        lit = d.latch("l", 4)
        lit.next = lit.expr
        d.memory("m", 2, 8)
        s = d.stats()
        assert s["inputs"] == 3
        assert s["latch_bits"] == 4
        assert s["memory_bits"] == 32
