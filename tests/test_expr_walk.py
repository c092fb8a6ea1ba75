"""The one post-order walk over the expression DAG (``postorder``) and
the consumers built on it."""

import io
import sys

from repro.bmc import BmcOptions, verify
from repro.design import Design, latch_support
from repro.design.netlist import postorder
from repro.design.rewrite import DesignCopy
from repro.design.verilog import write_verilog
from repro.sim import Simulator


def diamond():
    """``top = (a & b) + (a & b)`` over leaves shared by both sides."""
    d = Design("diamond")
    a = d.input("a", 2)
    b = d.latch("b", 2)
    b.next = b.expr
    ab = a & b.expr
    top = (ab + ab) ^ a
    return d, a, b.expr, ab, top


class TestPostorder:
    def test_every_node_once_children_first(self):
        _, a, b, ab, top = diamond()
        order = postorder((top,), {})
        ids = [e._id for e in order]
        assert len(ids) == len(set(ids))
        assert {a._id, b._id, ab._id, top._id} <= set(ids)
        pos = {e._id: i for i, e in enumerate(order)}
        for e in order:
            for arg in e.args:
                assert pos[arg._id] < pos[e._id]
        assert order[-1] is top

    def test_last_pushed_arg_is_visited_first(self):
        d = Design("t")
        x = d.input("x", 1)
        y = d.input("y", 1)
        assert postorder((x & y,), {}) == [y, x, x & y]

    def test_memo_nodes_and_their_fanin_are_skipped(self):
        _, a, b, ab, top = diamond()
        order = postorder((top,), {ab._id: "cached"})
        ids = {e._id for e in order}
        assert ab._id not in ids and b._id not in ids
        assert a._id in ids and top._id in ids
        assert postorder((top,), {top._id: 0}) == []

    def test_several_roots_share_one_visit(self):
        _, a, b, ab, top = diamond()
        order = postorder((ab, top), set())
        assert len(order) == len({e._id for e in order})
        assert {e._id for e in postorder((top,), set())} == \
            {e._id for e in order}


DEPTH = 5000


def deep_chain():
    """A 5000-deep xor chain, beyond the default recursion limit."""
    assert DEPTH > sys.getrecursionlimit()
    d = Design("deep")
    x = d.input("x", 1)
    s = d.latch("s", 1, init=0)
    e = s.expr
    for _ in range(DEPTH):
        e = e ^ x
    s.next = e
    d.invariant("p", e | ~e)
    return d, e


class TestDeepChain:
    def test_unroller(self):
        d, _ = deep_chain()
        r = verify(d, "p", BmcOptions(max_depth=1, find_proof=False))
        assert r.status == "bounded"

    def test_simulator(self):
        d, e = deep_chain()
        sim = Simulator(d)
        sim.begin_cycle({"x": 1})
        assert sim.eval(e) == DEPTH % 2

    def test_design_copy(self):
        d, _ = deep_chain()
        out = Design("copy")
        copy = DesignCopy(d, out)
        out.input("x", 1)
        copy.finish()
        assert out.fingerprint() != d.fingerprint()  # the name differs
        out.name = d.name
        assert out.fingerprint() == d.fingerprint()

    def test_write_verilog(self):
        d, _ = deep_chain()
        buf = io.StringIO()
        write_verilog(buf, d)
        assert buf.getvalue().count(" ^ ") == DEPTH

    def test_latch_support(self):
        d, e = deep_chain()
        assert latch_support(e) == {"s"}
