"""Expression rewriting and design copying between designs."""

import pytest

from repro.casestudies import (CpuParams, build_cache, build_cpu, build_fifo,
                               build_image_filter, build_multiport_soc,
                               build_quicksort, build_stack_machine,
                               memcpy_program)
from repro.design import Design
from repro.design.rewrite import DesignCopy, ExprRewriter
from repro.sim import Simulator
from repro.sim.fuzzfarm import build_fuzz_netlist


def source_design():
    d = Design("src")
    x = d.input("x", 4)
    lit = d.latch("l", 4, init=1)
    lit.next = lit.expr + x
    mem = d.memory("m", 2, 4, init=0)
    mem.write(0).connect(addr=0, data=x, en=1)
    rd = mem.read(0).connect(addr=0, en=1)
    d.invariant("p", (lit.expr ^ rd).ne(3))
    return d


class TestRewriter:
    def test_leaves_resolved_by_name(self):
        src = source_design()
        dst = Design("dst")
        dst.input("x", 4)
        dl = dst.latch("l", 4, init=1)
        dl.next = dl.expr
        rw = ExprRewriter(src, dst)
        e = rw.rewrite(src.latches["l"].next)
        assert e.design is dst
        assert e.kind == "add"

    def test_missing_input_raises(self):
        src = source_design()
        dst = Design("dst")
        rw = ExprRewriter(src, dst)
        with pytest.raises(KeyError, match="input"):
            rw.rewrite(src.latches["l"].next)

    def test_memread_needs_mapping(self):
        src = source_design()
        dst = Design("dst")
        dst.input("x", 4)
        dl = dst.latch("l", 4, init=1)
        dl.next = dl.expr
        rw = ExprRewriter(src, dst)
        with pytest.raises(KeyError, match="memread"):
            rw.rewrite(src.properties["p"].expr)

    def test_width_mismatch_in_mapping_rejected(self):
        src = source_design()
        dst = Design("dst")
        dst.input("x", 4)
        rw = ExprRewriter(src, dst)
        rw.memread_map[("m", 0)] = dst.const(0, 2)  # wrong width
        with pytest.raises(ValueError, match="width"):
            rw.rewrite(src.memories["m"].read(0).data)

    def test_constants_and_structure_preserved(self):
        src = Design("s")
        a = src.input("a", 3)
        lit = src.latch("l", 3, init=2)
        lit.next = a.eq(5).ite(lit.expr + 1, lit.expr - 1)
        src.invariant("p", lit.expr.ne(7))
        dst = Design("d2")
        dst.input("a", 3)
        dl = dst.latch("l", 3, init=2)
        rw = ExprRewriter(src, dst)
        dl.next = rw.rewrite(src.latches["l"].next)
        dst.invariant("p", rw.rewrite(src.properties["p"].expr))
        # behavioural equivalence over a stimulus
        seq = [{"a": v} for v in (5, 5, 0, 5, 1, 1)]
        ta = Simulator(src).run(seq)
        tb = Simulator(dst).run(seq)
        for ca, cb in zip(ta.cycles, tb.cycles):
            assert ca["latches"]["l"] == cb["latches"]["l"]
            assert ca["props"]["p"] == cb["props"]["p"]


def _cpu():
    params = CpuParams(5, 3, 4)
    # Program ROM with init_words, data memory with init=None.
    return build_cpu(memcpy_program(2, 0, 4, params), params)


COPY_SOURCES = {
    "quicksort": build_quicksort, "image_filter": build_image_filter,
    "multiport_soc": build_multiport_soc, "fifo": build_fifo,
    "stack_machine": build_stack_machine, "cache": build_cache, "cpu": _cpu,
    **{f"fuzz{seed}": (lambda seed=seed: build_fuzz_netlist(seed))
       for seed in range(20)},
}


def _copy(src, prefix=""):
    dst = Design(src.name)
    for inp in src.inputs.values():
        dst.input(inp.name, inp.width)
    DesignCopy(src, dst, prefix=prefix).finish()
    return dst


class TestDesignCopy:
    @pytest.mark.parametrize("name", sorted(COPY_SOURCES))
    def test_identity_copy(self, name):
        src = COPY_SOURCES[name]()
        dst = _copy(src)
        dst.validate()
        assert dst.fingerprint() == src.fingerprint()
        for attr in ("inputs", "latches", "memories", "properties"):
            assert list(getattr(dst, attr)) == list(getattr(src, attr))

    def test_prefixed_copy_keeps_every_initial_value(self):
        src = _cpu()
        src.latch("free", 3, init=None).next = 0
        dst = _copy(src, prefix="a::")
        assert list(dst.latches) == [f"a::{n}" for n in src.latches]
        assert list(dst.memories) == [f"a::{n}" for n in src.memories]
        assert any(m.init is None for m in src.memories.values())
        assert any(m.init_words for m in src.memories.values())
        for mem in src.memories.values():
            copy = dst.memories[f"a::{mem.name}"]
            assert (copy.init, copy.init_words) == (mem.init, mem.init_words)
        for latch in src.latches.values():
            assert dst.latches[f"a::{latch.name}"].init == latch.init
        assert dst.latches["a::free"].init is None

    def test_replaced_memory_reads_supplied_data(self):
        src = source_design()
        dst = Design("dst")
        dst.input("x", 4)
        seen = []

        def read_data(mem, index):
            seen.append((mem.name, index))
            return dst.const(3, mem.data_width)

        DesignCopy(src, dst, replaced=frozenset({"m"})).finish(read_data)
        dst.validate()
        assert seen == [("m", 0)] and not dst.memories
        # l ^ 3 != 3 fails exactly when l == 0; l starts at 1.
        trace = Simulator(dst).run([{"x": 15}, {"x": 0}])
        assert [c["props"]["p"] for c in trace.cycles] == [1, 0]
