"""Tests for deletion-based reason minimization (repro.pba.minimize)."""

from dataclasses import replace

import pytest

from repro.bmc import BmcEngine, BmcOptions
from repro.casestudies.quicksort import QuicksortParams, build_quicksort
from repro.design import Design
from repro.design.cone import memory_control_latches
from repro.pba import run_pba_phase, verify_with_pba
from repro.pba.minimize import holds_up_to, minimize_reasons


def two_memory_design() -> Design:
    """Property depends on memory `a` only; memory `b` is irrelevant."""
    d = Design("two_mems")
    cnt = d.latch("cnt", 3, init=0)
    cnt.next = cnt.expr + 1
    a_addr = d.latch("a_addr", 3, init=0)
    a_addr.next = a_addr.expr
    b_addr = d.latch("b_addr", 3, init=0)
    b_addr.next = b_addr.expr + 1
    a = d.memory("a", addr_width=3, data_width=4, init=0)
    b = d.memory("b", addr_width=3, data_width=4, init=0)
    a.write(0).connect(addr=a_addr.expr, data=d.const(5, 4), en=cnt.expr.eq(1))
    b.write(0).connect(addr=b_addr.expr, data=d.const(9, 4), en=1)
    a_rd = a.read(0).connect(addr=a_addr.expr, en=1)
    b.read(0).connect(addr=b_addr.expr, en=1)
    # a_rd is 0 before the write and 5 after: never 7.
    d.invariant("p", a_rd.ne(7))
    return d


class TestHoldsUpTo:
    def test_holds_on_concrete_model(self):
        d = two_memory_design()
        assert holds_up_to(d, "p", 6, BmcOptions())

    def test_fails_when_needed_memory_dropped(self):
        d = two_memory_design()
        # Dropping memory `a` frees its read data: p becomes falsifiable.
        opts = BmcOptions(kept_memories=frozenset({"b"}))
        assert not holds_up_to(d, "p", 2, opts)

    def test_holds_when_irrelevant_memory_dropped(self):
        d = two_memory_design()
        opts = BmcOptions(kept_memories=frozenset({"a"}))
        assert holds_up_to(d, "p", 6, opts)

    def test_unchecked_run_is_not_evidence(self):
        """A run that degraded before checking any depth says nothing:
        the counter has a CEX at depth 3, yet a quota of one
        clause+variable stops the run at depth -1."""
        d = Design("bad")
        cnt = d.latch("cnt", 3, init=0)
        cnt.next = cnt.expr + 1
        d.invariant("lt3", cnt.expr.ult(3))
        quota = BmcOptions(clause_var_quota=1)
        result = BmcEngine(d, "lt3", replace(quota, max_depth=6,
                                             find_proof=False)).run()
        assert (result.status, result.depth) == ("degraded", -1)
        assert not holds_up_to(d, "lt3", 6, quota)
        assert holds_up_to(d, "lt3", 2, BmcOptions())
        assert not holds_up_to(d, "lt3", 6, BmcOptions())

    def test_bad_granularity_rejected(self):
        d = two_memory_design()
        with pytest.raises(ValueError, match="granularity"):
            minimize_reasons(d, "p", frozenset(d.latches), 3,
                             granularity="bogus")


class TestMemoryGranularity:
    def test_irrelevant_memory_dropped(self):
        d = two_memory_design()
        res = minimize_reasons(d, "p", frozenset(d.latches), depth=6,
                               granularity="memory")
        assert "b" in res.dropped_memories
        assert res.memories == frozenset({"a"})
        # b's private control latch goes with it.
        assert "b_addr" in res.dropped_latches

    def test_needed_memory_survives(self):
        d = two_memory_design()
        res = minimize_reasons(d, "p", frozenset(d.latches), depth=6,
                               granularity="memory")
        assert "a" in res.memories
        assert "a_addr" in res.latches

    def test_shared_control_latch_not_dropped(self):
        d = Design("shared_ctrl")
        addr = d.latch("addr", 2, init=0)
        addr.next = addr.expr + 1
        m1 = d.memory("m1", addr_width=2, data_width=2, init=0)
        m2 = d.memory("m2", addr_width=2, data_width=2, init=0)
        m1.write(0).connect(addr=addr.expr, data=1, en=1)
        m2.write(0).connect(addr=addr.expr, data=2, en=1)
        rd1 = m1.read(0).connect(addr=addr.expr, en=1)
        m2.read(0).connect(addr=addr.expr, en=1)
        d.invariant("p", rd1.ne(3))
        res = minimize_reasons(d, "p", frozenset(d.latches), depth=5,
                               granularity="memory")
        # m2 can drop but addr is shared with m1, so it must be kept.
        assert "m2" in res.dropped_memories
        assert "addr" in res.latches

    def test_result_counts_checks(self):
        d = two_memory_design()
        res = minimize_reasons(d, "p", frozenset(d.latches), depth=6,
                               granularity="memory")
        assert res.checks == 2  # one attempted deletion per memory


class TestLatchGranularity:
    def test_irrelevant_latch_dropped(self):
        d = two_memory_design()
        res = minimize_reasons(
            d, "p", frozenset(d.latches), depth=6,
            kept_memories=frozenset({"a"}), granularity="latch")
        assert "b_addr" in res.dropped_latches

    def test_subset_invariant(self):
        d = two_memory_design()
        start = frozenset(d.latches)
        res = minimize_reasons(d, "p", start, depth=6, granularity="both")
        assert res.latches <= start
        assert res.latches | res.dropped_latches == start


class TestQuicksortTable2:
    """The Table 2 phenomenon: P2 never needs the array module."""

    @pytest.fixture(scope="class")
    def design(self):
        return build_quicksort(QuicksortParams(
            n=3, addr_width=3, data_width=3, stack_addr_width=3))

    def test_array_dropped_after_minimization(self, design):
        phase = run_pba_phase(design, "P2", stability_depth=6, max_depth=20)
        res = minimize_reasons(
            design, "P2", phase.latch_reasons, depth=phase.stable_depth,
            kept_memories=phase.kept_memories,
            kept_read_ports=phase.kept_read_ports, granularity="memory")
        assert "arr" in res.dropped_memories
        assert "stack" in res.memories
        arr_ctrl = memory_control_latches(design, "arr")
        assert not arr_ctrl & res.latches

    @pytest.mark.slow
    def test_verify_with_pba_minimize_proves_p2(self, design):
        v = verify_with_pba(design, "P2", stability_depth=6,
                            abstraction_max_depth=20, proof_max_depth=80,
                            minimize="memory")
        assert v.status == "proof"
        assert "arr" in v.phase.abstracted_memories
        assert v.minimization is not None
        assert "arr" in v.minimization.dropped_memories


class TestMinimizeSoundness:
    def test_minimized_model_still_proves_property(self):
        d = two_memory_design()
        res = minimize_reasons(d, "p", frozenset(d.latches), depth=6,
                               granularity="memory")
        opts = BmcOptions(kept_latches=res.latches,
                          kept_memories=res.memories, validate_cex=False)
        assert holds_up_to(d, "p", 8, opts)

    def test_failing_property_never_minimizes_to_nothing(self):
        d = Design("buggy")
        c = d.latch("c", 2, init=0)
        c.next = c.expr + 1
        d.invariant("p", c.expr.ne(3))  # fails at depth 3
        res = minimize_reasons(d, "p", frozenset(d.latches), depth=2,
                               granularity="latch")
        # Freeing c makes it an arbitrary word, so c==3 becomes reachable
        # at depth 0 and the deletion is rejected: c must stay.
        assert "c" in res.latches
