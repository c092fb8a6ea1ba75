"""Dedicated unit tests for ``bmc/diameter.py`` and ``bmc/induction.py``.

Both modules were previously exercised only through the engine's
end-to-end flows; these tests pin their behaviour directly — the
loop-free-path constraint counts and satisfiability semantics of
:class:`~repro.bmc.induction.LoopFreeConstraints` on designs with a
known state graph, and the longest-shortest-path cutoff / option
handling of :func:`~repro.bmc.diameter.forward_recurrence_diameter`.
"""

import pytest

from repro.aig import Aig, CnfEmitter
from repro.bmc.diameter import forward_recurrence_diameter
from repro.bmc.engine import BmcOptions
from repro.bmc.induction import LoopFreeConstraints
from repro.bmc.unroller import Unroller
from repro.design import Design
from repro.sat import Solver


def counter_design(width=2, step=1):
    d = Design(f"cnt{width}s{step}")
    c = d.latch("c", width, init=0)
    c.next = c.expr + step
    d.invariant("p", d.const(1, 1))
    return d


def memory_counter_design(init):
    """A 2-bit controller reading an input-written memory at ``t``."""
    d = Design("memctr")
    t = d.latch("t", 2, init=0)
    t.next = t.expr + 1
    mem = d.memory("m", 2, 2, init=init)
    mem.write(0).connect(addr=d.input("wa", 2), data=d.input("wd", 2),
                         en=d.input("we", 1))
    mem.read(0).connect(addr=t.expr, en=1)
    d.invariant("p", d.const(1, 1))
    return d


def lfp_setup(design, kept_latches=None):
    solver = Solver(proof=False)
    emitter = CnfEmitter(Aig(), solver)
    unroller = Unroller(design, emitter, kept_latches)
    return solver, unroller, LoopFreeConstraints(unroller)


class TestLoopFreeConstraints:
    def test_pair_and_clause_counts(self):
        """Frame k adds k pairs; each pair costs 2 clauses per state bit
        plus the closing some-bit-differs clause, and each frame >= 1
        adds one guard literal g_k."""
        design = counter_design(width=3)
        solver, unroller, lfp = lfp_setup(design)
        bits = 3  # one latch, width 3
        for k in range(5):
            unroller.add_frame()
            lfp.add_frame(k)
            expected_pairs = k * (k + 1) // 2
            assert lfp.pairs_added == expected_pairs
            assert lfp.clauses_added == expected_pairs * (2 * bits + 1)
            assert len(lfp.frame_lits) == k

    def test_loop_free_paths_bounded_by_state_count(self):
        """A free-running 2-bit counter has exactly 4 states: loop-free
        paths of length <= 3 exist (4 distinct states), length 4 does
        not — the LFP constraints must flip to UNSAT exactly there."""
        design = counter_design(width=2)
        solver, unroller, lfp = lfp_setup(design)
        sat_at = {}
        for k in range(5):
            unroller.add_frame()
            lfp.add_frame(k)
            sat_at[k] = solver.solve(lfp.assumptions(k)).sat
        assert sat_at == {0: True, 1: True, 2: True, 3: True, 4: False}

    def test_deactivated_lfp_stays_satisfiable(self):
        """Without assuming the frame guards the pairwise difference
        constraints must not constrain anything (looping paths remain
        satisfiable past the state count)."""
        design = counter_design(width=1)
        solver, unroller, lfp = lfp_setup(design)
        for k in range(4):
            unroller.add_frame()
            lfp.add_frame(k)
        guards = lfp.assumptions(3)
        assert solver.solve(guards).sat is False  # 2 states, 4 frames
        assert solver.solve([]).sat is True
        assert solver.solve([-g for g in guards]).sat is True

    def test_per_frame_assumptions_scope_only_checked_frames(self):
        """``assumptions(i)`` activates pairs among frames 0..i only —
        deeper frames already encoded (by a sibling property on a shared
        session) must not constrain a shallow check.  A 1-bit toggler
        with 4 encoded frames still has a loop-free path of length 1."""
        design = counter_design(width=1)
        solver, unroller, lfp = lfp_setup(design)
        for k in range(4):
            unroller.add_frame()
            lfp.add_frame(k)
        assert lfp.assumptions(0) == []
        assert solver.solve(lfp.assumptions(1)).sat is True
        assert solver.solve(lfp.assumptions(2)).sat is False
        assert solver.solve(lfp.assumptions(3)).sat is False

    def test_kept_latches_scope_the_state(self):
        """Loop-freedom is judged over the *kept* latch words only: with
        the wide latch abstracted away, the 1-bit latch bounds the
        loop-free length instead."""
        d = Design("two")
        wide = d.latch("wide", 3, init=0)
        wide.next = wide.expr + 1
        small = d.latch("small", 1, init=0)
        small.next = ~small.expr
        d.invariant("p", d.const(1, 1))
        solver, unroller, lfp = lfp_setup(
            d, kept_latches=frozenset({"small"}))
        results = []
        for k in range(3):
            unroller.add_frame()
            lfp.add_frame(k)
            results.append(solver.solve(lfp.assumptions(k)).sat)
        # 2 reachable small-states: length-2 loop-free paths impossible.
        assert results == [True, True, False]
        # 3 pairs of 1-bit states.
        assert lfp.clauses_added == (2 * 1 + 1) * 3


class TestForwardRecurrenceDiameter:
    def test_known_diameter_full_period_counter(self):
        """A width-w step-1 counter walks all 2**w states in a line from
        init: the longest loop-free path from I has 2**w states, so the
        diameter (first UNSAT length) is exactly 2**w."""
        assert forward_recurrence_diameter(counter_design(width=2)) == 4
        assert forward_recurrence_diameter(counter_design(width=3)) == 8

    def test_short_period_counter(self):
        """Step 2 on 2 bits cycles through only 2 states from init 0."""
        assert forward_recurrence_diameter(counter_design(2, step=2)) == 2

    def test_cutoff_returns_none(self):
        """The longest-shortest-path cutoff: a bound below the true
        diameter must return None, never a wrong number."""
        d = counter_design(width=3)  # true diameter 8
        assert forward_recurrence_diameter(d, max_depth=7) is None
        assert forward_recurrence_diameter(d, max_depth=8) == 8

    def test_kept_latches_option_shrinks_diameter(self):
        """Latch abstraction turns the wide counter into a free input:
        the diameter is then governed by the remaining 1-bit toggler."""
        d = Design("two")
        wide = d.latch("wide", 3, init=0)
        wide.next = wide.expr + 1
        small = d.latch("small", 1, init=0)
        small.next = ~small.expr
        d.invariant("p", d.const(1, 1))
        full = forward_recurrence_diameter(d)
        abstracted = forward_recurrence_diameter(
            d, options=BmcOptions(kept_latches=frozenset({"small"})))
        assert full == 8
        assert abstracted == 2

    @pytest.mark.parametrize("init", [0, None])
    def test_memory_design_diameter_is_latch_bounded(self, init):
        """With an embedded memory (EMM constraints active, symbolic
        initial words for induction soundness) loop-freedom is still
        judged over the latch state: the memory must not extend the
        diameter of the 2-bit controller, under known or arbitrary
        initial memory contents."""
        d = memory_counter_design(init)
        assert forward_recurrence_diameter(d, max_depth=10) == 4

    @pytest.mark.parametrize("build,expected", [
        (lambda: counter_design(width=2), 4),
        (lambda: counter_design(width=3), 8),
        (lambda: counter_design(2, step=2), 2),
        (lambda: memory_counter_design(0), 4),
        (lambda: memory_counter_design(None), 4),
    ], ids=["cnt2", "cnt3", "cnt2s2", "memctr-init0", "memctr-symbolic"])
    def test_gate_encoding_agrees_with_hybrid(self, build, expected):
        """The diameter is encoded through the same session the engine
        uses, so ``emm_encoding`` is honoured — and both encodings must
        give the known diameter."""
        for encoding in ("hybrid", "gates"):
            opts = BmcOptions(emm_encoding=encoding)
            assert forward_recurrence_diameter(
                build(), max_depth=10, options=opts) == expected, encoding

    def test_unknown_encoding_rejected(self):
        with pytest.raises(ValueError, match="emm_encoding"):
            forward_recurrence_diameter(
                memory_counter_design(0), max_depth=3,
                options=BmcOptions(emm_encoding="bogus"))

    def test_agrees_with_engine_forward_proof_depth(self):
        """The standalone computation must coincide with the depth at
        which the engine's forward termination check fires."""
        from repro.bmc import bmc3, verify

        # Step-2 counter: reachable states {0, 2}; "c != 1" holds on
        # them but fails at the unreachable 1, so the backward step
        # cannot close before the forward termination does.
        d = Design("cnt2s2")
        c = d.latch("c", 2, init=0)
        c.next = c.expr + 2
        d.invariant("p", c.expr.ne(1))
        diameter = forward_recurrence_diameter(d)
        r = verify(d, "p", bmc3(max_depth=10, pba=False))
        assert r.proved and r.method == "forward"
        assert r.depth == diameter == 2


@pytest.mark.xfail(strict=True, reason=(
    "forward termination judges loop-freedom over the latch state only "
    "(the paper's LFP), so memory contents that keep changing along a "
    "latch loop are not counted as state and PROOF comes too early"))
def test_forward_termination_sees_memory_contents():
    """A memory word counts up every cycle while the only latch toggles:
    the target is reached at depth 3, but every latch path of length 2
    repeats a state, so ``I ∧ LFP_2`` is UNSAT.  BDD reachability on the
    memory-expanded model is the oracle."""
    from repro.bmc import bmc3, verify
    from tests.bmc_oracle import bdd_verdict

    d = Design("memcount")
    t = d.latch("t", 1, init=0)
    t.next = ~t.expr
    mem = d.memory("m", 1, 2, init=0)
    rd = mem.read(0).connect(addr=d.const(0, 1), en=1)
    mem.write(0).connect(addr=d.const(0, 1), data=rd + 1, en=1)
    d.reach("three", rd.eq(3))
    assert bdd_verdict(d, "three") == ("cex", 3)
    r = verify(d, "three", bmc3(max_depth=6, pba=False))
    assert (r.status, r.depth) == ("cex", 3), r.describe()
