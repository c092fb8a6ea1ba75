"""Unlabelled-core accounting (repro.sat).

Every clause carries at most one provenance label.  ``core_labels``
reports the labels of an unsat core's clauses; ``core_unlabeled_count``
exposes core clauses that carry no label at all, so PBA never mistakes
an unattributed core for an exhaustively attributed one.
"""

import pytest

from repro.sat import Solver


def unsat_pair(solver, label_a, label_b):
    """Two contradictory unit clauses; returns their clause ids."""
    v = solver.new_var()
    ca = solver.add_clause([v], label_a)
    cb = solver.add_clause([-v], label_b)
    assert not solver.solve().sat
    return ca, cb


class TestUnlabeledCores:
    def test_all_labeled_core_counts_zero(self):
        s = Solver()
        unsat_pair(s, ("emm", "a"), ("init", "x"))
        assert s.core_labels() == {("emm", "a"), ("init", "x")}
        assert s.core_unlabeled_count() == 0

    def test_unlabeled_core_is_not_an_empty_core(self):
        """A core made of unlabelled clauses must be distinguishable
        from a core that used no clauses at all."""
        s = Solver()
        unsat_pair(s, None, None)
        assert s.core_labels() == set()
        assert s.core_unlabeled_count() == 2

    def test_minimizer_refuses_unlabeled_cores(self):
        from repro.design import Design
        from repro.pba.minimize import minimize_reasons

        d = Design("t")
        x = d.latch("x", 2, init=0)
        x.next = x.expr
        d.invariant("p", x.expr.eq(0))
        with pytest.raises(ValueError, match="not exhaustive"):
            minimize_reasons(d, "p", frozenset({"x"}), depth=2,
                             core_unlabeled=3)
