"""Tests for the independent resolution/RUP proof checker (ref [20])."""

import random

import pytest

from repro.sat.proofcheck import (certify_unsat, check_all_learned,
                                  check_core, check_learned_clause)
from repro.sat.solver import Solver


def make_solver(num_vars, clauses, proof=True):
    s = Solver(proof=proof)
    for _ in range(num_vars):
        s.new_var()
    for c in clauses:
        s.add_clause(c)
    return s


def php_clauses(holes):
    """Pigeonhole principle PHP(holes+1, holes): classic small UNSAT."""
    pigeons = holes + 1

    def var(p, h):
        return p * holes + h + 1

    clauses = [[var(p, h) for h in range(holes)] for p in range(pigeons)]
    for h in range(holes):
        for p1 in range(pigeons):
            for p2 in range(p1 + 1, pigeons):
                clauses.append([-var(p1, h), -var(p2, h)])
    return pigeons * holes, clauses


class TestLearnedClauseRup:
    def test_php_trace_checks(self):
        nv, cls = php_clauses(3)
        s = make_solver(nv, cls)
        assert not s.solve().sat
        report = check_all_learned(s)
        assert report.ok, str(report)
        assert report.checked == len(s.learned_clause_ids())

    def test_report_str_mentions_count(self):
        nv, cls = php_clauses(3)
        s = make_solver(nv, cls)
        s.solve()
        report = check_all_learned(s)
        assert "OK" in str(report)

    def test_sat_instance_trace_also_checks(self):
        # Learned clauses from a satisfiable search are still implied.
        rng = random.Random(7)
        nv = 8
        cls = [[rng.choice([-1, 1]) * rng.randint(1, nv) for _ in range(3)]
               for _ in range(30)]
        s = make_solver(nv, cls)
        s.solve()
        assert check_all_learned(s).ok

    def test_check_single_clause_requires_learned(self):
        s = make_solver(2, [[1, 2]])
        with pytest.raises(ValueError):
            check_learned_clause(s, 0)

    def test_requires_proof_logging(self):
        nv, cls = php_clauses(2)
        s = make_solver(nv, cls, proof=False)
        s.solve()
        with pytest.raises(RuntimeError):
            check_all_learned(s)

    def test_corrupted_derivation_detected(self):
        nv, cls = php_clauses(3)
        s = make_solver(nv, cls)
        assert not s.solve().sat
        learned = s.learned_clause_ids()
        assert learned
        # Sabotage one derivation: claim it follows from a single binary
        # original clause that clearly does not imply it.
        victim = learned[-1]
        s._derivations[victim] = (len(cls) - 1,)
        report = check_all_learned(s)
        assert victim in report.failed or report.ok is False

    def test_deleted_learned_clauses_still_checkable(self):
        # Force enough conflicts that clause-database reduction kicks in.
        nv, cls = php_clauses(5)
        s = make_solver(nv, cls)
        s._max_learnts = 10.0  # aggressive deletion
        assert not s.solve().sat
        report = check_all_learned(s)
        assert report.ok, str(report)


class TestCoreCheck:
    def test_core_of_php_confirmed(self):
        nv, cls = php_clauses(3)
        s = make_solver(nv, cls)
        assert not s.solve().sat
        assert check_core(s)

    def test_assumption_core_confirmed(self):
        s = make_solver(3, [[-1, 2], [-2, 3]])
        assert not s.solve(assumptions=[1, -3]).sat
        assert set(s.failed_assumptions()) <= {1, -3}
        assert check_core(s, assumptions=[1, -3])

    def test_assumption_mismatch_rejected(self):
        s = make_solver(3, [[-1, 2], [-2, 3]])
        assert not s.solve(assumptions=[1, -3]).sat
        if s.failed_assumptions():
            with pytest.raises(ValueError):
                check_core(s, assumptions=[2])

    def test_core_unavailable_after_sat(self):
        s = make_solver(2, [[1, 2]])
        assert s.solve().sat
        with pytest.raises(RuntimeError):
            check_core(s)


class TestCertify:
    def test_full_certification_php(self):
        nv, cls = php_clauses(4)
        s = make_solver(nv, cls)
        assert not s.solve().sat
        report = certify_unsat(s)
        assert report.ok, str(report)

    def test_certification_under_assumptions(self):
        s = make_solver(4, [[-1, 2], [-2, 3], [-3, 4]])
        assert not s.solve(assumptions=[1, -4]).sat
        report = certify_unsat(s, assumptions=[1, -4])
        assert report.ok

    @pytest.mark.parametrize("seed", range(15))
    def test_random_unsat_instances_certify(self, seed):
        rng = random.Random(seed)
        nv = rng.randint(3, 7)
        cls = [[rng.choice([-1, 1]) * rng.randint(1, nv) for _ in range(3)]
               for _ in range(nv * 7)]
        s = make_solver(nv, cls)
        if s.is_broken or not s.solve().sat:
            report = certify_unsat(s)
            assert report.ok, str(report)


class TestBmcIntegration:
    def test_bmc_proof_run_certifies(self):
        """The PBA pipeline's cores come from real BMC refutations."""
        from repro.bmc.engine import BmcEngine, BmcOptions
        from repro.design import Design

        d = Design("cert")
        c = d.latch("c", 3, init=0)
        c.next = (c.expr.eq(5)).ite(d.const(0, 3), c.expr + 1)
        d.invariant("p", c.expr.ne(7))
        eng = BmcEngine(d, "p", BmcOptions(find_proof=False, pba=True,
                                           max_depth=4))
        result = eng.run()
        assert result.status == "bounded"
        # The last falsification check was UNSAT: certify its proof.
        assert check_all_learned(eng.session.solver).ok
