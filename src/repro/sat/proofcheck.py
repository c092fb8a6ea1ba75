"""Independent checking of the solver's resolution-style proof traces.

The paper's PBA step trusts ``SAT_Get_Refutation`` — the unsat core
retraced from the solver's resolution proof (reference [20], Zhang &
Malik, *Validating SAT Solvers Using an Independent Resolution-Based
Checker*, DATE 2003).  This module provides that validation leg:

* :func:`check_learned_clause` / :func:`check_all_learned` — verify each
  learned clause is implied by its recorded antecedents via *reverse
  unit propagation* (RUP): assert the clause's negation, unit-propagate
  over the antecedents only, and require a conflict.  A 1UIP resolution
  chain is always RUP-checkable from its antecedent set, so a failure
  here means the proof log (not the clause) is wrong.
* :func:`check_core` — independently confirm that the reported unsat
  core (plus the failed assumptions, if any) is itself unsatisfiable,
  by re-solving it from scratch in a fresh solver.

Both checks are *per-solve* diagnostics that production runs skip.  The
test-suite calls them (directly and through :func:`certify_unsat`) to
keep the solver's proof log and the PBA machinery honest; no CLI flag
exposes them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from repro.sat.solver import Solver


@dataclass
class ProofCheckReport:
    """Outcome of a full trace check."""

    checked: int = 0
    failed: list[int] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failed

    def __str__(self) -> str:
        if self.ok:
            return f"proof trace OK ({self.checked} learned clauses verified)"
        return (f"proof trace BROKEN: {len(self.failed)} of {self.checked} "
                f"derivations failed RUP (first: clause {self.failed[0]})")


def _propagate_to_fixpoint(clauses: list[tuple[int, ...]],
                           assignment: dict[int, bool]) -> bool:
    """Naive counter-free unit propagation; True when a conflict appears.

    Quadratic in the worst case, which is fine: antecedent sets are tiny
    compared to the full CNF and this code must stay obviously correct —
    it is the *checker*.
    """
    changed = True
    while changed:
        changed = False
        for clause in clauses:
            unassigned: Optional[int] = None
            satisfied = False
            count = 0
            for lit in clause:
                var = abs(lit)
                val = assignment.get(var)
                if val is None:
                    unassigned = lit
                    count += 1
                elif val == (lit > 0):
                    satisfied = True
                    break
            if satisfied:
                continue
            if count == 0:
                return True  # every literal false: conflict
            if count == 1:
                assert unassigned is not None
                assignment[abs(unassigned)] = unassigned > 0
                changed = True
    return False


def check_learned_clause(solver: Solver, cid: int) -> bool:
    """RUP-check one learned clause against its recorded antecedents."""
    antecedents = solver.derivation(cid)
    if antecedents is None:
        raise ValueError(f"clause {cid} is not a learned clause")
    clause = solver.proof_clause_literals(cid)
    side = [solver.proof_clause_literals(a) for a in antecedents]
    # Assert the negation of the learned clause.
    assignment: dict[int, bool] = {}
    for lit in clause:
        var = abs(lit)
        want = lit < 0
        if assignment.get(var, want) != want:
            return True  # clause is a tautology: trivially implied
        assignment[var] = want
    return _propagate_to_fixpoint(side, assignment)


def check_all_learned(solver: Solver,
                      sample: Optional[Iterable[int]] = None
                      ) -> ProofCheckReport:
    """RUP-check every learned clause (or the given sample of cids)."""
    if not solver.proof_logging:
        raise RuntimeError("solver was created with proof logging disabled")
    report = ProofCheckReport()
    cids = sorted(sample) if sample is not None else solver.learned_clause_ids()
    for cid in cids:
        report.checked += 1
        if not check_learned_clause(solver, cid):
            report.failed.append(cid)
    return report


def check_core(solver: Solver,
               assumptions: Sequence[int] = ()) -> bool:
    """Re-derive UNSAT of the reported core in a fresh solver.

    For assumption-based refutations pass the *same assumptions* given to
    the failing :meth:`Solver.solve` call; the check conjoins the core
    clauses with the failed subset of them.  Returns True when the core
    (so constrained) is confirmed unsatisfiable.
    """
    core = solver.core_clause_ids()
    failed = set(solver.failed_assumptions())
    if failed and not set(assumptions) >= failed:
        raise ValueError(
            "failed assumptions are not a subset of the assumptions given "
            "to check_core; pass the original assumption list")
    fresh = Solver(proof=False)
    max_var = 0
    clauses = [solver.proof_clause_literals(cid) for cid in sorted(core)]
    for lits in clauses:
        for lit in lits:
            max_var = max(max_var, abs(lit))
    for lit in failed:
        max_var = max(max_var, abs(lit))
    while fresh.num_vars < max_var:
        fresh.new_var()
    for lits in clauses:
        fresh.add_clause(lits)
    for lit in failed:
        fresh.add_clause([lit])
    return not fresh.solve().sat


def certify_unsat(solver: Solver,
                  assumptions: Sequence[int] = ()) -> ProofCheckReport:
    """Full certification: core re-derivation plus learned-clause RUP.

    Combines :func:`check_core` (end-to-end: the reported core really is
    unsatisfiable) with :func:`check_all_learned` (step-by-step: every
    logged derivation is locally sound).  Raises ``RuntimeError`` when no
    UNSAT answer is pending.
    """
    report = check_all_learned(solver)
    if not check_core(solver, assumptions):
        report.failed.append(-1)  # sentinel: the core itself failed
    return report
