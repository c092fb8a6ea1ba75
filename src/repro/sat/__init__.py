"""SAT backend for the EMM verification platform (substrate S1).

A self-contained CDCL solver in the MiniSat lineage:

* two-literal watching, first-UIP clause learning with recursive
  minimization, VSIDS decisions, phase saving, Luby restarts, binary
  watch lists with blocker literals, and LBD-tiered learned-clause
  reduction (glue <= 2 and binary clauses are never deleted; the rest
  compete on glue, then activity);
* incremental use — clauses may be added between ``solve`` calls and each
  call takes a list of *assumption* literals, which is how the BMC engine
  multiplexes the three checks of the paper's Figure 3 over one solver;
* resolution-derivation bookkeeping for every learned clause, so an
  unsatisfiable result can be traced back to the set of *original* clauses
  that proved it (``Solver.core_clause_ids`` / ``Solver.core_labels``).
  This is the paper's ``SAT_Get_Refutation`` (Figure 1, line 10) and the
  input to proof-based abstraction.  :mod:`repro.sat.proofcheck` checks
  those answers independently (RUP over the learned clauses, re-solve of
  the core).

Literals in the public API are non-zero signed integers, DIMACS style:
``+v`` is the positive literal of variable ``v``, ``-v`` its negation.
"""

from repro.sat.solver import Solver, SolveResult
from repro.sat.dimacs import parse_dimacs, write_dimacs
from repro.sat.proofcheck import (ProofCheckReport, certify_unsat,
                                  check_all_learned, check_core)

__all__ = ["Solver", "SolveResult", "parse_dimacs", "write_dimacs",
           "ProofCheckReport", "certify_unsat", "check_all_learned",
           "check_core"]
