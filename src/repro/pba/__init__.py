"""Proof-based abstraction (substrate S7).

From the unsat core of each bounded falsification check, the engine
accumulates *latch reasons* ``LR_i`` (Figure 1 lines 10-11 / Figure 3
lines 11-12).  This package turns those reasons into abstract models:

* latches outside the stable reason set become pseudo-primary inputs
  (their link/init clauses are dropped);
* a memory module is abstracted away entirely — no EMM constraints —
  when none of its control latches (the latches driving its interface
  signals) appear in the reason set (Section 4.3);
* the stability-depth loop follows the paper's reference [10];
  iterative abstraction, the same reference's repeated reason
  collection on the shrinking model, is
  ``verify_with_pba(max_rounds=...)``.
"""

from repro.pba.abstraction import (PbaPhase, run_pba_phase, verify_with_pba,
                                   PbaVerification)
from repro.pba.minimize import MinimizationResult, minimize_reasons

__all__ = ["PbaPhase", "run_pba_phase", "verify_with_pba", "PbaVerification",
           "MinimizationResult", "minimize_reasons"]
