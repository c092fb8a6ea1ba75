"""Efficient Memory Modeling (the paper's core contribution, S6).

For every memory kept in the verification model, an :class:`EmmMemory`
adds constraints at each BMC depth that preserve the data-forwarding
semantics *data read = most recent data written at the same address*
(equations (1)/(3)) without modeling a single memory bit:

* address-comparison signals in direct CNF — exactly the paper's
  ``4m+1``-clause encoding per read/write pair;
* exclusive valid-read signal chains ``s / PS / S`` as 2-input gates —
  equation (4), 3 gates per pair — giving the solver the one-hot
  "choose a matching pair, kill the others" propagation of Section 3;
* read-data constraints in direct CNF — equation (5), ``2n`` clauses per
  pair plus the validity clause;
* precise arbitrary-initial-state modeling — fresh symbolic words per
  read with the pairwise consistency constraints of equation (6), which
  is what makes SAT-based induction proofs sound (Section 4.2).

Every frame re-emits that direct CNF, so the closed forms below count
the encoding exactly.  The purely circuit-based encoding the paper
compares against lives in :mod:`repro.emm.gates`: a subclass of
:class:`EmmMemory` that replaces only the read-data chain and inherits
the initial-state machinery.  Write-write races (Section 4.1) are a
separate bounded check, :func:`find_data_race`, on an encoding session.

:mod:`repro.emm.accounting` carries the paper's closed-form constraint
counts; tests assert the implementation matches them clause for clause
on fresh-address designs.  :mod:`repro.emm.addrcmp` deduplicates the
address comparators behind those counts (a session-shared cache plus
constant folding, with multi-label PBA provenance), so the closed forms
are upper bounds wherever address cones recur, and ``EmmCounters``
reports how much was saved (``addr_eq_cache_hits`` /
``addr_eq_folded`` / ``cross_mem_cmp_hits``).
"""

from repro.emm.addrcmp import AddrComparator, SharedComparatorTables
from repro.emm.forwarding import EmmMemory, EmmCounters, InitReadRegistry
from repro.emm.races import RaceResult, find_data_race
from repro.emm import accounting

__all__ = ["AddrComparator", "SharedComparatorTables", "EmmMemory",
           "EmmCounters", "InitReadRegistry", "RaceResult", "find_data_race",
           "accounting"]
