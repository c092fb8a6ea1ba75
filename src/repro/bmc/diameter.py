"""Recurrence-diameter computation via loop-free-path SAT checks.

The forward termination check of BMC-1/BMC-3 (Figure 1 line 5 /
Figure 3 line 6) proves a property once ``I ∧ LFP_i`` is unsatisfiable:
no loop-free path of length ``i`` leaves the initial states, so every
reachable state was already covered by the bounded checks.  The smallest
such ``i`` is the system's *recurrence diameter from init* [19] — an
upper bound on the reachability radius the BDD engine computes exactly.

This module computes that bound standalone (no property needed), with
EMM constraints for designs with embedded memories — giving, e.g., the
"forward proof diameter D" column of the paper's Table 1 without running
a property at all.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

from repro.bmc.engine import BmcOptions
from repro.bmc.session import EncodingSession
from repro.design.netlist import Design


def forward_recurrence_diameter(design: Design, max_depth: int = 100,
                                options: Optional[BmcOptions] = None
                                ) -> Optional[int]:
    """Smallest i such that no loop-free path of length i starts in I.

    Returns None when the bound is not reached within ``max_depth``.
    Loop-freedom is judged over the latch state (the paper's LFP), with
    memory reads constrained by EMM including the arbitrary-initial-state
    machinery — the encoding comes from an :class:`EncodingSession`, so
    each check is exactly the engine's forward termination check
    ``[a_init, a_meminit] + LFP_i`` under the same options.
    """
    opts = replace(options or BmcOptions(), find_proof=True, pba=False)
    session = EncodingSession(design, opts)
    for i in range(max_depth + 1):
        session.extend_to(i)
        result = session.solver.solve(
            [session.a_init, session.a_meminit] + session.lfp_assumptions(i),
            opts.max_conflicts_per_check)
        if result.unknown:
            return None
        if not result.sat:
            return i
    return None
