"""Iterative abstraction (the paper's reference [10], Section 2.2).

"One can apply PBA techniques iteratively, called iterative abstraction,
to further reduce the set LRd and hence, obtain a smaller abstract
model."  Each round re-runs the reason-collection phase *on the current
abstract model* (kept latches / memories from the previous round); freed
latches cannot re-enter, so the reason set shrinks monotonically until a
fixpoint.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Optional

from repro.bmc.engine import BmcEngine, BmcOptions
from repro.bmc.results import CEX, PROOF, BmcResult
from repro.pba.abstraction import PbaPhase, run_pba_phase
from repro.design.netlist import Design


@dataclass
class IterativeAbstractionResult:
    """Outcome of the iterative-abstraction loop."""

    rounds: list[PbaPhase] = field(default_factory=list)
    converged: bool = False
    final_latches: frozenset[str] = frozenset()
    final_memories: frozenset[str] = frozenset()
    final_read_ports: dict = field(default_factory=dict)
    #: Proof (or other verdict) on the final abstract model, if requested.
    proof_result: Optional[BmcResult] = None
    status: str = "bounded"
    wall_time_s: float = 0.0


def iterative_abstraction(design: Design, property_name: str,
                          stability_depth: int = 10,
                          max_depth: int = 40,
                          max_rounds: int = 4,
                          proof_max_depth: Optional[int] = 80,
                          options: Optional[BmcOptions] = None,
                          ) -> IterativeAbstractionResult:
    """Repeat the PBA phase on shrinking models until a fixpoint.

    When ``proof_max_depth`` is not None, a BMC-3 proof run is attempted
    on the final abstract model; a PROOF verdict transfers to the
    concrete design (the abstraction only adds behaviours).
    """
    t0 = time.monotonic()
    base = options or BmcOptions()
    out = IterativeAbstractionResult()
    kept_latches: Optional[frozenset[str]] = base.kept_latches
    kept_memories = base.kept_memories
    kept_ports = base.kept_read_ports
    for __ in range(max_rounds):
        round_opts = replace(base, kept_latches=kept_latches,
                             kept_memories=kept_memories,
                             kept_read_ports=kept_ports,
                             validate_cex=False)
        phase = run_pba_phase(design, property_name, stability_depth,
                              max_depth, round_opts)
        out.rounds.append(phase)
        if phase.cex_result is not None:
            # On the concrete model this is a real CEX; on an abstract
            # round it is inconclusive — either way the loop stops.
            concrete = kept_latches is None and kept_memories is None
            out.status = CEX if concrete else "abstract-cex"
            out.proof_result = phase.cex_result
            out.wall_time_s = time.monotonic() - t0
            return out
        if phase.core_unlabeled:
            # An unlabelled core clause means the round's reason list is
            # not exhaustive — tightening the model on it could free a
            # latch the proof actually used.  Keep the current model.
            break
        new_latches = phase.latch_reasons
        if kept_latches is not None and new_latches == kept_latches:
            out.converged = True
            break
        kept_latches = new_latches
        kept_memories = phase.kept_memories
        kept_ports = phase.kept_read_ports
    out.final_latches = kept_latches if kept_latches is not None else frozenset()
    out.final_memories = (kept_memories if kept_memories is not None
                          else frozenset(design.memories))
    out.final_read_ports = dict(kept_ports or {})
    if proof_max_depth is not None:
        proof_opts = replace(base, pba=False, find_proof=True,
                             max_depth=proof_max_depth,
                             kept_latches=out.final_latches,
                             kept_memories=out.final_memories,
                             kept_read_ports=out.final_read_ports,
                             validate_cex=False)
        result = BmcEngine(design, property_name, proof_opts).run()
        out.proof_result = result
        if result.status == PROOF:
            out.status = PROOF
        elif result.status == CEX:
            out.status = "abstract-cex"
        else:
            out.status = result.status
    out.wall_time_s = time.monotonic() - t0
    return out
