"""PBA driver: stability loop, abstract-model generation, verification.

The flow reproduces Table 2 of the paper:

1. *Abstraction phase* — run BMC with PBA (unsat-core latch reasons) until
   the reason set ``LR`` is unchanged for ``stability_depth`` consecutive
   depths (or a counterexample/bound is hit).
2. *Model reduction* — keep only the latches in the stable ``LR``; keep a
   memory module only if one of its control latches survived.  Iterative
   abstraction repeats phases 1 and 2 on the reduced model
   (``max_rounds``).
3. *Proof phase* — run full BMC-3 (induction) on the reduced model.  The
   abstraction only adds behaviours, so a proof transfers to the concrete
   design; a counterexample from a model that is not concrete is
   reported as inconclusive (``abstract-cex``) rather than trusted.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Optional

from repro.bmc.engine import BmcEngine, BmcOptions
from repro.bmc.results import CEX, BmcResult
from repro.design.cone import latch_support, memory_control_latches
from repro.design.netlist import Design


@dataclass
class PbaPhase:
    """Outcome of the abstraction (reason-collection) phase."""

    stable: bool
    stable_depth: int
    latch_reasons: frozenset[str]
    kept_memories: frozenset[str]
    abstracted_memories: frozenset[str]
    reasons_per_depth: list[frozenset[str]]
    #: Latch *bits* kept vs original (the paper's "FF (orig)" columns).
    kept_latch_bits: int
    orig_latch_bits: int
    wall_time_s: float
    #: The run's :meth:`EncodingSession.is_concrete`: only then is
    #: ``cex_result`` a real counterexample.
    concrete: bool
    #: Set when the phase ended early with a real counterexample.
    cex_result: Optional[BmcResult] = None
    #: Per-kept-memory read ports retained (Section 4.3 port abstraction).
    kept_read_ports: dict = field(default_factory=dict)
    #: Unlabelled clauses seen in the source run's cores
    #: (``BmcRunStats.core_unlabeled``); nonzero means the reason lists
    #: are incomplete and deletion-based minimization must refuse.
    core_unlabeled: int = 0


@dataclass
class PbaVerification:
    """Full PBA pipeline outcome: abstraction phase + proof on reduced model."""

    #: The phase whose reasons define the model the proof ran on.
    phase: PbaPhase
    #: The proof run on the reduced model, or the phase's CEX run.
    proof_result: Optional[BmcResult]
    #: 'proof' | 'cex' | 'abstract-cex' | 'bounded' | 'timeout'
    status: str
    #: Set when reason minimization ran (``minimize != "off"``).
    minimization: Optional["MinimizationResult"] = None
    #: Every reason-collection round, in order (one unless ``max_rounds``).
    rounds: list[PbaPhase] = field(default_factory=list)
    #: A later round repeated its model's latch reasons (the fixpoint).
    converged: bool = False


def run_pba_phase(design: Design, property_name: str,
                  stability_depth: int = 10,
                  max_depth: int = 60,
                  options: Optional[BmcOptions] = None) -> PbaPhase:
    """Collect latch reasons until the set is stable (paper's [10])."""
    base = options or BmcOptions()
    opts = replace(base, pba=True, find_proof=False, max_depth=max_depth)
    t0 = time.monotonic()
    engine = BmcEngine(design, property_name, opts)

    def stable_enough(eng: BmcEngine, _depth: int) -> bool:
        lr = eng.latch_reasons
        if len(lr) <= stability_depth:
            return False
        window = lr[-(stability_depth + 1):]
        return all(s == window[0] for s in window)

    result = engine.run(stop_check=stable_enough)
    reasons = result.latch_reasons
    cex = result if result.status == CEX else None
    if cex is not None:
        stable, stable_depth = False, result.depth
    else:
        stable_at = _stability_point(reasons, stability_depth)
        stable = stable_at is not None
        # Bound hit without stabilising: use the final set, flag unstable.
        stable_depth = stable_at if stable else len(reasons) - 1
    return _phase_from(design, reasons, result.memory_reasons, stable,
                       stable_depth, t0, result.stats.core_unlabeled,
                       engine.session.is_concrete(), cex)


def _stability_point(reasons: list[frozenset[str]],
                     stability_depth: int) -> Optional[int]:
    """First depth whose reason set persists for ``stability_depth`` depths."""
    if not reasons:
        return None
    run_start = 0
    for i in range(1, len(reasons)):
        if reasons[i] != reasons[run_start]:
            run_start = i
    # reasons[run_start:] are all equal; require the run to be long enough.
    if len(reasons) - run_start > stability_depth:
        return run_start
    return None


def _phase_from(design: Design, reasons: list[frozenset[str]],
                mem_reasons: list[frozenset[str]], stable: bool,
                stable_depth: int, t0: float, core_unlabeled: int,
                concrete: bool, cex: Optional[BmcResult] = None
                ) -> PbaPhase:
    # A counterexample run has reason entries only for the depths whose
    # falsification check was UNSAT; clamp into range.
    index = min(stable_depth, len(reasons) - 1)
    latch_reasons = reasons[index] if reasons else frozenset()
    used_memories = mem_reasons[min(index, len(mem_reasons) - 1)] \
        if mem_reasons else frozenset()
    kept_mems = set()
    kept_ports: dict = {}
    for mem_name, mem in design.memories.items():
        # The paper's criterion: a memory stays if a control latch (logic
        # driving its interface signals) is among the latch reasons.  We
        # additionally keep a memory whose own EMM constraints appeared in
        # an unsat core — possible when the refutation needs only the
        # forwarding semantics (data facts) and no address latch.
        control = memory_control_latches(design, mem_name)
        if control & latch_reasons or mem_name in used_memories:
            kept_mems.add(mem_name)
            # Port-level abstraction: drop read ports none of whose
            # control latches survived.  Ports with latch-free interfaces
            # (pure input addressing) are always kept — there is nothing
            # to decide them by, and keeping them is the safe default.
            ports = set()
            for port in mem.read_ports:
                support = latch_support([e for e in (port.addr, port.en)
                                         if e is not None])
                if not support or support & latch_reasons:
                    ports.add(port.index)
            if not ports:
                ports = {p.index for p in mem.read_ports}
            kept_ports[mem_name] = frozenset(ports)
    kept_bits = sum(design.latches[n].width for n in latch_reasons)
    return PbaPhase(
        stable=stable,
        stable_depth=stable_depth,
        latch_reasons=latch_reasons,
        kept_memories=frozenset(kept_mems),
        abstracted_memories=frozenset(design.memories) - frozenset(kept_mems),
        reasons_per_depth=list(reasons),
        kept_latch_bits=kept_bits,
        orig_latch_bits=design.num_latch_bits(),
        wall_time_s=time.monotonic() - t0,
        concrete=concrete,
        cex_result=cex,
        kept_read_ports=kept_ports,
        core_unlabeled=core_unlabeled,
    )


def verify_with_pba(design: Design, property_name: str,
                    stability_depth: int = 10,
                    abstraction_max_depth: int = 40,
                    proof_max_depth: int = 80,
                    options: Optional[BmcOptions] = None,
                    minimize: str = "off",
                    max_rounds: int = 1) -> PbaVerification:
    """The paper's combined EMM+PBA flow (Section 4.3 / Table 2).

    ``max_rounds`` > 1 is iterative abstraction (the paper's [10]): each
    later round re-collects reasons on the previous round's model.
    Freed latches cannot re-enter, so the reasons shrink until a round
    repeats its model's latch reasons (``converged``).  A later round
    whose core held an unlabelled clause stops the loop; its reasons
    are not exhaustive, so the model it ran on is kept.

    ``minimize`` shrinks the stable reason set by attempted deletion
    before the proof run: ``"off"`` uses the raw unsat-core reasons,
    ``"memory"`` / ``"latch"`` / ``"both"`` invoke
    :func:`repro.pba.minimize.minimize_reasons` at that granularity.
    Raw cores are sufficient but not minimal — a spurious control latch
    can keep a whole memory module alive (see Table 2: the quicksort
    array must drop out for P2).

    A counterexample counts as real only when the model it came from is
    concrete (:meth:`EncodingSession.is_concrete`); otherwise the status
    is ``abstract-cex``.
    """
    if max_rounds < 1:
        raise ValueError("max_rounds must be >= 1")
    base = options or BmcOptions()
    round_opts = base
    rounds: list[PbaPhase] = []
    converged = False
    phase = None
    for __ in range(max_rounds):
        current = run_pba_phase(design, property_name, stability_depth,
                                abstraction_max_depth, round_opts)
        rounds.append(current)
        if current.cex_result is not None:
            return PbaVerification(
                phase=current, proof_result=current.cex_result,
                status=CEX if current.concrete else "abstract-cex",
                rounds=rounds)
        if phase is not None:
            if current.core_unlabeled:
                break
            if current.latch_reasons == phase.latch_reasons:
                converged = True
                break
        phase = current
        round_opts = replace(base, kept_latches=phase.latch_reasons,
                             kept_memories=phase.kept_memories,
                             kept_read_ports=phase.kept_read_ports,
                             validate_cex=False)
    minimization = None
    if minimize != "off":
        from repro.pba.minimize import minimize_reasons
        minimization = minimize_reasons(
            design, property_name, phase.latch_reasons,
            depth=phase.stable_depth, options=base,
            kept_memories=phase.kept_memories,
            kept_read_ports=phase.kept_read_ports,
            granularity=minimize,
            core_unlabeled=phase.core_unlabeled)
        kept_bits = sum(design.latches[n].width for n in minimization.latches)
        phase = replace(
            phase,
            latch_reasons=minimization.latches,
            kept_memories=minimization.memories,
            abstracted_memories=(frozenset(design.memories)
                                 - minimization.memories),
            kept_read_ports=minimization.read_ports,
            kept_latch_bits=kept_bits,
        )
    proof_opts = replace(
        base,
        pba=False,
        find_proof=True,
        max_depth=proof_max_depth,
        kept_latches=phase.latch_reasons,
        kept_memories=phase.kept_memories,
        kept_read_ports=phase.kept_read_ports,
        # Abstract models over-approximate: counterexamples there are not
        # trustworthy, so replay-validation is pointless.
        validate_cex=False,
    )
    engine = BmcEngine(design, property_name, proof_opts)
    result = engine.run()
    status = result.status
    if status == CEX and not engine.session.is_concrete():
        status = "abstract-cex"
    return PbaVerification(phase=phase, proof_result=result, status=status,
                           minimization=minimization, rounds=rounds,
                           converged=converged)
