"""Result and statistics containers for BMC runs."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.sim.trace import Trace

#: Run outcomes.  For ``invariant`` properties: PROOF means the property
#: holds in all reachable states; CEX is a counterexample trace.  For
#: ``reach`` properties the same statuses read as: PROOF = target
#: unreachable, CEX = witness trace found.
PROOF = "proof"
CEX = "cex"
BOUNDED = "bounded"
TIMEOUT = "timeout"
#: A per-job resource quota (memory, clause+var watermark, or wall
#: budget) tripped: the run aborted *cleanly at depth granularity* and
#: reports the deepest fully-checked depth — "no counterexample up to
#: ``depth``, budget exhausted".  ``depth == -1`` (or ``window lo - 1``)
#: means the quota tripped before any depth completed.  Unlike TIMEOUT
#: (a mid-check abort at the depth being *attempted*), a DEGRADED
#: result's depth is a sound bound that window merging can fold in.
DEGRADED = "degraded"


@dataclass
class BmcRunStats:
    """Measured effort of a BMC run (substitute for the paper's sec/MB)."""

    wall_time_s: float = 0.0
    time_per_depth: list[float] = field(default_factory=list)
    sat_vars: int = 0
    sat_clauses: int = 0
    solver: dict = field(default_factory=dict)
    emm_clauses: int = 0
    emm_gates: int = 0
    emm_vars: int = 0
    #: EMM address comparisons answered from the comparator cache /
    #: folded to constants (summed over memories; see
    #: :mod:`repro.emm.addrcmp`).
    emm_addr_eq_cache_hits: int = 0
    emm_addr_eq_folded: int = 0
    #: Comparator hits answered by a cache entry another memory encoded
    #: (the session-scoped comparator registry); a subset of the
    #: cache-hit counters above.
    cross_mem_cmp_hits: int = 0
    #: Unlabelled clauses seen across this run's PBA unsat cores; when
    #: nonzero the latch/memory reason lists are not exhaustive and the
    #: PBA minimizer refuses to shrink on them.
    core_unlabeled: int = 0
    #: Cross-frame chain-suffix sharing: EMM mux-chain stages answered
    #: entirely by the strash layer, equation-(6) pairs pruned on a
    #: folded-FALSE comparator, and fall-through reads merged into an
    #: existing record on fold-TRUE (summed over memories).
    emm_chain_suffix_hits: int = 0
    emm_init_pairs_pruned: int = 0
    emm_init_records_merged: int = 0
    #: Structural-hashing savings *attributed to EMM constraint
    #: construction* (summed over memories): AND cones and gate triples
    #: answered from the hash tables while an EMM encoder built its
    #: chain, and requests folded away by constant/idempotence rules.
    #: Fed by the gate encoding only (the hybrid encoding emits CNF
    #: directly); a subset of the run-wide ``strash_hits`` /
    #: ``strash_folds`` below.
    emm_strash_hits: int = 0
    emm_strash_folds: int = 0
    #: Structural-hashing savings of the whole run: AND requests answered
    #: from the AIG hash table, and AND requests folded to constants
    #: (:mod:`repro.aig.aig`).
    strash_hits: int = 0
    strash_folds: int = 0
    #: AND nodes in the final AIG (after strashing).
    aig_nodes: int = 0
    #: Mux/xor shapes the Tseitin emitter lowered to the native
    #: 1-var/4-clause ITE form instead of three AND triples
    #: (:class:`repro.aig.tseitin.CnfEmitter`).
    ite_lowered: int = 0
    peak_rss_mb: float = 0.0
    #: Wall-clock phase breakdown, populated only under
    #: ``BmcOptions.profile`` (CLI ``--profile``): scheduler-level
    #: ``encode`` vs ``solve`` phases as ``{"s": seconds, "n": calls}``
    #: and the cyclic-GC pauses within them as ``gc`` (n = collections),
    #: plus the solver's internal propagate/analyze/decide/backtrack/
    #: reduce/simplify times under ``solver``, and under ``kernel``
    #: whether its hot loops ran compiled (``"native"``) or in Python
    #: (``"python"``).  Empty when profiling is off.
    profile: dict = field(default_factory=dict)
    #: Which abort limit fired on a TIMEOUT outcome: ``"wall"``
    #: (``BmcOptions.timeout_s``, enforced as an in-check deadline) or
    #: ``"conflicts"`` (``max_conflicts_per_check``); None when no limit
    #: tripped.
    limit_tripped: Optional[str] = None
    #: Which per-job quota produced a DEGRADED outcome: ``"mem"``
    #: (``BmcOptions.mem_quota_mb``, RSS poll), ``"clauses"``
    #: (``clause_var_quota``, the encoding watermark inside
    #: ``EncodingSession.extend_to``) or ``"wall"``
    #: (``wall_quota_s``, the per-depth-window wall budget); None when
    #: no quota tripped.
    quota_tripped: Optional[str] = None

    def summary(self) -> str:
        return (f"{self.wall_time_s:.2f}s, {self.sat_vars} vars, "
                f"{self.sat_clauses} clauses, {self.peak_rss_mb:.0f} MB peak")

    def to_dict(self) -> dict:
        return dict(self.__dict__, solver=dict(self.solver),
                    time_per_depth=list(self.time_per_depth),
                    profile=dict(self.profile))


@dataclass
class BmcResult:
    """Outcome of verifying one property with one engine configuration."""

    status: str  # PROOF | CEX | BOUNDED | TIMEOUT
    property_name: str
    property_kind: str  # 'invariant' | 'reach'
    depth: int
    method: Optional[str] = None  # 'forward' | 'backward' for proofs
    trace: Optional[Trace] = None
    trace_validated: Optional[bool] = None
    #: Accumulated latch reasons LR_i per depth (PBA runs only).
    latch_reasons: list[frozenset[str]] = field(default_factory=list)
    #: Memory modules whose EMM constraints appeared in unsat cores, per depth.
    memory_reasons: list[frozenset[str]] = field(default_factory=list)
    stats: BmcRunStats = field(default_factory=BmcRunStats)

    @property
    def proved(self) -> bool:
        return self.status == PROOF

    @property
    def falsified(self) -> bool:
        return self.status == CEX

    def to_dict(self) -> dict:
        """JSON-ready form — what service workers and ``--json`` emit.

        Frozensets become sorted lists so the output is deterministic and
        round-trippable; the trace uses :meth:`repro.sim.trace.Trace.to_dict`.
        """
        return {
            "status": self.status,
            "property_name": self.property_name,
            "property_kind": self.property_kind,
            "depth": self.depth,
            "method": self.method,
            "trace": None if self.trace is None else self.trace.to_dict(),
            "trace_validated": self.trace_validated,
            "latch_reasons": [sorted(r) for r in self.latch_reasons],
            "memory_reasons": [sorted(r) for r in self.memory_reasons],
            "stats": self.stats.to_dict(),
        }

    def describe(self) -> str:
        """Human wording adjusted for the property kind."""
        kind = self.property_kind
        if self.status == PROOF:
            what = "unreachable" if kind == "reach" else "proved"
            return (f"{self.property_name}: {what} by {self.method} induction "
                    f"at depth {self.depth} ({self.stats.summary()})")
        if self.status == CEX:
            what = "witness" if kind == "reach" else "counterexample"
            return (f"{self.property_name}: {what} of length {self.depth + 1} "
                    f"({self.stats.summary()})")
        if self.status == TIMEOUT:
            return f"{self.property_name}: timeout at depth {self.depth}"
        if self.status == DEGRADED:
            checked = ("nothing checked" if self.depth < 0
                       else f"no {'witness' if kind == 'reach' else 'counterexample'} "
                            f"up to depth {self.depth}")
            why = (f"{self.stats.quota_tripped} quota exhausted"
                   if self.stats.quota_tripped else "window coverage incomplete")
            return (f"{self.property_name}: degraded "
                    f"({why}, {checked}; {self.stats.summary()})")
        return (f"{self.property_name}: no conclusion within bound "
                f"{self.depth} ({self.stats.summary()})")
