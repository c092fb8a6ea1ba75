"""The BMC check scheduler: Figures 1, 2 and 3 of the paper as one loop.

The encoding lives in :class:`repro.bmc.session.EncodingSession` — one
incremental solver whose initial-state and loop-free-path clauses carry
activation literals (``a_init``, ``a_lfp``, ``a_meminit``).  The engine
is the *scheduler* on top: it walks depths and runs the three checks of
BMC-3 as assumption sets over the session's growing CNF:

* forward termination   — assume ``[a_init, LFP_i]``                (line 6)
* backward termination  — assume ``[LFP_i, P_0..P_{i-1}, !P_i]``    (line 7)
* falsification         — assume ``[a_init, !P_i]``                 (line 9)

``LFP_i`` is the list of *per-frame* loop-free-path guards for frames
``<= i`` (:meth:`EncodingSession.lfp_assumptions`) — never a global
literal, which on a shared session would force loop-freedom over frames
a sibling property encoded beyond i.

Because checks are pure assumption sets, several engines (one per
property) may share one session — N properties pay for one unrolled
CNF.  A fresh engine on a fresh session reproduces the historical
monolithic behaviour bit-for-bit.

Proof-based abstraction (lines 11-12) reads the provenance labels of the
unsat core of each falsification check and accumulates latch reasons.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

from repro.bmc.counterexample import extract_trace
from repro.bmc.results import (BOUNDED, CEX, DEGRADED, PROOF, TIMEOUT,
                               BmcResult, BmcRunStats)
from repro.bmc.session import EncodingSession, QuotaExceededError
from repro.design.netlist import Design
from repro.perf import (PhaseTimers, current_rss_mb, peak_rss_mb,
                        solver_phase_times)


@dataclass(frozen=True)
class BmcOptions:
    """Engine configuration; the presets below match the paper's figures."""

    max_depth: int = 60
    #: Run the forward/backward induction termination checks (BMC-1/BMC-3).
    find_proof: bool = True
    #: Collect unsat-core latch reasons per depth (enables proof logging).
    pba: bool = False
    #: Constrain memory reads via EMM.  Must be True when the design has
    #: memories; explicit baselines expand memories away first.
    use_emm: bool = True
    #: EMM exclusive valid-read signals (Section 3 item 3); False = ablation.
    exclusivity: bool = True
    #: EMM constraint representation: the paper's "hybrid" CNF+gate
    #: encoding, or the "gates" purely circuit-based one it compares
    #: against in Section 3's closing paragraph.
    emm_encoding: str = "hybrid"
    #: Equation (6) arbitrary-initial-state consistency; False = ablation.
    init_consistency: bool = True
    #: AIG-routed hybrid chain back-end: the hybrid EMM encoder builds
    #: its equation-(4)/(5) forwarding chain and read-data muxes on the
    #: structurally hashed AIG over aliased comparator/port literals
    #: (the chain builder shared with the gate encoding), so recurring
    #: address cones plateau instead of re-emitting raw CNF per frame.
    #: False is the paper's hand-written CNF emission — the closed-form
    #: baseline for the accounting tests and the C5 bench.  No effect on
    #: ``emm_encoding="gates"`` (always AIG) or ``exclusivity=False``
    #: (no chain to route).
    emm_hybrid_strash: bool = True
    #: Latch-based abstraction: latches to keep (None = all).
    kept_latches: Optional[frozenset[str]] = None
    #: Memory abstraction: memories to keep EMM constraints for (None = all).
    kept_memories: Optional[frozenset[str]] = None
    #: Port-level abstraction (Section 4.3): read ports to keep per kept
    #: memory, e.g. ``{"table": frozenset({0, 2})}``; unlisted memories
    #: keep all their ports.  Dropped ports' RD words stay free.
    kept_read_ports: Optional[dict] = None
    #: Groups of arbitrary-init memories declared to hold the *same*
    #: unknown initial contents — equation (6) consistency is enforced
    #: across each group, not just within one memory.  Used by miters
    #: (:func:`repro.design.equiv.check_equivalence`); all memories in a
    #: group must share address and data widths.
    shared_init_memories: tuple[frozenset[str], ...] = ()
    #: Replay counterexamples on the simulator when the model is concrete.
    validate_cex: bool = True
    #: Abort knobs.  ``timeout_s`` is enforced *inside* checks: the
    #: remaining wall time becomes a per-``solve()`` deadline the CDCL
    #: loop polls on stepped conflict counts, so one hard check cannot
    #: blow through the budget; ``BmcRunStats.limit_tripped`` records
    #: which limit actually fired.
    timeout_s: Optional[float] = None
    max_conflicts_per_check: Optional[int] = None
    #: Per-job quotas with graceful degradation.  Unlike the abort knobs
    #: above (which surface as TIMEOUT at the depth being attempted), a
    #: tripped quota ends the run *cleanly at depth granularity* with a
    #: DEGRADED result whose depth is the deepest fully-checked depth —
    #: a sound "no CEX up to depth d, budget exhausted" partial answer
    #: that window merging folds in.  ``mem_quota_mb`` polls the
    #: process's current RSS between depths; ``clause_var_quota`` is a
    #: watermark on the session's clauses+variables enforced between
    #: frames inside ``EncodingSession.extend_to``; ``wall_quota_s`` is
    #: a wall budget for this run's depth window, also capping each
    #: solve's deadline so one hard check cannot blow far past it.  All
    #: three are run knobs (excluded from :meth:`encoding_key`).
    mem_quota_mb: Optional[float] = None
    clause_var_quota: Optional[int] = None
    wall_quota_s: Optional[float] = None
    #: Collect wall-clock phase breakdowns into
    #: :attr:`repro.bmc.results.BmcRunStats.profile`: scheduler-level
    #: encode vs solve, plus the solver's internal
    #: propagate/analyze/reduce/simplify split.  A *run* knob (CLI
    #: ``--profile``): it changes what is measured, never what is
    #: encoded, so it is excluded from :meth:`encoding_key`.
    profile: bool = False

    def encoding_key(self) -> tuple:
        """Hashable key of every field that shapes the *encoding*.

        Two options values with equal keys produce literal-for-literal
        identical sessions, so a cached session may serve either; the
        per-run knobs (``max_depth``, ``timeout_s``,
        ``max_conflicts_per_check``, ``validate_cex``, ``profile`` and
        the ``mem_quota_mb``/``clause_var_quota``/``wall_quota_s``
        quotas) are excluded.
        """
        ports = self.kept_read_ports
        ports_key = (None if ports is None else
                     tuple(sorted((name, tuple(sorted(idx)))
                                  for name, idx in ports.items())))
        groups_key = tuple(sorted(tuple(sorted(g))
                                  for g in self.shared_init_memories))
        return (self.find_proof, self.pba, self.use_emm, self.exclusivity,
                self.emm_encoding, self.init_consistency,
                self.emm_hybrid_strash, self.kept_latches,
                self.kept_memories, ports_key, groups_key)


def bmc1(**kw) -> BmcOptions:
    """Figure 1: SAT-based BMC with proofs and PBA (no EMM constraints)."""
    kw.setdefault("use_emm", False)
    kw.setdefault("find_proof", True)
    kw.setdefault("pba", True)
    return BmcOptions(**kw)


def bmc2(**kw) -> BmcOptions:
    """Figure 2: BMC with EMM, falsification only."""
    kw.setdefault("use_emm", True)
    kw.setdefault("find_proof", False)
    kw.setdefault("pba", False)
    return BmcOptions(**kw)


def bmc3(**kw) -> BmcOptions:
    """Figure 3: BMC with EMM, induction proofs and PBA."""
    kw.setdefault("use_emm", True)
    kw.setdefault("find_proof", True)
    kw.setdefault("pba", True)
    return BmcOptions(**kw)


class _RunState:
    """Mutable per-run bookkeeping shared by :meth:`BmcEngine.run` and the
    depth-major :func:`verify_many` scheduler (one instance per engine)."""

    __slots__ = ("stats", "t_start", "deadline", "budget", "timers",
                 "forward_memo", "quota_deadline")

    def __init__(self, stats: BmcRunStats, t_start: float,
                 deadline: Optional[float], budget: Optional[int],
                 timers: Optional[PhaseTimers],
                 forward_memo: Optional[dict],
                 quota_deadline: Optional[float] = None) -> None:
        self.stats = stats
        self.t_start = t_start
        self.deadline = deadline
        self.budget = budget
        self.timers = timers
        self.forward_memo = forward_memo
        # Wall-quota deadline (BmcOptions.wall_quota_s): like `deadline`
        # it caps each solve, but tripping it degrades at the previous
        # depth instead of timing out at the attempted one.
        self.quota_deadline = quota_deadline

    def solve_deadline(self) -> Optional[float]:
        if self.deadline is None:
            return self.quota_deadline
        if self.quota_deadline is None:
            return self.deadline
        return min(self.deadline, self.quota_deadline)

    def quota_deadline_binding(self) -> bool:
        """True when the wall *quota* is the deadline a solve just hit."""
        return (self.quota_deadline is not None
                and (self.deadline is None
                     or self.quota_deadline <= self.deadline))


class BmcEngine:
    """Schedules the checks for one property against an encoding session.

    Without an explicit ``session`` the engine builds a private one —
    the historical one-engine-per-property behaviour.  With a shared
    session, the engine runs its checks over the session's CNF; any
    number of engines (one per property) may interleave on one session
    as long as their options agree on
    :meth:`BmcOptions.encoding_key`.
    """

    def __init__(self, design: Design, property_name: str,
                 options: Optional[BmcOptions] = None,
                 session: Optional[EncodingSession] = None) -> None:
        if session is None:
            session = EncodingSession(design, options)
        else:
            opts = options or session.options
            if opts.encoding_key() != session.options.encoding_key():
                raise ValueError(
                    "engine options disagree with the shared session's "
                    "encoding (see BmcOptions.encoding_key)")
            if design is not session.design:
                raise ValueError(
                    "shared session belongs to a different Design object; "
                    "schedule against session.design")
        self.session = session
        self.design = session.design
        self.options = options or session.options
        self.prop = self.design.properties[property_name]
        # Per-run PBA reason accumulators (engine-local; the session is
        # shared, the reasons are this property's).
        self._lr: list[frozenset[str]] = []
        self._mr: list[frozenset[str]] = []
        # Unlabelled clauses seen in this run's PBA cores: when nonzero
        # the reason lists are not exhaustive and the minimizer refuses
        # to treat them as such (satellite of the multi-label work).
        self._core_unlabeled = 0

    # -- session views (the extraction/PBA layers address the engine) ------

    @property
    def solver(self):
        return self.session.solver

    @property
    def aig(self):
        return self.session.aig

    @property
    def emitter(self):
        return self.session.emitter

    @property
    def unroller(self):
        return self.session.unroller

    @property
    def emms(self):
        return self.session.emms

    @property
    def kept_memories(self) -> frozenset[str]:
        return self.session.kept_memories

    @property
    def a_init(self) -> int:
        return self.session.a_init

    @property
    def a_lfp(self) -> int:
        return self.session.a_lfp

    @property
    def a_meminit(self) -> int:
        return self.session.a_meminit

    # -- main loop ---------------------------------------------------------

    def run(self, stop_check=None,
            window: Optional[tuple[int, int]] = None) -> BmcResult:
        """Run the BMC loop up to ``max_depth``; returns a :class:`BmcResult`.

        ``stop_check(engine, depth)`` may end the loop early (status
        BOUNDED) — the PBA driver uses it to stop once the latch-reason
        set has been stable for the stability depth.

        ``window=(lo, hi)`` restricts which depths are *checked* (the
        service layer shards depth ranges across workers); frames below
        ``lo`` are still encoded — soundness of a check at depth i never
        depends on earlier checks, only on the encoding.
        """
        opts = self.options
        lo, hi = (0, opts.max_depth) if window is None else window
        if not 0 <= lo <= hi:
            raise ValueError(f"bad depth window ({lo}, {hi})")
        rs = self._begin_run()
        for i in range(lo, hi + 1):
            tripped = self._quota_trip(rs)
            if tripped is not None:
                return self._finish_degraded(rs, i - 1, tripped)
            result = self._step_depth(rs, i)
            if result is not None:
                return result
            if stop_check is not None and stop_check(self, i):
                return self._finish(BOUNDED, i, rs, None)
            if rs.deadline is not None and time.monotonic() > rs.deadline:
                rs.stats.limit_tripped = "wall"
                return self._finish(TIMEOUT, i, rs, None)
        return self._finish(BOUNDED, hi, rs, None)

    # -- run scaffolding (shared with the verify_many scheduler) -------------

    def _begin_run(self, forward_memo: Optional[dict] = None) -> _RunState:
        """Start a run: stats, deadline, conflict budget, profiling.

        ``forward_memo`` (depth -> SolveResult) lets the depth-major
        :func:`verify_many` scheduler share forward-termination checks
        across engines on one session — the check assumes only
        ``[a_init, a_meminit] + LFP_i`` and is property-independent.
        """
        opts = self.options
        t_start = time.monotonic()
        deadline = (t_start + opts.timeout_s
                    if opts.timeout_s is not None else None)
        quota_deadline = (t_start + opts.wall_quota_s
                          if opts.wall_quota_s is not None else None)
        timers = PhaseTimers() if opts.profile else None
        if opts.profile:
            self.solver.profile = True
        return _RunState(BmcRunStats(), t_start, deadline,
                         opts.max_conflicts_per_check, timers, forward_memo,
                         quota_deadline)

    def _quota_trip(self, rs: _RunState) -> Optional[str]:
        """Which quota (if any) bars starting another depth's checks."""
        opts = self.options
        if (rs.quota_deadline is not None
                and time.monotonic() > rs.quota_deadline):
            return "wall"
        if (opts.mem_quota_mb is not None
                and current_rss_mb() > opts.mem_quota_mb):
            return "mem"
        if (opts.clause_var_quota is not None
                and self.session.clause_var_total() > opts.clause_var_quota):
            return "clauses"
        return None

    def _solve(self, rs: _RunState, assumps: list[int]):
        solver = self.session.solver
        deadline = rs.solve_deadline()
        if rs.timers is None:
            r = solver.solve(assumps, rs.budget, deadline)
        else:
            with rs.timers.measure("solve"):
                r = solver.solve(assumps, rs.budget, deadline)
        if r.unknown:
            rs.stats.limit_tripped = ("wall" if r.limit == "deadline"
                                      else "conflicts")
        return r

    def _step_depth(self, rs: _RunState, i: int) -> Optional[BmcResult]:
        """Run one depth's checks.  Returns the final result if the run
        concluded at this depth, else None (depth time recorded)."""
        opts = self.options
        session = self.session
        t_depth = time.monotonic()
        try:
            if rs.timers is None:
                session.extend_to(i, opts.clause_var_quota)
                p = session.p_lits(self.prop.name, i)
            else:
                with rs.timers.measure("encode"):
                    session.extend_to(i, opts.clause_var_quota)
                    p = session.p_lits(self.prop.name, i)
        except QuotaExceededError as exc:
            return self._finish_degraded(rs, i - 1, exc.kind)
        if opts.find_proof:
            lfp = session.lfp_assumptions(i)
            memo = rs.forward_memo
            r = None if memo is None else memo.get(i)
            if r is None:
                r = self._solve(rs,
                                [session.a_init, session.a_meminit] + lfp)
                if memo is not None and not r.unknown:
                    # Only definitive verdicts are shared; an unknown
                    # (limit-tripped) result stays private to this run.
                    memo[i] = r
            if r.unknown:
                return self._abort(rs, i, t_depth)
            if not r.sat:
                return self._finish(PROOF, i, rs, t_depth, method="forward")
            # Backward induction: arbitrary start state, so neither
            # a_init nor a_meminit is assumed — the memory fall-through
            # stays symbolic (Section 4.2).
            r = self._solve(rs, lfp + p[:i] + [-p[i]])
            if r.unknown:
                return self._abort(rs, i, t_depth)
            if not r.sat:
                return self._finish(PROOF, i, rs, t_depth, method="backward")
        r = self._solve(rs, [session.a_init, session.a_meminit, -p[i]])
        if r.unknown:
            return self._abort(rs, i, t_depth)
        if r.sat:
            return self._finish(CEX, i, rs, t_depth)
        if opts.pba:
            self._collect_reasons(i)
        # The depth's time is recorded exactly once: here for depths the
        # run continues past, inside _finish for early-return paths
        # (which pass t_depth); continuation-level finishes pass None so
        # the final depth is never double-counted.
        rs.stats.time_per_depth.append(time.monotonic() - t_depth)
        return None

    # -- helpers -------------------------------------------------------------

    def _abort(self, rs: _RunState, i: int,
               t_depth: Optional[float]) -> BmcResult:
        """Finish after an unknown solve: TIMEOUT at the attempted depth,
        or — when the *wall quota* was the deadline that fired — a clean
        DEGRADED result at the last fully-checked depth."""
        if rs.stats.limit_tripped == "wall" and rs.quota_deadline_binding():
            rs.stats.limit_tripped = None
            return self._finish_degraded(rs, i - 1, "wall")
        return self._finish(TIMEOUT, i, rs, t_depth)

    def _finish_degraded(self, rs: _RunState, depth: int,
                         kind: str) -> BmcResult:
        """Quota trip: sound partial answer at the deepest checked depth.

        ``depth`` may be ``lo - 1`` (``-1`` for unwindowed runs) when the
        quota tripped before any depth completed — "nothing checked"."""
        rs.stats.quota_tripped = kind
        return self._finish(DEGRADED, depth, rs, None)

    def _collect_reasons(self, i: int) -> None:
        labels = self.solver.core_labels()
        self._core_unlabeled += self.solver.core_unlabeled_count()
        latches = frozenset(lab[1] for lab in labels
                            if isinstance(lab, tuple) and lab[0] in ("init", "link"))
        mems = frozenset(lab[1] for lab in labels
                         if isinstance(lab, tuple) and lab[0] == "emm")
        prev_l = self._lr[-1] if self._lr else frozenset()
        prev_m = self._mr[-1] if self._mr else frozenset()
        self._lr.append(prev_l | latches)
        self._mr.append(prev_m | mems)

    def _finish(self, status: str, depth: int, rs: _RunState,
                t_depth: Optional[float],
                method: Optional[str] = None) -> BmcResult:
        """Build the result.  ``t_depth`` is the final depth's start time
        when its duration has not been appended yet, or None when the run
        loop already recorded it (keeps ``len(time_per_depth) == depth+1``).

        Size/effort counters are *session-wide*: on a shared session they
        reflect the one CNF all properties amortize, which is exactly
        what the C6 bench compares against per-property fresh engines.
        """
        session = self.session
        stats = rs.stats
        if t_depth is not None:
            stats.time_per_depth.append(time.monotonic() - t_depth)
        stats.wall_time_s = time.monotonic() - rs.t_start
        stats.sat_vars = self.solver.num_vars
        stats.sat_clauses = self.solver.num_clauses
        stats.solver = self.solver.stats.snapshot()
        emms = session.emms.values()
        stats.emm_clauses = sum(e.counters.total_clauses for e in emms)
        stats.emm_gates = sum(e.counters.total_gates for e in emms)
        stats.emm_vars = sum(e.counters.vars_added for e in emms)
        stats.emm_addr_eq_cache_hits = sum(e.counters.addr_eq_cache_hits
                                           for e in emms)
        stats.emm_addr_eq_folded = sum(e.counters.addr_eq_folded
                                       for e in emms)
        stats.cross_mem_cmp_hits = sum(e.counters.cross_mem_cmp_hits
                                       for e in emms)
        stats.core_unlabeled = self._core_unlabeled
        stats.emm_chain_suffix_hits = sum(e.counters.chain_suffix_hits
                                          for e in emms)
        stats.emm_init_pairs_pruned = sum(e.counters.init_pairs_pruned
                                          for e in emms)
        stats.emm_init_records_merged = sum(e.counters.init_records_merged
                                            for e in emms)
        stats.emm_strash_hits = sum(e.counters.strash_hits for e in emms)
        stats.emm_strash_folds = sum(e.counters.strash_folds for e in emms)
        stats.strash_hits = session.aig.strash_hits + session.emitter.strash_hits
        stats.strash_folds = session.aig.strash_folds
        stats.aig_nodes = session.aig.num_ands
        stats.ite_lowered = session.emitter.ites_emitted
        stats.peak_rss_mb = peak_rss_mb()
        if rs.timers is not None:
            # Solver-internal times are session-wide cumulative, like the
            # other solver counters; the scheduler phases are this run's.
            stats.profile = {
                "phases": rs.timers.snapshot(),
                "solver": solver_phase_times(stats.solver),
            }
        trace = None
        validated = None
        if status == CEX:
            trace, validated = extract_trace(self, depth,
                                             validate=self.options.validate_cex)
        return BmcResult(
            status=status,
            property_name=self.prop.name,
            property_kind=self.prop.kind,
            depth=depth,
            method=method,
            trace=trace,
            trace_validated=validated,
            latch_reasons=list(self._lr),
            memory_reasons=list(self._mr),
            stats=stats,
        )

    # -- introspection used by the PBA driver and counterexample extraction --

    @property
    def latch_reasons(self) -> list[frozenset[str]]:
        return self._lr

    @property
    def memory_reasons(self) -> list[frozenset[str]]:
        return self._mr

    def is_concrete(self) -> bool:
        """True when no latch or memory has been abstracted away."""
        return self.session.is_concrete()


def verify(design: Design, property_name: str,
           options: Optional[BmcOptions] = None) -> BmcResult:
    """One-call convenience wrapper: build an engine and run it."""
    return BmcEngine(design, property_name, options).run()


def verify_many(design: Design, property_names=None,
                options: Optional[BmcOptions] = None,
                session: Optional[EncodingSession] = None,
                ) -> dict[str, BmcResult]:
    """Verify several properties over **one** shared encoding session.

    The scheduler is *depth-major*: at each depth the frame is encoded
    once and every still-live property's ``P_i`` cone is emitted before
    any check runs, then each live engine steps its forward/backward/
    falsification checks for that depth.  That ordering buys two solver-
    level wins on top of the shared CNF:

    * **Forward-check memoization** — the forward termination check
      assumes only ``[a_init, a_meminit] + LFP_i`` and is property-
      independent, so its definitive result at each depth is solved once
      and shared by every engine (``_begin_run``'s ``forward_memo``).
      The memo is local to this call: single-engine :meth:`BmcEngine.run`
      stays bit-identical to its historical behaviour.
    * **Assumption-trail reuse** — the solver keeps the propagated
      ``[a_init, a_meminit]`` assumption prefix (the whole initial-state
      cone) assigned across consecutive falsification checks instead of
      re-propagating it per property
      (``SolverStats.trail_saved_levels``).  Without proof logging the
      prefix also survives the next depth's clause additions, which are
      attached against it, so the cone is propagated once per session
      rather than once per depth.

    Verdicts are identical to per-property :func:`verify` runs — checks
    are assumption sets, invisible to each other, and each engine still
    runs its own checks in the forward -> backward -> falsification
    order.  ``property_names`` defaults to all properties, sorted.
    """
    if session is None:
        session = EncodingSession(design, options)
    names = (sorted(design.properties) if property_names is None
             else list(property_names))
    engines = {name: BmcEngine(session.design, name, options,
                               session=session)
               for name in names}
    if not engines:
        return {}
    opts = options or session.options
    forward_memo: dict = {}
    states = {name: engines[name]._begin_run(forward_memo)
              for name in names}
    results: dict[str, BmcResult] = {}
    live = list(names)
    for i in range(0, opts.max_depth + 1):
        if not live:
            break
        try:
            session.extend_to(i, opts.clause_var_quota)
            for name in live:
                # Emit every live property's cone up front: later checks
                # at this depth then add no clauses, so they only extend
                # the solver's saved assumption trail, never cut it back.
                session.p_lits(name, i)
        except QuotaExceededError as exc:
            # The shared encoding hit its watermark: every live property
            # degrades together at the last fully-encoded depth.
            for name in list(live):
                results[name] = engines[name]._finish_degraded(
                    states[name], i - 1, exc.kind)
                live.remove(name)
            break
        for name in list(live):
            engine = engines[name]
            rs = states[name]
            tripped = engine._quota_trip(rs)
            if tripped is not None:
                result = engine._finish_degraded(rs, i - 1, tripped)
            else:
                result = engine._step_depth(rs, i)
            if result is None and rs.deadline is not None \
                    and time.monotonic() > rs.deadline:
                rs.stats.limit_tripped = "wall"
                result = engine._finish(TIMEOUT, i, rs, None)
            if result is not None:
                results[name] = result
                live.remove(name)
    for name in live:
        results[name] = engines[name]._finish(BOUNDED, opts.max_depth,
                                              states[name], None)
    return {name: results[name] for name in names}
