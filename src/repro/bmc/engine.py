"""The BMC check scheduler: Figures 1, 2 and 3 of the paper as one loop.

The encoding lives in :class:`repro.bmc.session.EncodingSession` — one
incremental solver whose initial-state and loop-free-path clauses carry
activation literals (``a_init``, ``a_meminit`` and the per-frame LFP
guards).  The engine is the *scheduler* on top: it walks depths and
runs the three checks of BMC-3 as assumption sets over the session's
growing CNF:

* forward termination   — assume ``[a_init, LFP_i]``                (line 6)
* backward termination  — assume ``[LFP_i, P_0..P_{i-1}, !P_i]``    (line 7)
* falsification         — assume ``[a_init, !P_i]``                 (line 9)

``LFP_i`` is the list of *per-frame* loop-free-path guards for frames
``<= i`` (:meth:`EncodingSession.lfp_assumptions`) — never a global
literal, which on a shared session would force loop-freedom over frames
a sibling property encoded beyond i.

Because checks are pure assumption sets, several engines (one per
property) may share one session — N properties pay for one unrolled
CNF.  One depth loop, :func:`_schedule`, serves every caller:
:meth:`BmcEngine.run` (behind :func:`verify`, the PBA driver and the
service's jobs) and :func:`verify_many`.

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
from repro.sat import solver as solver_mod


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
    #: EMM exclusive valid-read signals (Section 3 item 3); False = the
    #: naive eq-(3) ablation, hybrid encoding only.
    exclusivity: bool = True
    #: EMM constraint representation: the paper's "hybrid" CNF+gate
    #: encoding, or the "gates" purely circuit-based one it compares
    #: against in Section 3's closing paragraph.
    emm_encoding: str = "hybrid"
    #: Equation (6) arbitrary-initial-state consistency; False = ablation.
    init_consistency: bool = True
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
    #: propagate/analyze/decide/reduce/simplify split.  A *run* knob (CLI
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
                self.kept_latches, self.kept_memories, ports_key,
                groups_key)


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


class BmcEngine:
    """Schedules the checks for one property against an encoding session.

    Without an explicit ``session`` the engine builds a private one.
    With a shared session, the engine runs its checks over the session's
    CNF; any number of engines (one per property) may interleave on one
    session as long as their options agree on
    :meth:`BmcOptions.encoding_key`.

    The engine holds the state of its latest run (stats, deadlines,
    timers, PBA reason lists); every run starts by resetting it.
    """

    def __init__(self, design: Design, property_name: str,
                 options: Optional[BmcOptions] = None,
                 session: Optional[EncodingSession] = None) -> None:
        if session is None:
            session = EncodingSession(design, options)
        self.options = options or session.options
        if self.options.encoding_key() != session.options.encoding_key():
            raise ValueError(
                "engine options disagree with the shared session's "
                "encoding (see BmcOptions.encoding_key)")
        if design is not session.design:
            raise ValueError(
                "shared session belongs to a different Design object; "
                "schedule against session.design")
        self.session = session
        self.design = session.design
        self.prop = self.design.properties[property_name]
        self._begin_run({})

    def run(self, stop_check=None,
            window: Optional[tuple[int, int]] = None) -> BmcResult:
        """Run the BMC loop up to ``max_depth``; returns a :class:`BmcResult`.

        ``stop_check(engine, depth)`` may end the loop early (status
        BOUNDED) — the PBA driver uses it to stop once the latch-reason
        set has been stable for the stability depth.

        ``window=(lo, hi)`` restricts which depths are *checked* (the
        service layer shards depth ranges across workers); frames below
        ``lo`` are still encoded.  A CEX at depth i stands on its own,
        but a PROOF at depth i assumes no CEX exists below i: a window
        not starting at 0 yields a conditional verdict that only
        :func:`repro.service.merge_window_results` may combine with the
        windows below it.
        """
        lo, hi = (0, self.options.max_depth) if window is None else window
        return _schedule(self.session, [self], lo, hi, stop_check)[0]

    # -- run state and per-depth steps (driven by _schedule) -----------------

    def _begin_run(self, forward_memo: dict) -> None:
        """Reset the run state: stats, deadlines, timers, PBA reasons.

        ``forward_memo`` (depth -> SolveResult) is shared by every engine
        of one :func:`_schedule` call: the forward termination check
        assumes only ``[a_init, a_meminit] + LFP_i`` and is
        property-independent.
        """
        opts = self.options
        self.stats = BmcRunStats()
        self._t_start = time.monotonic()
        self._deadline = (self._t_start + opts.timeout_s
                          if opts.timeout_s is not None else None)
        # Wall-quota deadline (BmcOptions.wall_quota_s): like `_deadline`
        # it caps each solve, but tripping it degrades at the previous
        # depth instead of timing out at the attempted one.
        self._quota_deadline = (self._t_start + opts.wall_quota_s
                                if opts.wall_quota_s is not None else None)
        self._solve_deadline = min(
            (d for d in (self._deadline, self._quota_deadline)
             if d is not None), default=None)
        self._timers = PhaseTimers()
        self._forward_memo = forward_memo
        self.latch_reasons: list[frozenset[str]] = []
        self.memory_reasons: list[frozenset[str]] = []

    def _quota_trip(self) -> Optional[str]:
        """Which quota (if any) bars starting another depth's checks."""
        opts = self.options
        if (self._quota_deadline is not None
                and time.monotonic() > self._quota_deadline):
            return "wall"
        if (opts.mem_quota_mb is not None
                and current_rss_mb() > opts.mem_quota_mb):
            return "mem"
        if (opts.clause_var_quota is not None
                and self.session.clause_var_total() > opts.clause_var_quota):
            return "clauses"
        return None

    def _solve(self, assumps: list[int]):
        solver = self.session.solver
        with self._timers.measure("solve"):
            r = solver.solve(assumps, self.options.max_conflicts_per_check,
                             self._solve_deadline)
        if r.unknown:
            self.stats.limit_tripped = ("wall" if r.limit == "deadline"
                                        else "conflicts")
        return r

    def _step_depth(self, i: int, p: list[int],
                    encode_s: float) -> Optional[BmcResult]:
        """Run one depth's checks over the encoded frame ``i``.

        ``p`` is ``[P_0 .. P_i]``; ``encode_s`` is the depth's shared
        encode time, charged to this run's depth time and ``encode``
        phase.  Returns the final result if the run concluded at this
        depth, else None (depth time recorded)."""
        session = self.session
        t_depth = time.monotonic() - encode_s
        self._timers.add("encode", encode_s)
        if self.options.find_proof:
            lfp = session.lfp_assumptions(i)
            memo = self._forward_memo
            r = memo.get(i)
            if r is None:
                r = self._solve([session.a_init, session.a_meminit] + lfp)
                if not r.unknown:
                    # Only definitive verdicts are shared; an unknown
                    # (limit-tripped) result stays private to this run.
                    memo[i] = r
            if r.unknown:
                return self._abort(i, t_depth)
            if not r.sat:
                return self._finish(PROOF, i, t_depth, method="forward")
            # Backward induction: arbitrary start state, so neither
            # a_init nor a_meminit is assumed — the memory fall-through
            # stays symbolic (Section 4.2).
            r = self._solve(lfp + p[:i] + [-p[i]])
            if r.unknown:
                return self._abort(i, t_depth)
            if not r.sat:
                return self._finish(PROOF, i, t_depth, method="backward")
        r = self._solve([session.a_init, session.a_meminit, -p[i]])
        if r.unknown:
            return self._abort(i, t_depth)
        if r.sat:
            return self._finish(CEX, i, t_depth)
        if self.options.pba:
            self._collect_reasons()
        # The depth's time is recorded exactly once: here for depths the
        # run continues past, inside _finish for early-return paths
        # (which pass t_depth); continuation-level finishes pass None so
        # the final depth is never double-counted.
        self.stats.time_per_depth.append(time.monotonic() - t_depth)
        return None

    # -- helpers -------------------------------------------------------------

    def _abort(self, i: int, t_depth: Optional[float]) -> BmcResult:
        """Finish after an unknown solve: TIMEOUT at the attempted depth,
        or — when the *wall quota* was the deadline that fired — a clean
        DEGRADED result at the last fully-checked depth."""
        if (self.stats.limit_tripped == "wall"
                and self._quota_deadline is not None
                and self._quota_deadline == self._solve_deadline):
            self.stats.limit_tripped = None
            return self._finish_degraded(i - 1, "wall")
        return self._finish(TIMEOUT, i, t_depth)

    def _finish_degraded(self, depth: int, kind: str) -> BmcResult:
        """Quota trip: sound partial answer at the deepest checked depth.

        ``depth`` may be ``lo - 1`` (``-1`` for unwindowed runs) when the
        quota tripped before any depth completed — "nothing checked"."""
        self.stats.quota_tripped = kind
        return self._finish(DEGRADED, depth, None)

    def _collect_reasons(self) -> None:
        solver = self.session.solver
        labels = solver.core_labels()
        # Unlabelled core clauses: when nonzero the reason lists are not
        # exhaustive and the minimizer refuses to treat them as such.
        self.stats.core_unlabeled += solver.core_unlabeled_count()
        latches = frozenset(lab[1] for lab in labels
                            if isinstance(lab, tuple) and lab[0] in ("init", "link"))
        mems = frozenset(lab[1] for lab in labels
                         if isinstance(lab, tuple) and lab[0] == "emm")
        lr, mr = self.latch_reasons, self.memory_reasons
        lr.append((lr[-1] if lr else frozenset()) | latches)
        mr.append((mr[-1] if mr else frozenset()) | mems)

    def _finish(self, status: str, depth: int, t_depth: Optional[float],
                method: Optional[str] = None) -> BmcResult:
        """Build the result.  ``t_depth`` is the final depth's start time
        when its duration has not been appended yet, or None when the run
        loop already recorded it (keeps ``len(time_per_depth) == depth+1``).

        Size/effort counters are *session-wide*: on a shared session they
        reflect the one CNF all properties amortize, which is exactly
        what the C6 bench compares against per-property fresh engines.
        """
        session = self.session
        solver = session.solver
        stats = self.stats
        if t_depth is not None:
            stats.time_per_depth.append(time.monotonic() - t_depth)
        stats.wall_time_s = time.monotonic() - self._t_start
        stats.sat_vars = solver.num_vars
        stats.sat_clauses = solver.num_clauses
        stats.solver = solver.stats.snapshot()
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
        stats.emm_chain_suffix_hits = sum(e.counters.chain_suffix_hits
                                          for e in emms)
        stats.emm_init_pairs_pruned = sum(e.counters.init_pairs_pruned
                                          for e in emms)
        stats.emm_init_records_merged = sum(e.counters.init_records_merged
                                            for e in emms)
        stats.emm_strash_hits = sum(e.counters.strash_hits for e in emms)
        stats.emm_strash_folds = sum(e.counters.strash_folds for e in emms)
        stats.strash_hits = session.aig.strash_hits
        stats.strash_folds = session.aig.strash_folds
        stats.aig_nodes = session.aig.num_ands
        stats.ite_lowered = session.emitter.ites_emitted
        stats.peak_rss_mb = peak_rss_mb()
        if self.options.profile:
            # Solver-internal times are session-wide cumulative, like the
            # other solver counters; the scheduler phases are this run's.
            stats.profile = {
                "phases": self._timers.snapshot(),
                "solver": solver_phase_times(stats.solver),
                "kernel": "python" if solver_mod._kernel is None else "native",
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
            latch_reasons=list(self.latch_reasons),
            memory_reasons=list(self.memory_reasons),
            stats=stats,
        )


def _schedule(session: EncodingSession, engines: list[BmcEngine],
              lo: int, hi: int, stop_check=None) -> list[BmcResult]:
    """The BMC loop: check depths ``lo..hi`` for every engine on ``session``.

    Depth-major.  At each depth it

    1. checks every live run's quotas before encoding — a tripped quota
       ends that run DEGRADED at the previous, fully-checked depth;
    2. encodes the frame and every live property's ``P_i`` once, under
       one timer whose time is charged to every live run.  All ``P_i``
       are emitted before any check, so the checks at this depth add no
       clauses and only extend the solver's saved assumption trail;
    3. steps each live engine's forward, backward and falsification
       checks, then applies ``stop_check(engine, depth)`` and the run's
       ``timeout_s``.

    Returns the engines' results in order.  The solver's ``profile``
    flag is on while any engine profiles and restored afterwards, so a
    cached session does not keep timing later runs.
    """
    if not 0 <= lo <= hi:
        raise ValueError(f"bad depth window ({lo}, {hi})")
    forward_memo: dict = {}
    for engine in engines:
        engine._begin_run(forward_memo)
    solver = session.solver
    profile_before = solver.profile
    if any(engine.options.profile for engine in engines):
        solver.profile = True
    results: dict[BmcEngine, BmcResult] = {}
    live = list(engines)
    try:
        for i in range(lo, hi + 1):
            for engine in list(live):
                tripped = engine._quota_trip()
                if tripped is not None:
                    results[engine] = engine._finish_degraded(i - 1, tripped)
                    live.remove(engine)
            if not live:
                break
            # Only a multi-frame extension (frames below a window) can
            # cross the watermark here: the quota check above saw the
            # session under it.
            quota = min((e.options.clause_var_quota for e in live
                         if e.options.clause_var_quota is not None),
                        default=None)
            t_encode = time.monotonic()
            try:
                session.extend_to(i, quota)
                p_lits = [session.p_lits(e.prop.name, i) for e in live]
            except QuotaExceededError as exc:
                for engine in live:
                    results[engine] = engine._finish_degraded(i - 1, exc.kind)
                live = []
                break
            encode_s = time.monotonic() - t_encode
            for engine, p in list(zip(live, p_lits)):
                result = engine._step_depth(i, p, encode_s)
                if (result is None and stop_check is not None
                        and stop_check(engine, i)):
                    result = engine._finish(BOUNDED, i, None)
                if (result is None and engine._deadline is not None
                        and time.monotonic() > engine._deadline):
                    engine.stats.limit_tripped = "wall"
                    result = engine._finish(TIMEOUT, i, None)
                if result is not None:
                    results[engine] = result
                    live.remove(engine)
        for engine in live:
            results[engine] = engine._finish(BOUNDED, hi, None)
    finally:
        solver.profile = profile_before
    return [results[engine] for engine in engines]


def verify(design: Design, property_name: str,
           options: Optional[BmcOptions] = None) -> BmcResult:
    """One-call convenience wrapper: build an engine and run it."""
    return BmcEngine(design, property_name, options).run()


def verify_many(design: Design, property_names=None,
                options: Optional[BmcOptions] = None,
                session: Optional[EncodingSession] = None,
                ) -> dict[str, BmcResult]:
    """Verify several properties over **one** shared encoding session.

    One engine per property, all stepped by one :func:`_schedule` loop.
    Besides the shared CNF, sharing the loop buys two solver-level wins:

    * **Forward-check memoization** — the forward termination check
      assumes only ``[a_init, a_meminit] + LFP_i`` and is property-
      independent, so its definitive result at each depth is solved once
      and shared by every engine.
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
    if not names:
        return {}
    engines = [BmcEngine(session.design, name, options, session=session)
               for name in names]
    opts = options or session.options
    return dict(zip(names, _schedule(session, engines, 0, opts.max_depth)))
