"""Layer tracing installed from outside the package.

:class:`Tracer` replaces the public entry points of each layer of the
verification stack with thin wrappers that record spans, and puts the
originals back on :meth:`Tracer.restore`.  No file of the package is
edited; nothing is read from ``BmcRunStats.wall_time_s`` or
``BmcRunStats.profile`` (on a shared session those are session-wide
copies, not per-property figures).

A span's *self time* is its duration minus the time of the spans it
encloses, so self times of all spans partition the root span (the
verdict call).  Self time left on the root and on the PBA driver span is
reported as ``engine.self_s``: work no wrapped layer claims.

:class:`SessionRegistry` is the one hook also installed on untraced
runs: it keeps a reference to every ``EncodingSession`` built, so the
workload can sum final CNF sizes over distinct sessions.  It costs one
extra call per session, never per clause or per solve.
"""

from __future__ import annotations

import functools
import os
import time

#: Solver counters whose per-solve deltas the traced run sums.
SOLVER_COUNTERS = ("conflicts", "decisions", "propagations", "learned",
                   "deleted", "restarts", "trail_saved_levels",
                   "time_propagate_s", "time_analyze_s", "time_reduce_s",
                   "time_simplify_s")

#: Spans whose self time is glue no layer claims (engine.self_s).
GLUE_SPANS = ("verdict", "pba.phase")


def _patch(patches: list, owner, attr: str, replacement) -> None:
    patches.append((owner, attr, getattr(owner, attr)))
    setattr(owner, attr, replacement)


def _unpatch(patches: list) -> None:
    while patches:
        owner, attr, original = patches.pop()
        setattr(owner, attr, original)


class SessionRegistry:
    """Remembers every ``EncodingSession`` constructed while installed."""

    def __init__(self) -> None:
        self.sessions: list = []
        self._patches: list = []

    def install(self) -> None:
        from repro.bmc.session import EncodingSession

        original = EncodingSession.__init__
        sessions = self.sessions

        @functools.wraps(original)
        def init(session, *args, **kwargs):
            original(session, *args, **kwargs)
            sessions.append(session)

        _patch(self._patches, EncodingSession, "__init__", init)

    def restore(self) -> None:
        _unpatch(self._patches)

    def clause_var_total(self) -> int:
        return sum(s.clause_var_total() for s in self.sessions)


def session_counters(sessions) -> dict:
    """Structural counters summed over distinct sessions (exact counts)."""
    out = {"aig.nodes": 0, "aig.strash_hits": 0, "tseitin.ite_lowered": 0,
           "emm.clauses": 0, "emm.addr_eq_cache_hits": 0,
           "emm.addr_eq_folded": 0, "emm.cross_mem_cmp_hits": 0,
           "emm.chain_suffix_hits": 0, "cnf_clauses_vars": 0}
    for s in sessions:
        out["aig.nodes"] += s.aig.num_ands
        out["aig.strash_hits"] += s.aig.strash_hits
        out["tseitin.ite_lowered"] += s.emitter.ites_emitted
        out["cnf_clauses_vars"] += s.clause_var_total()
        for emm in s.emms.values():
            c = emm.counters
            out["emm.clauses"] += c.total_clauses
            out["emm.addr_eq_cache_hits"] += c.addr_eq_cache_hits
            out["emm.addr_eq_folded"] += c.addr_eq_folded
            out["emm.cross_mem_cmp_hits"] += c.cross_mem_cmp_hits
            out["emm.chain_suffix_hits"] += c.chain_suffix_hits
    return out


class Tracer:
    """Span accounting plus the wrappers that feed it."""

    def __init__(self) -> None:
        self._patches: list = []
        self.registry = SessionRegistry()
        self.reset()

    def reset(self) -> None:
        #: Open spans: ``[name, start, time covered by child spans]``.
        self._stack: list = []
        self.self_s: dict[str, float] = {}
        self.incl_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.solve_ms: list[float] = []
        self.solver = dict.fromkeys(SOLVER_COUNTERS, 0)
        self.counts = {"pba.core_unlabeled": 0, "cex.validated": 0}
        #: Per-job records returned by pooled service workers.
        self.jobs: list[dict] = []
        #: Service stream timeline (parent process).
        self.service: dict = {}

    # -- spans ---------------------------------------------------------------

    def enter(self, name: str) -> None:
        self._stack.append([name, time.perf_counter(), 0.0])

    def exit(self) -> float:
        name, start, children = self._stack.pop()
        dur = time.perf_counter() - start
        self.self_s[name] = self.self_s.get(name, 0.0) + dur - children
        self.incl_s[name] = self.incl_s.get(name, 0.0) + dur
        self.calls[name] = self.calls.get(name, 0) + 1
        if self._stack:
            self._stack[-1][2] += dur
        return dur

    def span(self, name: str, fn):
        """Wrap ``fn`` so each call is one span called ``name``."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.exit()

        return wrapper

    # -- wrappers --------------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced layer; :meth:`restore` undoes it."""
        import repro.bmc.engine as engine_mod
        import repro.pba.abstraction as pba_mod
        import repro.service.service as service_mod
        from repro.aig.tseitin import CnfEmitter
        from repro.bmc.induction import LoopFreeConstraints
        from repro.bmc.session import EncodingSession
        from repro.bmc.unroller import Unroller
        from repro.emm.forwarding import EmmMemory
        from repro.sat.solver import Solver
        from repro.service.service import VerificationService
        from repro.service.supervisor import PoolSupervisor

        p = self._patches
        self.registry.install()
        _patch(p, EncodingSession, "extend_to",
               self.span("encode.session", EncodingSession.extend_to))
        _patch(p, EncodingSession, "p_lits",
               self.span("encode.prop", EncodingSession.p_lits))
        _patch(p, Unroller, "add_frame",
               self.span("encode.unroll", Unroller.add_frame))
        _patch(p, LoopFreeConstraints, "add_frame",
               self.span("encode.lfp", LoopFreeConstraints.add_frame))
        _patch(p, EmmMemory, "add_frame", self._emm_wrapper(EmmMemory.add_frame))
        _patch(p, CnfEmitter, "sat_lit",
               self.span("tseitin", CnfEmitter.sat_lit))
        _patch(p, Solver, "add_clause",
               self.span("sat.add_clause", Solver.add_clause))
        _patch(p, Solver, "solve", self._solve_wrapper(Solver.solve))
        _patch(p, Solver, "core_labels",
               self.span("pba.core", Solver.core_labels))
        _patch(p, Solver, "core_unlabeled_count",
               self._unlabeled_wrapper(Solver.core_unlabeled_count))
        _patch(p, pba_mod, "run_pba_phase",
               self.span("pba.phase", pba_mod.run_pba_phase))
        _patch(p, engine_mod, "extract_trace",
               self._cex_wrapper(engine_mod.extract_trace))
        _patch(p, VerificationService, "stream",
               self._stream_wrapper(VerificationService.stream))
        _patch(p, VerificationService, "close",
               self.span("service", VerificationService.close))
        _patch(p, PoolSupervisor, "run",
               self._supervisor_wrapper(PoolSupervisor.run))
        # Pooled workers are forked after this point and inherit the
        # wrappers; each job ships its own span record back on the result.
        _patch(p, service_mod, "_worker_run",
               self._worker_wrapper(service_mod._worker_run))

    def restore(self) -> None:
        _unpatch(self._patches)
        self.registry.restore()

    def _emm_wrapper(self, fn):
        tracer = self

        @functools.wraps(fn)
        def add_frame(emm, k):
            tracer.enter("encode.emm." + emm.name)
            try:
                return fn(emm, k)
            finally:
                tracer.exit()

        return add_frame

    def _solve_wrapper(self, fn):
        tracer = self

        @functools.wraps(fn)
        def solve(solver, *args, **kwargs):
            st = solver.stats
            before = [getattr(st, k) for k in SOLVER_COUNTERS]
            tracer.enter("solve")
            try:
                return fn(solver, *args, **kwargs)
            finally:
                tracer.solve_ms.append(tracer.exit() * 1e3)
                acc = tracer.solver
                for k, b in zip(SOLVER_COUNTERS, before):
                    acc[k] += getattr(st, k) - b

        return solve

    def _unlabeled_wrapper(self, fn):
        tracer = self

        @functools.wraps(fn)
        def core_unlabeled_count(solver):
            n = fn(solver)
            tracer.counts["pba.core_unlabeled"] += n
            return n

        return core_unlabeled_count

    def _cex_wrapper(self, fn):
        tracer = self

        @functools.wraps(fn)
        def extract_trace(*args, **kwargs):
            tracer.enter("cex")
            try:
                trace, validated = fn(*args, **kwargs)
            finally:
                tracer.exit()
            if validated is True:
                tracer.counts["cex.validated"] += 1
            return trace, validated

        return extract_trace

    def _stream_wrapper(self, fn):
        tracer = self

        @functools.wraps(fn)
        def stream(svc, *args, **kwargs):
            timeline = tracer.service
            timeline.setdefault("workers", svc.jobs)
            t0 = time.perf_counter()
            tracer.enter("service")
            try:
                for record in fn(svc, *args, **kwargs):
                    now = time.perf_counter() - t0
                    key = "records." + record.status
                    timeline[key] = timeline.get(key, 0) + 1
                    if record.result is not None:
                        timeline.setdefault("first_result_s", now)
                    # The consumer's work between records is not the
                    # service's: close the span around each yield.
                    tracer.exit()
                    try:
                        yield record
                    finally:
                        tracer.enter("service")
            finally:
                tracer.exit()
                timeline["makespan_s"] = (timeline.get("makespan_s", 0.0)
                                          + time.perf_counter() - t0)

        return stream

    def _supervisor_wrapper(self, fn):
        tracer = self

        @functools.wraps(fn)
        def run(sup, jobs):
            # Every worker result passes through here, including those the
            # service later suppresses as cancelled (first CEX wins).
            for event in fn(sup, jobs):
                record = getattr(getattr(event, "result", None),
                                 "_perfbench_job", None)
                if record is not None:
                    tracer.jobs.append(record)
                yield event

        return run

    def _worker_wrapper(self, fn):
        tracer = self

        @functools.wraps(fn)
        def _worker_run(*args, **kwargs):
            # Runs in a pooled worker: start a fresh record for this job.
            # The session registry is kept, so a worker's cached session
            # built by an earlier job is still reported.
            tracer.reset()
            tracer.enter("service.job")
            try:
                result = fn(*args, **kwargs)
            finally:
                busy = tracer.exit()
            result._perfbench_job = {
                "pid": os.getpid(), "busy_s": busy,
                "self_s": dict(tracer.self_s), "incl_s": dict(tracer.incl_s),
                "calls": dict(tracer.calls), "solve_ms": list(tracer.solve_ms),
                "solver": dict(tracer.solver), "counts": dict(tracer.counts),
                "sessions": {str(id(s)): session_counters([s])
                             for s in tracer.registry.sessions},
            }
            return result

        return _worker_run
