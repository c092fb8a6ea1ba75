"""Sharded multi-property verification service.

The service turns the session/scheduler split of :mod:`repro.bmc` into
a system-level API: a request is a set of *(property × options ×
depth-window)* jobs over one design, sharded across worker processes
(``concurrent.futures.ProcessPoolExecutor``) or run inline, with
results streamed as they land.

Three behaviours the per-call :func:`repro.bmc.verify` cannot give:

* **session sharing** — every job of a worker process (or the inline
  path) runs against a :class:`repro.bmc.session.SessionCache`, so N
  properties of the same design under the same options share one
  unrolled CNF plus the solver's learned clauses;
* **first-CEX-wins** — once any job reports a counterexample for a
  property, that property's remaining jobs are cancelled (pending) or
  suppressed (already running); the stream shows the cancellations;
* **depth-window sharding** — ``depth_windows`` splits the depth range
  of each property into contiguous shards checked by separate jobs
  (frames below a window are still encoded — only the *checks* are
  restricted, so each shard is independently sound).

On top of that sits fault tolerance (see
:mod:`repro.service.supervisor`): worker crashes, hangs and raised
exceptions are attributed, retried under a
:class:`~repro.service.supervisor.RetryPolicy` with capped exponential
backoff, and surfaced as ``retry``/``failed`` lifecycle records in the
stream — every planned job reaches exactly one terminal record, even
when the pool has to be rebuilt mid-run.  Per-job resource budgets (the
``mem_quota_mb`` / ``clause_var_quota`` / ``wall_quota_s`` fields of
:class:`~repro.bmc.engine.BmcOptions`) degrade an over-budget job to a
sound partial answer (:data:`repro.bmc.results.DEGRADED`) at depth
granularity instead of killing it.

Designs cross the process boundary as *factories* (a picklable
zero-argument callable), not as pickled ``Design`` objects — deep
expression DAGs and pickle recursion do not mix.  Workers key their
session cache on :meth:`repro.design.netlist.Design.fingerprint`, so
rebuilding the design per job still reuses the worker's live session.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Callable, Iterator, Optional, Sequence

from repro.bmc.engine import BmcEngine, BmcOptions
from repro.bmc.results import BOUNDED, CEX, DEGRADED, BmcResult
from repro.bmc.session import SessionCache
from repro.design.netlist import Design
from repro.service.faults import (FaultPlan, POINT_ENTER, POINT_EXIT,
                                  POINT_SESSION)
from repro.service.supervisor import (ERROR, JobOutcome, JobRetry,
                                      PoolSupervisor, RetryPolicy)

#: Stream status of a job suppressed by first-CEX-wins (no result).
CANCELLED = "cancelled"
#: Stream status of a non-terminal lifecycle record: an attempt failed
#: (``failure`` says how — crash/hang/error) and the job was re-queued.
RETRY = "retry"
#: Stream status of a job whose failures exhausted the retry budget:
#: terminal, ``result`` is None, ``failure`` carries the attribution.
FAILED = "failed"


@dataclass(frozen=True)
class ServiceJob:
    """One schedulable unit: a property checked over a depth window."""

    property_name: str
    options: BmcOptions
    #: ``(lo, hi)`` inclusive depth range, or None for the options' full
    #: ``0..max_depth``.
    window: Optional[tuple[int, int]] = None

    def key(self) -> tuple:
        """Stable identity (used for retry jitter and cancellation)."""
        return (self.property_name, self.window)


@dataclass
class ServiceResult:
    """One streamed entry: a job outcome or lifecycle record, in
    completion order."""

    property_name: str
    window: Optional[tuple[int, int]]
    #: The job's :class:`BmcResult` status, or a service-level status:
    #: :data:`CANCELLED` (sibling's counterexample made the job moot),
    #: :data:`RETRY` (attempt failed, job re-queued — non-terminal) or
    #: :data:`FAILED` (retry budget exhausted — terminal, no result).
    status: str
    result: Optional[BmcResult]
    #: Attempts consumed so far (1 for a first-try success).
    attempts: int = 1
    #: Failure attribution of a RETRY/FAILED record: ``"crash"``,
    #: ``"hang"`` or ``"error"``; None for ordinary results.
    failure: Optional[str] = None
    #: Human-readable failure context (exception text, deadline note).
    detail: str = ""

    def to_dict(self) -> dict:
        """JSON-ready form — the CLI's ``--json`` per-job schema."""
        return {
            "property": self.property_name,
            "window": list(self.window) if self.window else None,
            "status": self.status,
            "attempts": self.attempts,
            "failure": self.failure,
            "detail": self.detail,
            "result": None if self.result is None else self.result.to_dict(),
        }


def shard_depths(max_depth: int, shards: int) -> list[tuple[int, int]]:
    """Split ``0..max_depth`` into ``shards`` contiguous windows.

    The windows partition the range, which is what makes per-window
    verdicts mergeable (:func:`merge_window_results`): a proof in window
    k is conditional only on the absence of counterexamples below, which
    windows 0..k-1 establish.
    """
    if shards < 1:
        raise ValueError("shards must be >= 1")
    if max_depth < 0:
        raise ValueError("max_depth must be >= 0")
    total = max_depth + 1
    shards = min(shards, total)
    base, extra = divmod(total, shards)
    windows = []
    lo = 0
    for i in range(shards):
        hi = lo + base + (1 if i < extra else 0) - 1
        windows.append((lo, hi))
        lo = hi + 1
    return windows


def _check_windows(windows: Sequence[tuple[int, int]]) -> None:
    """Raise ValueError unless ``windows`` partition ``0..hi``."""
    frontier = -1
    for lo, hi in windows:
        if lo != frontier + 1 or hi < lo:
            raise ValueError(f"depth windows must be ascending and "
                             f"contiguous from 0: {list(windows)}")
        frontier = hi


def merge_window_results(results: Sequence[Optional[BmcResult]],
                         windows: Optional[Sequence[tuple[int, int]]] = None,
                         ) -> BmcResult:
    """Fold per-window results (ascending windows) into one verdict.

    Without ``windows`` every result must be present and the fold
    mirrors the sequential depth scan: the first window that concluded
    (CEX, PROOF or TIMEOUT) is the answer — sequentially, later depths
    would never have run; if every window stayed BOUNDED, the deepest
    one is.

    With ``windows`` (aligned with ``results``; entries may be None for
    windows whose job failed or was cancelled) the fold is *gap-aware*:

    * a counterexample is sound wherever it was found — it wins even
      across gaps;
    * PROOF and TIMEOUT only conclude on a contiguous fully-checked
      prefix (a backward-induction proof at depth k is unsound if some
      depth below k was never checked);
    * a missing window, a DEGRADED window (checked only up to its
      reported depth) or a non-contiguous window opens a **gap**: the
      sound frontier stops there, and the merged verdict is DEGRADED
      at the deepest fully-checked depth — a partial answer instead of
      a silent unsound merge.  The frontier starts below depth 0, so a
      window set that does not begin at depth 0 opens with a gap.
    """
    if windows is None:
        present = [r for r in results if r is not None]
        if len(present) != len(results):
            raise ValueError("missing window results; pass windows= to "
                             "merge around gaps")
        if not present:
            raise ValueError("no results to merge")
        for r in present:
            if r.status != BOUNDED:
                return r
        return present[-1]

    if len(windows) != len(results):
        raise ValueError("results must align with windows")
    present = [r for r in results if r is not None]
    if not present:
        raise ValueError("no results to merge")
    frontier = -1
    gap = False
    last_sound: Optional[BmcResult] = None
    for (lo, hi), r in zip(windows, results):
        if r is not None and r.status == CEX:
            return r
        if gap or r is None or lo != frontier + 1:
            gap = True
            continue
        if r.status == BOUNDED:
            frontier = hi
            last_sound = r
            continue
        if r.status == DEGRADED:
            # Checked cleanly up to r.depth, then its budget ran out:
            # everything above r.depth in this window is a gap.
            frontier = max(frontier, r.depth)
            last_sound = r
            gap = True
            continue
        # PROOF or TIMEOUT on the contiguous prefix: the sequential
        # scan's answer.
        return r
    if not gap:
        return last_sound if last_sound is not None else present[-1]
    base = last_sound if last_sound is not None else present[-1]
    return replace(base, status=DEGRADED, depth=frontier, method=None,
                   trace=None, trace_validated=None)


# -- worker side (must be module-level for pickling) -----------------------

def _run_job(get_design: Callable[[], Design], cache: SessionCache,
             property_name: str, options: BmcOptions,
             window: Optional[tuple[int, int]], attempt: int,
             fault_plan: Optional[FaultPlan], inline: bool) -> BmcResult:
    """The body of one job, pooled or inline: fault points, session-cache
    lookup, engine run.

    ``fault_plan`` (tests/CI only) may crash, hang, slow, bloat or blow
    up the job at the named injection points; ``attempt`` lets the plan
    target specific retries, and ``inline`` softens process-level faults
    when the job runs in the service's own process.
    """
    ballast = []

    def fire(point: str) -> None:
        if fault_plan is not None:
            b = fault_plan.fire(point, property_name, window, attempt,
                                inline=inline)
            if b is not None:
                ballast.append(b)

    fire(POINT_ENTER)
    session = cache.get_or_create(get_design(), options)
    fire(POINT_SESSION)
    result = BmcEngine(session.design, property_name, options,
                       session=session).run(window=window)
    fire(POINT_EXIT)
    ballast.clear()
    return result


_worker_cache: Optional[SessionCache] = None


def _worker_run(design_factory: Callable[[], Design], property_name: str,
                options: BmcOptions, window: Optional[tuple[int, int]],
                attempt: int = 1,
                fault_plan: Optional[FaultPlan] = None) -> BmcResult:
    """Run one job in a worker process, reusing its process-local cache.

    The cache is keyed on content (fingerprint), so the design rebuilt
    by the factory on every call still maps onto the worker's live
    session — each worker pays for the encoding once per
    (design, options), no matter how many jobs it drains.
    """
    global _worker_cache
    if _worker_cache is None:
        _worker_cache = SessionCache()
    return _run_job(design_factory, _worker_cache, property_name, options,
                    window, attempt, fault_plan, inline=False)


class VerificationService:
    """Schedules verification jobs for one design across workers.

    ``design_factory`` is a picklable zero-argument callable returning
    the design (e.g. ``functools.partial(build_fifo, params)``).  With
    ``jobs <= 1`` everything runs inline in this process — same
    semantics, deterministic completion order, no pickling requirement.
    The service is a context manager; ``close()`` shuts the pool down.

    Repeated ``run()``/``stream()`` calls reuse live sessions: inline
    through :attr:`cache`, pooled through each worker's process-local
    cache (workers persist for the service's lifetime).

    Fault tolerance: pooled jobs run under a
    :class:`~repro.service.supervisor.PoolSupervisor` — worker crashes
    and raised exceptions are retried per ``retry`` (default: 2 retries
    with capped exponential backoff), and with a ``job_timeout_s`` hung
    jobs are killed and retried too.  The inline path retries raised
    exceptions under the same policy.  Per-job resource budgets are the
    quota fields of ``options`` (jobs degrade, not die); ``fault_plan``
    injects worker faults for the recovery test suite.
    """

    def __init__(self, design_factory: Callable[[], Design],
                 options: Optional[BmcOptions] = None, jobs: int = 1,
                 session_cache: Optional[SessionCache] = None,
                 retry: Optional[RetryPolicy] = None,
                 job_timeout_s: Optional[float] = None,
                 fault_plan: Optional[FaultPlan] = None) -> None:
        self.design_factory = design_factory
        self.options = options or BmcOptions()
        self.jobs = max(1, jobs)
        self.cache = session_cache if session_cache is not None else SessionCache()
        self.retry = retry if retry is not None else RetryPolicy()
        self.job_timeout_s = job_timeout_s
        self.fault_plan = fault_plan
        self._sup: Optional[PoolSupervisor] = None
        self._design: Optional[Design] = None

    def __enter__(self) -> "VerificationService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Shut the worker pool down; queued work is cancelled, running
        work terminated, every child process reaped."""
        if self._sup is not None:
            if self._sup.pending():
                self._sup.terminate()
            else:
                self._sup.close(cancel_futures=True)
            self._sup = None

    def _get_design(self) -> Design:
        if self._design is None:
            self._design = self.design_factory()
        return self._design

    # -- planning ----------------------------------------------------------

    def plan(self, properties: Optional[Sequence[str]] = None,
             options: Optional[BmcOptions] = None,
             depth_windows: Optional[Sequence[tuple[int, int]]] = None,
             ) -> list[ServiceJob]:
        """The job list a request expands to: property × window.

        Windows must be ascending and contiguous from depth 0 when given
        (see :func:`shard_depths`), else ValueError; properties default
        to all of the design's, sorted.
        """
        opts = options or self.options
        if properties is None:
            properties = sorted(self._get_design().properties)
        if depth_windows:
            _check_windows(depth_windows)
        windows: Sequence[Optional[tuple[int, int]]] = (
            list(depth_windows) if depth_windows else [None])
        return [ServiceJob(name, opts, w)
                for name in properties for w in windows]

    # -- execution ---------------------------------------------------------

    def stream(self, properties: Optional[Sequence[str]] = None, *,
               options: Optional[BmcOptions] = None,
               depth_windows: Optional[Sequence[tuple[int, int]]] = None,
               ) -> Iterator[ServiceResult]:
        """Yield job outcomes and lifecycle records as they happen.

        First-CEX-wins is applied; every planned job contributes exactly
        one terminal record (a result, FAILED, or CANCELLED), possibly
        preceded by RETRY records.  Abandoning the iterator mid-stream
        is safe: the generator's cleanup cancels queued jobs and tears
        the pool down (``cancel_futures=True``) so no workers leak.
        """
        jobs = self.plan(properties, options, depth_windows)
        if self.jobs == 1:
            yield from self._stream_inline(jobs)
        else:
            yield from self._stream_pool(jobs)

    # -- inline path -------------------------------------------------------

    def _stream_inline(self, jobs: list[ServiceJob]) -> Iterator[ServiceResult]:
        decided: set[str] = set()
        for job in jobs:
            if job.property_name in decided:
                yield ServiceResult(job.property_name, job.window,
                                    CANCELLED, None)
                continue
            attempt = 0
            while True:
                attempt += 1
                try:
                    result = _run_job(self._get_design, self.cache,
                                      job.property_name, job.options,
                                      job.window, attempt, self.fault_plan,
                                      inline=True)
                except Exception as exc:  # same policy as pooled workers
                    detail = f"{type(exc).__name__}: {exc}"
                    if attempt > self.retry.max_retries:
                        yield ServiceResult(job.property_name, job.window,
                                            FAILED, None, attempts=attempt,
                                            failure=ERROR, detail=detail)
                        break
                    delay = self.retry.delay_s(attempt, job.key())
                    yield ServiceResult(job.property_name, job.window,
                                        RETRY, None, attempts=attempt,
                                        failure=ERROR, detail=detail)
                    time.sleep(delay)
                    continue
                yield ServiceResult(job.property_name, job.window,
                                    result.status, result, attempts=attempt)
                if result.status == CEX:
                    decided.add(job.property_name)
                break

    # -- pooled path -------------------------------------------------------

    def _get_supervisor(self) -> PoolSupervisor:
        if self._sup is None:
            factory = self.design_factory
            plan = self.fault_plan

            def submit(pool, job, attempt):
                return pool.submit(_worker_run, factory, job.property_name,
                                   job.options, job.window, attempt, plan)

            self._sup = PoolSupervisor(submit, self.jobs, retry=self.retry,
                                       job_timeout_s=self.job_timeout_s,
                                       key_fn=ServiceJob.key)
        return self._sup

    def _stream_pool(self, jobs: list[ServiceJob]) -> Iterator[ServiceResult]:
        sup = self._get_supervisor()
        decided: set[str] = set()
        try:
            for ev in sup.run(jobs):
                if decided:
                    # Sweep jobs of decided properties that re-entered
                    # the queue (e.g. a retry enqueued after the CEX).
                    for job in sup.cancel(
                            lambda j: j.property_name in decided):
                        yield ServiceResult(job.property_name, job.window,
                                            CANCELLED, None)
                if isinstance(ev, JobRetry):
                    if ev.job.property_name in decided:
                        continue
                    yield ServiceResult(ev.job.property_name, ev.job.window,
                                        RETRY, None, attempts=ev.attempt,
                                        failure=ev.failure, detail=ev.detail)
                    continue
                assert isinstance(ev, JobOutcome)
                job = ev.job
                if job.property_name in decided:
                    yield ServiceResult(job.property_name, job.window,
                                        CANCELLED, None,
                                        attempts=ev.attempts)
                    continue
                if ev.result is None:
                    yield ServiceResult(job.property_name, job.window,
                                        FAILED, None, attempts=ev.attempts,
                                        failure=ev.failure)
                    continue
                result: BmcResult = ev.result
                yield ServiceResult(job.property_name, job.window,
                                    result.status, result,
                                    attempts=ev.attempts)
                if result.status == CEX:
                    decided.add(job.property_name)
                    for dropped in sup.cancel(
                            lambda j, name=job.property_name:
                            j.property_name == name):
                        yield ServiceResult(dropped.property_name,
                                            dropped.window, CANCELLED, None)
        finally:
            # Abandoned mid-stream: cancel queued work and tear the pool
            # down so no child processes (or their running jobs) leak.
            if self._sup is not None and self._sup.pending():
                self._sup.terminate()
                self._sup = None

    # -- merged verdicts ---------------------------------------------------

    def run(self, properties: Optional[Sequence[str]] = None, *,
            options: Optional[BmcOptions] = None,
            depth_windows: Optional[Sequence[tuple[int, int]]] = None,
            ) -> dict[str, BmcResult]:
        """Run all jobs; per-property verdicts with windows merged.

        Without ``depth_windows`` the verdicts (status, depth, trace
        length, method) are identical to sequential per-property
        :func:`repro.bmc.verify` runs.  With sharding, a counterexample
        may be reported from a deeper window than the shallowest one
        that holds it (first-CEX-wins races the windows); statuses still
        agree.  Windows whose job FAILED (retries exhausted) become
        gaps: the property's verdict is the deepest sound prefix
        (DEGRADED) rather than an unsound merge across the hole; a
        property with no surviving window at all yields a synthesized
        DEGRADED verdict at depth -1.
        """
        results, _records = self.collect(properties, options=options,
                                         depth_windows=depth_windows)
        return results

    def collect(self, properties: Optional[Sequence[str]] = None, *,
                options: Optional[BmcOptions] = None,
                depth_windows: Optional[Sequence[tuple[int, int]]] = None,
                ) -> tuple[dict[str, BmcResult], list[ServiceResult]]:
        """Like :meth:`run`, but also return the full record stream
        (lifecycle + terminal, in completion order) — the CLI's
        ``--json`` uses it for per-job attempts and attributions."""
        windows = [tuple(w) for w in depth_windows] if depth_windows else None
        records = list(self.stream(properties, options=options,
                                   depth_windows=depth_windows))
        by_prop: dict[str, dict] = {}
        for sr in records:
            if sr.status == RETRY or sr.status == CANCELLED:
                continue
            slot = by_prop.setdefault(sr.property_name, {})
            slot[sr.window] = sr.result  # None for FAILED
        out: dict[str, BmcResult] = {}
        for name, slot in by_prop.items():
            if windows is None:
                results = [r for r in slot.values() if r is not None]
                if results:
                    out[name] = merge_window_results(results)
                else:
                    out[name] = self._degraded_stub(name)
                continue
            aligned = [slot.get(w) for w in windows]
            if any(r is not None for r in aligned):
                out[name] = merge_window_results(aligned, windows)
            else:
                out[name] = self._degraded_stub(name)
        return out, records

    def _degraded_stub(self, name: str) -> BmcResult:
        """Verdict for a property none of whose jobs survived: nothing
        was checked, reported honestly as DEGRADED at depth -1."""
        kind = self._get_design().properties[name].kind
        return BmcResult(status=DEGRADED, property_name=name,
                         property_kind=kind, depth=-1)
