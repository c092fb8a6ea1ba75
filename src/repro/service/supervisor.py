"""Supervised process-pool execution: crash recovery, hang detection,
retry with capped exponential backoff and deterministic jitter.

``ProcessPoolExecutor`` treats a dead worker as fatal: one segfault,
OOM-kill or ``os._exit`` breaks the executor and every in-flight future
raises ``BrokenProcessPool``.  The :class:`PoolSupervisor` turns those
events into *recoverable job outcomes*:

* **crash** — a future that fails with a broken-pool error while its
  job was observed running is attributed ``"crash"`` and re-queued with
  backoff; the pool is rebuilt.  Jobs that were merely queued on the
  broken pool are resubmitted silently (no attempt charged — they were
  innocent bystanders).
* **hang** — with a ``job_timeout_s``, a job observed running past its
  deadline has its workers killed (the only way to stop a running
  process-pool task), which breaks the pool; the victim is attributed
  ``"hang"`` and re-queued, the pool rebuilt.
* **error** — a worker that raises is attributed ``"error"`` and
  re-queued with backoff (transient faults heal; persistent ones
  exhaust the retry budget).

A job whose failures exhaust :attr:`RetryPolicy.max_retries` yields a
terminal :class:`JobOutcome` with ``result=None`` and its last
attribution — the caller streams it as a ``failed`` record instead of
crashing the run.  Backoff delays are deterministic: exponential in the
attempt number, capped, with jitter derived from a hash of the job's
identity — two runs of the same plan produce the same schedule, and
distinct jobs do not thundering-herd the rebuilt pool.
"""

from __future__ import annotations

import time
import zlib
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures import BrokenExecutor
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional, Sequence, Union

#: Failure attributions carried by retry/terminal records.
CRASH = "crash"
HANG = "hang"
ERROR = "error"


@dataclass(frozen=True)
class RetryPolicy:
    """Capped exponential backoff with deterministic per-job jitter."""

    #: Re-queues allowed per job after its first attempt (0 = fail fast).
    max_retries: int = 2
    backoff_base_s: float = 0.05
    backoff_cap_s: float = 2.0
    #: Jitter fraction: the delay is scaled by ``1 + jitter * h`` where
    #: ``h`` in [0, 1) is a stable hash of (job key, attempt) — spread
    #: without nondeterminism.
    jitter: float = 0.25

    def delay_s(self, attempt: int, key) -> float:
        base = min(self.backoff_cap_s,
                   self.backoff_base_s * (2 ** max(0, attempt - 1)))
        h = (zlib.crc32(repr((key, attempt)).encode()) % 1000) / 999.0
        return base * (1.0 + self.jitter * h)


@dataclass
class JobRetry:
    """Lifecycle event: an attempt failed and the job was re-queued."""

    job: object
    #: The attempt number that failed (1-based).
    attempt: int
    failure: str  # CRASH | HANG | ERROR
    delay_s: float
    detail: str = ""


@dataclass
class JobOutcome:
    """Terminal event: the job's single final result (or exhaustion)."""

    job: object
    #: The worker's return value; None when retries were exhausted.
    result: object
    attempts: int
    #: Last failure attribution when ``result is None``.
    failure: Optional[str] = None
    #: Every failure the job survived on the way to its result.
    failures: list = field(default_factory=list)


@dataclass
class _JobRec:
    job: object
    key: object
    attempts: int = 0
    failures: list = field(default_factory=list)
    t_started: Optional[float] = None
    hang_suspect: bool = False
    #: The supervisor itself killed this job's pool (hang recovery on a
    #: sibling): requeue without charging an attempt.
    collateral: bool = False
    #: Uncharged resubmits consumed (innocent-bystander path).
    free_resubmits: int = 0
    #: Pool generation the current attempt was submitted to.
    gen: int = -1


class PoolSupervisor:
    """Runs jobs on a rebuildable worker pool under a retry policy.

    ``submit_fn(pool, job, attempt)`` submits one job to the given
    executor and returns its future — the supervisor stays agnostic of
    what a job *is*.  ``key_fn(job)`` gives the stable identity used
    for jitter and cancellation.  Events are yielded as they happen:
    :class:`JobRetry` (lifecycle) and :class:`JobOutcome` (terminal,
    exactly one per job unless cancelled via :meth:`cancel`).
    """

    def __init__(self, submit_fn: Callable[[ProcessPoolExecutor, object, int],
                                           Future],
                 max_workers: int,
                 retry: Optional[RetryPolicy] = None,
                 job_timeout_s: Optional[float] = None,
                 key_fn: Callable[[object], object] = lambda job: job,
                 poll_s: float = 0.05) -> None:
        self.submit_fn = submit_fn
        self.max_workers = max(1, max_workers)
        self.retry = retry or RetryPolicy()
        self.job_timeout_s = job_timeout_s
        self.key_fn = key_fn
        self.poll_s = poll_s
        #: Uncharged resubmits a job may consume before broken-pool
        #: failures start counting against its retry budget.  A job that
        #: crashes *instantly* (before the poll ever observes it
        #: running) is indistinguishable from a queued bystander — the
        #: cap stops such a job from being resubmitted free forever.
        self.max_free_resubmits = 3
        self._pool: Optional[ProcessPoolExecutor] = None
        self._inflight: dict[Future, _JobRec] = {}
        #: (eligible_at, seq, rec) — seq keeps ordering deterministic.
        self._backlog: list = []
        self._seq = 0
        #: Current pool generation; broken futures from an *older*
        #: generation must not trigger another rebuild (which would kill
        #: the fresh pool under the resubmitted jobs).
        self._gen = 0
        #: Pool rebuilds forced by crashes/hangs (observable by tests).
        self.rebuilds = 0

    # -- pool lifecycle ----------------------------------------------------

    def _get_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.max_workers)
        return self._pool

    def _rebuild_pool(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self.rebuilds += 1
        self._pool = None
        self._gen += 1

    def _kill_workers(self) -> None:
        """Terminate every worker process — the only way to stop a hung
        running task; breaks the pool, which :meth:`run` then rebuilds."""
        pool = self._pool
        if pool is None:
            return
        for proc in list(getattr(pool, "_processes", {}).values()):
            if proc.is_alive():
                proc.terminate()

    def pending(self) -> int:
        """Jobs not yet terminal (in flight + queued for retry)."""
        return len(self._inflight) + len(self._backlog)

    def close(self, cancel_futures: bool = True) -> None:
        """Shut the pool down; queued work is cancelled, workers reaped.

        A worker that died while idle may have died holding the call
        queue's read lock: the other workers then never take their stop
        sentinel, and the executor's shutdown would wait for them
        forever. Once any worker has died, the rest are terminated.
        """
        self._backlog.clear()
        pool, self._pool = self._pool, None
        if pool is None:
            return
        procs = list((pool._processes or {}).values())
        manager = pool._executor_manager_thread
        pool.shutdown(wait=False, cancel_futures=cancel_futures)
        while manager is not None and manager.is_alive():
            manager.join(self.poll_s)
            if any(p.exitcode not in (None, 0) for p in procs):
                for p in procs:
                    if p.is_alive():
                        p.terminate()

    def terminate(self) -> None:
        """Hard stop: drop queued work, kill workers, reap the pool.

        Unlike :meth:`close`, running jobs are terminated rather than
        awaited — the abandoned-stream path, where nobody will consume
        their results and waiting could block indefinitely.
        """
        self._inflight.clear()
        self._kill_workers()
        self.close()

    # -- cancellation (first-CEX-wins) -------------------------------------

    def cancel(self, predicate: Callable[[object], bool]) -> list:
        """Drop every matching queued/pending job; returns those jobs.

        Running jobs cannot be stopped here (the caller suppresses
        their eventual outcome); matching retry-queue entries and
        successfully-cancelled pending futures never yield an outcome.
        """
        dropped = []
        keep = []
        for entry in self._backlog:
            if predicate(entry[2].job):
                dropped.append(entry[2].job)
            else:
                keep.append(entry)
        self._backlog = keep
        for fut, rec in list(self._inflight.items()):
            if predicate(rec.job) and fut.cancel():
                dropped.append(rec.job)
                del self._inflight[fut]
        return dropped

    # -- main loop ---------------------------------------------------------

    def run(self, jobs: Sequence) -> Iterator[Union[JobRetry, JobOutcome]]:
        """Execute ``jobs``; yield retry and terminal events as they land."""
        for job in jobs:
            self._enqueue(_JobRec(job, self.key_fn(job)), delay_s=0.0)
        while self._backlog or self._inflight:
            self._submit_eligible()
            if not self._inflight:
                # Everything is backing off: sleep to the next eligibility.
                next_at = min(entry[0] for entry in self._backlog)
                time.sleep(max(0.0, min(next_at - time.monotonic(),
                                        self.poll_s)))
                continue
            done, _ = wait(list(self._inflight), timeout=self.poll_s,
                           return_when=FIRST_COMPLETED)
            now = time.monotonic()
            for fut, rec in self._inflight.items():
                if fut not in done and rec.t_started is None \
                        and fut.running():
                    rec.t_started = now
            broken = False
            for fut in done:
                rec = self._inflight.pop(fut, None)
                if rec is None or fut.cancelled():
                    continue
                exc = fut.exception()
                if exc is None:
                    yield JobOutcome(rec.job, fut.result(), rec.attempts,
                                     None, rec.failures)
                elif isinstance(exc, (BrokenExecutor, BrokenPipeError,
                                      EOFError)):
                    broken = broken or rec.gen == self._gen
                    if rec.hang_suspect:
                        yield from self._requeue(rec, HANG,
                                                 "job deadline exceeded; "
                                                 "workers killed")
                    elif ((rec.t_started is not None and not rec.collateral)
                          or rec.free_resubmits >= self.max_free_resubmits):
                        yield from self._requeue(rec, CRASH, str(exc))
                    else:
                        # Queued on a pool a sibling broke, or running
                        # when hang recovery killed the workers:
                        # innocent — resubmit without charging.
                        rec.attempts -= 1
                        rec.free_resubmits += 1
                        self._enqueue(rec, delay_s=0.0)
                else:
                    yield from self._requeue(rec, ERROR,
                                             f"{type(exc).__name__}: {exc}")
            if broken:
                self._rebuild_pool()
            self._watch_hangs(now)
        # Normal drain leaves the pool warm for the next request; close()
        # is the explicit shutdown.

    # -- internals ---------------------------------------------------------

    def _enqueue(self, rec: _JobRec, delay_s: float) -> None:
        rec.t_started = None
        rec.hang_suspect = False
        rec.collateral = False
        self._backlog.append((time.monotonic() + delay_s, self._seq, rec))
        self._seq += 1

    def _submit_eligible(self) -> None:
        now = time.monotonic()
        self._backlog.sort(key=lambda entry: (entry[0], entry[1]))
        still = []
        for entry in self._backlog:
            eligible_at, _seq, rec = entry
            if eligible_at > now:
                still.append(entry)
                continue
            rec.attempts += 1
            try:
                fut = self.submit_fn(self._get_pool(), rec.job, rec.attempts)
            except BrokenExecutor:
                # Broke between batches: rebuild once and resubmit.
                self._rebuild_pool()
                fut = self.submit_fn(self._get_pool(), rec.job, rec.attempts)
            rec.gen = self._gen
            self._inflight[fut] = rec
        self._backlog = still

    def _requeue(self, rec: _JobRec, failure: str,
                 detail: str = "") -> Iterator[Union[JobRetry, JobOutcome]]:
        rec.failures.append(failure)
        if rec.attempts > self.retry.max_retries:
            yield JobOutcome(rec.job, None, rec.attempts, failure,
                             rec.failures)
            return
        delay = self.retry.delay_s(rec.attempts, rec.key)
        yield JobRetry(rec.job, rec.attempts, failure, delay, detail)
        self._enqueue(rec, delay)

    def _watch_hangs(self, now: float) -> None:
        if self.job_timeout_s is None:
            return
        hung = [rec for rec in self._inflight.values()
                if rec.t_started is not None
                and now - rec.t_started > self.job_timeout_s
                and not rec.hang_suspect]
        if not hung:
            return
        for rec in hung:
            rec.hang_suspect = True
        for rec in self._inflight.values():
            if not rec.hang_suspect:
                rec.collateral = True
        # Killing the workers breaks the pool; the run loop attributes
        # "hang" to the suspects and resubmits innocents when their
        # futures fail with the broken-pool error.
        self._kill_workers()
