"""Fault-injection recovery suite for the verification service.

Proves the service's fault-tolerance invariants under injected worker
failures (crash, hang, raised exception, slow-down, memory bloat):

* every planned job reaches exactly one terminal record;
* no orphaned worker processes remain after a run;
* final verdicts under faults are bit-identical to the fault-free run
  (faults fire on first attempts only, so retries converge).
"""

import multiprocessing
import os
import random
import signal
import threading
import time

import pytest

from repro.bmc import BmcOptions
from repro.bmc.results import DEGRADED
from repro.casestudies.fifo import FifoParams, build_fifo
from repro.casestudies.multiport_soc import (MultiportSocParams,
                                             build_multiport_soc)
from repro.casestudies.stack_machine import (StackMachineParams,
                                             build_stack_machine)
from repro.service import (CANCELLED, FAILED, FaultInjected, FaultPlan,
                           FaultProbe, Injection, POINT_ENTER, POINT_EXIT,
                           POINT_SESSION, RETRY, RetryPolicy,
                           VerificationService)
from repro.service.supervisor import PoolSupervisor


def tiny_fifo():
    return build_fifo(FifoParams(addr_width=2, data_width=2))


def tiny_stack():
    return build_stack_machine(StackMachineParams(addr_width=2, data_width=2))


def tiny_soc():
    return build_multiport_soc(MultiportSocParams(
        addr_width=2, data_width=2, counter_width=3, num_properties=4))


BUILDERS = {"fifo": tiny_fifo, "stack": tiny_stack, "soc": tiny_soc}

FAST_RETRY = RetryPolicy(max_retries=2, backoff_base_s=0.001,
                         backoff_cap_s=0.01)

TERMINAL = ("proof", "cex", "bounded", "timeout", DEGRADED, FAILED, CANCELLED)


def wait_no_children(timeout_s: float = 10.0) -> None:
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if not multiprocessing.active_children():
            return
        time.sleep(0.05)
    assert not multiprocessing.active_children()


def baseline(builder, opts):
    """Fault-free sequential verdicts to compare against."""
    return VerificationService(builder, opts).run()


def signature(results):
    """Verdict identity: status, depth, proof method, trace shape.

    Exact trace *contents* are model-dependent (a retry may solve on a
    session warmed by earlier attempts or sibling properties, and any
    satisfying assignment is a valid counterexample), so — like the
    shared-session parity suite — we pin everything the verdict claims:
    outcome, depth, method, validation, and trace length.
    """
    return {name: (r.status, r.depth, r.method, r.trace_validated,
                   None if r.trace is None else len(r.trace.cycles))
            for name, r in results.items()}


def assert_stream_invariants(records, jobs):
    """Exactly one terminal record per planned job; retries precede it."""
    per_job = {}
    for sr in records:
        per_job.setdefault((sr.property_name, sr.window), []).append(sr)
    assert set(per_job) == {(j.property_name, j.window) for j in jobs}
    for key, recs in per_job.items():
        terminal = [sr for sr in recs if sr.status in TERMINAL]
        assert len(terminal) == 1, (key, [sr.status for sr in recs])
        assert recs[-1] is terminal[0], key
        for sr in recs[:-1]:
            assert sr.status == RETRY, key


# ---------------------------------------------------------------------------
# FaultPlan mechanics (no processes).
# ---------------------------------------------------------------------------


class TestFaultPlan:
    def test_injection_validation(self):
        with pytest.raises(ValueError):
            Injection("nonsense")
        with pytest.raises(ValueError):
            Injection("crash", point="worker.bogus")

    def test_scripted_matching(self):
        inj = Injection("raise", POINT_SESSION, prop="p", window=(0, 3))
        plan = FaultPlan(injections=(inj,))
        assert plan.pick(POINT_SESSION, "p", (0, 3), 1) is inj
        assert plan.pick(POINT_SESSION, "p", (0, 3), 2) is None  # attempt
        assert plan.pick(POINT_SESSION, "q", (0, 3), 1) is None  # prop
        assert plan.pick(POINT_SESSION, "p", (4, 7), 1) is None  # window
        assert plan.pick(POINT_ENTER, "p", (0, 3), 1) is None    # point

    def test_wildcards_match_everything(self):
        plan = FaultPlan(injections=(Injection("slow", POINT_ENTER),))
        assert plan.pick(POINT_ENTER, "anything", None, 1) is not None
        assert plan.pick(POINT_ENTER, "other", (2, 5), 1) is not None

    def test_random_mode_is_deterministic_and_attempt1_only(self):
        plan = FaultPlan(seed=7, rate=1.0)
        first = plan.pick(POINT_ENTER, "p", (0, 3), 1)
        assert first is not None
        again = plan.pick(POINT_ENTER, "p", (0, 3), 1)
        assert again is not None and again.kind == first.kind
        assert plan.pick(POINT_ENTER, "p", (0, 3), 2) is None

    def test_inline_softens_process_faults(self):
        plan = FaultPlan(injections=(Injection("crash", POINT_ENTER),))
        with pytest.raises(FaultInjected):
            plan.fire(POINT_ENTER, "p", None, 1, inline=True)
        plan2 = FaultPlan(injections=(Injection("hang", POINT_ENTER),))
        with pytest.raises(FaultInjected):
            plan2.fire(POINT_ENTER, "p", None, 1, inline=True)

    def test_membloat_returns_ballast(self):
        plan = FaultPlan(injections=(
            Injection("membloat", POINT_ENTER, param=1.0),))
        ballast = plan.fire(POINT_ENTER, "p", None, 1)
        assert isinstance(ballast, bytearray)
        assert len(ballast) == 1024 * 1024

    def test_probe_counts_planned_faults(self):
        plan = FaultPlan(seed=3, rate=0.5)
        svc = VerificationService(tiny_fifo, BmcOptions(max_depth=4),
                                  fault_plan=plan)
        probe = FaultProbe(plan)
        fired = probe.expected_faults(svc.plan())
        assert fired == probe.expected_faults(svc.plan())  # deterministic


# ---------------------------------------------------------------------------
# Inline path: raised faults retried under the same policy.
# ---------------------------------------------------------------------------


class TestInlineRecovery:
    def test_raise_fault_retried_verdicts_converge(self):
        opts = BmcOptions(max_depth=6)
        base = baseline(tiny_fifo, opts)
        plan = FaultPlan(injections=(Injection("raise", POINT_SESSION),))
        svc = VerificationService(tiny_fifo, opts, fault_plan=plan,
                                  retry=FAST_RETRY)
        records = list(svc.stream())
        assert_stream_invariants(records, svc.plan())
        retried = [sr for sr in records if sr.status == RETRY]
        assert retried and all(sr.failure == "error" for sr in retried)
        got = {sr.property_name: sr.result for sr in records
               if sr.result is not None}
        assert signature(got) == signature(base)
        assert all(sr.attempts == 2 for sr in records
                   if sr.result is not None)

    def test_exhausted_retries_yield_failed_then_degraded_verdict(self):
        opts = BmcOptions(max_depth=4)
        plan = FaultPlan(injections=(
            Injection("raise", POINT_ENTER, attempts=(1, 2, 3, 4, 5)),))
        svc = VerificationService(tiny_fifo, opts, fault_plan=plan,
                                  retry=RetryPolicy(max_retries=1,
                                                    backoff_base_s=0.001))
        records = list(svc.stream())
        finals = [sr for sr in records if sr.status in TERMINAL]
        assert finals and all(sr.status == FAILED for sr in finals)
        assert all(sr.failure == "error" and sr.attempts == 2
                   for sr in finals)
        results = svc.run()
        assert results
        for r in results.values():
            assert r.status == DEGRADED and r.depth == -1

    def test_exit_fault_after_result_is_still_a_fault(self):
        # A worker that blows up after computing its result never
        # returned it: the retry recomputes and the verdict survives.
        opts = BmcOptions(max_depth=6)
        base = baseline(tiny_fifo, opts)
        plan = FaultPlan(injections=(Injection("raise", POINT_EXIT),))
        svc = VerificationService(tiny_fifo, opts, fault_plan=plan,
                                  retry=FAST_RETRY)
        got = svc.run()
        assert signature(got) == signature(base)


# ---------------------------------------------------------------------------
# Pooled path: crashes, hangs, bloat — supervised recovery.
# ---------------------------------------------------------------------------


class TestPooledRecovery:
    @pytest.mark.parametrize("kind,point", [
        ("crash", POINT_ENTER),
        ("crash", POINT_SESSION),
        ("raise", POINT_SESSION),
        ("slow", POINT_ENTER),
        ("membloat", POINT_SESSION),
    ])
    def test_single_fault_recovers_with_identical_verdicts(self, kind, point):
        opts = BmcOptions(max_depth=6)
        base = baseline(tiny_fifo, opts)
        plan = FaultPlan(injections=(
            Injection(kind, point, prop="can_fill"),))
        with VerificationService(tiny_fifo, opts, jobs=2, fault_plan=plan,
                                 retry=FAST_RETRY) as svc:
            records = list(svc.stream())
            assert_stream_invariants(records, svc.plan())
            got = {sr.property_name: sr.result for sr in records
                   if sr.result is not None}
            assert signature(got) == signature(base)
        wait_no_children()

    def test_hang_detected_and_retried(self):
        opts = BmcOptions(max_depth=6)
        base = baseline(tiny_fifo, opts)
        plan = FaultPlan(injections=(
            Injection("hang", POINT_ENTER, prop="can_fill", param=60.0),))
        with VerificationService(tiny_fifo, opts, jobs=2, fault_plan=plan,
                                 retry=FAST_RETRY, job_timeout_s=1.0) as svc:
            t0 = time.monotonic()
            records = list(svc.stream())
            wall = time.monotonic() - t0
            assert wall < 30.0  # recovered, did not sit out the hang
            hangs = [sr for sr in records
                     if sr.status == RETRY and sr.failure == "hang"]
            assert hangs and hangs[0].property_name == "can_fill"
            got = {sr.property_name: sr.result for sr in records
                   if sr.result is not None}
            assert signature(got) == signature(base)
            assert svc._sup.rebuilds >= 1
        wait_no_children()

    def test_seeded_random_matrix_converges(self):
        opts = BmcOptions(max_depth=5)
        base = baseline(tiny_soc, opts)
        plan = FaultPlan(seed=11, rate=0.4)
        probe = FaultProbe(plan)
        with VerificationService(tiny_soc, opts, jobs=2, fault_plan=plan,
                                 retry=RetryPolicy(max_retries=3,
                                                   backoff_base_s=0.001,
                                                   backoff_cap_s=0.01),
                                 job_timeout_s=30.0) as svc:
            jobs = svc.plan()
            assert probe.expected_faults(jobs), "seed fired no faults"
            records = list(svc.stream())
            assert_stream_invariants(records, jobs)
            got = {sr.property_name: sr.result for sr in records
                   if sr.result is not None}
            assert signature(got) == signature(base)
        wait_no_children()


# ---------------------------------------------------------------------------
# External kill: a worker SIGKILLed mid-run (not via the fault plan).
# ---------------------------------------------------------------------------


class TestKillOneWorker:
    @pytest.mark.parametrize("name", sorted(BUILDERS))
    def test_kill_one_worker_mid_run(self, name):
        builder = BUILDERS[name]
        opts = BmcOptions(max_depth=5)
        base = baseline(builder, opts)
        rng = random.Random({"fifo": 101, "stack": 202, "soc": 303}[name])

        def killer():
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                kids = multiprocessing.active_children()
                if kids:
                    victim = rng.choice(kids)
                    try:
                        os.kill(victim.pid, signal.SIGKILL)
                    except (ProcessLookupError, OSError):
                        pass
                    return
                time.sleep(0.01)

        with VerificationService(builder, opts, jobs=2,
                                 retry=FAST_RETRY) as svc:
            thread = threading.Thread(target=killer, daemon=True)
            thread.start()
            records = list(svc.stream())
            thread.join(timeout=10.0)
            assert_stream_invariants(records, svc.plan())
            got = {sr.property_name: sr.result for sr in records
                   if sr.result is not None}
            assert signature(got) == signature(base)
        wait_no_children()


# ---------------------------------------------------------------------------
# Supervisor unit behaviour (real pool, synthetic workloads).
# ---------------------------------------------------------------------------


def _flaky(job, attempt, fail_below):
    if attempt < fail_below:
        raise RuntimeError(f"transient #{attempt} for {job}")
    return ("ok", job, attempt)


class TestSupervisor:
    def _run(self, jobs, fail_below, max_retries):
        def submit(pool, job, attempt):
            return pool.submit(_flaky, job, attempt, fail_below)

        sup = PoolSupervisor(submit, max_workers=2,
                             retry=RetryPolicy(max_retries=max_retries,
                                               backoff_base_s=0.001,
                                               backoff_cap_s=0.01))
        try:
            return list(sup.run(jobs))
        finally:
            sup.close()

    def test_transient_errors_heal(self):
        events = self._run(["a", "b"], fail_below=3, max_retries=3)
        outcomes = [e for e in events if hasattr(e, "result")]
        assert {(e.job, e.attempts) for e in outcomes} == \
               {("a", 3), ("b", 3)}
        assert all(e.result == ("ok", e.job, 3) for e in outcomes)
        retries = [e for e in events if not hasattr(e, "result")]
        assert len(retries) == 4
        assert all(e.failure == "error" for e in retries)

    def test_exhaustion_is_terminal_with_attribution(self):
        events = self._run(["a"], fail_below=99, max_retries=1)
        outcomes = [e for e in events if hasattr(e, "result")]
        assert len(outcomes) == 1
        assert outcomes[0].result is None
        assert outcomes[0].failure == "error"
        assert outcomes[0].attempts == 2
        assert outcomes[0].failures == ["error", "error"]

    def test_close_survives_workers_killed_during_shutdown(self):
        """Idle workers wait on the call queue, one of them holding its
        read lock.  A worker killed while the pool shuts down must not
        hang ``close()``, even when it held that lock.  All workers but
        one are stopped before the shutdown and killed during it; each
        round spares a different worker, so at most one round spares
        the lock holder."""
        def submit(pool, job, attempt):
            return pool.submit(_flaky, job, attempt, 0)

        for spared in range(4):
            sup = PoolSupervisor(submit, max_workers=4)
            assert len(list(sup.run(["a", "b", "c", "d"]))) == 4
            procs = sorted(sup._pool._processes.values(), key=lambda p: p.pid)
            assert len(procs) == 4
            victims = procs[:spared] + procs[spared + 1:]
            time.sleep(0.2)  # every worker back in the call queue's get()
            for proc in victims:
                os.kill(proc.pid, signal.SIGSTOP)
            closer = threading.Thread(target=sup.close, daemon=True)
            closer.start()
            time.sleep(0.2)  # the shutdown is under way
            for proc in victims:
                os.kill(proc.pid, signal.SIGKILL)
            closer.join(timeout=20.0)
            assert not closer.is_alive(), "close() hung on a dead worker"
        wait_no_children()

    def test_backoff_is_deterministic_and_capped(self):
        policy = RetryPolicy(max_retries=5, backoff_base_s=0.1,
                             backoff_cap_s=0.3, jitter=0.25)
        d1 = policy.delay_s(1, ("p", None))
        assert d1 == policy.delay_s(1, ("p", None))
        assert d1 != policy.delay_s(1, ("q", None))  # per-job jitter
        assert policy.delay_s(9, ("p", None)) <= 0.3 * 1.25
        assert policy.delay_s(2, ("p", None)) > policy.delay_s(1, ("p", None))
