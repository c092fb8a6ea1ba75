"""Verification as a service: sharded multi-property scheduling.

Built on the encoding/scheduling split of :mod:`repro.bmc` — an
:class:`repro.bmc.session.EncodingSession` per (design, options) shared
by every property, with jobs sharded across processes and results
streamed under a first-counterexample-wins policy.

The service is fault tolerant: a :class:`PoolSupervisor` recovers from
worker crashes and hangs (attribution, retry with capped backoff, pool
rebuild), the quota fields of :class:`~repro.bmc.engine.BmcOptions`
degrade over-budget jobs to sound partial answers instead of killing
them, and :class:`FaultPlan` injects worker
faults deterministically so the recovery machinery stays tested.
"""

from repro.bmc.session import SessionCache
from repro.service.faults import (ANY_WINDOW, FAULT_KINDS, FaultInjected,
                                  FaultPlan, FaultProbe, INJECTION_POINTS,
                                  Injection, POINT_ENTER, POINT_EXIT,
                                  POINT_SESSION)
from repro.service.service import (CANCELLED, FAILED, RETRY, ServiceJob,
                                   ServiceResult, VerificationService,
                                   merge_window_results, shard_depths)
from repro.service.supervisor import (CRASH, ERROR, HANG, JobOutcome,
                                      JobRetry, PoolSupervisor, RetryPolicy)

__all__ = ["VerificationService", "ServiceJob", "ServiceResult",
           "SessionCache", "CANCELLED", "RETRY", "FAILED",
           "merge_window_results", "shard_depths",
           "PoolSupervisor", "RetryPolicy", "JobRetry", "JobOutcome",
           "CRASH", "HANG", "ERROR",
           "FaultPlan", "FaultProbe", "FaultInjected", "Injection",
           "POINT_ENTER", "POINT_SESSION", "POINT_EXIT",
           "INJECTION_POINTS", "FAULT_KINDS", "ANY_WINDOW"]
