"""Deletion-based minimization of PBA latch reasons.

Unsat cores are *sufficient* but not *minimal*: the solver's refutation
may incidentally walk through link clauses of latches the property does
not actually need (Section 4.3 decides memory abstraction by exactly
those latches, so a spurious control latch keeps a whole memory module
alive).  This module shrinks a stable reason set the same way MUS
extractors shrink cores — try deleting a candidate, keep the deletion if
the bounded correctness check still holds on the (more abstract) model.

Soundness: freeing a latch or dropping a memory's EMM constraints only
*adds* behaviours.  If the property still holds up to the stability
depth on the smaller model, the smaller model preserves correctness up
to that depth just as the PBA abstraction itself does [9, 10]; the
subsequent unbounded proof runs on the reduced model and transfers to
the concrete design.

Two granularities, coarse first (the cheap win the paper reports —
dropping the quicksort *array* module entirely for property P2):

* ``memory`` — drop a memory module's EMM constraints together with the
  control latches only it uses;
* ``latch`` — drop one latch at a time (pseudo-primary input).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from repro.bmc.engine import BmcEngine, BmcOptions
from repro.bmc.results import BOUNDED
from repro.design.cone import memory_control_latches
from repro.design.netlist import Design


@dataclass
class MinimizationResult:
    """Outcome of :func:`minimize_reasons`."""

    latches: frozenset[str]
    memories: frozenset[str]
    read_ports: dict = field(default_factory=dict)
    #: Candidates whose deletion was attempted and kept.
    dropped_latches: frozenset[str] = frozenset()
    dropped_memories: frozenset[str] = frozenset()
    #: Bounded checks performed (one BMC run per attempted deletion).
    checks: int = 0


def holds_up_to(design: Design, property_name: str, depth: int,
                options: BmcOptions) -> bool:
    """True when the property was checked to have no counterexample at
    any depth <= depth.

    Runs plain bounded falsification (no proof or PBA machinery) under the
    abstraction encoded in ``options``; abstract models over-approximate,
    so a True answer transfers to the concrete design up to ``depth``.
    Anything short of BOUNDED at ``depth`` (a CEX, a timeout, a degraded
    run) is no evidence, so the deletion is refused.
    """
    opts = replace(options, find_proof=False, pba=False, max_depth=depth,
                   validate_cex=False)
    result = BmcEngine(design, property_name, opts).run()
    return result.status == BOUNDED and result.depth == depth


def minimize_reasons(design: Design, property_name: str,
                     latch_reasons: frozenset[str], depth: int,
                     options: Optional[BmcOptions] = None,
                     kept_memories: Optional[frozenset[str]] = None,
                     kept_read_ports: Optional[dict] = None,
                     granularity: str = "memory",
                     core_unlabeled: int = 0,
                     ) -> MinimizationResult:
    """Shrink ``latch_reasons`` by attempted deletion at ``depth``.

    ``granularity`` is ``"memory"`` (drop whole memory modules — cheap,
    usually all Table 2 needs), ``"latch"`` (drop latches one by one), or
    ``"both"`` (memories first, then remaining latches).

    ``core_unlabeled`` is the source run's
    ``BmcRunStats.core_unlabeled``: deletion-based shrinking treats the
    reason list as *exhaustive* (anything outside it is assumed safe to
    try deleting), which only holds if every core clause carried a
    provenance label.  A nonzero count is refused rather than silently
    minimized on incomplete reasons.
    """
    if granularity not in ("memory", "latch", "both"):
        raise ValueError(f"unknown granularity {granularity!r}")
    if core_unlabeled:
        raise ValueError(
            f"reason list is not exhaustive: {core_unlabeled} core "
            "clause(s) carried no provenance label "
            "(see BmcRunStats.core_unlabeled)")
    base = options or BmcOptions()
    latches = set(latch_reasons)
    memories = set(kept_memories if kept_memories is not None
                   else frozenset(design.memories))
    ports = dict(kept_read_ports or {})
    dropped_l: set[str] = set()
    dropped_m: set[str] = set()
    checks = 0

    def current_options(try_latches: set[str], try_memories: set[str]) -> BmcOptions:
        return replace(base,
                       kept_latches=frozenset(try_latches),
                       kept_memories=frozenset(try_memories),
                       kept_read_ports={m: p for m, p in ports.items()
                                        if m in try_memories})

    if granularity in ("memory", "both"):
        for mem_name in sorted(memories):
            control = memory_control_latches(design, mem_name) & latches
            # Control latches shared with another kept memory must stay.
            shared = set()
            for other in memories:
                if other != mem_name:
                    shared |= memory_control_latches(design, other)
            removable = control - shared
            try_latches = latches - removable
            try_memories = memories - {mem_name}
            checks += 1
            if holds_up_to(design, property_name, depth,
                           current_options(try_latches, try_memories)):
                latches = try_latches
                memories = try_memories
                dropped_m.add(mem_name)
                dropped_l |= removable

    if granularity in ("latch", "both"):
        for name in sorted(latches):
            try_latches = latches - {name}
            checks += 1
            if holds_up_to(design, property_name, depth,
                           current_options(try_latches, memories)):
                latches = try_latches
                dropped_l.add(name)
            # A latch that cannot be dropped stays; continue with the rest
            # (deletion order is fixed by name for reproducibility).

    return MinimizationResult(
        latches=frozenset(latches),
        memories=frozenset(memories),
        read_ports={m: p for m, p in ports.items() if m in memories},
        dropped_latches=frozenset(dropped_l),
        dropped_memories=frozenset(dropped_m),
        checks=checks,
    )
