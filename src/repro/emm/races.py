"""Data-race detection for multi-port memories.

Section 4.1 assumes data races are absent ("a memory location can be
updated at any given cycle through only one write port") and notes the
approach extends to checking for them.  This module is that extension: a
bounded search for a reachable cycle in which two write ports of the same
memory target the same address with both enables active.  It is a plain
check on an :class:`~repro.bmc.session.EncodingSession`; the EMM
encoders know nothing about it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

from repro.design.netlist import Design


@dataclass
class RaceResult:
    """Outcome of a bounded data-race search."""

    memory: str
    found: bool
    depth: Optional[int] = None
    #: Input vectors per frame leading to the race (when found).
    inputs: list[dict] = field(default_factory=list)
    wall_time_s: float = 0.0

    def describe(self) -> str:
        if self.found:
            return (f"memory {self.memory!r}: write-write race reachable "
                    f"at depth {self.depth}")
        return (f"memory {self.memory!r}: no data race within the bound "
                f"({self.wall_time_s:.2f}s)")


def find_data_race(design: Design, mem_name: str,
                   max_depth: int = 20) -> RaceResult:
    """Search depths 0..max_depth for a reachable write-write race.

    The race predicate ``OR_{i<j}(WE_i & WE_j & WA_i == WA_j)`` over the
    memory's write ports is checked at each depth under the session's
    initial-state literals.  No property is registered, so the design's
    fingerprint is unchanged.
    """
    # repro.bmc imports repro.emm, so the session is imported here.
    from repro.bmc import BmcOptions, EncodingSession
    from repro.bmc.counterexample import _word_value

    design.validate()
    ports = design.memories[mem_name].write_ports
    if len(ports) < 2:
        return RaceResult(memory=mem_name, found=False, wall_time_s=0.0)
    t0 = time.monotonic()
    race = design.or_many(p.en & q.en & p.addr.eq(q.addr)
                          for i, p in enumerate(ports)
                          for q in ports[i + 1:])
    session = EncodingSession(design, BmcOptions(find_proof=False))
    em = session.emitter
    un = session.unroller
    for k in range(max_depth + 1):
        session.extend_to(k)
        em.set_label(("race", k))
        race_k = em.sat_lit(un.lit(race, k))
        if session.solver.solve([session.a_init, session.a_meminit,
                                 race_k]).sat:
            inputs = [{name: _word_value(session, un.input_word(name, j))
                       for name in design.inputs} for j in range(k + 1)]
            return RaceResult(memory=mem_name, found=True, depth=k,
                              inputs=inputs,
                              wall_time_s=time.monotonic() - t0)
    return RaceResult(memory=mem_name, found=False,
                      wall_time_s=time.monotonic() - t0)

