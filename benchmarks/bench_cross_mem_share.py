"""Experiment C10 — cross-memory comparator sharing on miters.

The session-scoped comparator registry answers one memory's address
comparisons from another memory's cache entries whenever their cones
lower to the same SAT literals.  The headline workload is the miter of
two memory copies (``design/equiv.py``): both sides see identical
input-driven address cones, so nearly every comparator of the ``b::``
copy is a cross-memory hit against the ``a::`` copy's entries.

* **C10** — per-depth encoding sweep on the two-copy miter.  The CI
  gate pins the session's solver clauses+vars at every measured depth
  and asserts that the miter actually shares (``cross_mem_cmp_hits >
  0`` — a zero means the registry went dead).
* **C10b** — observable parity on the same miter: verdict, depth and
  PBA latch/memory reasons must match the gate encoding (whose AIG side
  shares the cones structurally) and the verdict must match the
  explicit-memory model, and the PBA core must attribute the shared
  comparator clauses to *both* memory copies (the multi-label story).
* **C10c** — the single-memory ``multiport_soc`` case study: with one
  memory there is nothing to share across, so the registry must be a
  no-op (zero cross hits, pinned size).
"""

from benchmarks import common
from repro.bmc import BmcOptions, EncodingSession, verify
from repro.casestudies.multiport_soc import (MultiportSocParams,
                                             build_multiport_soc)
from repro.design import Design, build_miter, expand_memories

common.table(
    "C10 — cross-memory comparator sharing on the two-copy miter",
    ["depth", "cls+vars", "x-hits"],
    note="one SharedComparatorTables registry across the miter's a::/b:: "
         "memory copies; the pinned clauses+vars at every depth and "
         "x-hits > 0 are the CI gate",
)

common.table(
    "C10c — single-memory SoC under the registry",
    ["depth", "cls+vars", "x-hits", "statuses"],
    note="one memory: the session registry has nothing to share across",
)


def build_memory_unit():
    """One multi-port memory read/written through input-driven cones —
    the shape whose miter shares comparators across the copies."""
    d = Design("unit")
    wa = d.input("wa", 3)
    wd = d.input("wd", 4)
    we = d.input("we", 1)
    ra0 = d.input("ra0", 3)
    mem = d.memory("m", addr_width=3, data_width=4, init=0, read_ports=3)
    mem.write(0).connect(addr=wa, data=wd, en=we)
    r0 = mem.read(0).connect(addr=ra0, en=1)
    # Recurring cones: a constant address and a reuse of the write
    # address, so the per-memory cache is already working hard and the
    # cross-memory win is measured *on top of* it.
    r1 = mem.read(1).connect(addr=d.const(5, 3), en=1)
    r2 = mem.read(2).connect(addr=wa, en=1)
    out = d.latch("out", 4, init=0)
    out.next = r0 ^ r1 ^ r2
    return d, out.expr


def build_miter_workload():
    a, oa = build_memory_unit()
    b, ob = build_memory_unit()
    return build_miter(a, b, [(oa, ob)])


DEPTHS = list(range(2, 25, 2)) if common.is_full() else list(range(2, 17, 2))

#: Session solver clauses+vars of the miter at each even depth 2..24.
MITER_PINNED = dict(zip(range(2, 25, 2),
                        [1663, 4196, 7837, 12586, 18443, 25408, 33481,
                         42662, 52951, 64348, 76853, 90466]))

#: Solver clauses+vars of the single-memory SoC run below.
SOC_PINNED = 6007


def bench_cross_mem_miter_sizes(benchmark):
    """CI gate: pinned clauses+vars at every depth, and the registry
    actually shares across the two copies."""

    def run():
        session = EncodingSession(build_miter_workload(), BmcOptions())
        sizes = []
        for depth in DEPTHS:
            session.extend_to(depth)
            sizes.append(session.clause_var_total())
        return sizes, session.cmp_registry.cross_mem_hits

    sizes, hits = benchmark.pedantic(run, rounds=1, iterations=1)
    assert hits > 0, (
        "cross-memory sharing went dead on the miter workload: "
        "0 registry hits (every a::/b:: cone should coincide)")
    for depth, size in zip(DEPTHS, sizes):
        assert size == MITER_PINNED[depth], (
            f"miter encoding moved at depth {depth}: {size} clauses+vars, "
            f"pinned {MITER_PINNED[depth]}")
        common.add_row(
            "C10 — cross-memory comparator sharing on the two-copy miter",
            depth, size, hits if depth == DEPTHS[-1] else "")
    benchmark.extra_info["depths"] = DEPTHS
    benchmark.extra_info["clauses_vars"] = sizes
    benchmark.extra_info["cross_mem_hits"] = hits


def bench_cross_mem_miter_verdicts(benchmark):
    """CI gate: sharing is invisible to every observable outcome, and
    the PBA core names both memory copies through shared clauses."""

    def run():
        # Bounded falsification (no induction): the equiv proof closes
        # at depth 1 by forward induction, before any core ever walks
        # the forwarding clauses — the bounded run's UNSAT cores are the
        # ones that must name both memories.
        out = {encoding: verify(build_miter_workload(), "equiv",
                                BmcOptions(find_proof=False, pba=True,
                                           max_depth=10,
                                           emm_encoding=encoding))
               for encoding in ("hybrid", "gates")}
        out["explicit"] = verify(expand_memories(build_miter_workload()),
                                 "equiv",
                                 BmcOptions(find_proof=False, use_emm=False,
                                            max_depth=10))
        return out

    out = benchmark.pedantic(run, rounds=1, iterations=1)
    on, gates, explicit = out["hybrid"], out["gates"], out["explicit"]
    assert (on.status, on.depth, on.method) == \
        (gates.status, gates.depth, gates.method), (on.status, gates.status)
    assert (on.status, on.depth) == (explicit.status, explicit.depth)
    assert on.trace_validated == gates.trace_validated
    assert on.latch_reasons == gates.latch_reasons
    assert on.memory_reasons == gates.memory_reasons
    assert on.stats.cross_mem_cmp_hits > 0
    assert on.stats.core_unlabeled == 0
    # The multi-label regression: cores through shared comparators must
    # attribute them to both copies, never just the first emitter's.
    mems = on.memory_reasons[-1]
    assert {"a::m", "b::m"} <= mems, mems
    benchmark.extra_info["status"] = on.status
    benchmark.extra_info["cross_mem_cmp_hits"] = on.stats.cross_mem_cmp_hits


def bench_cross_mem_soc(benchmark):
    """A single-memory design: zero cross hits and a pinned size."""
    soc = MultiportSocParams(addr_width=3, data_width=4, counter_width=3,
                             num_properties=2)

    def run():
        design = build_multiport_soc(soc)
        name = sorted(design.properties)[0]
        return verify(design, name, BmcOptions(find_proof=False,
                                               max_depth=8))

    r = benchmark.pedantic(run, rounds=1, iterations=1)
    size = r.stats.sat_clauses + r.stats.sat_vars
    assert (r.status, r.depth) == ("bounded", 8)
    assert r.stats.cross_mem_cmp_hits == 0
    assert size == SOC_PINNED, (size, SOC_PINNED)
    common.add_row("C10c — single-memory SoC under the registry",
                   r.depth, size, r.stats.cross_mem_cmp_hits, r.status)
    benchmark.extra_info["soc_clauses_vars"] = size
