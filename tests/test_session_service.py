"""EncodingSession sharing, Design.fingerprint, and the service layer.

Three layers under test:

* the session/scheduler split — shared-session multi-property runs must
  be observationally identical to fresh per-property engines while
  strictly smaller in total encoding size;
* ``Design.fingerprint()`` — the service cache key: insensitive to
  declaration order, sensitive to every semantic change;
* ``VerificationService`` — inline and pooled execution, verdict parity
  with sequential ``verify()``, depth-window merging, and the
  first-CEX-wins cancellation policy (observable in stream order).
"""

import time

import pytest

from repro.bmc import (BmcEngine, BmcOptions, EncodingSession, SessionCache,
                       verify, verify_many)
from repro.casestudies.fifo import FifoParams, build_fifo
from repro.casestudies.multiport_soc import (MultiportSocParams,
                                             build_multiport_soc)
from repro.casestudies.stack_machine import (StackMachineParams,
                                             build_stack_machine)
from repro.design import Design
from repro.sat.solver import Solver
from repro.service import (CANCELLED, VerificationService,
                           merge_window_results, shard_depths)


def tiny_fifo():
    return build_fifo(FifoParams(addr_width=2, data_width=2))


def tiny_stack():
    return build_stack_machine(StackMachineParams(addr_width=2, data_width=2))


def tiny_soc():
    return build_multiport_soc(MultiportSocParams(
        addr_width=2, data_width=2, counter_width=3, num_properties=4))


def quick_hit_fifo():
    """A fifo with an extra depth-0 witness — the fast first-CEX job.

    ``quick`` holds at depth 0 only (a latch that starts at 1 and stays
    0 after), so a window above depth 0 has no witness of its own and
    must encode every frame up to its bound.
    """
    design = build_fifo(FifoParams(addr_width=4, data_width=8))
    once = design.latch("quick_once", 1, init=1)
    once.next = design.const(0, 1)
    design.reach("quick", once.expr)
    return design


def assert_result_parity(shared, fresh, ctx, design):
    assert shared.status == fresh.status, (ctx, shared.status, fresh.status)
    assert shared.depth == fresh.depth, ctx
    assert shared.method == fresh.method, ctx
    assert shared.trace_validated == fresh.trace_validated, ctx
    if shared.trace is not None:
        assert len(shared.trace.cycles) == len(fresh.trace.cycles), ctx
    # PBA reasons: unsat cores are not unique, and on a shared session the
    # solver reaches a check with learned clauses from sibling properties,
    # so the *particular* core may differ from a fresh engine's.  What must
    # hold: the reason sequence has the same shape (one entry per UNSAT
    # depth) and every set is a sound abstraction seed — real latch /
    # memory names, accumulated monotonically.
    assert len(shared.latch_reasons) == len(fresh.latch_reasons), ctx
    assert len(shared.memory_reasons) == len(fresh.memory_reasons), ctx
    all_latches = frozenset(design.latches)
    all_mems = frozenset(design.memories)
    prev = frozenset()
    for lr in shared.latch_reasons:
        assert lr <= all_latches and lr >= prev, ctx
        prev = lr
    prev = frozenset()
    for mr in shared.memory_reasons:
        assert mr <= all_mems and mr >= prev, ctx
        prev = mr


# ---------------------------------------------------------------------------
# Shared-session parity and size savings.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("builder,depth", [
    (tiny_fifo, 5), (tiny_stack, 4), (tiny_soc, 5),
], ids=["fifo", "stack", "multiport_soc"])
def test_shared_session_matches_fresh_engines(builder, depth):
    design = builder()
    opts = BmcOptions(find_proof=True, pba=True, max_depth=depth)
    shared = verify_many(design, options=opts)
    assert set(shared) == set(design.properties)
    for name, result in shared.items():
        fresh = verify(builder(), name, opts)
        assert_result_parity(result, fresh, (design.name, name), design)


def assert_session_amortizes(builder, opts):
    """One shared session holds every property's encoding (no fresh
    engine is larger), yet its clauses+vars stay strictly below the sum
    of per-property fresh engines, with the same verdict per property."""
    design = builder()
    assert len(design.properties) >= 3
    session = EncodingSession(design, opts)
    shared = verify_many(design, options=opts, session=session)
    fresh_sizes = []
    for name in design.properties:
        r = verify(builder(), name, opts)
        fresh_sizes.append(r.stats.sat_clauses + r.stats.sat_vars)
        assert (shared[name].status, shared[name].depth,
                shared[name].method) == (r.status, r.depth, r.method), name
    assert max(fresh_sizes) <= session.clause_var_total() < sum(fresh_sizes)


def test_shared_session_strictly_smaller_than_fresh_sum():
    assert_session_amortizes(
        tiny_soc, BmcOptions(find_proof=False, pba=False, max_depth=5))


def soc_c6():
    return build_multiport_soc(MultiportSocParams(
        addr_width=3, data_width=4, counter_width=3, num_properties=4))


def test_shared_session_amortizes_with_proofs():
    """C6: the session also amortizes under induction checks."""
    assert_session_amortizes(
        soc_c6, BmcOptions(find_proof=True, pba=False, max_depth=6))


def test_single_property_run_bit_identical_to_fresh_engine():
    """A fresh engine (private session) must replicate the monolith: the
    same run twice produces identical encodings and solver effort."""
    opts = BmcOptions(find_proof=True, pba=True, max_depth=4)
    a = verify(tiny_stack(), "sp_in_range", opts)
    b = verify(tiny_stack(), "sp_in_range", opts)
    assert a.stats.sat_vars == b.stats.sat_vars
    assert a.stats.sat_clauses == b.stats.sat_clauses
    assert a.stats.solver["conflicts"] == b.stats.solver["conflicts"]
    assert a.stats.solver["decisions"] == b.stats.solver["decisions"]


def test_engine_rejects_mismatched_session():
    design = tiny_fifo()
    session = EncodingSession(design, BmcOptions(find_proof=True))
    with pytest.raises(ValueError, match="encoding"):
        BmcEngine(design, "can_fill", BmcOptions(find_proof=False),
                  session=session)
    with pytest.raises(ValueError, match="different Design"):
        BmcEngine(tiny_fifo(), "can_fill", session.options, session=session)
    # Per-run knobs may differ freely.
    BmcEngine(design, "can_fill",
              BmcOptions(find_proof=True, max_depth=3, timeout_s=60),
              session=session)


def test_session_reuse_across_runs_keeps_verdicts():
    design = tiny_fifo()
    opts = BmcOptions(find_proof=False, max_depth=8)
    session = EncodingSession(design, opts)
    first = BmcEngine(design, "can_fill", opts, session=session).run()
    again = BmcEngine(design, "can_fill", opts, session=session).run()
    assert first.status == again.status == "cex"
    assert first.depth == again.depth


# ---------------------------------------------------------------------------
# BmcOptions.encoding_key and the session cache.
# ---------------------------------------------------------------------------


def test_encoding_key_ignores_run_knobs_only():
    base = BmcOptions()
    same = [BmcOptions(max_depth=7), BmcOptions(timeout_s=1.5),
            BmcOptions(max_conflicts_per_check=10),
            BmcOptions(validate_cex=False), BmcOptions(profile=True),
            BmcOptions(mem_quota_mb=64.0), BmcOptions(clause_var_quota=1000),
            BmcOptions(wall_quota_s=2.0)]
    for opt in same:
        assert opt.encoding_key() == base.encoding_key(), opt
    diff = [BmcOptions(find_proof=False), BmcOptions(pba=True),
            BmcOptions(emm_encoding="gates"),
            BmcOptions(exclusivity=False),
            BmcOptions(kept_latches=frozenset({"x"})),
            BmcOptions(kept_read_ports={"m": frozenset({0})})]
    for opt in diff:
        assert opt.encoding_key() != base.encoding_key(), opt


@pytest.mark.parametrize("setting,value,message", [
    ("kept_latches", frozenset({"cnt", "nope"}), r"kept_latches: \['nope'\]"),
    ("kept_memories", frozenset({"ghost"}), r"kept_memories: \['ghost'\]"),
    ("kept_read_ports", {"ghost": frozenset()},
     r"kept_read_ports: \['ghost'\]"),
    ("kept_read_ports", {"table": frozenset({0, 7})},
     r"kept_read_ports\['table'\]: read ports \[7\] not in a 3-port"),
])
def test_session_rejects_unknown_abstraction_names(setting, value, message):
    """Abstraction settings are checked against the design's latches,
    memories and ports, not against what else is kept: a memory left
    out of ``kept_memories`` may still be named by ``kept_read_ports``."""
    design = tiny_soc()
    with pytest.raises(ValueError, match=message):
        EncodingSession(design, BmcOptions(**{setting: value}))
    EncodingSession(design, BmcOptions(
        kept_memories=frozenset(), kept_read_ports={"table": frozenset({2})}))


def test_session_cache_hits_and_eviction():
    cache = SessionCache(max_sessions=2)
    design = tiny_fifo()
    opts = BmcOptions()
    s1 = cache.get_or_create(design, opts)
    # Same content, different object: cache hit on the fingerprint.
    assert cache.get_or_create(tiny_fifo(), opts) is s1
    assert (cache.hits, cache.misses) == (1, 1)
    cache.get_or_create(design, BmcOptions(find_proof=False))
    cache.get_or_create(design, BmcOptions(emm_encoding="gates"))
    assert len(cache) == 2  # LRU evicted the oldest
    assert cache.get_or_create(design, opts) is not s1  # was evicted


# ---------------------------------------------------------------------------
# Design.fingerprint.
# ---------------------------------------------------------------------------


def _two_latch_design(order_ab: bool) -> Design:
    d = Design("fp")
    names = ["a", "b"] if order_ab else ["b", "a"]
    latches = {n: d.latch(n, 2, init=1) for n in names}
    inp = d.input("i", 2)
    for n in names:
        latches[n].next = latches[n].expr + inp
    mem = d.memory("m", 2, 2, init=None, init_words={1: 3})
    mem.write(0).connect(addr=latches["a"].expr, data=inp, en=1)
    mem.read(0).connect(addr=latches["b"].expr, en=1)
    d.invariant("p", latches["a"].expr.eq(latches["b"].expr))
    return d


def test_fingerprint_insensitive_to_declaration_order():
    assert _two_latch_design(True).fingerprint() == \
        _two_latch_design(False).fingerprint()


def test_fingerprint_stable_across_rebuilds():
    assert tiny_fifo().fingerprint() == tiny_fifo().fingerprint()
    assert tiny_fifo().fingerprint() != tiny_stack().fingerprint()


def test_fingerprint_sensitive_to_semantic_changes():
    base = _two_latch_design(True).fingerprint()
    seen = {base}

    def variant(mutate):
        d = _two_latch_design(True)
        mutate(d)
        fp = d.fingerprint()
        assert fp not in seen, mutate
        seen.add(fp)

    variant(lambda d: setattr(d.latches["a"], "init", 0))
    variant(lambda d: setattr(d.latches["a"], "_next",
                              d.latches["a"].expr + d.const(1, 2)))
    variant(lambda d: d.memories["m"].init_words.update({2: 1}))
    variant(lambda d: setattr(d.memories["m"], "init", 0))
    variant(lambda d: d.reach("extra", d.latches["a"].expr.eq(0)))
    variant(lambda d: setattr(d.properties["p"], "kind", "reach"))


# ---------------------------------------------------------------------------
# Timeout / conflict-limit attribution.
# ---------------------------------------------------------------------------


def test_solver_deadline_aborts_with_limit():
    s = Solver(proof=False)
    v = s.new_var()
    s.add_clause([v])
    r = s.solve([], deadline=time.monotonic() - 1.0)
    assert r.unknown and r.limit == "deadline"
    assert s.solve([]).sat  # solver still usable afterwards


def test_wall_timeout_trips_inside_check():
    result = verify(tiny_fifo(), "can_fill",
                    BmcOptions(find_proof=False, max_depth=30, timeout_s=0.0))
    assert result.status == "timeout"
    assert result.stats.limit_tripped == "wall"


def test_conflict_budget_trips_with_attribution():
    result = verify(tiny_stack(), "sp_in_range",
                    BmcOptions(find_proof=True, max_depth=10,
                               max_conflicts_per_check=0))
    if result.status == "timeout":  # a conflict occurred and hit the budget
        assert result.stats.limit_tripped == "conflicts"
    else:  # conflict-free run: the budget never engaged
        assert result.stats.limit_tripped is None


# ---------------------------------------------------------------------------
# VerificationService: inline + pooled, parity, sharding, first-CEX-wins.
# ---------------------------------------------------------------------------


def test_service_inline_matches_sequential_verify():
    design = tiny_soc()
    opts = BmcOptions(find_proof=True, max_depth=5)
    with VerificationService(tiny_soc, opts) as svc:
        served = svc.run()
    assert set(served) == set(design.properties)
    for name, result in served.items():
        fresh = verify(design, name, opts)
        assert (result.status, result.depth, result.method) == \
            (fresh.status, fresh.depth, fresh.method), name


def test_service_pool_matches_sequential_verify():
    design = tiny_soc()
    opts = BmcOptions(find_proof=True, max_depth=5)
    with VerificationService(tiny_soc, opts, jobs=2) as svc:
        served = svc.run()
    assert set(served) == set(design.properties)
    for name, result in served.items():
        fresh = verify(design, name, opts)
        assert (result.status, result.depth, result.method) == \
            (fresh.status, fresh.depth, fresh.method), name


def test_shard_depths_partitions_range():
    assert shard_depths(8, 2) == [(0, 4), (5, 8)]
    assert shard_depths(2, 5) == [(0, 0), (1, 1), (2, 2)]
    flat = [d for lo, hi in shard_depths(40, 7) for d in range(lo, hi + 1)]
    assert flat == list(range(41))


def test_windowed_run_merges_to_sequential_verdict():
    opts = BmcOptions(find_proof=False, max_depth=8)
    with VerificationService(tiny_fifo, opts) as svc:
        served = svc.run(["can_fill"], depth_windows=shard_depths(8, 3))
    fresh = verify(tiny_fifo(), "can_fill", opts)
    assert served["can_fill"].status == fresh.status == "cex"
    assert served["can_fill"].depth == fresh.depth


def test_merge_window_results_first_conclusive_wins():
    opts = BmcOptions(find_proof=False, max_depth=8)
    session = EncodingSession(tiny_fifo(), opts)
    eng = BmcEngine(session.design, "can_fill", opts, session=session)
    bounded = eng.run(window=(0, 2))
    cex = BmcEngine(session.design, "can_fill", opts, session=session) \
        .run(window=(3, 8))
    assert (bounded.status, cex.status) == ("bounded", "cex")
    assert merge_window_results([bounded, cex], [(0, 2), (3, 8)]) is cex


def test_first_cex_wins_inline_stream_order():
    opts = BmcOptions(find_proof=False, max_depth=6)
    with VerificationService(tiny_stack, opts) as svc:
        stream = list(svc.stream(["can_reach_depth3"],
                                 depth_windows=[(0, 4), (5, 6)]))
    assert [sr.status for sr in stream] == ["cex", CANCELLED]
    assert stream[0].window == (0, 4)
    assert stream[1].result is None


def test_first_cex_wins_cancels_slow_sibling_in_pool():
    # Window (0, 0) holds a depth-0 witness and resolves immediately; the
    # sibling window must first encode 25 more frames of a wide fifo — a
    # deliberately slow job that is still mid-flight when the CEX lands.
    opts = BmcOptions(find_proof=False, max_depth=25)
    with VerificationService(quick_hit_fifo, opts, jobs=2) as svc:
        stream = list(svc.stream(["quick"], depth_windows=[(0, 0), (1, 25)]))
    assert [sr.status for sr in stream] == ["cex", CANCELLED]
    assert stream[0].window == (0, 0)
    assert stream[0].result.depth == 0
    assert stream[1].window == (1, 25)


def test_service_repeated_requests_reuse_cached_session():
    opts = BmcOptions(find_proof=True, max_depth=4)
    with VerificationService(tiny_fifo, opts) as svc:
        first = svc.run(["empty_full_exclusive"])
        assert (svc.cache.hits, svc.cache.misses) == (0, 1)
        second = svc.run(["empty_full_exclusive"])
        assert svc.cache.hits == 1
    assert first["empty_full_exclusive"].status == \
        second["empty_full_exclusive"].status
