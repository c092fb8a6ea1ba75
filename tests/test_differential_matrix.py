"""Differential harness over the encoder matrix.

One harness instead of per-feature one-off tests (the modular-
verification argument of RealityCheck, PAPERS.md): both EMM encodings
are run on the same workloads and cross-checked

* against the **explicit-model oracle**: the design with its memories
  expanded into registers (``repro.design.explicit.expand_memories``)
  verified without any EMM constraints.  Bounded falsification is
  exactly comparable across models, so verdicts, counterexample depths
  and trace validity must coincide at every depth;
* under induction + PBA: every run must agree with the explicit
  model (and, where it fits, the BDD reachability engine) on its
  verdict and depth.

Workloads are randomized small netlists (multi-port, recurring address
cones, known/symbolic init — the shapes every sharing layer bites on)
plus the fifo/stack/cache case studies at shallow depth.  The expensive
corners (more seeds, deeper runs) are marked ``slow`` for the nightly
job.
"""

import random

import pytest

from repro.bmc import BmcOptions, verify, verify_many
from repro.casestudies.cache import CacheParams, build_cache
from repro.casestudies.fifo import FifoParams, build_fifo
from repro.casestudies.stack_machine import StackMachineParams, build_stack_machine
from repro.design import Design, build_miter
from repro.sim.fuzzfarm import ENCODINGS
from tests.bmc_oracle import (assert_matches_oracle, assert_verdict,
                              explicit_falsify, verdict_of)

#: The matrix cells: both EMM encodings at their defaults — the same
#: cells the fuzz farm runs.
MATRIX = ENCODINGS


def random_netlist(seed):
    """Random single-memory workload with recurring address cones.

    Shapes chosen so every optimisation path fires somewhere across the
    seeds: multi-write ports (disjoint parities, keeping the no-race
    assumption), known and arbitrary initial memory, and addresses
    drawn from constants, a shared input and a walking latch.
    """
    rng = random.Random(seed)
    aw = rng.choice([2, 3])
    dw = rng.choice([2, 3])
    w_ports = rng.choice([1, 2])
    r_ports = rng.choice([2, 3])
    init = rng.choice([0, None, 3])
    d = Design(f"rand{seed}")
    t = d.latch("t", aw, init=0)
    t.next = t.expr + 1
    mem = d.memory("m", aw, dw, read_ports=r_ports, write_ports=w_ports,
                   init=init)
    shared = d.input("sa", aw)
    addr_pool = [lambda: d.const(rng.randrange(1 << aw), aw),
                 lambda: shared,
                 lambda: t.expr]
    for w in range(w_ports):
        en = d.input(f"we{w}", 1)
        if w_ports > 1:
            addr = d.input(f"wa{w}", aw)
            en = en & addr[0].eq(w & 1)
        else:
            addr = rng.choice(addr_pool)()
        mem.write(w).connect(addr=addr, data=d.input(f"wd{w}", dw), en=en)
    for r in range(r_ports):
        mem.read(r).connect(addr=rng.choice(addr_pool)(), en=1)
    target = rng.randrange(1 << dw)
    d.reach("hit", mem.read(0).data.eq(target))
    return d, "hit"


def multi_property_netlist(seed):
    """``random_netlist`` grown to several properties of both kinds —
    the shape the shared-session path must keep observationally
    identical to per-property engines."""
    rng = random.Random(10_000 + seed)
    d, _ = random_netlist(seed)
    mem = d.memories["m"]
    d.reach("hit2", mem.read(1).data.eq(rng.randrange(1 << mem.data_width)))
    t = d.latches["t"]
    d.invariant("t_in_range", t.expr.ult((1 << t.width) - 1) |
                t.expr.eq((1 << t.width) - 1))
    return d


def falsify(design, prop, depth, **options):
    return verify(design, prop,
                  BmcOptions(find_proof=False, max_depth=depth, **options))


def run_matrix(design, prop, depth):
    """Bounded falsification of every matrix cell."""
    out = {}
    for encoding in MATRIX:
        out[encoding] = falsify(design, prop, depth, emm_encoding=encoding)
    return out


def assert_oracle_parity(results, oracle, ctx, design=None, prop=None):
    """Every matrix run reaches the explicit-memory oracle's verdict at
    the same depth, with the trace checks of
    :func:`tests.bmc_oracle.assert_verdict` (simulator replay when
    ``design``/``prop`` are given)."""
    assert oracle.status != "cex" or oracle.trace_validated is True, ctx
    for key, r in results.items():
        assert (r.status, r.depth) == (oracle.status, oracle.depth), \
            (ctx, key, r.status, r.depth, oracle.status, oracle.depth)
        assert_verdict(r, verdict_of(oracle), (ctx, key), design, prop)


# ---------------------------------------------------------------------------
# Randomized netlists vs the explicit oracle.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(6))
def test_random_netlists_match_explicit_oracle(seed):
    design, prop = random_netlist(seed)
    depth = 4
    oracle = explicit_falsify(design, prop, depth)
    results = run_matrix(design, prop, depth)
    assert_oracle_parity(results, oracle, seed, design=design, prop=prop)


@pytest.mark.slow
@pytest.mark.parametrize("seed", range(6, 14))
def test_random_netlists_full_matrix_nightly(seed):
    """More seeds, one depth deeper (nightly)."""
    design, prop = random_netlist(seed)
    depth = 5
    oracle = explicit_falsify(design, prop, depth)
    results = run_matrix(design, prop, depth)
    assert_oracle_parity(results, oracle, seed, design=design, prop=prop)


# ---------------------------------------------------------------------------
# Two-memory miters: cross-memory comparator sharing.
# ---------------------------------------------------------------------------


def miter_netlist(seed, twist=False):
    """Miter of two copies of ``random_netlist(seed)`` — a randomized
    *two-memory* design whose ``a::m``/``b::m`` copies see identical
    address cones wherever the cone is input- or constant-driven, the
    workload cross-memory comparator sharing is built for.  ``twist``
    pairs read port 0 against read port 1 (different address cones), so
    the ``equiv`` property gets a falsifiable branch too.
    """
    a, __ = random_netlist(seed)
    b, __ = random_netlist(seed)
    ra = a.memories["m"].read(0).data
    rb = b.memories["m"].read(1 if twist else 0).data
    return build_miter(a, b, [(ra, rb)])


@pytest.mark.parametrize("twist", [False, True], ids=["same", "twist"])
@pytest.mark.parametrize("seed", range(4))
def test_two_memory_miters_match_explicit_oracle(seed, twist):
    design = miter_netlist(seed, twist)
    depth = 4
    oracle = explicit_falsify(design, "equiv", depth)
    results = run_matrix(design, "equiv", depth)
    assert_oracle_parity(results, oracle, (seed, twist), design=design,
                         prop="equiv")


def mirrored(names):
    """Swap the miter's ``a::``/``b::`` prefixes."""
    swap = {"a::": "b::", "b::": "a::"}
    return frozenset(swap[n[:3]] + n[3:] for n in names)


#: Miter seeds whose memory-expanded model the BDD engine finishes on
#: (seed 0 hits its node limit; explicit-memory BMC still covers it).
MITER_BDD_SEEDS = {2}


@pytest.mark.parametrize("encoding", ["hybrid", "gates"])
@pytest.mark.parametrize("seed", [0, 2])
def test_miter_pba_reasons_invariant_across_share(seed, encoding):
    """The miter's two copies are symmetric, so PBA latch/memory reasons
    must be too, even though every comparator of the ``b::`` copy is
    answered from the ``a::`` copy's entries — the multi-label joining
    is exactly what keeps the shared clauses attributed to both."""
    design = miter_netlist(seed)
    r = prove(design, "equiv", 4, encoding)
    ctx = (seed, encoding)
    assert_matches_oracle(r, design, "equiv", ctx,
                          bdd=seed in MITER_BDD_SEEDS)
    assert r.stats.cross_mem_cmp_hits > 0, ctx
    assert r.memory_reasons[-1] == frozenset({"a::m", "b::m"}), ctx
    for latches in r.latch_reasons:
        assert mirrored(latches) == latches, (ctx, latches)


@pytest.mark.slow
@pytest.mark.parametrize("seed", range(4, 8))
def test_two_memory_miters_full_matrix_nightly(seed):
    """Nightly row: more miter seeds, one depth deeper."""
    design = miter_netlist(seed)
    depth = 5
    oracle = explicit_falsify(design, "equiv", depth)
    results = run_matrix(design, "equiv", depth)
    assert_oracle_parity(results, oracle, seed, design=design, prop="equiv")


# ---------------------------------------------------------------------------
# Induction + PBA vs the explicit and BDD oracles.
# ---------------------------------------------------------------------------


def prove(design, prop, depth, encoding):
    """One induction + PBA run of ``encoding``."""
    return verify(design, prop, BmcOptions(
        find_proof=True, pba=True, max_depth=depth, emm_encoding=encoding))


@pytest.mark.parametrize("encoding", ["hybrid", "gates"])
@pytest.mark.parametrize("seed", [1, 3, 5])
def test_pba_reasons_invariant_across_options(seed, encoding):
    design, prop = random_netlist(seed)
    r = prove(design, prop, 4, encoding)
    assert_matches_oracle(r, design, prop, (seed, encoding), bdd=True)


@pytest.mark.slow
@pytest.mark.parametrize("encoding", ["hybrid", "gates"])
@pytest.mark.parametrize("seed", [0, 2, 4])
def test_pba_reasons_full_matrix_nightly(seed, encoding):
    design, prop = random_netlist(seed)
    r = prove(design, prop, 4, encoding)
    # Seed 0 hits the BDD engine's node limit.
    assert_matches_oracle(r, design, prop, (seed, encoding), bdd=seed != 0)


# ---------------------------------------------------------------------------
# Shared-session runs vs fresh per-property engines.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("encoding", ["hybrid", "gates"])
@pytest.mark.parametrize("seed", range(4))
def test_shared_session_matches_fresh_engines_random(seed, encoding):
    """N properties on one encoding session agree with N fresh engines
    on verdict, depth, method and trace shape — checks are assumption
    sets, invisible to one another.  (Reason *sets* are compared in
    test_session_service.py: unsat cores are not unique, so a shared
    solver may pick a different-but-sound core.)"""
    design = multi_property_netlist(seed)
    opts = BmcOptions(find_proof=True, pba=True, max_depth=4,
                      emm_encoding=encoding)
    shared = verify_many(design, options=opts)
    assert set(shared) == set(design.properties)
    for name, r in shared.items():
        fresh = verify(multi_property_netlist(seed), name, opts)
        ctx = (seed, encoding, name)
        assert r.status == fresh.status, (ctx, r.status, fresh.status)
        assert r.depth == fresh.depth, ctx
        assert r.method == fresh.method, ctx
        assert r.trace_validated == fresh.trace_validated, ctx
        if r.trace is not None:
            assert len(r.trace.cycles) == len(fresh.trace.cycles), ctx
        assert len(r.latch_reasons) == len(fresh.latch_reasons), ctx


@pytest.mark.slow
@pytest.mark.parametrize("encoding", ["hybrid", "gates"])
@pytest.mark.parametrize("seed", range(4, 10))
def test_shared_session_matches_fresh_engines_random_nightly(seed, encoding):
    design = multi_property_netlist(seed)
    opts = BmcOptions(find_proof=True, pba=True, max_depth=5,
                      emm_encoding=encoding)
    shared = verify_many(design, options=opts)
    for name, r in shared.items():
        fresh = verify(multi_property_netlist(seed), name, opts)
        ctx = (seed, encoding, name)
        assert (r.status, r.depth, r.method) == \
            (fresh.status, fresh.depth, fresh.method), ctx


# ---------------------------------------------------------------------------
# Case studies at shallow depth: fifo / stack machine / cache.
# ---------------------------------------------------------------------------


def tiny_fifo():
    return build_fifo(FifoParams(addr_width=2, data_width=2))


def tiny_stack():
    return build_stack_machine(StackMachineParams(addr_width=2, data_width=2))


def tiny_cache():
    return build_cache(CacheParams(index_width=1, tag_width=2, data_width=2))


CASE_STUDIES = [
    # (builder, property, depth) — a reachable witness and a bounded
    # invariant per design keeps both verdict branches exercised.
    (tiny_fifo, "can_fill", 6),
    (tiny_fifo, "empty_full_exclusive", 5),
    (tiny_stack, "can_reach_depth3", 4),
    (tiny_stack, "sp_in_range", 4),
    (tiny_cache, "reach_hit", 4),
    (tiny_cache, "read_after_fill", 3),
]


@pytest.mark.parametrize("builder,prop,depth", CASE_STUDIES,
                         ids=[f"{b.__name__}-{p}" for b, p, _ in CASE_STUDIES])
def test_case_studies_match_explicit_oracle(builder, prop, depth):
    design = builder()
    oracle = explicit_falsify(design, prop, depth)
    results = run_matrix(design, prop, depth)
    assert_oracle_parity(results, oracle, prop, design=design, prop=prop)


@pytest.mark.slow
@pytest.mark.parametrize("builder,prop,depth", CASE_STUDIES,
                         ids=[f"{b.__name__}-{p}" for b, p, _ in CASE_STUDIES])
def test_case_studies_representative_matrix_nightly(builder, prop, depth):
    """Two depths deeper than the per-push case-study row (nightly)."""
    design = builder()
    depth += 2
    oracle = explicit_falsify(design, prop, depth)
    results = run_matrix(design, prop, depth)
    assert_oracle_parity(results, oracle, prop)


# ---------------------------------------------------------------------------
# Mass trials through the fuzz farm (repro.sim.fuzzfarm).
# ---------------------------------------------------------------------------


def farm_failure_message(report):
    lines = [report.summary()]
    for div in report.divergences:
        lines.append(f"  [{div.kind}] seed={div.seed} prop={div.prop} "
                     f"{div.detail}")
        if div.stimulus is not None:
            lines.append(f"    reproducer: {div.stimulus}")
    lines += [f"  artifact: {p}" for p in report.artifacts]
    return "\n".join(lines)


def test_fuzzfarm_smoke(tmp_path):
    """Per-push farm smoke: a small batch through the whole differential
    (vector sim vs scalar vs explicit vs both BMC encodings)."""
    from repro.sim.fuzzfarm import FarmConfig, run_farm

    report = run_farm(FarmConfig(batch=32, depth=4, seed=0, rounds=2,
                                 bmc_depth=3, scalar_lanes=2,
                                 explicit_lanes=1, out_dir=str(tmp_path)))
    assert report.ok, farm_failure_message(report)
    assert report.trials > 64


@pytest.mark.slow
def test_fuzzfarm_mass_trials_nightly(tmp_path):
    """The nightly farm config: >= 1000 netlist x option x stimulus
    trials, seed-budgeted, with auto-shrunk reproducers persisted for
    the CI artifact upload on failure."""
    from repro.sim.fuzzfarm import FarmConfig, run_farm

    report = run_farm(FarmConfig(batch=128, depth=6, seed=1,
                                 min_trials=1000, budget_s=600.0,
                                 bmc_depth=4, scalar_lanes=4,
                                 explicit_lanes=2, out_dir=str(tmp_path)))
    assert report.trials >= 1000, report.summary()
    assert report.ok, farm_failure_message(report)
