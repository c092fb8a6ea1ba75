"""Per-job quotas, DEGRADED semantics, and gap-aware window merging.

A quota-tripped job must abort *cleanly at depth granularity*: its
DEGRADED result reports the deepest fully-checked depth (a sound "no
counterexample up to d"), which :func:`merge_window_results` can fold
into a sharded verdict.  That is the contrast with TIMEOUT, whose depth
is the one being *attempted* when the deadline hit mid-check.
"""

import multiprocessing
import time
from dataclasses import replace
from functools import partial

import pytest

from repro.bmc import BmcOptions, DEGRADED, verify, verify_many
from repro.bmc.results import BOUNDED, CEX, PROOF, TIMEOUT
from repro.casestudies.fifo import FifoParams, build_fifo
from repro.design import Design
from repro.casestudies.multiport_soc import (MultiportSocParams,
                                             build_multiport_soc)
from repro.service import (VerificationService, merge_window_results,
                           shard_depths)


def tiny_fifo():
    return build_fifo(FifoParams(addr_width=2, data_width=2))


def wait_no_children(timeout_s: float = 10.0) -> None:
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if not multiprocessing.active_children():
            return
        time.sleep(0.05)
    assert not multiprocessing.active_children()


# ---------------------------------------------------------------------------
# Engine-level quota semantics.
# ---------------------------------------------------------------------------


class TestDegradedSemantics:
    def test_clause_quota_degrades_at_depth_granularity(self):
        base = verify(tiny_fifo(), "can_fill", BmcOptions(max_depth=8))
        assert base.status == CEX
        # A watermark the encoding crosses before the CEX depth: the run
        # must degrade at a *fully checked* shallower depth, not die.
        r = verify(tiny_fifo(), "can_fill",
                   BmcOptions(max_depth=8, clause_var_quota=200))
        assert r.status == DEGRADED
        assert r.stats.quota_tripped == "clauses"
        assert -1 <= r.depth < base.depth
        # Soundness: depths 0..r.depth really are CEX-free — the full
        # run's counterexample is strictly deeper.
        assert base.depth > r.depth

    def test_wall_quota_zero_degrades_with_nothing_checked(self):
        r = verify(tiny_fifo(), "can_fill",
                   BmcOptions(max_depth=8, wall_quota_s=0.0))
        assert r.status == DEGRADED
        assert r.stats.quota_tripped == "wall"
        assert r.depth == -1

    def test_mem_quota_degrades(self):
        r = verify(tiny_fifo(), "can_fill",
                   BmcOptions(max_depth=8, mem_quota_mb=0.001))
        assert r.status == DEGRADED
        assert r.stats.quota_tripped == "mem"
        assert r.depth == -1

    def test_timeout_stays_timeout_not_degraded(self):
        # The run-abort deadline (timeout_s) keeps its historical
        # mid-check TIMEOUT semantics; only wall_quota_s degrades.
        r = verify(tiny_fifo(), "can_fill",
                   BmcOptions(max_depth=8, timeout_s=0.0))
        assert r.status == TIMEOUT
        assert r.stats.quota_tripped is None

    def test_quota_knobs_do_not_change_encoding_key(self):
        base = BmcOptions()
        for opts in (BmcOptions(mem_quota_mb=1.0),
                     BmcOptions(clause_var_quota=10),
                     BmcOptions(wall_quota_s=0.5)):
            assert opts.encoding_key() == base.encoding_key()

    def test_degraded_flows_through_verify_many(self):
        results = verify_many(tiny_fifo(), options=BmcOptions(
            max_depth=8, find_proof=False, clause_var_quota=150))
        assert results
        for r in results.values():
            assert r.status == DEGRADED
            assert r.stats.quota_tripped == "clauses"

    @pytest.mark.parametrize("quota,depth", [(3000, 4), (6000, 7),
                                             (12000, 10)])
    def test_clause_quota_same_depth_on_every_entry_point(self, quota,
                                                          depth):
        # verify, verify_many and the inline service share one loop, so
        # the frame that crosses the watermark is checked on all three.
        factory = partial(build_multiport_soc, MultiportSocParams(5, 8))
        prop = sorted(factory().properties)[0]
        opts = BmcOptions(max_depth=12, find_proof=False,
                          clause_var_quota=quota)
        runs = [verify(factory(), prop, opts),
                verify_many(factory(), [prop], opts)[prop],
                VerificationService(factory, opts, jobs=1).run([prop])[prop]]
        assert [(r.status, r.depth, r.stats.quota_tripped) for r in runs] \
            == [(DEGRADED, depth, "clauses")] * 3

    def test_degraded_json_and_describe(self):
        r = verify(tiny_fifo(), "can_fill",
                   BmcOptions(max_depth=8, wall_quota_s=0.0))
        d = r.to_dict()
        assert d["status"] == DEGRADED
        assert d["stats"]["quota_tripped"] == "wall"
        assert "degraded" in r.describe()
        assert "wall quota exhausted" in r.describe()


# ---------------------------------------------------------------------------
# Quotas through the service: the quota fields of the service's options.
# ---------------------------------------------------------------------------


class TestServiceQuotas:
    def test_service_applies_quotas_to_every_job(self):
        svc = VerificationService(
            tiny_fifo, BmcOptions(max_depth=8, clause_var_quota=150))
        for job in svc.plan():
            assert job.options.clause_var_quota == 150
        results = svc.run()
        assert all(r.status == DEGRADED for r in results.values())


# ---------------------------------------------------------------------------
# Gap-aware window merging.
# ---------------------------------------------------------------------------


def one_step_latch():
    """``x`` starts at 0 and is 1 from depth 1 on: ``low`` fails at 1."""
    d = Design("step")
    x = d.latch("x", 1, init=0)
    x.next = d.const(1, 1)
    d.invariant("low", x.expr.eq(0))
    return d


def _mk(status, depth):
    return replace(verify(tiny_fifo(), "count_bounded",
                          BmcOptions(max_depth=0, find_proof=False)),
                   status=status, depth=depth)


class TestMergeWindowResults:
    WINDOWS = [(0, 2), (3, 5), (6, 8)]

    def test_legacy_first_conclusive_wins(self):
        merged = merge_window_results([_mk(BOUNDED, 2), _mk(CEX, 4),
                                       _mk(PROOF, 7)], self.WINDOWS)
        assert merged.status == CEX and merged.depth == 4

    def test_legacy_all_bounded_returns_deepest(self):
        merged = merge_window_results([_mk(BOUNDED, 2), _mk(BOUNDED, 5)],
                                      self.WINDOWS[:2])
        assert merged.status == BOUNDED and merged.depth == 5

    def test_hole_degrades_to_sound_prefix(self):
        merged = merge_window_results(
            [_mk(BOUNDED, 2), None, _mk(BOUNDED, 8)], self.WINDOWS)
        assert merged.status == DEGRADED
        assert merged.depth == 2  # the post-hole window proves nothing

    def test_degraded_window_caps_the_frontier(self):
        mid = _mk(DEGRADED, 4)  # window (3,5) checked only up to 4
        merged = merge_window_results(
            [_mk(BOUNDED, 2), mid, _mk(BOUNDED, 8)], self.WINDOWS)
        assert merged.status == DEGRADED
        assert merged.depth == 4

    def test_cex_wins_even_across_gaps(self):
        merged = merge_window_results(
            [None, None, _mk(CEX, 7)], self.WINDOWS)
        assert merged.status == CEX and merged.depth == 7

    def test_proof_after_gap_is_not_trusted(self):
        # A backward-induction proof in window (6,8) is conditional on
        # depths 0..5 being CEX-free — which the hole never established.
        merged = merge_window_results(
            [_mk(BOUNDED, 2), None, _mk(PROOF, 7)], self.WINDOWS)
        assert merged.status == DEGRADED
        assert merged.depth == 2

    def test_proof_on_contiguous_prefix_wins(self):
        merged = merge_window_results(
            [_mk(BOUNDED, 2), _mk(PROOF, 4), None], self.WINDOWS)
        assert merged.status == PROOF and merged.depth == 4

    def test_leading_hole_means_nothing_sound(self):
        merged = merge_window_results(
            [None, _mk(BOUNDED, 5), _mk(BOUNDED, 8)], self.WINDOWS)
        assert merged.status == DEGRADED
        assert merged.depth == -1

    def test_windows_not_starting_at_zero_degrade(self):
        # A proof at depth 2 assumes no CEX at depths 0..1, which no
        # window checked: nothing below the first window is sound.
        merged = merge_window_results([_mk(PROOF, 2)], [(2, 5)])
        assert merged.status == DEGRADED
        assert merged.depth == -1

    def test_all_missing_raises(self):
        with pytest.raises(ValueError):
            merge_window_results([None, None, None], self.WINDOWS)

    def test_misaligned_lengths_raise(self):
        with pytest.raises(ValueError):
            merge_window_results([_mk(BOUNDED, 2)], self.WINDOWS)

    def test_plan_rejects_windows_not_contiguous_from_zero(self):
        svc = VerificationService(one_step_latch, BmcOptions(max_depth=5))
        # The CEX sits at depth 1; a window starting at 2 would prove.
        assert verify(one_step_latch(), "low").depth == 1
        for windows in ([(2, 5)], [(0, 1), (3, 5)], [(2, 5), (0, 1)],
                        [(0, 2), (2, 5)]):
            with pytest.raises(ValueError):
                svc.run(["low"], depth_windows=windows)

    def test_shard_depths_rejects_negative_depth(self):
        with pytest.raises(ValueError):
            shard_depths(-1, 2)

    def test_sharded_service_run_with_quota_degrades_soundly(self):
        opts = BmcOptions(max_depth=8, find_proof=False)
        windows = shard_depths(8, 3)
        base = VerificationService(tiny_fifo, opts).run(
            ["count_bounded"], depth_windows=windows)["count_bounded"]
        assert base.status == BOUNDED and base.depth == 8
        svc = VerificationService(tiny_fifo,
                                  replace(opts, clause_var_quota=400))
        merged = svc.run(["count_bounded"],
                         depth_windows=windows)["count_bounded"]
        assert merged.status == DEGRADED
        assert -1 <= merged.depth < 8


# ---------------------------------------------------------------------------
# Pool-leak regression: abandoning a pooled stream must not leak workers.
# ---------------------------------------------------------------------------


class TestAbandonedStream:
    def test_abandoned_iterator_reaps_workers(self):
        with VerificationService(tiny_fifo, BmcOptions(max_depth=6),
                                 jobs=2) as svc:
            it = svc.stream()
            next(it)  # start the pool, consume one record, walk away
            it.close()
        wait_no_children()

    def test_abandoned_iterator_gc_reaps_workers(self):
        svc = VerificationService(tiny_fifo, BmcOptions(max_depth=6), jobs=2)
        it = svc.stream()
        next(it)
        del it  # generator finalizer must run the cleanup path
        svc.close()
        wait_no_children()

    def test_close_is_idempotent_and_restartable(self):
        svc = VerificationService(tiny_fifo, BmcOptions(max_depth=4), jobs=2)
        first = svc.run()
        svc.close()
        svc.close()
        again = svc.run()  # a fresh pool spins up transparently
        assert {k: v.status for k, v in first.items()} == \
               {k: v.status for k, v in again.items()}
        svc.close()
        wait_no_children()
