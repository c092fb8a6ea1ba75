"""BMC engine behaviours: options, statuses, reach properties, stats."""

import time

import pytest

from repro.bmc import (BmcEngine, BmcOptions, EncodingSession, SessionCache,
                       bmc1, bmc2, bmc3, verify, verify_many)
from repro.casestudies.multiport_soc import (MultiportSocParams,
                                             build_multiport_soc)
from repro.design import Design


def counter(width=3, init=0):
    d = Design("cnt")
    c = d.latch("c", width, init=init)
    c.next = c.expr + 1
    return d, c


class TestStatuses:
    def test_proof_forward_on_bounded_counter(self):
        d, c = counter()
        d.invariant("lt8", c.expr.ule(7))  # trivially true (3 bits)
        r = verify(d, "lt8", BmcOptions(max_depth=20))
        assert r.proved

    def test_cex_with_exact_depth(self):
        d, c = counter()
        d.invariant("lt5", c.expr.ult(5))
        r = verify(d, "lt5", BmcOptions(max_depth=20))
        assert r.falsified and r.depth == 5
        assert r.trace_validated is True

    def test_bounded_when_no_proof_possible(self):
        d = Design("free")
        x = d.input("x", 4)
        acc = d.latch("acc", 4, init=0)
        acc.next = x
        d.invariant("p", acc.expr.ne(9))
        r = verify(d, "p", BmcOptions(max_depth=0, find_proof=False))
        assert r.status == "bounded"

    def test_reach_witness(self):
        d, c = counter()
        d.reach("hit6", c.expr.eq(6))
        r = verify(d, "hit6", BmcOptions(max_depth=20))
        assert r.falsified  # witness found (CEX status semantics)
        assert r.depth == 6
        assert "witness" in r.describe()

    def test_reach_unreachable_proof(self):
        d, c = counter()
        d.reach("hit9", c.expr.zext(5).eq(9))  # 3-bit counter: impossible
        r = verify(d, "hit9", BmcOptions(max_depth=20))
        assert r.proved
        assert "unreachable" in r.describe()

    def test_backward_induction_proof(self):
        # x sticky-at-1 once set; property x=1 -> stays: 1-inductive.
        d = Design("sticky")
        inp = d.input("i", 1)
        x = d.latch("x", 1, init=0)
        y = d.latch("y", 1, init=0)
        x.next = x.expr | inp
        y.next = x.expr
        d.invariant("mono", ~y.expr | x.expr)
        r = verify(d, "mono", BmcOptions(max_depth=10))
        assert r.proved and r.method == "backward"


class TestOptions:
    def test_memories_require_emm(self):
        d = Design("m")
        lit = d.latch("l", 1, init=0)
        lit.next = lit.expr
        mem = d.memory("mem", 2, 2, init=0)
        mem.write(0).connect(addr=0, data=0, en=0)
        mem.read(0).connect(addr=0, en=1)
        d.invariant("p", lit.expr.eq(0))
        with pytest.raises(ValueError, match="use_emm"):
            BmcEngine(d, "p", BmcOptions(use_emm=False))

    def test_bmc2_has_no_proof_checks(self):
        d, c = counter()
        d.invariant("lt8", c.expr.ule(7))
        r = verify(d, "lt8", bmc2(max_depth=10))
        assert r.status == "bounded"  # falsification-only never proves

    def test_presets(self):
        assert bmc1().use_emm is False and bmc1().find_proof is True
        assert bmc2().use_emm is True and bmc2().find_proof is False
        assert bmc3().use_emm and bmc3().find_proof and bmc3().pba

    def test_unknown_property_rejected(self):
        d, c = counter()
        d.invariant("p", c.expr.ule(7))
        with pytest.raises(KeyError):
            BmcEngine(d, "nope", BmcOptions())

    def test_timeout_status(self):
        d, c = counter(width=4)
        d.invariant("p", c.expr.ule(15))
        r = verify(d, "p", BmcOptions(max_depth=50, timeout_s=0.0))
        assert r.status in ("timeout", "proof")  # proof may land first

    def test_kept_latches_abstraction(self):
        # Freeing the only latch makes the bounded invariant falsifiable.
        d, c = counter(width=3)
        d.invariant("lt4", c.expr.ult(4))
        r = verify(d, "lt4", BmcOptions(max_depth=5, find_proof=False,
                                        kept_latches=frozenset(),
                                        validate_cex=False))
        assert r.falsified and r.depth == 0  # free latch: CE immediately

    def test_arbitrary_latch_init_unconstrained(self):
        d = Design("arb")
        lit = d.latch("l", 3, init=None)
        lit.next = lit.expr
        d.invariant("p", lit.expr.ne(5))
        r = verify(d, "p", BmcOptions(max_depth=3))
        assert r.falsified and r.depth == 0
        assert r.trace.init_latches["l"] == 5


class TestStats:
    def test_stats_populated(self):
        d, c = counter()
        d.invariant("lt8", c.expr.ule(7))
        r = verify(d, "lt8", BmcOptions(max_depth=10))
        assert r.stats.sat_vars > 0
        assert r.stats.sat_clauses > 0
        assert r.stats.wall_time_s >= 0
        assert len(r.stats.time_per_depth) >= 1
        assert r.stats.peak_rss_mb > 0

    def test_emm_stats_counted(self):
        d = Design("m")
        t = d.latch("t", 2, init=0)
        t.next = t.expr + 1
        mem = d.memory("mem", 2, 4, init=0)
        mem.write(0).connect(addr=t.expr, data=d.input("x", 4), en=1)
        rd = mem.read(0).connect(addr=d.input("a", 2), en=1)
        d.invariant("p", rd.ule(15))
        r = verify(d, "p", bmc2(max_depth=4))
        assert r.stats.emm_clauses > 0
        assert r.stats.emm_gates > 0

    def test_describe_mentions_status(self):
        d, c = counter()
        d.invariant("lt8", c.expr.ule(7))
        r = verify(d, "lt8", BmcOptions(max_depth=10))
        assert "lt8" in r.describe()
        assert "proved" in r.describe() or "induction" in r.describe()


class TestTimePerDepth:
    """One entry per analyzed depth — regression for the double-append on
    the stop_check path and the bogus total-wall-time entry on loop exit."""

    def free_design(self):
        d = Design("free")
        x = d.input("x", 4)
        acc = d.latch("acc", 4, init=0)
        acc.next = x
        d.invariant("p", acc.expr.ule(15))  # trivially true, never proved
        return d

    def test_bounded_loop_exit(self):
        r = verify(self.free_design(), "p",
                   BmcOptions(max_depth=5, find_proof=False))
        assert r.status == "bounded" and r.depth == 5
        assert len(r.stats.time_per_depth) == r.depth + 1
        # Depth entries must sum to no more than the total wall time (the
        # old code appended the total as an extra "depth").
        assert sum(r.stats.time_per_depth) <= r.stats.wall_time_s + 1e-9

    def test_stop_check_path(self):
        from repro.bmc import BmcEngine
        eng = BmcEngine(self.free_design(), "p",
                        BmcOptions(max_depth=10, find_proof=False))
        r = eng.run(stop_check=lambda engine, depth: depth >= 2)
        assert r.status == "bounded" and r.depth == 2
        assert len(r.stats.time_per_depth) == r.depth + 1

    def test_cex_path(self):
        d, c = counter()
        d.invariant("lt5", c.expr.ult(5))
        r = verify(d, "lt5", BmcOptions(max_depth=20))
        assert r.falsified and r.depth == 5
        assert len(r.stats.time_per_depth) == r.depth + 1

    def test_proof_path(self):
        d, c = counter()
        d.invariant("lt8", c.expr.ule(7))
        r = verify(d, "lt8", BmcOptions(max_depth=20))
        assert r.proved
        assert len(r.stats.time_per_depth) == r.depth + 1


def small_soc():
    return build_multiport_soc(MultiportSocParams(
        addr_width=2, data_width=2, counter_width=3, num_properties=3))


class TestProfile:
    def test_profile_flag_restored_on_cached_session(self):
        cache = SessionCache()
        opts = BmcOptions(max_depth=6, find_proof=False)
        session = cache.get_or_create(small_soc(), opts)
        first, second = sorted(session.design.properties)[:2]
        profiled = BmcEngine(session.design, first, BmcOptions(
            max_depth=6, find_proof=False, profile=True),
            session=session).run()
        assert session.solver.profile is False
        assert cache.get_or_create(small_soc(), opts) is session
        plain = BmcEngine(session.design, second, opts,
                          session=session).run()
        assert plain.stats.solver["propagations"] \
            > profiled.stats.solver["propagations"]
        assert plain.stats.solver["time_propagate_s"] \
            == profiled.stats.solver["time_propagate_s"]

    def test_profile_times_decisions_without_moving_the_search(self):
        # Backtracks are timed apart from analysis; neither timer moves
        # the search.
        counters = ("conflicts", "decisions", "propagations", "learned",
                    "restarts", "trail_saved_levels")
        stats = {}
        for profile in (False, True):
            opts = BmcOptions(max_depth=6, find_proof=False, profile=profile)
            session = EncodingSession(small_soc(), opts)
            verify_many(session.design, options=opts, session=session)
            stats[profile] = session.solver.stats
        assert ([getattr(stats[True], c) for c in counters]
                == [getattr(stats[False], c) for c in counters])
        assert stats[True].decisions > 0
        assert stats[True].time_decide_s > 0
        assert stats[False].time_decide_s == 0
        assert stats[True].conflicts > 0
        assert stats[True].time_backtrack_s > 0
        assert stats[False].time_backtrack_s == 0

    def test_shared_encode_is_timed_for_every_property(self, monkeypatch):
        sleep_s = 0.01
        extend_to = EncodingSession.extend_to

        def slow_extend_to(session, depth, quota=None):
            time.sleep(sleep_s * max(0, depth + 1 - session.frames_built))
            return extend_to(session, depth, quota)

        monkeypatch.setattr(EncodingSession, "extend_to", slow_extend_to)
        results = verify_many(small_soc(), options=BmcOptions(
            max_depth=4, find_proof=False, profile=True))
        assert len(results) == 4
        for r in results.values():
            encode = r.stats.profile["phases"]["encode"]
            assert encode["n"] == r.depth + 1
            assert encode["s"] >= sleep_s * (r.depth + 1)
            assert sum(r.stats.time_per_depth) >= sleep_s * (r.depth + 1)

    def test_second_run_starts_afresh(self):
        eng = BmcEngine(small_soc(), "alarm_mode_0",
                        BmcOptions(max_depth=4, find_proof=False, pba=True))
        first = eng.run()
        second = eng.run()
        assert len(first.latch_reasons) == len(second.latch_reasons) == 5
        assert len(second.stats.time_per_depth) == 5
