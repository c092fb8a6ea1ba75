"""Tests for the pure gate-based EMM encoding (Section 3 comparison)."""

import random
from dataclasses import replace

import pytest

from repro.bmc import BmcOptions, bmc3, verify
from repro.casestudies.fifo import FifoParams, build_fifo
from repro.casestudies.quicksort import QuicksortParams, build_quicksort
from repro.design import Design

GATES = {"emm_encoding": "gates"}


def options(**kw):
    kw.setdefault("find_proof", False)
    kw.setdefault("max_depth", 8)
    return BmcOptions(emm_encoding="gates", **kw)


def scratchpad(aw=3, dw=4, init=0, init_words=None):
    d = Design("pad")
    waddr = d.input("waddr", aw)
    wdata = d.input("wdata", dw)
    wen = d.input("wen", 1)
    raddr = d.input("raddr", aw)
    mem = d.memory("m", addr_width=aw, data_width=dw, init=init,
                   init_words=init_words)
    mem.write(0).connect(addr=waddr, data=wdata, en=wen)
    rd = mem.read(0).connect(addr=raddr, en=1)
    out = d.latch("out", dw, init=0)
    out.next = rd
    return d, out


class TestVerdictParity:
    """Hybrid and gate encodings must agree on every verdict and depth."""

    @pytest.mark.parametrize("prop,expected,data_width,depth", [
        ("can_fill", "cex", 4, 9), ("data_integrity", "bounded", 4, 9),
        ("count_bounded", "bounded", 4, 9),
        ("data_integrity", "bounded", 8, 10)],
        ids=["can_fill-cex", "data_integrity-bounded",
             "count_bounded-bounded", "data_integrity-dw8-k10"])
    def test_fifo_bounded_checks(self, prop, expected, data_width, depth):
        d = build_fifo(FifoParams(addr_width=3, data_width=data_width))
        h = verify(d, prop, BmcOptions(find_proof=False, max_depth=depth))
        g = verify(d, prop, options(max_depth=depth))
        assert h.status == g.status == expected
        assert h.depth == g.depth

    @pytest.mark.parametrize("seed", range(6))
    def test_random_reach_targets(self, seed):
        rng = random.Random(seed)
        init_words = {1: 3} if seed % 2 else None
        d, out = scratchpad(init=rng.choice([0, 5]), init_words=init_words)
        d.reach("hit", out.expr.eq(rng.randrange(16)))
        h = verify(d, "hit", BmcOptions(find_proof=False, max_depth=5))
        g = verify(d, "hit", options(max_depth=5))
        assert h.status == g.status
        if h.status == "cex":
            assert h.depth == g.depth
            assert g.trace_validated is True

    def test_quicksort_p2_proof(self):
        d = build_quicksort(QuicksortParams(n=2, addr_width=3, data_width=3,
                                            stack_addr_width=3))
        g = verify(d, "P2", replace(bmc3(max_depth=30, pba=False),
                                    emm_encoding="gates"))
        h = verify(d, "P2", bmc3(max_depth=30, pba=False))
        assert g.proved and h.proved
        assert g.depth == h.depth
        assert g.method == h.method


class TestGateSpecifics:
    def test_counters_report_gates(self):
        d, out = scratchpad()
        d.invariant("p", d.const(1, 1))
        from repro.bmc.engine import BmcEngine
        eng = BmcEngine(d, "p", options(max_depth=4))
        eng.run()
        emm = eng.session.emms["m"]
        assert emm.counters.excl_gates > 0
        assert emm.counters.total_clauses > 0

    def test_exclusivity_ablation_rejected(self):
        # The gate chain is always exclusive: accepting the flag would run
        # the full encoding under a different cache key.
        d, out = scratchpad()
        d.invariant("p", d.const(1, 1))
        with pytest.raises(ValueError, match="exclusivity=False"):
            verify(d, "p", options(exclusivity=False))

    def test_disabled_read_forced_zero(self):
        """Gate encoding pins RD to 0 when RE is low (simulator semantics);
        the hybrid encoding leaves it free."""
        d = Design("gated")
        mem = d.memory("m", addr_width=2, data_width=4, init=0)
        mem.write(0).connect(addr=d.const(0, 2), data=d.const(0, 4), en=0)
        rd = mem.read(0).connect(addr=d.const(0, 2), en=0)
        d.reach("nonzero", rd.ne(0))
        g = verify(d, "nonzero", options(max_depth=2))
        h = verify(d, "nonzero", BmcOptions(find_proof=False, max_depth=2,
                                            validate_cex=False))
        assert g.status == "bounded"   # forced 0: unreachable
        assert h.status == "cex"       # free: spuriously reachable

    def test_unknown_encoding_rejected(self):
        d, __ = scratchpad()
        d.invariant("p", d.const(1, 1))
        with pytest.raises(ValueError, match="emm_encoding"):
            verify(d, "p", BmcOptions(emm_encoding="bogus"))

    def test_rom_contents_via_mux_chain(self):
        d, out = scratchpad(init=0, init_words={2: 9})
        pc = d.latches["out"]  # reuse: read address driven by input
        d.reach("sees9", out.expr.eq(9))
        g = verify(d, "sees9", options(max_depth=4))
        assert g.status == "cex"
        assert g.trace_validated is True


class TestProofSoundness:
    def test_eq6_still_required_for_proofs(self):
        """The gates encoding shares the Section 4.2 machinery: dropping
        equation (6) must break arbitrary-init proofs the same way."""
        d = Design("pair")
        a1 = d.input("a", 3)
        mem = d.memory("m", addr_width=3, data_width=4, init=None)
        mem.write(0).connect(addr=d.const(0, 3), data=d.const(0, 4), en=0)
        rd = mem.read(0).connect(addr=a1, en=1)
        first = d.latch("first", 4, init=0)
        seen = d.latch("seen", 1, init=0)
        addr0 = d.latch("addr0", 3, init=0)
        first.next = seen.expr.ite(first.expr, rd)
        addr0.next = seen.expr.ite(addr0.expr, a1)
        seen.next = d.const(1, 1)
        # After the first sample, re-reading the same address must match.
        same_addr = seen.expr & a1.eq(addr0.expr)
        d.invariant("stable", same_addr.implies(rd.eq(first.expr)))
        good = verify(d, "stable", replace(bmc3(max_depth=12, pba=False),
                                           emm_encoding="gates"))
        assert good.proved, good.describe()
        bad = verify(d, "stable", replace(
            bmc3(max_depth=12, pba=False, init_consistency=False),
            emm_encoding="gates"))
        assert not bad.proved
