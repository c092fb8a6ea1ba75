"""Multiport SoC (Industry Design II analog): the full paper flow."""

from dataclasses import replace

import pytest

from repro.bmc import BmcOptions, EncodingSession, bmc2, bmc3, verify
from repro.casestudies.multiport_soc import (MultiportSocParams,
                                             build_multiport_soc)
from repro.pba import verify_with_pba
from repro.props import free_memory_reads, prove_with_memory_invariant
from repro.sim import Simulator

PARAMS = MultiportSocParams(addr_width=3, data_width=4, counter_width=3,
                            num_properties=4)


class TestDesign:
    def test_memory_structure(self):
        d = build_multiport_soc(PARAMS)
        mem = d.memories["table"]
        assert mem.num_read_ports == 3 and mem.num_write_ports == 1
        assert mem.init == 0

    def test_simulation_we_stays_inactive(self):
        d = build_multiport_soc(PARAMS)
        sim = Simulator(d)
        for cyc in range(200):
            sim.begin_cycle({"tick": 1, "wr_req": 1, "data_in": 7,
                             "addr_a": cyc % 8})
            assert sim.eval(d.latches["we_reg"].expr) == 0
            assert sim.eval(d.properties["we_or_wd_zero"].expr) == 1
            sim.commit_cycle()
        assert sim.memories["table"] == {}  # never written


class TestPaperFlow:
    def test_step1_naive_abstraction_spurious_witnesses(self):
        """Paper: 'spurious witnesses at depth 7 if we abstract the memory'."""
        d = build_multiport_soc(PARAMS)
        freed = free_memory_reads(d, "table")
        r = verify(freed, "alarm_mode_0", BmcOptions(find_proof=False,
                                                     max_depth=10))
        assert r.falsified
        assert r.depth == 4  # our pipeline is 3 stages + arming
        # spuriousness is the point: EMM below disagrees

    def test_step2_emm_finds_no_witness(self):
        """Paper: 'using EMM, no witnesses up to depth 200'."""
        d = build_multiport_soc(PARAMS)
        r = verify(d, "alarm_mode_0", bmc2(max_depth=12))
        assert r.status == "bounded"

    def test_step3_invariant_proved_by_backward_induction(self):
        """Paper: G(WE=0 or WD=0) proved by backward induction at depth 2."""
        d = build_multiport_soc(PARAMS)
        r = verify(d, "we_or_wd_zero", bmc3(max_depth=10, pba=False))
        assert r.proved, r.describe()
        assert r.method == "backward"
        assert r.depth <= 2

    def test_step4_invariant_flow_proves_all_alarms(self):
        """Paper: memory replaced by rd=0, properties proved by induction."""
        d = build_multiport_soc(PARAMS)
        alarms = [n for n in d.properties if n.startswith("alarm_")]
        flow = prove_with_memory_invariant(
            d, "table", invariant_name="we_or_wd_zero",
            property_names=alarms,
            invariant_options=BmcOptions(max_depth=10),
            property_options=BmcOptions(max_depth=12))
        assert flow.all_proved
        for name in alarms:
            assert flow.property_results[name].proved

    def test_invariant_needs_no_read_port(self):
        """Section 4.3's port abstraction on the default-size SoC: with
        all three read ports dropped the invariant still proves, on
        fewer EMM clauses."""
        opts = bmc3(max_depth=10, pba=False)
        full = verify(build_multiport_soc(MultiportSocParams()),
                      "we_or_wd_zero", opts)
        none = verify(build_multiport_soc(MultiportSocParams()),
                      "we_or_wd_zero",
                      replace(opts, kept_read_ports={"table": frozenset()}))
        assert full.proved, full.describe()
        assert none.proved, none.describe()
        assert none.stats.emm_clauses < full.stats.emm_clauses

    def test_explicit_also_proves_invariant(self):
        """Cross-check the invariant on the explicit model (paper: 78s)."""
        from repro.design import expand_memories
        from repro.bmc import bmc1
        d = expand_memories(build_multiport_soc(PARAMS))
        r = verify(d, "we_or_wd_zero", bmc1(max_depth=6, pba=False))
        assert r.proved


class TestPortAbstraction:
    SMALL = MultiportSocParams(3, 4, counter_width=3, num_properties=3)

    def test_cex_on_dropped_read_ports_is_not_replayed(self):
        """With every read port of ``table`` dropped the model is
        abstract: its CEX is spurious (the concrete run stays bounded)
        and is reported unvalidated, not failed on the simulator."""
        opts = BmcOptions(max_depth=6, find_proof=False)
        abstract = verify(build_multiport_soc(self.SMALL), "alarm_mode_0",
                          replace(opts,
                                  kept_read_ports={"table": frozenset()}))
        concrete = verify(build_multiport_soc(self.SMALL), "alarm_mode_0",
                          opts)
        assert (abstract.status, abstract.depth) == ("cex", 4)
        assert abstract.trace_validated is None
        assert (concrete.status, concrete.depth) == ("bounded", 6)

    @pytest.mark.parametrize("max_rounds", [1, 3])
    def test_pba_cex_on_dropped_read_ports_is_abstract(self, max_rounds):
        """The PBA flow's verdict on the same abstract model: its CEX is
        the spurious one above, so the status is ``abstract-cex``."""
        out = verify_with_pba(
            build_multiport_soc(self.SMALL), "alarm_mode_0",
            stability_depth=2, abstraction_max_depth=6, proof_max_depth=8,
            options=BmcOptions(kept_read_ports={"table": frozenset()}),
            max_rounds=max_rounds)
        assert out.status == "abstract-cex"
        assert out.proof_result.depth == 4
        assert not out.rounds[-1].concrete

    @pytest.mark.parametrize("ports,concrete", [
        (None, True), ({0, 1, 2}, True), ({0, 2}, False), (set(), False)])
    def test_session_is_concrete_only_with_every_port(self, ports,
                                                      concrete):
        kept = None if ports is None else {"table": frozenset(ports)}
        session = EncodingSession(build_multiport_soc(self.SMALL),
                                  BmcOptions(kept_read_ports=kept))
        assert session.is_concrete() is concrete


class TestCounterInvariant:
    def test_error_mode_unreachable(self):
        d = build_multiport_soc(PARAMS)
        d.reach("err_on", d.latches["err"].expr)
        r = verify(d, "err_on", bmc3(max_depth=12, pba=False))
        assert r.proved, r.describe()  # unreachable


class TestBddLeg:
    """The paper: 'Our BDD-based model checker was unable to build even
    the transition relation' — the explicit model blows the node budget,
    while the invariant-reduced (memory-free) model is easy for BMC."""

    def test_bdd_blows_up_on_explicit_model(self):
        from repro.bdd import bdd_model_check
        from repro.design import expand_memories
        ex = expand_memories(build_multiport_soc(PARAMS))
        r = bdd_model_check(ex, "we_or_wd_zero", node_limit=20_000)
        assert r.status == "limit"

    def test_bdd_proves_on_reduced_model(self):
        # A monolithic transition relation with a naive static order is
        # sensitive to width, so the BDD leg runs a narrower instance —
        # the point is the contrast with the explicit model's blowup.
        from repro.bdd import bdd_model_check
        from repro.props import abstract_memory_reads
        small = MultiportSocParams(addr_width=2, data_width=2,
                                   counter_width=3, num_properties=2)
        reduced = abstract_memory_reads(build_multiport_soc(small), "table")
        r = bdd_model_check(reduced, "alarm_mode_0", node_limit=2_000_000)
        assert r.proved, r.describe()
