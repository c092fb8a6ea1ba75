"""Image filter (Industry Design I analog): witnesses and induction proofs."""

import pytest

from repro.bmc import bmc2, bmc3, verify
from repro.casestudies.image_filter import (DONE, FILTER, INGEST,
                                            ImageFilterParams,
                                            build_image_filter)
from repro.sim import Simulator

PARAMS = ImageFilterParams(addr_width=2, data_width=8,
                           reachable_values=(0, 17, 191),
                           unreachable_values=(192, 255))


class TestSimulation:
    def test_pipeline_phases(self):
        d = build_image_filter(PARAMS)
        sim = Simulator(d)
        pixels = [10, 20, 30, 40]
        for v in pixels:
            assert sim.latches["pc"] == INGEST
            sim.step({"pix_in": v})
        assert sim.latches["pc"] == FILTER
        for _ in range(3 * (PARAMS.line_width - 2)):
            sim.step({})
        assert sim.latches["pc"] == DONE
        # 3-tap filter at k=1: (10+20+30)>>2 = 15; at k=2: (20+30+40)>>2
        assert sim.memories["outbuf"][1] == (10 + 20 + 30) >> 2
        assert sim.memories["outbuf"][2] == (20 + 30 + 40) >> 2

    def test_max_filtered_bound(self):
        assert PARAMS.max_filtered == 191
        d = build_image_filter(PARAMS)
        sim = Simulator(d)
        for _ in range(4):
            sim.step({"pix_in": 255})
        for _ in range(3 * (PARAMS.line_width - 2)):
            sim.step({})
        assert all(v <= 191 for v in sim.memories["outbuf"].values())


class TestDesign:
    def test_two_memories_paper_structure(self):
        d = build_image_filter(PARAMS)
        assert set(d.memories) == {"linebuf", "outbuf"}
        for mem in d.memories.values():
            assert mem.num_read_ports == 1 and mem.num_write_ports == 1
            assert mem.init == 0  # paper: memory state initialised to 0

    def test_property_family_generated(self):
        d = build_image_filter(PARAMS)
        assert "reach_out_eq_17" in d.properties
        assert "unreach_out_eq_192" in d.properties
        assert "reach_done" in d.properties
        assert all(p.kind == "reach" for p in d.properties.values())


class TestVerification:
    def test_witness_for_reachable_value(self):
        d = build_image_filter(PARAMS)
        r = verify(d, "reach_out_eq_17", bmc2(max_depth=12))
        assert r.falsified  # witness found
        assert r.trace_validated is True

    def test_witness_for_zero(self):
        r = verify(build_image_filter(PARAMS), "reach_out_eq_0",
                   bmc2(max_depth=12))
        assert r.falsified and r.trace_validated is True

    def test_done_reachable_with_depth(self):
        d = build_image_filter(PARAMS)
        r = verify(d, "reach_done", bmc2(max_depth=16))
        assert r.falsified
        # ingest takes line_width cycles, filtering 3 per window
        expected = PARAMS.line_width + 3 * (PARAMS.line_width - 2)
        assert r.depth == expected

    def test_unreachable_value_proved_by_induction(self):
        """The paper's 10 unreachable properties: proofs via BMC-3."""
        d = build_image_filter(PARAMS)
        r = verify(d, "unreach_out_eq_192", bmc3(max_depth=14, pba=False))
        assert r.proved, r.describe()
        assert r.method == "backward"

    def test_unreachable_255_proved(self):
        d = build_image_filter(PARAMS)
        r = verify(d, "unreach_out_eq_255", bmc3(max_depth=14, pba=False))
        assert r.proved, r.describe()

    def test_witness_value_correct_in_trace(self):
        d = build_image_filter(PARAMS)
        r = verify(d, "reach_out_eq_191", bmc2(max_depth=12))
        assert r.falsified
        final = r.trace.cycles[r.depth]
        assert final["latches"]["out_val"] == 191


@pytest.mark.slow
def test_property_family_witness_proof_split():
    """The paper's split on an 8-pixel line: every ``reach_`` property
    has a witness and every ``unreach_`` property is proved."""
    params = ImageFilterParams(addr_width=3, data_width=8,
                               reachable_values=(0, 17, 64, 120, 191),
                               unreachable_values=(192, 255))
    design = build_image_filter(params)
    max_depth = params.line_width + 3 * (params.line_width - 2) + 2
    for name in sorted(design.properties):
        if name.startswith("reach_"):
            r = verify(design, name, bmc2(max_depth=max_depth))
            assert r.falsified and r.trace_validated, r.describe()
        else:
            assert name.startswith("unreach_")
            r = verify(design, name, bmc3(max_depth=20, pba=False))
            assert r.proved, r.describe()
