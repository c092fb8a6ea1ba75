"""Pinned sizes and solver effort of fixed encoding sessions.

The encodings must stay literal-for-literal stable across refactors of
the layers beneath them (AIG, Tseitin, comparator cache, chain builders,
the shared initial-state machinery).  These tests pin the exact solver
clauses+variables, and the CDCL or EMM counters, of fixed runs; any
change to what the encoders emit, or to the order they emit it in,
moves at least one number.  A deliberate encoding change must update
the pins in the same change.  Every pin also holds with the pure-Python
solver loops in place of the compiled kernel: the two search
identically.
"""

import pytest

from repro.bmc import BmcOptions, EncodingSession, verify_many
from repro.bmc.engine import BmcEngine
from repro.casestudies import (CpuParams, MultiportSocParams,
                               QuicksortParams, build_cpu,
                               build_multiport_soc, build_quicksort,
                               memcpy_program)


def test_multiport_soc_shared_session_pinned():
    """The CLI's default SoC, all 9 properties on one session, BMC-2 to
    depth 12."""
    design = build_multiport_soc(MultiportSocParams(5, 8))
    opts = BmcOptions(max_depth=12, find_proof=False)
    session = EncodingSession(design, opts)
    results = verify_many(design, options=opts, session=session)
    assert len(results) == 9
    assert {(r.status, r.depth) for r in results.values()} == {("bounded", 12)}
    stats = session.solver.stats
    assert session.clause_var_total() == 18899
    assert (stats.conflicts, stats.decisions, stats.propagations,
            stats.learned, stats.trail_saved_levels) == (38, 198, 5399, 38,
                                                         220)


def test_quicksort_pba_session_pinned():
    """Quicksort P2 (n=3) under proof logging and PBA: the plain-triple
    lowering of PBA sessions, two arbitrary-init memories."""
    design = build_quicksort(QuicksortParams(n=3, addr_width=3, data_width=4,
                                             stack_addr_width=3))
    opts = BmcOptions(max_depth=5, pba=True)
    session = EncodingSession(design, opts)
    r = BmcEngine(design, "P2", opts, session=session).run()
    assert (r.status, r.depth) == ("bounded", 5)
    assert session.clause_var_total() == 19816
    stats = session.solver.stats
    assert (stats.conflicts, stats.decisions, stats.propagations,
            stats.learned, stats.trail_saved_levels) == (40, 1968, 56069, 40,
                                                         0)
    assert r.latch_reasons[-1] == frozenset(
        {"arr_raddr", "hi", "i", "j", "pc", "sp", "stk_raddr", "stk_re",
         "stk_waddr", "stk_wdata", "stk_we"})
    assert r.memory_reasons[-1] == frozenset({"stack"})


def test_cpu_hybrid_session_pinned():
    """The default (hybrid) encoding on cpu memcpy (pc 5, addr 3,
    data 4), all properties on one session, BMC-3 to depth 20: the
    longest CDCL search among the pins, with forward proofs and a kept
    assumption trail."""
    params = CpuParams(pc_width=5, addr_width=3, data_width=4)
    design = build_cpu(memcpy_program(2, src=0, dst=4, params=params), params)
    opts = BmcOptions(max_depth=20)
    session = EncodingSession(design, opts)
    results = verify_many(design, options=opts, session=session)
    assert {p: (r.status, r.depth, r.method)
            for p, r in results.items()} == {
        "halts": ("cex", 12, None),
        "halted_acc_one": ("proof", 13, "forward"),
        "pc_in_bounds": ("proof", 13, "forward")}
    assert session.clause_var_total() == 24934
    stats = session.solver.stats
    assert (stats.conflicts, stats.decisions, stats.propagations,
            stats.learned, stats.trail_saved_levels) == (338, 17765, 237068,
                                                         338, 25)


def test_cpu_gate_encoding_rom_pinned():
    """The gate encoding on a ROM design: cpu memcpy (pc 5, addr 3,
    data 4), all properties on one session, BMC-3 to depth 12.  The
    program ROM exercises the inherited initial-state machinery (pins
    and equation (6)) under the gate encoding's AIG ROM-hit cones."""
    params = CpuParams(pc_width=5, addr_width=3, data_width=4)
    design = build_cpu(memcpy_program(2, src=0, dst=4, params=params), params)
    opts = BmcOptions(max_depth=12, emm_encoding="gates")
    session = EncodingSession(design, opts)
    results = verify_many(design, options=opts, session=session)
    assert {p: (r.status, r.depth) for p, r in results.items()} == {
        "halts": ("cex", 12), "halted_acc_one": ("bounded", 12),
        "pc_in_bounds": ("bounded", 12)}
    assert session.clause_var_total() == 25654
    imem = session.emms["imem"].counters
    assert (imem.init_pin_clauses, imem.init_consistency_clauses) == (1755,
                                                                      1404)


@pytest.mark.parametrize("pin", [
    test_multiport_soc_shared_session_pinned,
    test_quicksort_pba_session_pinned,
    test_cpu_hybrid_session_pinned,
    test_cpu_gate_encoding_rom_pinned,
], ids=lambda pin: pin.__name__[len("test_"):])
def test_pin_holds_in_each_solver_mode(pin, solver_mode):
    pin()
