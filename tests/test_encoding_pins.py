"""Pinned sizes and solver effort of the default encoding.

The default encoding must stay literal-for-literal stable across
refactors of the layers beneath it (AIG, Tseitin, comparator cache,
chain builders).  These tests pin the exact solver clauses+variables and
the CDCL counters of two fixed runs; any change to what the encoders
emit, or to the order they emit it in, moves at least one number.  A
deliberate encoding change must update the pins in the same change.
"""

from repro.bmc import BmcOptions, EncodingSession, verify_many
from repro.bmc.engine import BmcEngine
from repro.casestudies import (MultiportSocParams, QuicksortParams,
                               build_multiport_soc, build_quicksort)


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
    assert session.clause_var_total() == 18900
    assert (stats.conflicts, stats.decisions, stats.propagations,
            stats.learned, stats.trail_saved_levels) == (37, 203, 5389, 37,
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
    assert session.clause_var_total() == 19822
    assert session.solver.stats.conflicts == 38
    assert r.latch_reasons[-1] == frozenset(
        {"arr_raddr", "hi", "i", "j", "pc", "sp", "stk_raddr", "stk_re",
         "stk_waddr", "stk_wdata", "stk_we"})
    assert r.memory_reasons[-1] == frozenset({"stack"})
