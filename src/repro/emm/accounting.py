"""Closed-form EMM constraint counts from the paper, for verification.

Section 3 (single memory, single read/write port, depth k, address width
m, data width n):

* hybrid representation: ``(4m+2n+1)k + 2n + 1`` clauses and ``3k`` gates;
* purely circuit-based: ``(4m+2n+2)k + n`` gates.

Section 4.1 (W write ports, R read ports): per read port
``(4m+2n+1)kW + 2n + 1`` clauses and ``3kW`` gates; multiply by R for all
read ports.  Growth stays quadratic in depth (the counts above are *new*
constraints at depth k; cumulative totals sum over k).

Section 4.2: ``kR`` fresh symbolic words at (k-1)-depth analysis.  The
paper prints ``kR(R-1)`` for the number of equation-(6) consistency
constraints; an all-pairs count over the kR fresh reads is
``kR(kR-1)/2`` — see :func:`init_consistency_pairs_all` and DESIGN.md for
why this reproduction constrains all pairs (same-port reads at different
depths also need consistency for induction proofs to be sound).

Comparator dedup (:mod:`repro.emm.addrcmp`): the closed forms above
assume every comparison pays the full ``4m+1`` clauses and ``m+1``
variables.  With the comparator cache and constant folding they are
*upper bounds*: a structural repeat costs 0 (counted
in ``EmmCounters.addr_eq_cache_hits``), a fully constant comparison
costs 0 (``addr_eq_folded``), and a const-vs-symbolic comparison costs
:func:`addr_eq_clauses_const` instead of :func:`addr_eq_clauses_full`.
The exact-count tests therefore use workloads whose address cones are
fresh symbolic inputs, where the cache finds nothing and the bounds are
tight.
"""

from __future__ import annotations


def addr_eq_clauses_full(addr_width: int) -> int:
    """Clauses of one full symbolic address comparator: ``4m + 1``."""
    return 4 * addr_width + 1


def addr_eq_clauses_const(addr_width: int) -> int:
    """Clauses of one const-vs-symbolic comparator: ``m + 1``."""
    return addr_width + 1


def clauses_per_read_port(k: int, w_ports: int, addr_width: int,
                          data_width: int) -> int:
    """Paper formula: CNF clauses added at depth k for one read port."""
    m, n = addr_width, data_width
    return (4 * m + 2 * n + 1) * k * w_ports + 2 * n + 1


def gates_per_read_port(k: int, w_ports: int) -> int:
    """Paper formula: 2-input gates added at depth k for one read port."""
    return 3 * k * w_ports


def clauses_at_depth(k: int, w_ports: int, r_ports: int, addr_width: int,
                     data_width: int) -> int:
    """All read ports: ``((4m+2n+1)kW + 2n + 1) * R``."""
    return clauses_per_read_port(k, w_ports, addr_width, data_width) * r_ports


def gates_at_depth(k: int, w_ports: int, r_ports: int) -> int:
    """All read ports: ``3kWR``."""
    return gates_per_read_port(k, w_ports) * r_ports


def cumulative_clauses(depth: int, w_ports: int, r_ports: int,
                       addr_width: int, data_width: int) -> int:
    """Total clauses after analysing depths 0..depth (quadratic growth)."""
    return sum(clauses_at_depth(k, w_ports, r_ports, addr_width, data_width)
               for k in range(depth + 1))


def cumulative_gates(depth: int, w_ports: int, r_ports: int) -> int:
    return sum(gates_at_depth(k, w_ports, r_ports) for k in range(depth + 1))


def pure_gate_single_port(k: int, addr_width: int, data_width: int) -> int:
    """Section 3's purely circuit-based alternative: ``(4m+2n+2)k + n`` gates."""
    m, n = addr_width, data_width
    return (4 * m + 2 * n + 2) * k + n


def explicit_model_state_bits(addr_width: int, data_width: int) -> int:
    """State bits the explicit baseline adds per memory: ``2**AW * DW``."""
    return (1 << addr_width) * data_width


def init_consistency_pairs_paper(k: int, r_ports: int) -> int:
    """The count as printed in the paper: ``kR(R-1)``."""
    return k * r_ports * (r_ports - 1)


def init_consistency_pairs_all(k: int, r_ports: int) -> int:
    """All-pairs count over the ``kR`` fresh reads (what we implement)."""
    total = k * r_ports
    return total * (total - 1) // 2


# -- chain-share closed forms (reproduction extension, not in the paper) --
#
# Cross-frame chain sharing changes two growth terms of the default
# encodings.  The gate EMM encoding's priority chain is an
# oldest-write-first mux chain whose per-pair cost is bounded by
# :func:`mux_chain_gates_per_read_port`; on recurring address cones the
# strash layer answers whole repeated stages from its table
# (``EmmCounters.chain_suffix_hits``), so the *new* gates per frame drop
# from the linear-in-k rebuild to the bounded constant of
# :func:`suffix_shared_frame_gates`.  The equation-(6) pass prunes pairs
# whose comparator folds FALSE (``EmmCounters.init_pairs_pruned``) and
# merges fall-through reads whose comparator folds TRUE
# (``init_records_merged``): a fully recurring read port contributes one
# record total instead of one per frame, collapsing its share of the
# quadratic all-pairs set to the linear number of guard clauses.


def mux_chain_gates_per_read_port(k: int, w_ports: int,
                                  data_width: int) -> int:
    """Upper bound on oldest-first chain gates at depth k, one read port.

    Per live (frame, write-port) pair: the ``S = E ∧ WE`` gate, one
    no-match accumulation step and a ``3n``-gate data mux; plus the
    final read-enable fall-through AND and the per-bit output gating.
    Comparator cones are excluded (shared, counted like the hybrid's
    ``4m+1`` closed form); strash folding makes this an upper bound.
    """
    n = data_width
    return (3 * n + 2) * k * w_ports + n + 1


def suffix_shared_frame_gates(addr_width: int, data_width: int,
                              w_ports: int = 1) -> int:
    """Upper bound on *new* chain gates per frame under full sharing.

    For a read whose address cone and initial word are stable across
    frames, everything but the newest write's stage is a strash hit:
    one fresh comparator cone (≤ ``4m`` nodes), the ``S`` and no-match
    gates and one ``3n``-gate mux stage per write port, plus the
    re-gated output and forced-equality cones (≤ ``4n``).  Constant in
    the depth — the plateau the C4 bench asserts.
    """
    m, n = addr_width, data_width
    return (4 * m + 3 * n + 2) * w_ports + 4 * n
