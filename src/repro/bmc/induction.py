"""Loop-free-path (LFP) constraints for SAT-based induction proofs.

Following Sheeran/Singh/Stalmarck (the paper's reference [19]) and the
checks on lines 5-7 of Figure 1 / 6-8 of Figure 3:

* *forward termination*:  ``I ∧ LFP_i`` UNSAT — no loop-free path of
  length i leaves the initial states, so earlier bounded checks covered
  the whole reachable space;
* *backward termination*: ``LFP_i ∧ CP_i ∧ ¬P_i`` UNSAT — no loop-free
  path keeps P for i steps and then fails it (the k-induction step).

``LFP_i`` is the pairwise state-difference constraint over the *kept*
latch words.  Each pair (j, k) is encoded directly in CNF in the same
hybrid style the paper uses for EMM address comparisons: per-bit
difference indicators ``d_b`` with ``d_b -> (s_j[b] != s_k[b])`` and one
activation-guarded clause ``(!g_k + d_0 + ... + d_{B-1})`` requiring
some bit to differ.

Activation is **per frame**: all pairs ending at frame ``k`` share one
guard literal ``g_k``, and a check at depth ``i`` assumes only
``g_1..g_i`` (:meth:`LoopFreeConstraints.assumptions`).  This matters on
shared encoding sessions — a sibling property may have encoded frames
far beyond ``i``, and a single global activation literal would force
loop-freedom over *those* frames too, turning a depth-``i`` forward
check into "no loop-free path of the deepest encoded length exists":
spuriously UNSAT at the design's diameter.  There is no global
activation literal: whole-encoding callers (recurrence-diameter
computation) assume ``assumptions(depth)`` for the deepest frame.
"""

from __future__ import annotations

from repro.bmc.unroller import Unroller


class LoopFreeConstraints:
    """Incrementally adds pairwise state-inequality clauses per frame."""

    def __init__(self, unroller: Unroller) -> None:
        self.unroller = unroller
        self.pairs_added = 0
        self.clauses_added = 0
        #: Per frame: SAT literals of the kept latch state bits.
        self._state_lits: list[list[int]] = []
        #: ``frame_lits[k-1]`` guards the pairs ending at frame k (k >= 1).
        self.frame_lits: list[int] = []

    def assumptions(self, depth: int) -> list[int]:
        """Guards activating all pairwise constraints among frames 0..depth."""
        return self.frame_lits[:depth]

    def add_frame(self, k: int) -> None:
        """Add ``state_j != state_k`` for all j < k."""
        un = self.unroller
        emitter = un.emitter
        solver = emitter.solver
        names = sorted(un.kept_latches)
        emitter.set_label(("lfp-state", k))
        state_k = [emitter.sat_lit(bit)
                   for name in names for bit in un.latch_word(name, k)]
        self._state_lits.append(state_k)
        if k == 0:
            return
        g = solver.new_var()
        self.frame_lits.append(g)
        for j in range(k):
            state_j = self._state_lits[j]
            label = ("lfp", j, k)
            diff_bits = []
            for a, b in zip(state_j, state_k):
                d = solver.new_var()
                solver.add_clause([-d, a, b], label)
                solver.add_clause([-d, -a, -b], label)
                diff_bits.append(d)
                self.clauses_added += 2
            solver.add_clause([-g] + diff_bits, label)
            self.clauses_added += 1
            self.pairs_added += 1
