"""Lazy Tseitin conversion of AIG cones into a SAT solver.

The emitter maintains a mapping from AIG node index to SAT variable and
emits the three AND-gate clauses per node the first time a cone needs it.
Every clause carries the emitter's *current provenance label* — the BMC
engine switches the label as it emits transition logic, EMM constraints,
initial-state units and loop-free-path constraints, and proof-based
abstraction later reads those labels back out of unsat cores.

Native ITE lowering (``ite=True``, the default) recognizes the two-level
``or(and(s, t), and(!s, e))`` shape — the AIG spelling of every mux the
word layer builds, and of xor (``t = !e``) — and emits one variable with
the four ITE clauses instead of three AND triples (3 vars, 9 clauses).
The inner AND nodes get no CNF at all; ``ites_emitted`` counts the
lowered shapes.
"""

from __future__ import annotations

from typing import Hashable, Optional, Sequence

from repro.aig.aig import Aig
from repro.sat.solver import Solver


class CnfEmitter:
    """Incrementally emits AIG cones as CNF into a :class:`Solver`.

    Parameters
    ----------
    ite:
        Detect ``or(and(s, t), and(!s, e))`` shapes and emit the
        1-var/4-clause native ITE form instead of three AND triples.
        ``False`` restores the plain per-node Tseitin lowering (the
        ablation the accounting closed forms were derived against).
    """

    def __init__(self, aig: Aig, solver: Solver, ite: bool = True) -> None:
        self.aig = aig
        self.solver = solver
        self._var_of: dict[int, int] = {}  # AIG node index -> SAT var
        self._label: Hashable = None
        self._const_var: Optional[int] = None
        self._ite = ite
        #: Count of AND-gate clause triples emitted (for size accounting).
        self.gates_emitted = 0
        #: Count of mux/xor shapes lowered to the native 4-clause ITE
        #: form (each replaces up to three AND triples).
        self.ites_emitted = 0

    # -- label management -------------------------------------------------

    def set_label(self, label: Hashable) -> None:
        """Set the provenance label attached to subsequently emitted clauses."""
        self._label = label

    @property
    def label(self) -> Hashable:
        return self._label

    # -- lowering ---------------------------------------------------------

    def sat_lit(self, aig_lit: int) -> int:
        """SAT literal equisatisfiably representing ``aig_lit``.

        Emits the literal's AND cone on first use.  Constants map to a
        dedicated always-true variable.
        """
        idx = aig_lit >> 1
        sign = aig_lit & 1
        if idx == 0:
            # Node 0 is constant FALSE; its SAT var is asserted true, so
            # AIG literal 1 (TRUE) maps to +var and literal 0 to -var.
            var = self._ensure_const()
            return var if sign else -var
        var = self._var_of.get(idx)
        if var is None:
            self._emit_cone(idx)
            var = self._var_of[idx]
        return -var if sign else var

    def sat_word(self, word: Sequence[int]) -> list[int]:
        return [self.sat_lit(b) for b in word]

    def var_for(self, aig_lit: int) -> Optional[int]:
        """SAT var already allocated for the literal's node, if any."""
        return self._var_of.get(aig_lit >> 1)

    # -- constant identity (used by the EMM address-comparison layer) ----

    def true_lit(self) -> int:
        """SAT literal that is always true (allocates the const var once)."""
        return self._ensure_const()

    def const_value(self, sat_lit: int) -> Optional[bool]:
        """Truth value of a SAT literal of the constant variable.

        Returns None for literals of any other (symbolic) variable —
        this is how callers recognise constant address bits, since every
        AIG constant lowers to the single dedicated always-true var.
        """
        if self._const_var is None or abs(sat_lit) != self._const_var:
            return None
        return sat_lit > 0

    def add_clause(self, sat_lits: Sequence[int], label: Hashable = None) -> int:
        """Add a raw CNF clause (used for the paper's direct-CNF constraints)."""
        return self.solver.add_clause(
            sat_lits, label if label is not None else self._label
        )

    # -- internals ---------------------------------------------------------

    def _ensure_const(self) -> int:
        if self._const_var is None:
            self._const_var = self.solver.new_var()
            self.solver.add_clause([self._const_var], ("const",))
        return self._const_var

    def _emit_cone(self, root_idx: int) -> None:
        aig = self.aig
        var_of = self._var_of
        solver = self.solver
        label = self._label
        stack = [root_idx]
        while stack:
            idx = stack[-1]
            if idx in var_of:
                stack.pop()
                continue
            fan = aig._fanins[idx]
            if fan is None:
                # Primary input (or free node): plain variable.
                var_of[idx] = solver.new_var()
                stack.pop()
                continue
            a, b = fan
            ite = self._detect_ite(a, b) if self._ite else None
            if ite is not None:
                sel, t, e = ite
                missing = False
                for lt in (sel, t, e):
                    li = lt >> 1
                    if li != 0 and li not in var_of:
                        stack.append(li)
                        missing = True
                if missing:
                    continue  # node stays; re-detected once fanins exist
                stack.pop()
                ls = self._existing_lit(sel)
                lt = self._existing_lit(t)
                le = self._existing_lit(e)
                if ls < 0:
                    # ITE(!s, t, e) == ITE(s, e, t): normalize to a
                    # positive selector.
                    ls, lt, le = -ls, le, lt
                # The node is AND(!and(s,t), !and(!s,e)) == !ITE(s,t,e):
                # v <-> !(s ? t : e) in four clauses, one variable.  The
                # inner AND nodes never get CNF.
                v = solver.new_var()
                var_of[idx] = v
                solver.add_clause([-ls, -lt, -v], label)
                solver.add_clause([-ls, lt, v], label)
                solver.add_clause([ls, -le, -v], label)
                solver.add_clause([ls, le, v], label)
                self.ites_emitted += 1
                continue
            ai, bi = a >> 1, b >> 1
            missing = False
            if ai != 0 and ai not in var_of:
                stack.append(ai)
                missing = True
            if bi != 0 and bi not in var_of:
                stack.append(bi)
                missing = True
            if missing:
                continue
            stack.pop()
            la = self._existing_lit(a)
            lb = self._existing_lit(b)
            v = solver.new_var()
            var_of[idx] = v
            solver.add_clause([-v, la], label)
            solver.add_clause([-v, lb], label)
            solver.add_clause([v, -la, -lb], label)
            self.gates_emitted += 1

    def _detect_ite(self, a: int, b: int) -> Optional[tuple[int, int, int]]:
        """Match ``AND(a, b) == !ITE(sel, t, e)`` against the mux shape.

        Requires both fanins to be negated AND nodes sharing a
        complementary selector literal — ``a = !and(sel, t)``,
        ``b = !and(!sel, e)`` in either order/pairing (xor matches with
        ``t = !e``).  Returns ``(sel, t, e)`` AIG literals, or None.
        Nodes whose inner ANDs are both lowered already are left to the
        plain triple path: one 3-clause triple over the existing vars
        beats a 4-clause ITE there.
        """
        if not (a & 1 and b & 1):
            return None
        ai, bi = a >> 1, b >> 1
        if ai == 0 or bi == 0:
            return None
        fanins = self.aig._fanins
        fa = fanins[ai]
        fb = fanins[bi]
        if fa is None or fb is None:
            return None
        var_of = self._var_of
        if ai in var_of and bi in var_of:
            return None
        for s in fa:
            for u in fb:
                if u == s ^ 1:
                    t = fa[1] if fa[0] == s else fa[0]
                    e = fb[1] if fb[0] == u else fb[0]
                    return (s, t, e)
        return None

    def _existing_lit(self, aig_lit: int) -> int:
        idx = aig_lit >> 1
        if idx == 0:
            var = self._ensure_const()
            return var if aig_lit & 1 else -var
        var = self._var_of[idx]
        return -var if aig_lit & 1 else var
