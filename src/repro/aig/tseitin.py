"""Lazy Tseitin conversion of AIG cones into a SAT solver.

The emitter maintains a mapping from AIG node index to SAT variable and
emits the three AND-gate clauses per node the first time a cone needs it.
Every clause carries the emitter's *current provenance label* — the BMC
engine switches the label as it emits transition logic, EMM constraints,
initial-state units and loop-free-path constraints, and proof-based
abstraction later reads those labels back out of unsat cores.

Structural clause dedup adds a second, CNF-level hash layer under the
AIG's own: the three-clause triple of an AND gate is keyed on the
canonically ordered pair of its fanin *SAT literals*, so a re-emitted
cone whose AIG nodes are distinct but whose lowered structure repeats
reuses the existing SAT variable instead of minting a new one and
re-adding the clauses.  AIG node identity already dedups almost
everything; the cache catches cones built over inputs aliased to
existing SAT literals (:meth:`CnfEmitter.aig_lit_for`), whose AIG nodes
differ from the cones that first produced those literals.

Provenance under sharing is *first-emitter-wins*: the clause triple keeps
the label that was current when it was first emitted, and a later cache
hit under a different label adds no clauses.  That is sound for
proof-based abstraction — any core that uses the shared triple attributes
it to a context that really does imply the gate's function — and it is
pinned by a dedicated test (``tests/test_strash.py``).

Native ITE lowering (``ite=True``, the default) recognizes the two-level
``or(and(s, t), and(!s, e))`` shape — the AIG spelling of every mux the
word layer builds, and of xor (``t = !e``) — and emits one variable with
the four ITE clauses instead of three AND triples (3 vars, 9 clauses).
The inner AND nodes get no CNF at all; ``ites_emitted`` counts the
lowered shapes, and a strash-style cache keyed on the normalized
``(sel, t, e)`` SAT literals shares repeated ITEs the same way the gate
cache shares triples.
"""

from __future__ import annotations

from typing import Hashable, Optional, Sequence

from repro.aig.aig import Aig, FALSE, TRUE
from repro.sat.solver import Solver


class CnfEmitter:
    """Incrementally emits AIG cones as CNF into a :class:`Solver`.

    ``strash_hits`` counts gate and ITE emissions answered from the
    CNF-level caches described in the module docstring (no new
    variable, no new clauses).

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
        self._input_of: dict[int, int] = {}  # SAT var -> aliased input index
        self._label: Hashable = None
        self._const_var: Optional[int] = None
        #: canonical (fanin SAT lit, fanin SAT lit) -> gate output var
        self._gate_cache: dict[tuple[int, int], int] = {}
        self._ite = ite
        #: normalized (sel, t, e) SAT lits -> ITE output var
        self._ite_cache: dict[tuple[int, int, int], int] = {}
        #: Count of AND-gate clause triples emitted (for size accounting).
        self.gates_emitted = 0
        #: Count of mux/xor shapes lowered to the native 4-clause ITE
        #: form (each replaces up to three AND triples).
        self.ites_emitted = 0
        #: Gate triples answered from the CNF-level cache.
        self.strash_hits = 0

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

    # -- lifting (SAT -> AIG, the inverse direction) ---------------------

    def aig_lit_for(self, sat_lit: int, name: str = "") -> int:
        """AIG literal *aliased* to an existing SAT literal.

        The inverse of :meth:`sat_lit`: the returned literal is an AIG
        primary input whose node is bound to ``sat_lit``'s variable, so
        lowering it back emits no clauses and returns the original
        literal.  Two guarantees make this the bridge that lets CNF-level
        signals (EMM address comparators, port enables) participate in
        AIG construction:

        * **Stable identity** — repeated requests for the same SAT
          variable return the same input node, so a cone built over
          aliased literals at frame k is structurally identical to the
          same cone rebuilt at frame k+1 and the strash layer shares it.
        * **Constant transparency** — literals of the emitter's dedicated
          always-true variable map to the AIG constants, so downstream
          ``and_gate`` folding mirrors what clause-level absorption would
          have done to the same constraint.
        """
        value = self.const_value(sat_lit)
        if value is not None:
            return TRUE if value else FALSE
        var = abs(sat_lit)
        idx = self._input_of.get(var)
        if idx is None:
            lit = self.aig.new_input(name or f"sat{var}")
            idx = lit >> 1
            self._input_of[var] = idx
            self._var_of[idx] = var
        return (idx << 1) | (1 if sat_lit < 0 else 0)

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

    def assert_lit(self, aig_lit: int, label: Hashable = None) -> None:
        """Assert ``aig_lit`` as a unit clause."""
        self.add_clause([self.sat_lit(aig_lit)], label)

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
        gate_cache = self._gate_cache
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
                    # positive selector so the cache is polarity-blind.
                    ls, lt, le = -ls, le, lt
                ite_cache = self._ite_cache
                hit = ite_cache.get((ls, lt, le))
                if hit is not None:
                    var_of[idx] = hit
                    self.strash_hits += 1
                    continue
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
                ite_cache[(ls, lt, le)] = v
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
            key = (la, lb) if la <= lb else (lb, la)
            hit = gate_cache.get(key)
            if hit is not None:
                # Same lowered structure: reuse the triple's output var.
                # Its clauses keep their original (first-emitter) label.
                var_of[idx] = hit
                self.strash_hits += 1
                continue
            v = solver.new_var()
            var_of[idx] = v
            solver.add_clause([-v, la], label)
            solver.add_clause([-v, lb], label)
            solver.add_clause([v, -la, -lb], label)
            self.gates_emitted += 1
            gate_cache[key] = v

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
