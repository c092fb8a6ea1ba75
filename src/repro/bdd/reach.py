"""Forward-reachability invariant checking over BDDs.

Builds a monolithic transition relation for a *memory-free* design
(current-state and next-state variables interleaved, inputs last),
iterates image computation to a fixpoint, and checks the property
against each frontier — the "BDD-based symbolic model checking" leg of
the paper's verification platform.

Memory-laden designs must be explicitly expanded first; at realistic
address widths that is exactly where the node limit triggers, matching
the paper's "our BDD-based model checker was unable to build even the
transition relation for these abstract models".
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

from repro.bdd.manager import FALSE, TRUE, BddLimitExceeded, BddManager
from repro.design.netlist import Design, Expr

Word = list[int]

#: Image steps after which a run that neither hit the bad states nor
#: reached a fixpoint reports ``bounded``.
MAX_ITERATIONS = 10_000


@dataclass
class BddReachResult:
    """Outcome of a BDD reachability run."""

    status: str  # 'proof' | 'cex' | 'limit' | 'bounded'
    property_name: str
    iterations: int
    #: Depth at which a bad state first intersected the frontier.
    cex_depth: Optional[int] = None
    reachable_states: Optional[int] = None
    peak_nodes: int = 0
    wall_time_s: float = 0.0

    @property
    def proved(self) -> bool:
        return self.status == "proof"

    def describe(self) -> str:
        if self.status == "proof":
            return (f"{self.property_name}: proved; fixpoint after "
                    f"{self.iterations} images, {self.reachable_states} "
                    f"reachable states, {self.peak_nodes} BDD nodes")
        if self.status == "cex":
            return f"{self.property_name}: violated at depth {self.cex_depth}"
        if self.status == "limit":
            return (f"{self.property_name}: BDD node limit exceeded after "
                    f"{self.iterations} images ({self.peak_nodes} nodes)")
        return f"{self.property_name}: inconclusive"


class _Lowerer:
    """Lowers word-level expressions to BDD words over given leaf words."""

    def __init__(self, mgr: BddManager, latch_words: dict[str, Word],
                 input_words: dict[str, Word]) -> None:
        self.mgr = mgr
        self.latch_words = latch_words
        self.input_words = input_words
        self._cache: dict[int, Word] = {}

    def word(self, expr: Expr) -> Word:
        cache = self._cache
        stack = [expr]
        while stack:
            e = stack[-1]
            if e._id in cache:
                stack.pop()
                continue
            missing = [a for a in e.args if a._id not in cache]
            if missing:
                stack.extend(missing)
                continue
            stack.pop()
            cache[e._id] = self._lower(e)
        return cache[expr._id]

    def _lower(self, e: Expr) -> Word:
        m = self.mgr
        cache = self._cache
        kind = e.kind
        if kind == "const":
            return [TRUE if (e.payload >> i) & 1 else FALSE
                    for i in range(e.width)]
        if kind == "input":
            return self.input_words[e.payload]
        if kind == "latch":
            return self.latch_words[e.payload]
        if kind == "memread":
            raise ValueError("BDD model checking requires a memory-free "
                             "design (expand or abstract memories first)")
        a = cache[e.args[0]._id] if e.args else []
        if kind == "not":
            return [m.not_(b) for b in a]
        if kind == "slice":
            lo, hi = e.payload
            return a[lo:hi]
        if kind == "zext":
            return a + [FALSE] * (e.width - len(a))
        if kind == "mux":
            t = cache[e.args[1]._id]
            f = cache[e.args[2]._id]
            return [m.ite(a[0], x, y) for x, y in zip(t, f)]
        if kind == "concat":
            return a + cache[e.args[1]._id]
        b = cache[e.args[1]._id]
        if kind == "and":
            return [m.and_(x, y) for x, y in zip(a, b)]
        if kind == "or":
            return [m.or_(x, y) for x, y in zip(a, b)]
        if kind == "xor":
            return [m.xor_(x, y) for x, y in zip(a, b)]
        if kind == "add":
            return self._adder(a, b, FALSE)
        if kind == "sub":
            return self._adder(a, [m.not_(x) for x in b], TRUE)
        if kind == "eq":
            return [m.and_many(m.iff_(x, y) for x, y in zip(a, b))]
        if kind == "ult":
            lt = FALSE
            for x, y in zip(a, b):
                lt = m.or_(m.and_(m.not_(x), y), m.and_(m.iff_(x, y), lt))
            return [lt]
        raise ValueError(f"unknown expression kind {kind!r}")

    def _adder(self, a: Word, b: Word, carry: int) -> Word:
        m = self.mgr
        out = []
        for x, y in zip(a, b):
            s = m.xor_(m.xor_(x, y), carry)
            carry = m.or_(m.and_(x, y), m.and_(carry, m.xor_(x, y)))
            out.append(s)
        return out


def bdd_model_check(design: Design, property_name: str,
                    node_limit: Optional[int] = 500_000) -> BddReachResult:
    """Check an invariant / reach property by BDD forward reachability."""
    design.validate()
    if design.memories:
        raise ValueError("BDD model checking requires a memory-free design")
    prop = design.properties[property_name]
    t0 = time.monotonic()
    mgr = BddManager(node_limit=node_limit)

    # Interleaved variable order: current bit 2i, next bit 2i+1; inputs
    # after all state bits.  Order-preserving renaming next->current then
    # just shifts odd indices down by one.
    latch_bits: list[tuple[str, int]] = []
    for name, latch in design.latches.items():
        for b in range(latch.width):
            latch_bits.append((name, b))
    current: dict[str, Word] = {name: [] for name in design.latches}
    nxt_vars: dict[str, Word] = {name: [] for name in design.latches}
    for name, __ in latch_bits:
        current[name].append(mgr.new_var())
        nxt_vars[name].append(mgr.new_var())
    inputs: dict[str, Word] = {}
    for name, inp in design.inputs.items():
        inputs[name] = [mgr.new_var() for __ in range(inp.width)]

    current_var_ids = frozenset(range(0, 2 * len(latch_bits), 2))
    input_var_ids = frozenset(range(2 * len(latch_bits), mgr.num_vars))
    rename_next_to_current = {v: v - 1
                              for v in range(1, 2 * len(latch_bits), 2)}

    lower = _Lowerer(mgr, current, inputs)
    try:
        # Transition relation: AND over all bits of (next <-> f(current, x)).
        trans = TRUE
        for name, latch in design.latches.items():
            fn = lower.word(latch.next)
            for b in range(latch.width):
                trans = mgr.and_(trans, mgr.iff_(nxt_vars[name][b], fn[b]))
        # Property over current state + inputs.
        pword = lower.word(prop.expr)[0]
        bad = mgr.not_(pword) if prop.kind == "invariant" else pword
        # Initial states.
        init = TRUE
        for name, latch in design.latches.items():
            if latch.init is None:
                continue
            for b in range(latch.width):
                bit = current[name][b]
                lit = bit if (latch.init >> b) & 1 else mgr.not_(bit)
                init = mgr.and_(init, lit)

        reached = init
        frontier = init
        iterations = 0
        while frontier != FALSE:
            # Bad state in the frontier?  (bad may involve inputs: check
            # satisfiability of frontier ∧ bad)
            if mgr.and_(frontier, bad) != FALSE:
                return BddReachResult(
                    status="cex", property_name=property_name,
                    iterations=iterations, cex_depth=iterations,
                    peak_nodes=mgr.num_nodes,
                    wall_time_s=time.monotonic() - t0)
            if iterations >= MAX_ITERATIONS:
                return BddReachResult(
                    status="bounded", property_name=property_name,
                    iterations=iterations, peak_nodes=mgr.num_nodes,
                    wall_time_s=time.monotonic() - t0)
            image = mgr.exists(mgr.and_(frontier, trans),
                               current_var_ids | input_var_ids)
            image = mgr.rename(image, rename_next_to_current)
            frontier = mgr.and_(image, mgr.not_(reached))
            reached = mgr.or_(reached, image)
            iterations += 1
        states = mgr.count_sat(reached, mgr.num_vars)
        # reached is over current vars only; scale away next+input vars.
        states >>= len(latch_bits) + sum(
            i.width for i in design.inputs.values())
        return BddReachResult(
            status="proof", property_name=property_name,
            iterations=iterations, reachable_states=states,
            peak_nodes=mgr.num_nodes, wall_time_s=time.monotonic() - t0)
    except BddLimitExceeded:
        return BddReachResult(
            status="limit", property_name=property_name,
            iterations=0, peak_nodes=mgr.num_nodes,
            wall_time_s=time.monotonic() - t0)
