"""Structurally hashed And-Inverter Graph.

Nodes are referenced through integer literals ``2 * index + sign``; the
constant node has index 0 (literal 0 = FALSE, literal 1 = TRUE).  AND nodes
are hash-consed with constant folding and input-order canonicalisation, so
equivalent two-level structures share nodes — this keeps the unrolled BMC
formula compact, mirroring the simplified circuit representation the
paper's platform uses.

Hash-consing and folding are always on; the ``strash_hits`` /
``strash_folds`` counters record how much merging happened, which is how
the layer's win is measured.
"""

from __future__ import annotations

from typing import Iterable, Optional

FALSE = 0
TRUE = 1


def lit_not(lit: int) -> int:
    """Negate an AIG literal."""
    return lit ^ 1


class Aig:
    """A growing AIG with structural hashing.

    The node table stores, per index, either ``None`` (constant / primary
    input) or a pair ``(a, b)`` of fanin literals for AND nodes.  Indices
    are topologically ordered by construction: an AND node's fanins always
    have smaller indices, which evaluation and CNF emission rely on.

    :meth:`and_gate` folds trivial requests (``x∧x → x``, ``x∧¬x → 0``,
    ``x∧1 → x``, ``x∧0 → 0``) and returns the existing node for a
    repeated ``(lhs, rhs)`` fanin pair after canonical ordering.
    """

    def __init__(self) -> None:
        self._fanins: list[Optional[tuple[int, int]]] = [None]
        self._input_names: dict[int, str] = {}
        self._num_ands = 0
        self._strash: dict[tuple[int, int], int] = {}
        #: AND requests answered from the hash table (existing node reused).
        self.strash_hits = 0
        #: AND requests folded away (constant / idempotence / complement).
        self.strash_folds = 0

    # -- construction ---------------------------------------------------

    def new_input(self, name: str = "") -> int:
        """Create a primary input; returns its (positive) literal."""
        idx = len(self._fanins)
        self._fanins.append(None)
        if name:
            self._input_names[idx] = name
        return idx << 1

    def and_gate(self, a: int, b: int) -> int:
        """AND of two literals; the strashed node constructor.

        Folds constants, idempotence and complements, then consults the
        structural hash table so a repeated fanin pair returns the
        existing node; ``strash_folds`` and ``strash_hits`` count the
        merges.
        """
        if a == FALSE or b == FALSE or a == b ^ 1:
            self.strash_folds += 1
            return FALSE
        if a == TRUE:
            self.strash_folds += 1
            return b
        if b == TRUE or a == b:
            self.strash_folds += 1
            return a
        if a > b:
            a, b = b, a
        key = (a, b)
        hit = self._strash.get(key)
        if hit is not None:
            self.strash_hits += 1
            return hit
        idx = len(self._fanins)
        self._fanins.append(key)
        self._num_ands += 1
        lit = idx << 1
        self._strash[key] = lit
        return lit

    #: Historic name of the constructor, used throughout the code base.
    and_ = and_gate

    def or_(self, a: int, b: int) -> int:
        return lit_not(self.and_gate(lit_not(a), lit_not(b)))

    def xor_(self, a: int, b: int) -> int:
        return self.or_(self.and_gate(a, lit_not(b)), self.and_gate(lit_not(a), b))

    def iff_(self, a: int, b: int) -> int:
        return lit_not(self.xor_(a, b))

    def mux(self, sel: int, t: int, e: int) -> int:
        """``sel ? t : e`` (if-then-else over literals).

        The constant-selector and equal-branch shortcuts are semantic
        identities of the ITE operator itself; the underlying AND gates
        go through :meth:`and_gate`.
        """
        if sel == TRUE:
            return t
        if sel == FALSE:
            return e
        if t == e:
            return t
        return self.or_(self.and_gate(sel, t), self.and_gate(lit_not(sel), e))

    #: ITE spelling of :meth:`mux`, for callers thinking in word-level ops.
    ite = mux

    def implies(self, a: int, b: int) -> int:
        return self.or_(lit_not(a), b)

    def and_many(self, lits: Iterable[int]) -> int:
        out = TRUE
        for lit in lits:
            out = self.and_gate(out, lit)
        return out

    def or_many(self, lits: Iterable[int]) -> int:
        out = FALSE
        for lit in lits:
            out = self.or_(out, lit)
        return out

    # -- inspection -------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        """Total node count including the constant node."""
        return len(self._fanins)

    @property
    def num_ands(self) -> int:
        return self._num_ands

    def is_input(self, lit: int) -> bool:
        idx = lit >> 1
        return idx != 0 and self._fanins[idx] is None

    def fanins(self, lit: int) -> tuple[int, int]:
        """Fanin literals of an AND node (raises for non-AND)."""
        f = self._fanins[lit >> 1]
        if f is None:
            raise ValueError(f"literal {lit} is not an AND node")
        return f

    def input_name(self, lit: int) -> str:
        return self._input_names.get(lit >> 1, f"n{lit >> 1}")

    def cone_size(self, roots: Iterable[int]) -> int:
        """Number of AND nodes in the transitive fanin of ``roots``."""
        seen: set[int] = set()
        stack = [r >> 1 for r in roots]
        count = 0
        while stack:
            idx = stack.pop()
            if idx in seen:
                continue
            seen.add(idx)
            f = self._fanins[idx]
            if f is not None:
                count += 1
                stack.append(f[0] >> 1)
                stack.append(f[1] >> 1)
        return count
