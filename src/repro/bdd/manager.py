"""A reduced-ordered BDD manager.

Classic implementation: nodes are integers, terminals 0 and 1, a unique
table guarantees canonicity, ``ite`` with a computed table implements all
boolean connectives, and existential quantification / variable renaming
support image computation.  A configurable node limit turns state-space
blowup into a catchable :class:`BddLimitExceeded` instead of an OOM —
the behaviour the paper reports for its BDD engine on memory-laden
models.
"""

from __future__ import annotations

from typing import Iterable, Optional

FALSE = 0
TRUE = 1


class BddLimitExceeded(Exception):
    """Raised when the manager's node limit is exhausted."""


class BddManager:
    """ROBDD manager with a fixed variable order (creation order)."""

    def __init__(self, node_limit: Optional[int] = None) -> None:
        # Node storage: index -> (var, low, high); 0/1 are terminals.
        self._var: list[int] = [2**30, 2**30]  # terminals sort last
        self._low: list[int] = [0, 1]
        self._high: list[int] = [0, 1]
        self._unique: dict[tuple[int, int, int], int] = {}
        self._ite_memo: dict[tuple[int, int, int], int] = {}
        self._quant_cache: dict = {}
        self._rename_cache: dict = {}
        self.num_vars = 0
        self.node_limit = node_limit

    # -- construction -----------------------------------------------------

    def new_var(self) -> int:
        """Create the next variable; returns the BDD for that variable."""
        var = self.num_vars
        self.num_vars += 1
        return self._mk(var, FALSE, TRUE)

    def _mk(self, var: int, low: int, high: int) -> int:
        if low == high:
            return low
        key = (var, low, high)
        hit = self._unique.get(key)
        if hit is not None:
            return hit
        if self.node_limit is not None and len(self._var) >= self.node_limit:
            raise BddLimitExceeded(
                f"BDD node limit {self.node_limit} exceeded")
        idx = len(self._var)
        self._var.append(var)
        self._low.append(low)
        self._high.append(high)
        self._unique[key] = idx
        return idx

    # -- core operations -----------------------------------------------------

    def ite(self, f: int, g: int, h: int) -> int:
        """if-then-else: ``f ? g : h``, the universal connective."""
        if f == TRUE:
            return g
        if f == FALSE:
            return h
        if g == h:
            return g
        if g == TRUE and h == FALSE:
            return f
        key = (f, g, h)
        hit = self._ite_memo.get(key)
        if hit is not None:
            return hit
        top = min(self._var[f], self._var[g], self._var[h])
        f0, f1 = self._cofactors(f, top)
        g0, g1 = self._cofactors(g, top)
        h0, h1 = self._cofactors(h, top)
        low = self.ite(f0, g0, h0)
        high = self.ite(f1, g1, h1)
        out = self._mk(top, low, high)
        self._ite_memo[key] = out
        return out

    def _cofactors(self, f: int, var: int) -> tuple[int, int]:
        if self._var[f] != var:
            return f, f
        return self._low[f], self._high[f]

    def and_(self, f: int, g: int) -> int:
        return self.ite(f, g, FALSE)

    def or_(self, f: int, g: int) -> int:
        return self.ite(f, TRUE, g)

    def not_(self, f: int) -> int:
        return self.ite(f, FALSE, TRUE)

    def xor_(self, f: int, g: int) -> int:
        return self.ite(f, self.not_(g), g)

    def iff_(self, f: int, g: int) -> int:
        return self.ite(f, g, self.not_(g))

    def and_many(self, fs: Iterable[int]) -> int:
        out = TRUE
        for f in fs:
            out = self.and_(out, f)
            if out == FALSE:
                return FALSE
        return out

    def or_many(self, fs: Iterable[int]) -> int:
        out = FALSE
        for f in fs:
            out = self.or_(out, f)
            if out == TRUE:
                return TRUE
        return out

    # -- quantification and renaming ----------------------------------------

    def exists(self, f: int, vars_set: frozenset[int]) -> int:
        """Existentially quantify the given variables out of ``f``."""
        if f <= TRUE:
            return f
        key = (f, vars_set)
        hit = self._quant_cache.get(key)
        if hit is not None:
            return hit
        var = self._var[f]
        if all(v < var for v in vars_set):
            return f  # below all quantified vars: untouched
        low = self.exists(self._low[f], vars_set)
        high = self.exists(self._high[f], vars_set)
        if var in vars_set:
            out = self.or_(low, high)
        else:
            out = self._mk(var, low, high)
        self._quant_cache[key] = out
        return out

    def rename(self, f: int, mapping: dict[int, int]) -> int:
        """Rename variables; the mapping must preserve relative order."""
        items = sorted(mapping.items())
        for (a1, b1), (a2, b2) in zip(items, items[1:]):
            if not (a1 < a2 and b1 < b2):
                raise ValueError("rename mapping must be order-preserving")
        frozen = tuple(items)
        return self._rename_rec(f, dict(mapping), frozen)

    def _rename_rec(self, f: int, mapping: dict[int, int], frozen) -> int:
        if f <= TRUE:
            return f
        key = (f, frozen)
        hit = self._rename_cache.get(key)
        if hit is not None:
            return hit
        var = self._var[f]
        low = self._rename_rec(self._low[f], mapping, frozen)
        high = self._rename_rec(self._high[f], mapping, frozen)
        out = self._mk(mapping.get(var, var), low, high)
        self._rename_cache[key] = out
        return out

    # -- inspection ------------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        return len(self._var)

    def size(self, f: int) -> int:
        """Nodes in the sub-DAG rooted at ``f``."""
        seen: set[int] = set()
        stack = [f]
        while stack:
            n = stack.pop()
            if n <= TRUE or n in seen:
                continue
            seen.add(n)
            stack.append(self._low[n])
            stack.append(self._high[n])
        return len(seen)

    def count_sat(self, f: int, num_vars: Optional[int] = None) -> int:
        """Number of satisfying assignments over ``num_vars`` variables.

        Skipped decision levels are weighted by powers of two, so the
        count is exact even though reduced BDDs elide don't-care nodes.
        """
        if num_vars is None:
            num_vars = self.num_vars
        memo: dict[int, tuple[int, int]] = {}

        def count(n: int) -> tuple[int, int]:
            """Returns (count over vars >= var(n), var(n))."""
            if n == FALSE:
                return 0, num_vars
            if n == TRUE:
                return 1, num_vars
            if n in memo:
                return memo[n]
            lc, lv = count(self._low[n])
            hc, hv = count(self._high[n])
            var = self._var[n]
            total = (lc << (lv - var - 1)) + (hc << (hv - var - 1))
            memo[n] = (total, var)
            return memo[n]

        c, v = count(f)
        return c << v

    def eval(self, f: int, assignment: dict[int, bool]) -> bool:
        """Evaluate under a full/partial assignment (missing vars = False)."""
        n = f
        while n > TRUE:
            if assignment.get(self._var[n], False):
                n = self._high[n]
            else:
                n = self._low[n]
        return n == TRUE
