"""Shared address-comparison layer for the EMM encodings.

Both EMM encoders (the hybrid :class:`repro.emm.forwarding.EmmMemory`
and the CNF side of :class:`repro.emm.gates.GateEmmMemory`) need many
indicator literals ``E <-> (AddrA == AddrB)`` over SAT-literal words.
The paper's direct encoding mints a fresh variable and ``4m+1`` clauses
for every comparison; across the forwarding chain, read ports sharing an
address cone and the equation-(6) consistency pairs, the *same* pair of
address words recurs many times.  This module deduplicates that
structure:

* **Comparator cache** — keyed on the canonically ordered pair of
  SAT-literal tuples of the two address words.  Equality is symmetric,
  so ``(A, B)`` and ``(B, A)`` share one entry; a hit returns the
  existing ``E`` literal with zero new clauses or variables.  Literal
  tuples are stable keys because the unroller memoizes port signals and
  the Tseitin emitter memoizes cones (see
  :meth:`repro.bmc.unroller.Unroller.read_port_signals`).
* **Constant folding** — address bits that lower to the emitter's
  constant variable are recognised: const-vs-const comparisons fold to
  the TRUE/FALSE literal with zero clauses; const-vs-symbolic
  comparisons use the ``m+1``-clause unit form (the shape of the ROM
  ``_addr_eq_const`` encoding) instead of the full ``4m+1``; bit pairs
  that are the *same* literal are skipped and bit pairs that are
  complementary literals fold the whole comparator to FALSE.

PBA provenance: every cache entry remembers the clause ids it emitted
and the labels it has served.  A hit requested under a label the entry
has not seen yet *joins* that label onto the entry's clauses
(:meth:`repro.sat.solver.Solver.add_label`), so an unsat core that uses
a shared comparator attributes it to **every** consumer it served —
``Solver.core_labels`` flattens the resulting multi-labels back into
individual ``("emm", name, *)`` tuples.  That label joining is what
makes a **cross-memory** cache sound: every comparator resolves against
a :class:`SharedComparatorTables` registry, and the
:class:`EncodingSession` owns one for all its memories, so two memories
whose address cones lower to the same SAT-literal tuples — the
miter/equivalence case, where both copies see identical cones — share
one ``4m+1``-clause block and the core names *both* memories.  An EMM
encoder built without a session makes a registry of its own.

Folded comparators return the emitter's always-true variable (possibly
negated); cores that use a folded result pick up the ``("const",)``
unit instead of EMM clauses, exactly as they already did when the
paper encoding's constant-address clauses were absorbed at level 0.
"""

from __future__ import annotations

from typing import Hashable, Optional

from repro.aig.tseitin import CnfEmitter
from repro.sat.solver import Solver


class _CacheEntry:
    """One cached comparator: its E literal, clause ids, served labels.

    ``cids`` lets a later hit join the new caller's label onto every
    clause of the entry; ``labels`` avoids redundant joins; ``owner``
    identifies the comparator instance (memory) that first encoded it,
    so cross-memory reuse can be counted.
    """

    __slots__ = ("lit", "cids", "labels", "owner")

    def __init__(self, lit: int, cids: tuple[int, ...],
                 label: Hashable, owner) -> None:
        self.lit = lit
        self.cids = cids
        self.labels: set = {label}
        self.owner = owner


class SharedComparatorTables:
    """Comparator registry shared by every comparator of one encoding.

    Owned by :class:`repro.bmc.session.EncodingSession` and handed to
    every memory's :class:`AddrComparator`: all of them resolve against
    one :attr:`table` keyed on canonical SAT-literal tuples, so
    structurally identical address comparisons are encoded once
    *across* memories.  Hits whose entry was founded by a different
    memory are counted in :attr:`cross_mem_hits` (and the calling
    memory's ``EmmCounters.cross_mem_cmp_hits``).
    """

    __slots__ = ("table", "cross_mem_hits")

    def __init__(self) -> None:
        #: canonical (tuple, tuple) key -> _CacheEntry.
        self.table: dict[tuple[tuple[int, ...], tuple[int, ...]],
                         _CacheEntry] = {}
        self.cross_mem_hits = 0


class AddrComparator:
    """Cache of address-equality indicator literals for one consumer,
    resolving against a shared registry.

    Parameters
    ----------
    solver, emitter:
        The run's solver and Tseitin emitter (the emitter owns the
        dedicated always-true constant variable used for folds).
    registry:
        The :class:`SharedComparatorTables` the cache table lives in
        (hits join the caller's label, see the module docstring).
    owner:
        Names this consumer (the memory) for cross-memory hit
        attribution.
    """

    __slots__ = ("solver", "emitter", "owner", "_registry", "_table")

    def __init__(self, solver: Solver, emitter: CnfEmitter,
                 registry: SharedComparatorTables,
                 owner: Optional[str] = None) -> None:
        self.solver = solver
        self.emitter = emitter
        self.owner = owner
        self._registry = registry
        self._table = registry.table

    # -- public API -----------------------------------------------------

    def eq(self, a_bits: list[int], b_bits: list[int], label: Hashable,
           c, counter: str) -> int:
        """Literal of ``E`` with ``E <-> (a_bits == b_bits)``.

        Clauses are booked into ``getattr(c, counter)``; cache hits and
        folds bump ``c.addr_eq_cache_hits`` / ``c.addr_eq_folded``.
        A hit under a label the entry has not served yet joins it onto
        the entry's clauses, so unsat cores attribute the comparator to
        every consumer (PBA multi-label soundness — module docstring).
        """
        if len(a_bits) != len(b_bits):
            raise ValueError("address words differ in width")
        ta, tb = tuple(a_bits), tuple(b_bits)
        key = (ta, tb) if ta <= tb else (tb, ta)
        entry = self._table.get(key)
        if entry is not None:
            c.addr_eq_cache_hits += 1
            if label not in entry.labels:
                for cid in entry.cids:
                    self.solver.add_label(cid, label)
                entry.labels.add(label)
            if entry.owner != self.owner:
                self._registry.cross_mem_hits += 1
                c.cross_mem_cmp_hits += 1
            return entry.lit
        cids: list[int] = []
        e = self._encode(ta, tb, label, c, counter, cids)
        self._table[key] = _CacheEntry(e, tuple(cids), label, self.owner)
        return e

    def eq_const(self, addr: list[int], value: int, label: Hashable,
                 c, counter: str) -> int:
        """``E <-> (addr == value)`` for an integer constant ``value``.

        The constant is lowered to literals of the emitter's always-true
        variable, so it shares the cache and folding rules of :meth:`eq`
        (a constant address cone against a constant value folds to
        TRUE/FALSE with zero clauses; against a symbolic cone it costs
        the ``m+1``-clause unit form).
        """
        t = self.emitter.true_lit()
        const_bits = [t if (value >> i) & 1 else -t
                      for i in range(len(addr))]
        return self.eq(addr, const_bits, label, c, counter)

    @property
    def size(self) -> int:
        """Number of distinct comparators currently cached."""
        return len(self._table)

    def const_value(self, e_lit: int) -> Optional[bool]:
        """Fold result of a literal returned by :meth:`eq` / :meth:`eq_const`.

        ``True``/``False`` when the comparison folded to a constant (the
        literal is the emitter's always-true variable, possibly negated),
        ``None`` for a symbolic comparator.  This is the public face of
        the fold layer: consumers that want to *act* on folds — the
        exclusivity-chain pruning, the equation-(6) pair pruning — ask
        the comparator instead of reaching into the emitter.
        """
        return self.emitter.const_value(e_lit)

    # -- encoding -------------------------------------------------------

    def _const_value(self, lit: int) -> Optional[bool]:
        return self.emitter.const_value(lit)

    def _encode(self, ta: tuple[int, ...], tb: tuple[int, ...],
                label: Hashable, c, counter: str,
                cids: list[int]) -> int:
        em = self.emitter
        sym_pairs: list[tuple[int, int]] = []  # both sides symbolic
        units: list[int] = []  # literal equivalent to one bit's equality
        for a, b in zip(ta, tb):
            if a == b:
                continue  # identical literal: equal by construction
            if a == -b:
                self._bump_fold(c)
                return -em.true_lit()  # complementary: never equal
            va, vb = self._const_value(a), self._const_value(b)
            if va is not None and vb is not None:
                if va != vb:
                    self._bump_fold(c)
                    return -em.true_lit()
                continue  # equal constants
            if va is not None:
                units.append(b if va else -b)
            elif vb is not None:
                units.append(a if vb else -a)
            else:
                sym_pairs.append((a, b))
        if not sym_pairs and not units:
            self._bump_fold(c)
            return em.true_lit()  # structurally identical words

        e_total = self._new_var(c)
        closing = []
        for a, b in sym_pairs:
            e_i = self._new_var(c)
            self._clause([-e_total, a, -b], label, c, counter, cids)
            self._clause([-e_total, -a, b], label, c, counter, cids)
            self._clause([e_i, a, b], label, c, counter, cids)
            self._clause([e_i, -a, -b], label, c, counter, cids)
            closing.append(-e_i)
        for lit in units:
            self._clause([-e_total, lit], label, c, counter, cids)
            closing.append(-lit)
        self._clause(closing + [e_total], label, c, counter, cids)
        return e_total

    def _bump_fold(self, c) -> None:
        c.addr_eq_folded += 1

    def _new_var(self, c) -> int:
        c.vars_added += 1
        return self.solver.new_var()

    def _clause(self, lits: list[int], label: Hashable, c, counter: str,
                cids: list[int]) -> None:
        setattr(c, counter, getattr(c, counter) + 1)
        cid = self.solver.add_clause(lits, label)
        if cid < 0:
            c.absorbed += 1
        else:
            cids.append(cid)
