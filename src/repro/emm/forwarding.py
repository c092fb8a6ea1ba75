"""EMM constraint generation for multi-port, multi-memory systems.

One :class:`EmmMemory` instance manages one memory module for the
lifetime of a BMC run; :meth:`EmmMemory.add_frame` is the paper's
``EMM_Constraints(k)`` (Figure 2, lines 8-11), invoked after every
unrolling.  All clauses carry labels ``("emm", memory, kind)`` so
proof-based abstraction can tell which memories a proof actually used.

Write priority follows equation (4): the newest matching write (latest
frame, then highest write port) wins, and a read no write matched —
the paper's ``S_{-1}`` — falls through to the initial memory state.
The chain scans latest-first with the paper's explicit ``PS(i,p)`` ("no
match strictly after (i,p)") and ``S(i,p)`` ("(i,p) is the unique
matching write") signals, emitted every frame as direct CNF: equation
(5)'s ``2n`` implication clauses per pair, the validity clause and raw
3-clause ``AND`` gates — the encoding the closed forms of
:mod:`repro.emm.accounting` count (exactly, on fresh address cones).

Address comparators are produced by
:class:`repro.emm.addrcmp.AddrComparator`: structurally recurring
(read, write-pair) address comparisons return the already-encoded
``E`` literal instead of a fresh ``4m+1`` clause block, and constant
address cones fold to TRUE/FALSE (zero clauses) or the ``m+1``-clause
const form.  The cache lives in a
:class:`repro.emm.addrcmp.SharedComparatorTables` registry
(``cmp_registry``); the encoding session hands one registry to all its
memories, so the cache spans *all* memories.  Proof-based abstraction
stays sound because a cache hit joins the calling memory's
``("emm", name, *)`` label onto the entry's clauses (per-clause
multi-labels, ``Solver.add_label``), so unsat cores through a shared
comparator attribute it to every memory it served.  An encoder built
without a registry makes its own.  Hits are counted in
``EmmCounters.addr_eq_cache_hits`` and
folds in ``EmmCounters.addr_eq_folded`` (cross-memory hits additionally
in ``EmmCounters.cross_mem_cmp_hits``); all are per-frame snapshotted
and surfaced as ``BmcRunStats.emm_addr_eq_cache_hits`` /
``emm_addr_eq_folded`` / ``cross_mem_cmp_hits``.

:class:`EmmMemory` is the one memory model: the fall-through read
records, the ``a_meminit`` pins and the equation-(6) pairs of Section
4.2 live here for both encodings.  The purely circuit-based encoding
(:class:`repro.emm.gates.GateEmmMemory`) subclasses it and replaces only
the read-data chain — the part Section 3 compares.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.bmc.unroller import PortSignals, Unroller
from repro.emm.addrcmp import AddrComparator, SharedComparatorTables
from repro.sat.solver import Solver


@dataclass
class EmmCounters:
    """Measured constraint sizes, comparable to the paper's formulas."""

    addr_eq_clauses: int = 0
    excl_gates: int = 0
    rd_clauses: int = 0
    valid_clauses: int = 0
    init_rd_clauses: int = 0
    init_pin_clauses: int = 0
    init_rom_clauses: int = 0
    init_addr_eq_clauses: int = 0
    init_consistency_clauses: int = 0
    init_pairs: int = 0
    vars_added: int = 0
    #: clauses absorbed by the solver (tautologies from constant addresses)
    absorbed: int = 0
    #: address comparisons answered from the comparator cache
    addr_eq_cache_hits: int = 0
    #: address comparisons folded to a constant (zero clauses emitted)
    addr_eq_folded: int = 0
    #: comparator cache hits answered by an entry another memory encoded
    #: (session-scoped registry); a subset of ``addr_eq_cache_hits``, not
    #: a clause counter — the clauses were booked by the founding memory.
    cross_mem_cmp_hits: int = 0
    #: AIG structural-hashing savings attributed to this memory's
    #: constraint construction — fed by the gate encoding only; the
    #: hybrid encoding emits CNF directly and books its sharing into the
    #: addr_eq_* counters above.  Hits are reused AND cones, folds are
    #: requests collapsed by constant/idempotence/complement rules.
    strash_hits: int = 0
    strash_folds: int = 0
    #: Equation-(6) pairs skipped because their address comparator folded
    #: to constant FALSE — their 2n data clauses are never built.
    init_pairs_pruned: int = 0
    #: Fall-through reads merged into an existing record because their
    #: address cone is structurally identical (the comparator would fold
    #: TRUE): the read reuses the record's symbolic word instead of
    #: minting fresh variables, pins and quadratic consistency pairs.
    init_records_merged: int = 0
    #: One-directional guard clauses ``n_read -> G_record`` that keep
    #: merged records covered by every already-emitted eq-(6) pair.
    init_guard_clauses: int = 0
    #: Mux-chain stages answered entirely by the strash layer (zero new
    #: gates) — fed by the gate encoding only.  On recurring address
    #: cones this is frame k's chain re-appearing as a prefix of frame
    #: k+1's; within-frame reuse — read ports sharing one address cone —
    #: counts too.
    chain_suffix_hits: int = 0
    per_frame: list[dict] = field(default_factory=list)

    #: The clause counters summed by :attr:`total_clauses` and the
    #: per-frame ``"clauses"`` aggregate — one list so the two can never
    #: desynchronize.
    CLAUSE_COUNTERS = ("addr_eq_clauses", "rd_clauses", "valid_clauses",
                       "init_rd_clauses", "init_pin_clauses",
                       "init_rom_clauses", "init_addr_eq_clauses",
                       "init_consistency_clauses", "init_guard_clauses")

    @property
    def total_clauses(self) -> int:
        """Forwarding/init clauses comparable to the paper's formulas."""
        return sum(getattr(self, key) for key in self.CLAUSE_COUNTERS)

    @property
    def total_gates(self) -> int:
        return self.excl_gates

    def snapshot_ints(self) -> dict:
        """Current values of every integer counter (per-frame baseline)."""
        return {key: val for key, val in vars(self).items()
                if isinstance(val, int)}

    def frame_delta(self, before: dict) -> dict:
        """Per-frame counter growth since ``before`` (:meth:`snapshot_ints`).

        Both EMM encoders append this to :attr:`per_frame`, so per-frame
        growth is directly comparable across encodings: besides the raw
        counter diffs it carries the ``"gates"`` / ``"clauses"``
        aggregates (paper-formula gate and clause totals added by the
        frame).
        """
        frame = {key: getattr(self, key) - before[key] for key in before}
        frame["gates"] = frame["excl_gates"]
        frame["clauses"] = sum(frame[key] for key in self.CLAUSE_COUNTERS)
        return frame


class _ReadRecord:
    """Bookkeeping for one fall-through read (equation (6) pairs).

    ``guard_lit`` is the literal equation-(6) pairs test for "this record
    fell through".  Without record merging (the ``init_consistency``
    ablation) it is simply ``n_lit``.  With merging it is a dedicated
    indicator variable ``G``
    constrained one-directionally — ``n_read -> G`` for the founding read
    and every read merged in later — so pairs emitted *before* a merge
    still cover reads merged *after* them.  One-directional is enough:
    ``G`` spuriously true only tightens toward the exact memory
    semantics (the shared word really is the initial content at the
    shared address), and the solver may always pick ``G`` minimal, so
    satisfiability over design signals is unchanged.

    ``v_aig`` is the symbolic word's AIG input literals (gate encoding
    only, else None): merged reads seed their mux chains from it, which
    is what keeps the chain a stable strash prefix across frames.
    """

    __slots__ = ("frame", "port", "addr", "n_lit", "v_vars", "guard_lit",
                 "v_aig")

    def __init__(self, frame: int, port: int, addr: list[int],
                 n_lit: int, v_vars: list[int],
                 guard_lit: Optional[int] = None,
                 v_aig: Optional[list[int]] = None) -> None:
        self.frame = frame
        self.port = port
        self.addr = addr
        self.n_lit = n_lit
        self.v_vars = v_vars
        self.guard_lit = n_lit if guard_lit is None else guard_lit
        self.v_aig = v_aig


class InitReadRegistry:
    """Fall-through read records plus the record-merging index.

    One registry per memory by default; memories in a shared-initial-state
    group share a single registry (the miter case), so equation (6) — and
    record merging — relate reads of different memory copies.  The merge
    index is keyed on the tuple of address SAT literals: two address
    cones whose comparator would fold TRUE lower to *identical* literal
    tuples (constants all map to the emitter's single const variable), so
    key equality is exactly the fold-TRUE condition.

    The key also carries the reading memory's declared-init signature
    (``sig``): shared-init grouping only requires ``init is None``, so
    two grouped memories may declare *different* ``init_words``
    overrides.  A merged read inherits the founding record's a_meminit
    pins, which is only sound when the declared inits agree — records
    founded under a different signature are never merge targets (the
    reads still relate through ordinary equation-(6) pairs, exactly the
    unmerged baseline).
    """

    __slots__ = ("records", "_by_addr")

    def __init__(self) -> None:
        self.records: list[_ReadRecord] = []
        self._by_addr: dict[tuple, _ReadRecord] = {}

    def __len__(self) -> int:
        return len(self.records)

    def find_mergeable(self, addr: list[int], sig=None) -> Optional[_ReadRecord]:
        return self._by_addr.get((sig, tuple(addr)))

    def add(self, record: _ReadRecord, index: bool, sig=None) -> None:
        """Append a record; ``index=True`` registers it as a merge target."""
        self.records.append(record)
        if index:
            self._by_addr.setdefault((sig, tuple(record.addr)), record)


class EmmMemory:
    """EMM constraints for a single memory module across BMC depths.

    Parameters
    ----------
    exclusivity:
        When False, the exclusive ``S`` signals are dropped and the
        forwarding semantics are encoded as the naive long-clause
        implications of equation (3) — the ablation of Section 3 item 3.
    init_consistency:
        When True (default) the equation-(6) pass is incremental: pairs
        whose address comparator folds to constant FALSE skip their
        ``2n`` data clauses entirely, and fall-through reads whose
        address cone is structurally identical to an existing record's
        (the fold-TRUE case) are *merged* into it — reusing its symbolic
        word and guard instead of minting fresh variables, pins and a
        quadratic number of new pairs.  When False, arbitrary-initial-
        state reads still get fresh symbolic words but the pairwise
        equation-(6) constraints are omitted — the unsound-for-proofs
        ablation of Section 4.2.
    cmp_registry:
        The :class:`~repro.emm.addrcmp.SharedComparatorTables` the
        comparators resolve against; None makes one for this memory.
    """

    def __init__(self, solver: Solver, unroller: Unroller, mem_name: str,
                 exclusivity: bool = True, init_consistency: bool = True,
                 symbolic_init: bool = False,
                 a_meminit: Optional[int] = None,
                 kept_read_ports: Optional[frozenset[int]] = None,
                 init_registry: Optional[InitReadRegistry] = None,
                 cmp_registry: Optional[SharedComparatorTables] = None,
                 ) -> None:
        self.solver = solver
        self.unroller = unroller
        self.emitter = unroller.emitter
        self.mem = unroller.design.memories[mem_name]
        self.name = mem_name
        self.exclusivity = exclusivity
        self.init_consistency = init_consistency
        #: Port-level abstraction (Section 4.3): read ports outside this
        #: set get no forwarding constraints — their RD words stay free.
        self.kept_read_ports = (frozenset(range(self.mem.num_read_ports))
                                if kept_read_ports is None
                                else frozenset(kept_read_ports))
        #: When True, even known-init memories read a *symbolic* word on the
        #: initial fall-through, pinned to the declared init only under the
        #: ``a_meminit`` activation literal.  Required for sound backward
        #: induction (Section 4.2): an induction path starts from an
        #: arbitrary state, where the memory may hold anything.
        self.symbolic_init = symbolic_init or self.mem.init is None
        self.a_meminit = a_meminit
        has_known_init = self.mem.init is not None or bool(self.mem.init_words)
        if self.symbolic_init and has_known_init and a_meminit is None:
            raise ValueError("symbolic_init for a known-init memory needs a_meminit")
        self.counters = EmmCounters()
        if cmp_registry is None:
            cmp_registry = SharedComparatorTables()
        #: Forwarding/eq-(6) comparator cache, session-wide through the
        #: registry (hits multi-label the clauses, so PBA cores name
        #: every memory a shared comparator served).
        self.addr_cmp = AddrComparator(solver, unroller.emitter,
                                       cmp_registry, owner=mem_name)
        self._writes: list[list[PortSignals]] = []  # [frame][write_port]
        #: Fall-through read registry; *shared across memories* when this
        #: memory is in a shared-initial-state group (the miter case:
        #: equation (6) — and record merging — then relate reads of
        #: different memory copies).
        self._reads: InitReadRegistry = (init_registry
                                         if init_registry is not None
                                         else InitReadRegistry())
        #: Declared-init signature scoping the merge index (see
        #: :class:`InitReadRegistry`): merging across memories is only
        #: sound when their a_meminit pins agree.
        self._init_sig = (self.mem.init,
                          tuple(sorted(self.mem.init_words.items())))
        self._frames = 0

    # -- the paper's EMM_Constraints(k) -----------------------------------

    def add_frame(self, k: int) -> None:
        """Add memory-modeling constraints for depth ``k``."""
        if k != self._frames:
            raise ValueError(f"frames must be added in order (expected {self._frames})")
        self._frames += 1
        un = self.unroller
        before = self.counters.snapshot_ints()
        writes = [un.write_port_signals(self.name, w, k)
                  for w in range(self.mem.num_write_ports)]
        self._writes.append(writes)
        for r in range(self.mem.num_read_ports):
            if r not in self.kept_read_ports:
                continue  # abstracted port: RD left unconstrained
            read = un.read_port_signals(self.name, r, k)
            self._constrain_read(k, r, read)
        self.counters.per_frame.append(self.counters.frame_delta(before))

    def _constrain_read(self, k: int, r: int, read: PortSignals) -> None:
        mem = self.mem
        w_ports = mem.num_write_ports
        c = self.counters

        # 1. Address comparison + s = E ∧ WE per (frame, write port) pair.
        # A comparator that folded to constant FALSE makes the pair dead:
        # its s/PS gates and read-data clauses are skipped entirely (the
        # entry is None); a fold to constant TRUE makes s coincide with WE
        # and saves the E ∧ WE gate.
        label_excl = ("emm", self.name, "excl")
        s_lits: list[list[Optional[int]]] = []  # [frame j][write port w]
        for j in range(k):
            row: list[Optional[int]] = []
            for w in range(w_ports):
                wsig = self._writes[j][w]
                e_var = self._addr_eq(read.addr, wsig.addr,
                                      ("emm", self.name, "addr_eq"), c, "addr_eq_clauses")
                folded = self.emitter.const_value(e_var)
                if folded is False:
                    row.append(None)  # address never matches: dead pair
                elif folded is True:
                    row.append(wsig.en)  # always matches: s == WE
                else:
                    row.append(self._and2(e_var, wsig.en, label_excl))
            s_lits.append(row)

        label_rd = ("emm", self.name, "rd")
        n_bits = mem.data_width

        if self.exclusivity:
            # 2. Exclusive valid-read chain, equation (4).
            ps_next = read.en  # PS(k, k, 0, r) = RE(k, r)
            s_valid: list[int] = []
            pairs: list[tuple[int, int, int]] = []  # (frame, wport, S lit)
            for j in range(k - 1, -1, -1):
                for w in range(w_ports - 1, -1, -1):
                    s = s_lits[j][w]
                    if s is None:
                        continue  # folded-FALSE pair: PS passes through
                    s_sig = self._and2(s, ps_next, label_excl)
                    ps = self._and2(-s, ps_next, label_excl)
                    pairs.append((j, w, s_sig))
                    s_valid.append(s_sig)
                    ps_next = ps
            n_lit = ps_next  # PS(0, k, 0, r): no write matched at all
            # 3. Read-data constraints, equation (5): S -> RD = WD.
            for j, w, s_sig in pairs:
                wd = self._writes[j][w].data
                for b in range(n_bits):
                    self._clause([-s_sig, -read.data[b], wd[b]], label_rd, c, "rd_clauses")
                    self._clause([-s_sig, read.data[b], -wd[b]], label_rd, c, "rd_clauses")
            # Validity of the read: RE -> some S or the initial fall-through.
            self._clause([-read.en, n_lit] + s_valid,
                         ("emm", self.name, "valid"), c, "valid_clauses")
        else:
            # Ablation: naive long-clause encoding of equation (3); the
            # "no intermediate write" side condition is spelled out as the
            # disjunction of all later pair signals inside every clause.
            flat: list[int] = []  # pair s-lits in chain order (latest first)
            order: list[tuple[int, int]] = []
            for j in range(k - 1, -1, -1):
                for w in range(w_ports - 1, -1, -1):
                    s = s_lits[j][w]
                    if s is None:
                        continue  # folded-FALSE pair contributes nothing
                    flat.append(s)
                    order.append((j, w))
            for idx, (j, w) in enumerate(order):
                s = flat[idx]
                later = flat[:idx]  # pairs with higher priority
                wd = self._writes[j][w].data
                for b in range(n_bits):
                    self._clause([-read.en, -s] + later + [-read.data[b], wd[b]],
                                 label_rd, c, "rd_clauses")
                    self._clause([-read.en, -s] + later + [read.data[b], -wd[b]],
                                 label_rd, c, "rd_clauses")
            # N = no pair matched, built as an AND chain (needed for the
            # initial-state fall-through even without exclusivity).
            n_lit = read.en
            for s in flat:
                n_lit = self._and2(-s, n_lit, label_excl)

        # 4. Initial-state fall-through: N -> RD = initial word.
        label_init = ("emm", self.name, "init")
        if not self.symbolic_init:
            # Known init, falsification-only runs: direct constants, with
            # per-address overrides (ROM contents) selected by E vars.
            self._pin_word(read.data, n_lit, read.addr, label_init, c,
                           "init_rd_clauses")
        else:
            # Section 4.2: a symbolic word per fall-through read.  A read
            # whose address cone structurally repeats an existing
            # record's (the comparator would fold TRUE) is merged into
            # it: same word, no new pins, no new pairs — only the 2n
            # read-data clauses and one guard clause.
            v_vars = self._init_read_record(read.addr, n_lit, k, r).v_vars
            for b in range(n_bits):
                self._clause([-n_lit, -read.data[b], v_vars[b]],
                             label_init, c, "init_rd_clauses")
                self._clause([-n_lit, read.data[b], -v_vars[b]],
                             label_init, c, "init_rd_clauses")

    def _init_read_record(self, addr: list[int], n_lit: int, k: int,
                          r: int) -> _ReadRecord:
        """Merge into or mint the fall-through read record; returns it.

        Merge lookup, guard emission, ``a_meminit`` pins, equation (6)
        and registry insertion; the caller binds the record's symbolic
        word to RD under ``n_lit``.  ``addr`` and ``n_lit`` are in the
        encoder's own literal space; :meth:`_sat_lit` lowers them where
        the CNF needs them.
        """
        mem = self.mem
        c = self.counters
        label_init = ("emm", self.name, "init")
        addr_sat = [self._sat_lit(b) for b in addr]
        merged = (self._reads.find_mergeable(addr_sat, self._init_sig)
                  if self.init_consistency else None)
        if merged is not None:
            # Identical address cone *and* declared-init signature (both
            # are merge-key components): the record's pins already say
            # everything a_meminit would; pairs against every other
            # record stay valid through its guard.
            self._clause([-self._sat_lit(n_lit), merged.guard_lit],
                         label_init, c, "init_guard_clauses")
            c.init_records_merged += 1
            return merged
        v_vars, v_aig = self._new_word(k, r)
        if mem.init is not None or mem.init_words:
            # Pin the symbols to the declared init under a_meminit, so
            # falsification / forward checks see the real initial memory
            # while backward induction sees an arbitrary one.
            self._pin_word(v_vars, self.a_meminit, addr, label_init, c,
                           "init_pin_clauses")
        guard = None
        if self.init_consistency:
            # Record merging needs the eq-(6) machinery: under the
            # ablation, sharing a symbolic word would re-introduce part
            # of the constraints the ablation drops.
            guard = self._new_var()
            self._clause([-self._sat_lit(n_lit), guard], label_init, c,
                         "init_guard_clauses")
        record = _ReadRecord(k, r, addr_sat, self._sat_lit(n_lit), v_vars,
                             guard_lit=guard, v_aig=v_aig)
        if self.init_consistency:
            self._add_init_consistency(record, c)
        self._reads.add(record, index=self.init_consistency,
                        sig=self._init_sig)
        return record

    def _pin_word(self, word: list[int], guard: int, addr: list[int],
                  label, c: EmmCounters, counter: str) -> None:
        """``guard -> word = initial contents at addr``.

        Uniform-init memories need one clause per data bit; per-address
        overrides (``init_words``) add an address-match indicator per
        override and guard each bit clause with it.  A memory whose
        default is arbitrary (``init=None`` with overrides) pins only the
        overridden addresses.
        """
        mem = self.mem
        keys = sorted(mem.init_words)
        e_vars = []
        for a in keys:
            e = self._addr_eq_const(addr, a, label, c)
            e_vars.append(e)
            value = mem.init_words[a]
            for b, w in enumerate(word):
                lit = w if (value >> b) & 1 else -w
                self._clause([-guard, -e, lit], label, c, counter)
        if mem.init is not None:
            for b, w in enumerate(word):
                lit = w if (mem.init >> b) & 1 else -w
                self._clause([-guard] + e_vars + [lit], label, c, counter)

    def _add_init_consistency(self, new: _ReadRecord, c: EmmCounters) -> None:
        """Equation (6) between ``new`` and every existing record.

        A pair whose comparator folds to constant FALSE is pruned
        outright: its ``2n`` data clauses would only be absorbed by the
        solver at level 0, so pruning is invisible to solving.  The
        fold-TRUE case never reaches this loop — the read was merged
        before a record existed.
        """
        label = ("emm", self.name, "init_consistency")
        for old in self._reads.records:
            eq = self._addr_eq(new.addr, old.addr, label, c,
                               "init_addr_eq_clauses")
            if self.addr_cmp.const_value(eq) is False:
                c.init_pairs_pruned += 1
                continue
            guard = [-eq, -new.guard_lit, -old.guard_lit]
            for vb_new, vb_old in zip(new.v_vars, old.v_vars):
                self._clause(guard + [-vb_new, vb_old], label, c,
                             "init_consistency_clauses")
                self._clause(guard + [vb_new, -vb_old], label, c,
                             "init_consistency_clauses")
            c.init_pairs += 1

    # -- encoding hooks (overridden by the gate encoding) ----------------

    def _sat_lit(self, lit: int) -> int:
        """SAT literal of one of the encoder's own literals (identity)."""
        return lit

    def _addr_eq_const(self, addr: list[int], value: int, label,
                       c: EmmCounters) -> int:
        """E with E <-> (addr == value); at most m+1 clauses (cached)."""
        return self.addr_cmp.eq_const(addr, value, label, c,
                                      "init_rom_clauses")

    def _new_word(self, k: int, r: int) -> tuple[list[int], None]:
        """Fresh symbolic initial word of a fall-through read."""
        return [self._new_var() for _ in range(self.mem.data_width)], None

    # -- low-level helpers ----------------------------------------------

    def _new_var(self) -> int:
        self.counters.vars_added += 1
        return self.solver.new_var()

    def _clause(self, lits: list[int], label, c: EmmCounters, counter: str) -> None:
        setattr(c, counter, getattr(c, counter) + 1)
        if self.solver.add_clause(lits, label) < 0:
            c.absorbed += 1

    def _addr_eq(self, a_bits: list[int], b_bits: list[int], label,
                 c: EmmCounters, counter: str) -> int:
        """The paper's 4m+1 clause address comparison, deduplicated.

        Returns the literal of a variable E with E <-> (a == b): E ->
        per-bit equality directly, and per-bit indicator variables e_i
        with (a_i == b_i) -> e_i plus the closing clause
        (!e_0 + ... + !e_{m-1} + E).  The :class:`AddrComparator`
        returns the existing E on a structural repeat and folds constant
        comparisons (see module docstring).
        """
        return self.addr_cmp.eq(a_bits, b_bits, label, c, counter)

    def _and2(self, a: int, b: int, label) -> int:
        """A 2-input AND gate in CNF (counted as one gate, per the paper)."""
        v = self._new_var()
        s = self.solver
        s.add_clause([-v, a], label)
        s.add_clause([-v, b], label)
        s.add_clause([v, -a, -b], label)
        self.counters.excl_gates += 1
        return v
