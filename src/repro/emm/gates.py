"""Pure gate-based EMM encoding — the paper's Section 3 comparison point.

The closing paragraph of Section 3 contrasts the hybrid CNF+gate
representation ("(4m+2n+1)k + 2n + 1 clauses and 3k gates") against "a
purely circuit-based representation" needing "(4m+2n+2)k + n gates".
:class:`repro.emm.forwarding.EmmMemory` implements the hybrid encoding;
this module implements the circuit one: equation (2)/(5) built entirely
out of AIG nodes and forced true bit by bit through the Tseitin emitter.
Same semantics, different SAT back-end shape; ``BmcOptions.emm_encoding``
selects between them and the A3 benchmark measures both.

The priority chain is built **oldest-write-first as a mux chain** —
``value' = mux(S_j, WD_j, value)`` seeded from the initial-state word,
with the no-match/PS fall-through accumulated alongside and the read
enable applied at the end.  Newer writes are muxed in later, so the
newest matching write wins, exactly equation (4)'s priority.  The
payoff is *cross-frame structure*: for a read whose address cone
recurs (a constant status word, a stable pointer), frame k's entire
chain is a strash **prefix** of frame k+1's — the structural-hashing
layer answers every repeated stage from its table (counted in
``EmmCounters.chain_suffix_hits``) and per-frame growth collapses from
a quadratic per-frame rebuild to O(one new stage).

One deliberate refinement: with gates, a disabled read
(RE=0) collapses the chain to 0, so RD is *forced to zero* rather than
left free as in the hybrid encoding.  That matches the reference
simulator; designs must not consume RD while RE is low under either
encoding.
"""

from __future__ import annotations

from typing import Optional

from repro.aig import ops
from repro.aig.aig import FALSE, TRUE, lit_not
from repro.bmc.unroller import PortSignals, Unroller
from repro.emm.addrcmp import AddrComparator, SharedComparatorTables
from repro.emm.forwarding import (EmmCounters, InitReadRegistry, _ReadRecord,
                                  emit_init_consistency)
from repro.sat.solver import Solver

#: Clause-booking counters whose clauses the blanket frame delta must not
#: double-count (they are booked where they are emitted, inside the
#: initial-state machinery, while ``rd_clauses`` absorbs the remainder).
_INIT_CLAUSE_COUNTERS = ("init_pin_clauses", "init_addr_eq_clauses",
                         "init_consistency_clauses", "init_guard_clauses")


class GateEmmMemory:
    """Gate-encoded EMM constraints for one memory (drop-in for EmmMemory).

    Supports the same feature set as the hybrid encoder except the
    exclusivity ablation (the chain *is* the encoding here) and race
    monitoring.  Counter semantics: ``excl_gates`` counts every AIG node
    the encoding creates; ``rd_clauses`` counts the CNF the emitter
    produces for the forced output bits, with the initial-state machinery
    booked into its own ``init_*`` counters.
    """

    def __init__(self, solver: Solver, unroller: Unroller, mem_name: str,
                 exclusivity: bool = True, init_consistency: bool = True,
                 symbolic_init: bool = False,
                 a_meminit: Optional[int] = None,
                 kept_read_ports: Optional[frozenset[int]] = None,
                 check_races: bool = False,
                 init_registry: Optional[InitReadRegistry] = None,
                 cmp_registry: Optional[SharedComparatorTables] = None,
                 ) -> None:
        if check_races:
            raise ValueError("race monitoring is only available with the "
                             "hybrid EMM encoding")
        self.solver = solver
        self.unroller = unroller
        self.aig = unroller.aig
        self.emitter = unroller.emitter
        self.mem = unroller.design.memories[mem_name]
        self.name = mem_name
        self.init_consistency = init_consistency
        self.kept_read_ports = (frozenset(range(self.mem.num_read_ports))
                                if kept_read_ports is None
                                else frozenset(kept_read_ports))
        self.symbolic_init = symbolic_init or self.mem.init is None
        self.a_meminit = a_meminit
        has_known_init = self.mem.init is not None or bool(self.mem.init_words)
        if self.symbolic_init and has_known_init and a_meminit is None:
            raise ValueError("symbolic_init for a known-init memory needs "
                             "a_meminit")
        self.counters = EmmCounters()
        #: CNF-side comparator cache for the equation-(6) consistency
        #: pairs, session-shared through ``cmp_registry`` like the hybrid
        #: encoder's (the AIG side of this encoding already structurally
        #: hashes its eq cones across memories).
        if cmp_registry is None:
            cmp_registry = SharedComparatorTables()
        self.addr_cmp = AddrComparator(solver, unroller.emitter,
                                       cmp_registry, owner=mem_name)
        #: Declared-init signature scoping the merge index (see
        #: :class:`~repro.emm.forwarding.InitReadRegistry`).
        self._init_sig = (self.mem.init,
                          tuple(sorted(self.mem.init_words.items())))
        self.race_lits: list[int] = []
        self._writes: list[list[PortSignals]] = []  # AIG-level, per frame
        self._reads: InitReadRegistry = (init_registry
                                         if init_registry is not None
                                         else InitReadRegistry())
        self._frames = 0

    # -- EMM_Constraints(k), gate flavour ---------------------------------

    def add_frame(self, k: int) -> None:
        if k != self._frames:
            raise ValueError(f"frames must be added in order (expected "
                             f"{self._frames})")
        self._frames += 1
        un = self.unroller
        aig = self.aig
        before = self.counters.snapshot_ints()
        ands_before = aig.num_ands
        clauses_before = self.solver.num_clauses
        hits_before = aig.strash_hits
        folds_before = aig.strash_folds
        writes = [un.write_port_aig(self.name, w, k)
                  for w in range(self.mem.num_write_ports)]
        self._writes.append(writes)
        for r in range(self.mem.num_read_ports):
            if r not in self.kept_read_ports:
                continue
            self._constrain_read(k, r, un.read_port_aig(self.name, r, k))
        c = self.counters
        c.excl_gates += aig.num_ands - ands_before
        # The frame's CNF, minus the clauses the init machinery already
        # booked into its own counters (absorbed clauses were counted
        # there but never reached the solver, so they are added back).
        init_booked = sum(getattr(c, key) - before[key]
                          for key in _INIT_CLAUSE_COUNTERS)
        absorbed = c.absorbed - before["absorbed"]
        c.rd_clauses += (self.solver.num_clauses - clauses_before
                         - (init_booked - absorbed))
        c.strash_hits += aig.strash_hits - hits_before
        c.strash_folds += aig.strash_folds - folds_before
        c.per_frame.append(c.frame_delta(before))

    def _constrain_read(self, k: int, r: int, read: PortSignals) -> None:
        """Suffix-shared chain: oldest write first, newest mux wins.

        Stage order is (frame 0, port 0) .. (frame k-1, port W-1); a
        stage muxed in later overrides every earlier one, so the newest
        matching write takes priority — equation (4)'s semantics with
        the chain inverted.  Because stage j's cone depends only on
        writes 0..j and the (stable) seed, a recurring read address
        makes frame k's chain a strash prefix of frame k+1's.
        """
        aig = self.aig
        n_bits = self.mem.data_width
        stages: list[tuple[int, list[int]]] = []  # live (S, WD), oldest first
        nomatch = TRUE
        for j in range(k):
            for w in range(self.mem.num_write_ports):
                wsig = self._writes[j][w]
                s = aig.and_gate(ops.eq_word(aig, read.addr, wsig.addr),
                                 wsig.en)
                if s == FALSE:
                    # Comparator folded FALSE (or WE is constant 0): the
                    # pair is dead — skip its chain and data gates.
                    continue
                stages.append((s, wsig.data))
                nomatch = aig.and_gate(nomatch, lit_not(s))
        n_lit = aig.and_gate(read.en, nomatch)  # the paper's S_{-1} / PS_0
        seed = self._initial_word(read.addr, n_lit, read, k, r)
        value, suffix_hits = ops.priority_mux_chain(aig, stages, seed)
        self.counters.chain_suffix_hits += suffix_hits
        # Gate by the read enable (disabled reads are forced to zero,
        # matching the simulator).
        value = [aig.and_gate(read.en, vb) for vb in value]
        em = self.emitter
        em.set_label(("emm", self.name, "rd"))
        for b in range(n_bits):
            em.add_clause([em.sat_lit(aig.iff_(read.data[b], value[b]))])

    def _initial_word(self, addr: list[int], n_lit: int,
                      read: PortSignals, k: int, r: int) -> list[int]:
        """AIG word holding the initial memory contents at ``addr``."""
        aig = self.aig
        mem = self.mem
        n_bits = mem.data_width
        if not self.symbolic_init:
            word = ops.const_word(mem.init, n_bits)
            for a in sorted(mem.init_words):
                hit = ops.eq_word(aig, addr, ops.const_word(a, len(addr)))
                word = ops.mux_word(aig, hit,
                                    ops.const_word(mem.init_words[a], n_bits),
                                    word)
            return word
        # Section 4.2: fresh symbolic inputs, pinned under a_meminit when
        # the declared init is known, cross-read-consistent via eq. (6).
        # A read whose lowered address repeats an existing record's is
        # merged into it: the shared AIG inputs are exactly what keeps
        # the mux-chain seed stable across frames.
        em = self.emitter
        em.set_label(("emm", self.name, "init"))
        c = self.counters
        addr_sat = em.sat_word(addr)
        merged = (self._reads.find_mergeable(addr_sat, self._init_sig)
                  if self.init_consistency else None)
        if merged is not None:
            self._init_clause([-em.sat_lit(n_lit), merged.guard_lit],
                              "init_guard_clauses")
            c.init_records_merged += 1
            return merged.v_aig
        v_aig = [aig.new_input(f"{self.name}.V{r}.{b}@{k}")
                 for b in range(n_bits)]
        v_sat = [em.sat_lit(v) for v in v_aig]
        if mem.init is not None or mem.init_words:
            self._pin_symbolic(addr, v_sat)
        guard = None
        if self.init_consistency:
            guard = self.solver.new_var()
            c.vars_added += 1
            self._init_clause([-em.sat_lit(n_lit), guard],
                              "init_guard_clauses")
        record = _ReadRecord(k, r, addr_sat, em.sat_lit(n_lit), v_sat,
                             guard_lit=guard, v_aig=v_aig)
        if self.init_consistency:
            self._consistency(record)
        self._reads.add(record, index=self.init_consistency,
                        sig=self._init_sig)
        c.vars_added += n_bits
        return v_aig

    def _init_clause(self, lits: list[int], counter: str) -> None:
        """Book an initial-state clause into its own counter.

        Tracking absorption mirrors the hybrid encoder's ``_clause`` and
        lets :meth:`add_frame` subtract exactly the init clauses that
        really reached the solver from its blanket CNF delta.
        """
        c = self.counters
        setattr(c, counter, getattr(c, counter) + 1)
        if self.emitter.add_clause(lits) < 0:
            c.absorbed += 1

    def _pin_symbolic(self, addr: list[int], v_sat: list[int]) -> None:
        """``a_meminit -> V = declared initial contents at addr``."""
        aig = self.aig
        em = self.emitter
        mem = self.mem
        e_sats = []
        for a in sorted(mem.init_words):
            hit = ops.eq_word(aig, addr, ops.const_word(a, len(addr)))
            e_sat = em.sat_lit(hit)
            e_sats.append(e_sat)
            value = mem.init_words[a]
            for b, v in enumerate(v_sat):
                lit = v if (value >> b) & 1 else -v
                self._init_clause([-self.a_meminit, -e_sat, lit],
                                  "init_pin_clauses")
        if mem.init is not None:
            for b, v in enumerate(v_sat):
                lit = v if (mem.init >> b) & 1 else -v
                self._init_clause([-self.a_meminit] + e_sats + [lit],
                                  "init_pin_clauses")

    def _consistency(self, new: _ReadRecord) -> None:
        """Equation (6) across all recorded fall-through reads."""
        emit_init_consistency(
            new, self._reads.records,
            addr_eq=self._sat_addr_eq,
            const_value=self.addr_cmp.const_value,
            emit=lambda lits: self._init_clause(lits,
                                                "init_consistency_clauses"),
            c=self.counters)

    def _sat_addr_eq(self, a_bits: list[int], b_bits: list[int]) -> int:
        """CNF equality indicator over already-emitted SAT literals."""
        label = ("emm", self.name, "init_consistency")
        return self.addr_cmp.eq(a_bits, b_bits, label, self.counters,
                                "init_addr_eq_clauses")
