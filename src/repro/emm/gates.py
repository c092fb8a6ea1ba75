"""Pure gate-based EMM encoding — the paper's Section 3 comparison point.

The closing paragraph of Section 3 contrasts the hybrid CNF+gate
representation ("(4m+2n+1)k + 2n + 1 clauses and 3k gates") against "a
purely circuit-based representation" needing "(4m+2n+2)k + n gates".
That comparison is about the forwarding chain only, so
:class:`GateEmmMemory` subclasses :class:`repro.emm.forwarding.EmmMemory`
and replaces just the read-data chain: equation (2)/(5) built entirely
out of AIG nodes and forced true bit by bit through the Tseitin emitter.
The arbitrary-initial-state machinery of Section 4.2 (fall-through
records, ``a_meminit`` pins, equation (6)) is inherited; the gate
encoding differs there only in two hooks — a ROM address hit is an AIG
``eq_word`` cone, and a fresh symbolic word is a row of AIG inputs that
seeds the chain.  ``BmcOptions.emm_encoding`` selects between the two
encodings and the A3 benchmark measures both.

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

from repro.aig import ops
from repro.aig.aig import FALSE, TRUE, lit_not
from repro.bmc.unroller import PortSignals
from repro.emm.forwarding import EmmCounters, EmmMemory

#: Clause counters whose clauses the blanket frame delta must not
#: double-count (they are booked where they are emitted, inside the
#: initial-state machinery, while ``rd_clauses`` absorbs the remainder).
_INIT_CLAUSE_COUNTERS = ("init_pin_clauses", "init_addr_eq_clauses",
                         "init_consistency_clauses", "init_guard_clauses")


class GateEmmMemory(EmmMemory):
    """Gate-encoded EMM constraints for one memory.

    Supports the same feature set as the hybrid encoder except the
    exclusivity ablation (the chain *is* the encoding here).  Counter
    semantics: ``excl_gates`` counts every AIG node the encoding
    creates; ``rd_clauses`` counts the CNF the emitter produces for the
    forced output bits, with the initial-state machinery booked into its
    own ``init_*`` counters.  The encoder works on AIG literals; the
    inherited initial-state code lowers them through :meth:`_sat_lit`.
    """

    def __init__(self, *args, exclusivity: bool = True, **kwargs) -> None:
        if not exclusivity:
            # The gate chain *is* the exclusive encoding: there is no
            # naive eq-(3) form to ablate to.
            raise ValueError(
                "exclusivity=False is a hybrid-encoding ablation; the "
                "gates encoding is always exclusive")
        super().__init__(*args, **kwargs)
        self.aig = self.unroller.aig

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
        seed = self._initial_word(read.addr, n_lit, k, r)
        value, suffix_hits = ops.priority_mux_chain(aig, stages, seed)
        self.counters.chain_suffix_hits += suffix_hits
        # Gate by the read enable (disabled reads are forced to zero,
        # matching the simulator).
        value = [aig.and_gate(read.en, vb) for vb in value]
        em = self.emitter
        em.set_label(("emm", self.name, "rd"))
        for b in range(n_bits):
            em.add_clause([em.sat_lit(aig.iff_(read.data[b], value[b]))])

    def _initial_word(self, addr: list[int], n_lit: int, k: int,
                      r: int) -> list[int]:
        """AIG word holding the initial memory contents at ``addr``."""
        mem = self.mem
        if not self.symbolic_init:
            word = ops.const_word(mem.init, mem.data_width)
            for a in sorted(mem.init_words):
                word = ops.mux_word(self.aig, self._rom_hit(addr, a),
                                    ops.const_word(mem.init_words[a],
                                                   mem.data_width),
                                    word)
            return word
        # Section 4.2, inherited: a read whose lowered address repeats an
        # existing record's is merged into it, and the shared AIG inputs
        # are exactly what keeps the mux-chain seed stable across frames.
        self.emitter.set_label(("emm", self.name, "init"))
        return self._init_read_record(addr, n_lit, k, r).v_aig

    def _rom_hit(self, addr: list[int], value: int) -> int:
        return ops.eq_word(self.aig, addr, ops.const_word(value, len(addr)))

    # -- hooks: literal lowering, then the two that differ from hybrid ----

    def _sat_lit(self, lit: int) -> int:
        return self.emitter.sat_lit(lit)

    def _addr_eq_const(self, addr: list[int], value: int, label,
                       c: EmmCounters) -> int:
        """ROM address hit: the AIG ``eq_word`` cone, lowered."""
        return self.emitter.sat_lit(self._rom_hit(addr, value))

    def _new_word(self, k: int, r: int) -> tuple[list[int], list[int]]:
        """Fresh AIG inputs: the word seeds the mux chain."""
        v_aig = [self.aig.new_input(f"{self.name}.V{r}.{b}@{k}")
                 for b in range(self.mem.data_width)]
        self.counters.vars_added += len(v_aig)
        return [self.emitter.sat_lit(v) for v in v_aig], v_aig
