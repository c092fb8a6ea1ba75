"""Time-frame expansion of a design onto the AIG/CNF substrate.

Every frame gets fresh AIG input words for latches, primary inputs and
memory read-data (RD) ports.  Latch words of frame k+1 are tied to the
frame-k next-state cones through *link clauses* labeled
``("link", latch, k+1)`` — dropping those clauses for a latch is exactly
the paper's latch-based abstraction (the latch becomes a pseudo-primary
input).  RD words stay free here; either the EMM constraints
(:mod:`repro.emm`) or nothing at all (abstracted memory) bind them.
"""

from __future__ import annotations

from typing import Optional

from repro.aig import ops
from repro.aig.tseitin import CnfEmitter
from repro.design.netlist import Design, Expr, postorder

Word = list[int]


class PortSignals:
    """SAT-level view of one memory port at one frame."""

    __slots__ = ("addr", "en", "data")

    def __init__(self, addr: list[int], en: int, data: list[int]) -> None:
        self.addr = addr  # SAT literals of the address bits
        self.en = en      # SAT literal of the enable
        self.data = data  # SAT literals of WD (write) or RD (read)


class Unroller:
    """Unrolls a validated design frame by frame into a CNF emitter."""

    def __init__(self, design: Design, emitter: CnfEmitter,
                 kept_latches: Optional[frozenset[str]] = None) -> None:
        design.validate()
        self.design = design
        self.emitter = emitter
        self.aig = emitter.aig
        self.kept_latches = (frozenset(design.latches)
                             if kept_latches is None else frozenset(kept_latches))
        self.frames = 0
        self._latch_words: list[dict[str, Word]] = []
        self._input_words: list[dict[str, Word]] = []
        self._rd_words: list[dict[tuple[str, int], Word]] = []
        self._cache: list[dict[int, Word]] = []
        #: Memoized SAT-level port views: ("r"|"w", mem, port, frame) ->
        #: PortSignals.  Guarantees *stable literal identity* — repeated
        #: requests for the same port at the same frame return the same
        #: literal tuples, which the EMM address-comparator cache keys on.
        self._port_sigs: dict[tuple[str, str, int, int], PortSignals] = {}

    # -- frame construction ----------------------------------------------

    def add_frame(self) -> int:
        """Create frame ``k`` state variables and its link clauses."""
        k = self.frames
        self.frames += 1
        aig = self.aig
        self._latch_words.append({
            name: [aig.new_input(f"{name}.{b}@{k}") for b in range(lt.width)]
            for name, lt in self.design.latches.items()
        })
        self._input_words.append({
            name: [aig.new_input(f"{name}.{b}@{k}") for b in range(i.width)]
            for name, i in self.design.inputs.items()
        })
        self._rd_words.append({
            (m.name, p.index): [aig.new_input(f"{m.name}.rd{p.index}.{b}@{k}")
                                for b in range(m.data_width)]
            for m in self.design.memories.values() for p in m.read_ports
        })
        self._cache.append({})
        if k > 0:
            self._link_frame(k)
        return k

    def _link_frame(self, k: int) -> None:
        """Tie frame-k latch words to the frame-(k-1) next-state cones."""
        emitter = self.emitter
        # Sorted so variable/clause numbering is independent of the string
        # hash seed — solver behaviour (and hence PBA cores) must reproduce
        # run to run.
        for name in sorted(self.kept_latches):
            latch = self.design.latches[name]
            emitter.set_label(("gate", k - 1))
            next_word = self.word(latch.next, k - 1)
            cur_word = self._latch_words[k][name]
            for b in range(latch.width):
                nxt_lit = emitter.sat_lit(next_word[b])
                emitter.set_label(("link", name, k))
                cur_lit = emitter.sat_lit(cur_word[b])
                emitter.add_clause([-cur_lit, nxt_lit])
                emitter.add_clause([cur_lit, -nxt_lit])

    # -- expression lowering ------------------------------------------------

    def word(self, expr: Expr, frame: int) -> Word:
        """Lower an expression at a frame to an AIG word (cached)."""
        cache = self._cache[frame]
        got = cache.get(expr._id)
        if got is not None:
            return got
        for e in postorder((expr,), cache):
            cache[e._id] = self._lower(e, frame, cache)
        return cache[expr._id]

    def lit(self, expr: Expr, frame: int) -> int:
        """Lower a 1-bit expression to a single AIG literal."""
        if expr.width != 1:
            raise ValueError("lit() requires a 1-bit expression")
        return self.word(expr, frame)[0]

    def _lower(self, e: Expr, frame: int, cache: dict[int, Word]) -> Word:
        aig = self.aig
        kind = e.kind
        if kind == "const":
            return ops.const_word(e.payload, e.width)
        if kind == "input":
            return self._input_words[frame][e.payload]
        if kind == "latch":
            return self._latch_words[frame][e.payload]
        if kind == "memread":
            return self._rd_words[frame][e.payload]
        a = cache[e.args[0]._id] if e.args else []
        if kind == "not":
            return ops.not_word(a)
        if kind == "slice":
            lo, hi = e.payload
            return a[lo:hi]
        if kind == "zext":
            return ops.resize_word(a, e.width)
        if kind == "mux":
            return ops.mux_word(aig, a[0], cache[e.args[1]._id], cache[e.args[2]._id])
        if kind == "concat":
            return ops.concat_words(a, cache[e.args[1]._id])
        b = cache[e.args[1]._id]
        if kind == "and":
            return ops.and_word(aig, a, b)
        if kind == "or":
            return ops.or_word(aig, a, b)
        if kind == "xor":
            return ops.xor_word(aig, a, b)
        if kind == "add":
            return ops.add_word(aig, a, b)
        if kind == "sub":
            return ops.sub_word(aig, a, b)
        if kind == "eq":
            return [ops.eq_word(aig, a, b)]
        if kind == "ult":
            return [ops.lt_unsigned(aig, a, b)]
        raise ValueError(f"unknown expression kind {kind!r}")

    # -- state access -------------------------------------------------------

    def latch_word(self, name: str, frame: int) -> Word:
        return self._latch_words[frame][name]

    def input_word(self, name: str, frame: int) -> Word:
        return self._input_words[frame][name]

    def rd_word(self, mem_name: str, port: int, frame: int) -> Word:
        return self._rd_words[frame][(mem_name, port)]

    # -- memory interface signals for EMM ------------------------------------

    def read_port_signals(self, mem_name: str, port: int, frame: int) -> PortSignals:
        """SAT literals of (Addr, RE, RD) for a read port at a frame.

        The Addr/RE cones are Main-module logic and are emitted under the
        frame's gate label; the RD bits are the frame's free variables.
        Memoized per (port, frame): repeated calls return the *same*
        PortSignals, so address-literal tuples are stable cache keys for
        the EMM comparator layer.
        """
        key = ("r", mem_name, port, frame)
        got = self._port_sigs.get(key)
        if got is not None:
            return got
        mem = self.design.memories[mem_name]
        p = mem.read_ports[port]
        em = self.emitter
        em.set_label(("gate", frame))
        addr = em.sat_word(self.word(p.addr, frame))
        en = em.sat_lit(self.lit(p.en, frame))
        data = em.sat_word(self._rd_words[frame][(mem_name, port)])
        sig = PortSignals(addr, en, data)
        self._port_sigs[key] = sig
        return sig

    def write_port_signals(self, mem_name: str, port: int, frame: int) -> PortSignals:
        """SAT literals of (Addr, WE, WD) for a write port at a frame.

        Memoized per (port, frame), like :meth:`read_port_signals`.
        """
        key = ("w", mem_name, port, frame)
        got = self._port_sigs.get(key)
        if got is not None:
            return got
        mem = self.design.memories[mem_name]
        p = mem.write_ports[port]
        em = self.emitter
        em.set_label(("gate", frame))
        addr = em.sat_word(self.word(p.addr, frame))
        en = em.sat_lit(self.lit(p.en, frame))
        data = em.sat_word(self.word(p.data, frame))
        sig = PortSignals(addr, en, data)
        self._port_sigs[key] = sig
        return sig

    # -- AIG-level port views (pure gate-based EMM encoding) ---------------

    def read_port_aig(self, mem_name: str, port: int, frame: int) -> PortSignals:
        """AIG literals of (Addr, RE, RD) — not yet emitted to CNF."""
        mem = self.design.memories[mem_name]
        p = mem.read_ports[port]
        return PortSignals(self.word(p.addr, frame),
                           self.lit(p.en, frame),
                           self._rd_words[frame][(mem_name, port)])

    def write_port_aig(self, mem_name: str, port: int, frame: int) -> PortSignals:
        """AIG literals of (Addr, WE, WD) — not yet emitted to CNF."""
        mem = self.design.memories[mem_name]
        p = mem.write_ports[port]
        return PortSignals(self.word(p.addr, frame),
                           self.lit(p.en, frame),
                           self.word(p.data, frame))
