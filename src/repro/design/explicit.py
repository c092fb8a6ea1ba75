"""Explicit memory modeling — the paper's baseline.

Every memory module becomes ``2**AW`` word latches; each read port turns
into a balanced mux tree selected by the (rewritten) address, and each
word latch gets a write decoder chaining the write ports in index order
(highest port index wins, matching the EMM priority of equation (4)).

This is the model the paper calls *Explicit Modeling*: it preserves the
exact memory semantics but adds ``2**AW * DW`` state bits per memory,
which is what makes BMC blow up and motivates EMM.
"""

from __future__ import annotations

from repro.design.netlist import Design, Expr, Memory
from repro.design.rewrite import DesignCopy


def word_latch_name(mem_name: str, address: int) -> str:
    """Naming scheme for the expanded word latches."""
    return f"{mem_name}::w{address}"


def expand_memories(design: Design) -> Design:
    """Return an equivalent design with all memories explicitly expanded."""
    design.validate()
    out = Design(f"{design.name}__explicit")
    for inp in design.inputs.values():
        out.input(inp.name, inp.width)
    copy = DesignCopy(design, out, replaced=frozenset(design.memories))
    word_latches = {
        mem.name: [out.latch(word_latch_name(mem.name, a), mem.data_width,
                             mem.initial_word(a))
                   for a in range(mem.num_words)]
        for mem in design.memories.values()
    }

    def read_data(mem: Memory, port_index: int) -> Expr:
        addr = copy.rewrite(mem.read_ports[port_index].addr)
        return _mux_tree(out, [w.expr for w in word_latches[mem.name]], addr)

    copy.finish(read_data)

    # Word latch next-state: write decoders chained over write ports.
    for mem in design.memories.values():
        writes = [
            (copy.rewrite(p.addr), copy.rewrite(p.en), copy.rewrite(p.data))
            for p in mem.write_ports
        ]
        for a, word in enumerate(word_latches[mem.name]):
            nxt = word.expr
            for addr, en, data in writes:  # later ports override earlier
                hit = en & addr.eq(a)
                nxt = hit.ite(data, nxt)
            word.next = nxt
    out.validate()
    return out


def _mux_tree(design: Design, words: list[Expr], addr: Expr) -> Expr:
    """Balanced mux tree over ``words`` indexed by ``addr`` (LSB first)."""

    def build(lo: int, span: list[Expr], bit: int) -> Expr:
        if len(span) == 1:
            return span[0]
        half = len(span) // 2
        low = build(lo, span[:half], bit + 1)
        high = build(lo + half, span[half:], bit + 1)
        return addr[len_addr - 1 - bit].ite(high, low)

    len_addr = addr.width
    if len(words) != (1 << len_addr):
        raise ValueError("word count must be 2**addr_width")
    return build(0, words, 0)
