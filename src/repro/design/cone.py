"""Structural cone analysis.

``memory_control_latches`` identifies the latches driving a memory's
interface signals (Addr/WD/WE/RE) — the paper's criterion (Section 4.3)
for deciding from a proof-based abstraction whether a memory module can be
dropped: *"checking whether a latch corresponding to the control logic for
that memory module (the logic driving the memory interface signals) is in
the set LRi"*.
"""

from __future__ import annotations

from typing import Iterable

from repro.design.netlist import Design, Expr, Memory


def latch_support(exprs: Iterable[Expr] | Expr) -> set[str]:
    """Latch names in the combinational fanin of the expressions.

    Traversal stops at memory read-data leaves: the value produced *by* a
    memory is data, not control, so it does not contribute control latches.
    """
    if isinstance(exprs, Expr):
        exprs = [exprs]
    out: set[str] = set()
    seen: set[int] = set()
    stack = list(exprs)
    while stack:
        e = stack.pop()
        if e._id in seen:
            continue
        seen.add(e._id)
        if e.kind == "latch":
            out.add(e.payload)
        stack.extend(e.args)
    return out


def memory_control_latches(design: Design, mem: Memory | str) -> set[str]:
    """Latches in the combinational fanin of a memory's interface signals."""
    if isinstance(mem, str):
        mem = design.memories[mem]
    exprs: list[Expr] = []
    for port in mem.read_ports:
        if port.addr is not None:
            exprs.append(port.addr)
        if port.en is not None:
            exprs.append(port.en)
    for port in mem.write_ports:
        for e in (port.addr, port.en, port.data):
            if e is not None:
                exprs.append(e)
    return latch_support(exprs)
