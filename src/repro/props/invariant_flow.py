"""Invariant-aided memory abstraction (the Industry Design II flow).

Steps, mirroring Section 5 of the paper:

1. ``free_memory_reads`` — the naive abstraction: drop a memory and let
   its read data float (this is what produces spurious witnesses).
2. Verify a candidate memory-interface invariant such as
   ``G(WE = 0 or WD = 0)`` with BMC-3 (backward induction finds it fast).
3. ``abstract_memory_reads`` — replace every read of the memory by the
   value the invariant implies (for a zero-initialised memory whose
   writes are provably zero, reads always return 0).
4. Verify the original properties on the reduced, memory-free design —
   PBA and forward induction now succeed in well under a second.

``prove_with_memory_invariant`` packages steps 2-4.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.bmc.engine import BmcOptions, verify, verify_many
from repro.bmc.results import PROOF, BmcResult
from repro.design.netlist import Design
from repro.design.rewrite import ExprRewriter


def _clone_without_memory(design: Design, mem_name: str,
                          suffix: str) -> tuple[Design, ExprRewriter]:
    if mem_name not in design.memories:
        raise KeyError(f"no memory named {mem_name!r}")
    out = Design(f"{design.name}__{suffix}")
    for inp in design.inputs.values():
        out.input(inp.name, inp.width)
    for latch in design.latches.values():
        out.latch(latch.name, latch.width, latch.init)
    rw = ExprRewriter(design, out)
    return out, rw


def _finish_clone(design: Design, out: Design, rw: ExprRewriter,
                  mem_name: str) -> Design:
    # Keep all other memories intact.
    for mem in design.memories.values():
        if mem.name == mem_name:
            continue
        clone = out.memory(mem.name, mem.addr_width, mem.data_width,
                           mem.num_read_ports, mem.num_write_ports, mem.init,
                           mem.init_words)
        for port in mem.read_ports:
            rw.memread_map[(mem.name, port.index)] = clone.read(port.index).data
    for mem in design.memories.values():
        if mem.name == mem_name:
            continue
        clone = out.memories[mem.name]
        for port in mem.read_ports:
            clone.read(port.index).connect(addr=rw.rewrite(port.addr),
                                           en=rw.rewrite(port.en))
        for port in mem.write_ports:
            clone.write(port.index).connect(addr=rw.rewrite(port.addr),
                                            data=rw.rewrite(port.data),
                                            en=rw.rewrite(port.en))
    for latch in design.latches.values():
        out.latches[latch.name].next = rw.rewrite(latch.next)
    for prop in design.properties.values():
        expr = rw.rewrite(prop.expr)
        if prop.kind == "invariant":
            out.invariant(prop.name, expr)
        else:
            out.reach(prop.name, expr)
    out.validate()
    return out


def abstract_memory_reads(design: Design, mem_name: str,
                          read_value: int = 0) -> Design:
    """Replace a memory by a constant on all its read ports.

    Sound when an invariant guarantees the memory's content always equals
    ``read_value`` at read time (e.g. zero-initialised and only ever
    written with zero).
    """
    out, rw = _clone_without_memory(design, mem_name, f"rd_const{read_value}")
    mem = design.memories[mem_name]
    for port in mem.read_ports:
        rw.memread_map[(mem_name, port.index)] = out.const(read_value,
                                                           mem.data_width)
    return _finish_clone(design, out, rw, mem_name)


def free_memory_reads(design: Design, mem_name: str) -> Design:
    """The naive abstraction: read data becomes a free primary input.

    Over-approximates (reads can return anything), so witnesses found on
    the result may be spurious — the paper's depth-7 experience.
    """
    out, rw = _clone_without_memory(design, mem_name, "rd_free")
    mem = design.memories[mem_name]
    for port in mem.read_ports:
        free = out.input(f"{mem_name}_rd{port.index}_free", mem.data_width)
        rw.memread_map[(mem_name, port.index)] = free
    return _finish_clone(design, out, rw, mem_name)


@dataclass
class InvariantFlowResult:
    """Outcome of the invariant-aided abstraction pipeline."""

    invariant_result: BmcResult
    property_results: dict[str, BmcResult] = field(default_factory=dict)
    reduced_design: Optional[Design] = None

    @property
    def all_proved(self) -> bool:
        return (self.invariant_result.status == PROOF
                and all(r.status == PROOF for r in self.property_results.values()))


def prove_with_memory_invariant(design: Design, mem_name: str,
                                invariant_name: str,
                                property_names: list[str],
                                read_value: int = 0,
                                invariant_options: Optional[BmcOptions] = None,
                                property_options: Optional[BmcOptions] = None,
                                ) -> InvariantFlowResult:
    """Prove properties by first proving a memory-content invariant.

    ``invariant_name`` must be an invariant of ``design`` implying that
    the memory's reads always return ``read_value``; it is verified with
    BMC-3, the memory is replaced by the constant, and each property is
    verified on the reduced design.
    """
    inv_res = verify(design, invariant_name,
                     invariant_options or BmcOptions(max_depth=20))
    result = InvariantFlowResult(invariant_result=inv_res)
    if inv_res.status != PROOF:
        return result
    reduced = abstract_memory_reads(design, mem_name, read_value)
    result.reduced_design = reduced
    opts = property_options or BmcOptions(max_depth=30, use_emm=True)
    # All derived properties are checks over the same reduced design and
    # options, so they share one encoding session: the unrolled CNF is
    # paid for once and each further property adds only its P literals.
    result.property_results = verify_many(reduced, property_names, opts)
    return result
