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
from typing import Callable, Optional

from repro.bmc.engine import BmcOptions, verify, verify_many
from repro.bmc.results import PROOF, BmcResult
from repro.design.netlist import Design, Expr, Memory
from repro.design.rewrite import DesignCopy


def _replace_memory(design: Design, mem_name: str, suffix: str,
                    read_data: Callable[[Design, Memory, int], Expr]
                    ) -> Design:
    """Copy of ``design`` without memory ``mem_name``; each of its read
    ports reads ``read_data(copy, mem, port_index)`` instead."""
    if mem_name not in design.memories:
        raise KeyError(f"no memory named {mem_name!r}")
    out = Design(f"{design.name}__{suffix}")
    for inp in design.inputs.values():
        out.input(inp.name, inp.width)
    DesignCopy(design, out, replaced=frozenset({mem_name})).finish(
        lambda mem, index: read_data(out, mem, index))
    out.validate()
    return out


def abstract_memory_reads(design: Design, mem_name: str,
                          read_value: int = 0) -> Design:
    """Replace a memory by a constant on all its read ports.

    Sound when an invariant guarantees the memory's content always equals
    ``read_value`` at read time (e.g. zero-initialised and only ever
    written with zero).
    """
    return _replace_memory(
        design, mem_name, f"rd_const{read_value}",
        lambda out, mem, index: out.const(read_value, mem.data_width))


def free_memory_reads(design: Design, mem_name: str) -> Design:
    """The naive abstraction: read data becomes a free primary input.

    Over-approximates (reads can return anything), so witnesses found on
    the result may be spurious — the paper's depth-7 experience.
    """
    return _replace_memory(
        design, mem_name, "rd_free",
        lambda out, mem, index: out.input(
            f"{mem_name}_rd{index}_free", mem.data_width))


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
