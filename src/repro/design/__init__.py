"""Word-level sequential design IR (substrate S3).

A :class:`Design` is the paper's *Main module* plus zero or more embedded
*MEM modules*.  Designs are built from hash-consed word-level expressions
(:class:`Expr`), registered state (:class:`Latch`), primary inputs and
:class:`Memory` modules whose read/write ports expose the five memory
interface signals of Section 2.3: Addr, WD, RD, WE and RE.

Two lowerings exist for every design:

* :func:`repro.design.explicit.expand_memories` — the *Explicit Modeling*
  baseline: every memory becomes ``2**AW`` data-word latches plus read
  muxes and write decoders;
* the EMM path — the BMC unroller keeps the interface signals and lets
  :mod:`repro.emm` constrain the read-data words at every depth.
"""

from repro.design.netlist import Design, Expr, Latch, Memory, Input, ReadPort, WritePort, Property
from repro.design.explicit import expand_memories
from repro.design.cone import latch_support, memory_control_latches
from repro.design.equiv import build_miter, check_equivalence
from repro.design.verilog import write_verilog

__all__ = [
    "Design", "Expr", "Latch", "Memory", "Input", "ReadPort", "WritePort",
    "Property", "expand_memories", "latch_support", "memory_control_latches",
    "build_miter", "check_equivalence", "write_verilog", "parse_verilog",
    "VerilogError",
]


def __getattr__(name: str):
    # The Verilog parser is large and only the parse/roundtrip flows use
    # it, so it loads on first access to one of its names.
    if name in ("parse_verilog", "VerilogError"):
        from repro.design import verilog_parser

        return getattr(verilog_parser, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
