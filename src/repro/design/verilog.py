"""Synthesizable Verilog-2001 export for designs.

The paper's case studies were "implemented using Verilog HDL"; this
exporter closes the loop — any :class:`repro.design.Design` (including
its embedded memories) can be written out as a self-contained Verilog
module for use with commercial flows, simulators or other model
checkers.

Mapping:

* primary inputs -> module inputs; one ``clk`` and one ``rst`` port are
  added;
* latches -> ``reg`` vectors updated on ``posedge clk``, reset to their
  declared init (arbitrary-init latches are left unreset);
* memories -> ``reg`` arrays with one synchronous write block per write
  port (highest port index last, preserving the EMM priority) and
  combinational read assigns gated by the read enable;
* properties -> 1-bit outputs, plus immediate assertions inside an
  ``ifdef FORMAL`` block so the file drops into SymbiYosys-style flows.

Expressions are emitted as a hash-consed wire per node, so the output
size is linear in the expression DAG.
"""

from __future__ import annotations

from typing import TextIO

from repro.design.netlist import Design, Expr, postorder

_RESERVED = {"module", "input", "output", "reg", "wire", "assign", "always",
             "begin", "end", "if", "else", "case", "endcase", "endmodule",
             "initial", "integer", "signed", "clk", "rst"}


def _ident(name: str) -> str:
    out = "".join(c if c.isalnum() or c == "_" else "_" for c in name)
    if not out or out[0].isdigit() or out in _RESERVED:
        out = f"sig_{out}"
    return out


def _range(width: int) -> str:
    return f"[{width - 1}:0] " if width > 1 else ""


class _WireNamer:
    """Emits one wire definition per distinct expression node."""

    def __init__(self, design: Design) -> None:
        self.design = design
        self.names: dict[int, str] = {}
        self.defs: list[str] = []
        self._count = 0

    def ref(self, expr: Expr) -> str:
        names = self.names
        got = names.get(expr._id)
        if got is not None:
            return got
        for e in postorder((expr,), names):
            names[e._id] = self._emit(e)
        return names[expr._id]

    def _emit(self, e: Expr) -> str:
        kind = e.kind
        if kind == "const":
            return f"{e.width}'d{e.payload}"
        if kind == "input":
            return _ident(e.payload)
        if kind == "latch":
            return _ident(e.payload)
        if kind == "memread":
            mem, port = e.payload
            return f"{_ident(mem)}_rd{port}"
        args = [self.names[a._id] for a in e.args]
        body = self._body(e, args)
        name = f"w{self._count}"
        self._count += 1
        self.defs.append(
            f"  wire {_range(e.width)}{name} = {body};")
        return name

    def _body(self, e: Expr, a: list[str]) -> str:
        kind = e.kind
        if kind == "not":
            return f"~{a[0]}"
        if kind == "and":
            return f"{a[0]} & {a[1]}"
        if kind == "or":
            return f"{a[0]} | {a[1]}"
        if kind == "xor":
            return f"{a[0]} ^ {a[1]}"
        if kind == "add":
            return f"{a[0]} + {a[1]}"
        if kind == "sub":
            return f"{a[0]} - {a[1]}"
        if kind == "eq":
            return f"{a[0]} == {a[1]}"
        if kind == "ult":
            return f"{a[0]} < {a[1]}"
        if kind == "mux":
            return f"{a[0]} ? {a[1]} : {a[2]}"
        if kind == "slice":
            lo, hi = e.payload
            if hi - lo == e.args[0].width:
                return a[0]
            if hi - lo == 1:
                return f"{a[0]}[{lo}]"
            return f"{a[0]}[{hi - 1}:{lo}]"
        if kind == "zext":
            pad = e.width - e.args[0].width
            return f"{{{pad}'d0, {a[0]}}}"
        if kind == "concat":
            return f"{{{a[1]}, {a[0]}}}"  # verilog: high part first
        raise ValueError(f"unknown expression kind {kind!r}")


def write_verilog(out: TextIO, design: Design) -> None:
    """Write the design as one synthesizable Verilog module."""
    design.validate()
    name = _ident(design.name)
    namer = _WireNamer(design)

    # Pre-walk everything so wire definitions land before their uses.
    latch_next = {n: namer.ref(lit.next) for n, lit in design.latches.items()}
    port_exprs: dict = {}
    for mem in design.memories.values():
        for port in mem.read_ports:
            port_exprs[("r", mem.name, port.index)] = (
                namer.ref(port.addr), namer.ref(port.en))
        for port in mem.write_ports:
            port_exprs[("w", mem.name, port.index)] = (
                namer.ref(port.addr), namer.ref(port.en),
                namer.ref(port.data))
    prop_refs = {n: namer.ref(p.expr) for n, p in design.properties.items()}

    ports = ["clk", "rst"]
    ports += [_ident(i.name) for i in design.inputs.values()]
    ports += [f"prop_{_ident(n)}" for n in design.properties]
    out.write(f"// generated from design {design.name!r} by repro.design.verilog\n")
    out.write(f"module {name} (\n")
    out.write(",\n".join(f"  {p}" for p in ports))
    out.write("\n);\n")
    out.write("  input clk;\n  input rst;\n")
    for inp in design.inputs.values():
        out.write(f"  input {_range(inp.width)}{_ident(inp.name)};\n")
    for pname in design.properties:
        out.write(f"  output prop_{_ident(pname)};\n")
    out.write("\n")
    for latch in design.latches.values():
        out.write(f"  reg {_range(latch.width)}{_ident(latch.name)};\n")
    for mem in design.memories.values():
        out.write(f"  reg {_range(mem.data_width)}{_ident(mem.name)} "
                  f"[0:{mem.num_words - 1}];\n")
    out.write("\n")
    for line in namer.defs:
        out.write(line + "\n")
    out.write("\n")

    # Declared memory contents.  Known-init memories list every word (the
    # parser reconstructs the exact initial state from the initial block);
    # arbitrary-default memories list only their ROM overrides.  Very
    # large known-init memories fall back to overrides-only with a
    # warning comment — their uniform default is not expressible in the
    # roundtrippable subset.
    _INIT_DUMP_CAP = 1024
    init_dump: dict[str, dict[int, int]] = {}
    for mem in design.memories.values():
        if mem.init is not None and mem.num_words <= _INIT_DUMP_CAP:
            init_dump[mem.name] = {a: mem.initial_word(a)
                                   for a in range(mem.num_words)}
        elif mem.init_words:
            if mem.init is not None:
                out.write(f"  // NOTE: {_ident(mem.name)} has a uniform "
                          f"init of {mem.init} too large to dump; the "
                          "initial block below lists overrides only\n")
            init_dump[mem.name] = dict(mem.init_words)
    if any(init_dump.values()):
        out.write("  initial begin\n")
        for name, words in init_dump.items():
            for addr in sorted(words):
                out.write(f"    {_ident(name)}[{addr}] = "
                          f"{design.memories[name].data_width}'d"
                          f"{words[addr]};\n")
        out.write("  end\n\n")

    # Memory read ports: combinational, enable-gated (reads while the
    # enable is low return zero, matching the reference simulator).
    for mem in design.memories.values():
        for port in mem.read_ports:
            addr, en = port_exprs[("r", mem.name, port.index)]
            rd = f"{_ident(mem.name)}_rd{port.index}"
            out.write(f"  wire {_range(mem.data_width)}{rd} = "
                      f"{en} ? {_ident(mem.name)}[{addr}] : "
                      f"{mem.data_width}'d0;\n")
    out.write("\n")

    # State updates.
    out.write("  always @(posedge clk) begin\n")
    out.write("    if (rst) begin\n")
    for latch in design.latches.values():
        if latch.init is not None:
            out.write(f"      {_ident(latch.name)} <= "
                      f"{latch.width}'d{latch.init};\n")
    out.write("    end else begin\n")
    for lname, ref in latch_next.items():
        out.write(f"      {_ident(lname)} <= {ref};\n")
    for mem in design.memories.values():
        for port in mem.write_ports:  # ascending order: later ports win
            addr, en, data = port_exprs[("w", mem.name, port.index)]
            out.write(f"      if ({en}) {_ident(mem.name)}[{addr}] "
                      f"<= {data};\n")
    out.write("    end\n  end\n\n")

    for pname, ref in prop_refs.items():
        out.write(f"  assign prop_{_ident(pname)} = {ref};\n")
    out.write("\n`ifdef FORMAL\n  always @(posedge clk) begin\n")
    for pname, prop in design.properties.items():
        if prop.kind == "invariant":
            out.write(f"    if (!rst) assert (prop_{_ident(pname)});\n")
        else:
            out.write(f"    if (!rst) cover (prop_{_ident(pname)});\n")
    out.write("  end\n`endif\n")
    out.write("endmodule\n")
