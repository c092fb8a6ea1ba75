"""Reference interpreter for word-level designs with embedded memories."""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

from repro.design.netlist import Design, Expr, postorder
from repro.sim.trace import Trace


def _mask(width: int) -> int:
    return (1 << width) - 1


class Simulator:
    """Cycle-accurate simulation of a design.

    Memory contents are sparse dictionaries; unwritten locations read the
    memory's uniform initial value, or the caller-provided contents for
    arbitrary-initial-state memories.  Latches with ``init=None`` likewise
    take caller-provided (default 0) initial values.

    Read-port semantics match the EMM discipline: when the read enable is
    inactive the returned value is 0 — well-formed designs must not
    consume RD while RE is low (under EMM that value is unconstrained).
    """

    def __init__(self, design: Design,
                 init_latches: Optional[Mapping[str, int]] = None,
                 init_memories: Optional[Mapping[str, Mapping[int, int]]] = None) -> None:
        design.validate()
        self.design = design
        self.latches: dict[str, int] = {}
        init_latches = dict(init_latches or {})
        for latch in design.latches.values():
            if latch.name in init_latches:
                value = init_latches[latch.name]
            elif latch.init is not None:
                value = latch.init
            else:
                value = 0
            self.latches[latch.name] = value & _mask(latch.width)
        self.memories: dict[str, dict[int, int]] = {}
        self._mem_default: dict[str, int] = {}
        init_memories = init_memories or {}
        for mem in design.memories.values():
            # Declared per-address contents first; caller overrides win.
            contents = dict(mem.init_words)
            contents.update(init_memories.get(mem.name, {}))
            self.memories[mem.name] = {
                a & _mask(mem.addr_width): v & _mask(mem.data_width)
                for a, v in contents.items()
            }
            self._mem_default[mem.name] = (mem.init or 0) & _mask(mem.data_width)
        self._port_order = design.port_evaluation_order()
        self.cycle = 0
        # Per-cycle evaluation state.
        self._inputs: dict[str, int] = {}
        self._values: dict[int, int] = {}
        self._rd_values: dict[tuple[str, int], int] = {}

    # -- single-cycle evaluation -----------------------------------------

    def begin_cycle(self, inputs: Optional[Mapping[str, int]] = None) -> None:
        """Present this cycle's inputs and resolve read ports."""
        self._inputs = {}
        inputs = inputs or {}
        for inp in self.design.inputs.values():
            self._inputs[inp.name] = int(inputs.get(inp.name, 0)) & _mask(inp.width)
        self._values = {}
        self._rd_values = {}
        for mem_name, idx in self._port_order:
            mem = self.design.memories[mem_name]
            port = mem.read_ports[idx]
            en = self.eval(port.en)
            if en:
                addr = self.eval(port.addr)
                value = self.memories[mem_name].get(addr, self._mem_default[mem_name])
            else:
                value = 0
            self._rd_values[(mem_name, idx)] = value

    def eval(self, expr: Expr) -> int:
        """Evaluate an expression in the current cycle."""
        values = self._values
        got = values.get(expr._id)
        if got is not None:
            return got
        for e in postorder((expr,), values):
            values[e._id] = self._eval_node(e)
        return values[expr._id]

    def _eval_node(self, e: Expr) -> int:
        values = self._values
        kind = e.kind
        if kind == "const":
            return e.payload
        if kind == "input":
            return self._inputs[e.payload]
        if kind == "latch":
            return self.latches[e.payload]
        if kind == "memread":
            return self._rd_values[e.payload]
        a = values[e.args[0]._id] if e.args else 0
        if kind == "not":
            return ~a & _mask(e.width)
        if kind == "slice":
            lo, hi = e.payload
            return (a >> lo) & _mask(hi - lo)
        if kind == "zext":
            return a
        if kind == "mux":
            return values[e.args[1]._id] if a else values[e.args[2]._id]
        if kind == "concat":
            high = values[e.args[1]._id]
            return a | (high << e.args[0].width)
        b = values[e.args[1]._id]
        if kind == "and":
            return a & b
        if kind == "or":
            return a | b
        if kind == "xor":
            return a ^ b
        if kind == "add":
            return (a + b) & _mask(e.width)
        if kind == "sub":
            return (a - b) & _mask(e.width)
        if kind == "eq":
            return int(a == b)
        if kind == "ult":
            return int(a < b)
        raise ValueError(f"unknown expression kind {kind!r}")

    def commit_cycle(self) -> None:
        """Latch next-state values and apply memory writes."""
        next_latches = {
            name: self.eval(latch.next) & _mask(latch.width)
            for name, latch in self.design.latches.items()
        }
        writes: list[tuple[str, int, int]] = []
        for mem in self.design.memories.values():
            for port in mem.write_ports:  # port order: later ports override
                if self.eval(port.en):
                    addr = self.eval(port.addr)
                    data = self.eval(port.data)
                    writes.append((mem.name, addr, data))
        self.latches = next_latches
        for mem_name, addr, data in writes:
            self.memories[mem_name][addr] = data
        self.cycle += 1

    def step(self, inputs: Optional[Mapping[str, int]] = None) -> None:
        """Convenience: begin + commit one cycle."""
        self.begin_cycle(inputs)
        self.commit_cycle()

    # -- batched runs -------------------------------------------------------

    def run(self, input_sequence: Sequence[Mapping[str, int]],
            watch: Optional[Mapping[str, Expr]] = None) -> Trace:
        """Run a sequence of cycles, recording a :class:`Trace`.

        Properties are evaluated in each cycle *before* the state update,
        matching the BMC frame semantics.
        """
        trace = Trace(design_name=self.design.name)
        watch = dict(watch or {})
        for inputs in input_sequence:
            self.begin_cycle(inputs)
            record = {
                "inputs": dict(self._inputs),
                "latches": dict(self.latches),
                "props": {name: self.eval(p.expr)
                          for name, p in self.design.properties.items()},
                "watch": {name: self.eval(e) for name, e in watch.items()},
            }
            trace.cycles.append(record)
            self.commit_cycle()
        return trace

    def check_property_at(self, prop_name: str,
                          input_sequence: Sequence[Mapping[str, int]]) -> list[int]:
        """Property values over a run (1 = expr holds that cycle)."""
        prop = self.design.properties[prop_name]
        out = []
        for inputs in input_sequence:
            self.begin_cycle(inputs)
            out.append(self.eval(prop.expr))
            self.commit_cycle()
        return out
