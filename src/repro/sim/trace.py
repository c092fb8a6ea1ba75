"""Trace capture and VCD export."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TextIO


@dataclass
class Trace:
    """A recorded multi-cycle execution.

    Each entry of :attr:`cycles` is a dict with ``inputs``, ``latches``,
    ``props`` and ``watch`` sub-dicts mapping names to integer values for
    that cycle (pre-state-update, matching BMC frame semantics).
    """

    design_name: str = ""
    cycles: list[dict] = field(default_factory=list)
    #: Initial memory contents used for the run (arbitrary-init memories).
    init_memories: dict = field(default_factory=dict)
    #: Initial latch overrides used for the run (arbitrary-init latches).
    init_latches: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.cycles)

    def value(self, group: str, name: str, cycle: int) -> int:
        return self.cycles[cycle][group][name]

    def inputs_sequence(self) -> list[dict]:
        """The input vectors, replayable through the simulator."""
        return [dict(c["inputs"]) for c in self.cycles]

    def to_dict(self) -> dict:
        """JSON-ready form (memory addresses become string keys)."""
        return {
            "design_name": self.design_name,
            "cycles": [{group: dict(vals) for group, vals in cyc.items()}
                       for cyc in self.cycles],
            "init_memories": {name: {str(addr): val
                                     for addr, val in sorted(words.items())}
                              for name, words in sorted(self.init_memories.items())},
            "init_latches": dict(sorted(self.init_latches.items())),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Trace":
        """Inverse of :meth:`to_dict` — the round-trip for service
        ``--json`` output and fuzz-farm reproducer files."""
        trace = cls(design_name=data.get("design_name", ""))
        trace.cycles = [
            {group: {name: int(value) for name, value in vals.items()}
             for group, vals in cyc.items()}
            for cyc in data.get("cycles", [])
        ]
        trace.init_memories = {
            name: {int(addr): int(value) for addr, value in words.items()}
            for name, words in data.get("init_memories", {}).items()
        }
        trace.init_latches = {name: int(value) for name, value
                              in data.get("init_latches", {}).items()}
        return trace

    @classmethod
    def from_batch(cls, batch, lane: int) -> "Trace":
        """Extract one lane of a vector run
        (:class:`repro.sim.vector.BatchTrace`) as a scalar trace."""
        return batch.lane(lane)

    def format_table(self, names: list[tuple[str, str]] | None = None,
                     max_cycles: int = 32) -> str:
        """Human-readable table of selected ``(group, name)`` signals."""
        if not self.cycles:
            return "<empty trace>"
        if names is None:
            first = self.cycles[0]
            names = [("inputs", n) for n in first["inputs"]]
            names += [("latches", n) for n in first["latches"]]
            names += [("props", n) for n in first["props"]]
        header = ["cycle"] + [n for (_g, n) in names]
        rows = [header]
        for k, cyc in enumerate(self.cycles[:max_cycles]):
            rows.append([str(k)] + [str(cyc[g].get(n, "-")) for (g, n) in names])
        widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
        lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths))
                 for row in rows]
        if len(self.cycles) > max_cycles:
            lines.append(f"... ({len(self.cycles) - max_cycles} more cycles)")
        return "\n".join(lines)


def write_vcd(out: TextIO, trace: Trace,
              widths: dict[tuple[str, str], int]) -> None:
    """Write a trace as a Value Change Dump for waveform viewers.

    ``widths`` maps ``(group, name)`` to the signal's bit width; only the
    listed signals are dumped.
    """
    out.write("$timescale 1 ns $end\n")
    out.write(f"$scope module {trace.design_name or 'trace'} $end\n")
    idents: dict[tuple[str, str], str] = {}
    for i, key in enumerate(widths):
        ident = _vcd_ident(i)
        idents[key] = ident
        group, name = key
        out.write(f"$var wire {widths[key]} {ident} {group}.{name} $end\n")
    out.write("$upscope $end\n$enddefinitions $end\n")
    prev: dict[tuple[str, str], int | None] = {k: None for k in widths}
    for cycle_index, cycle in enumerate(trace.cycles):
        out.write(f"#{cycle_index}\n")
        for key, ident in idents.items():
            group, name = key
            value = cycle.get(group, {}).get(name)
            if value is None or value == prev[key]:
                continue
            prev[key] = value
            w = widths[key]
            if w == 1:
                out.write(f"{value & 1}{ident}\n")
            else:
                out.write(f"b{value:b} {ident}\n")
    out.write(f"#{len(trace.cycles)}\n")


def read_vcd(inp: TextIO) -> Trace:
    """Parse a VCD produced by :func:`write_vcd` back into a trace.

    Reconstructs full per-cycle values (VCD only dumps *changes*; held
    values are filled in) for every declared ``group.name`` variable.
    Only the subset of VCD that :func:`write_vcd` emits is supported —
    enough for round-trip tests and for re-importing dumped waveforms.
    """
    trace = Trace()
    by_ident: dict[str, tuple[str, str]] = {}
    current: dict[tuple[str, str], int] = {}
    in_cycle = False

    def flush() -> None:
        cycle: dict[str, dict[str, int]] = {}
        for (group, name), value in current.items():
            cycle.setdefault(group, {})[name] = value
        trace.cycles.append(cycle)

    for raw in inp:
        line = raw.strip()
        if not line:
            continue
        if line.startswith("$scope"):
            parts = line.split()
            if len(parts) >= 3:
                trace.design_name = parts[2]
            continue
        if line.startswith("$var"):
            # $var wire <width> <ident> <group>.<name> $end
            parts = line.split()
            ident, full = parts[3], parts[4]
            group, _, name = full.partition(".")
            by_ident[ident] = (group, name)
            continue
        if line.startswith("$"):
            continue
        if line.startswith("#"):
            if in_cycle:
                flush()
            in_cycle = True
            continue
        if line.startswith("b"):
            bits, ident = line[1:].split()
            current[by_ident[ident]] = int(bits, 2)
        else:
            current[by_ident[line[1:]]] = int(line[0])
    # The trailing "#<len>" marker already flushed the final cycle; a
    # truncated file without it still flushes what accumulated.
    if in_cycle and current and len(trace.cycles) == 0:
        flush()
    return trace


def _vcd_ident(i: int) -> str:
    chars = "".join(chr(c) for c in range(33, 127))
    base = len(chars)
    s = chars[i % base]
    i //= base
    while i:
        s = chars[i % base] + s
        i //= base
    return s
