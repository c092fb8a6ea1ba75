"""Counterexample / witness extraction and validation.

Pulls a concrete trace out of the SAT model: input vectors per frame,
initial values for arbitrary-init latches, and — the interesting part —
the *initial memory contents* implied by the EMM model: every read that
fell through to the initial state (no earlier write to that address)
pins down one location of the arbitrary initial memory.

When the verification model is concrete (nothing abstracted) the trace is
replayed on the reference simulator and the property violation is checked
— an end-to-end validation that the EMM constraints really preserved the
memory semantics.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.sim.oracle import SimulatorOracle, Stimulus
from repro.sim.trace import Trace

if TYPE_CHECKING:  # pragma: no cover
    from repro.bmc.engine import BmcEngine
    from repro.bmc.session import EncodingSession


def _word_value(session: "EncodingSession", aig_word: list[int]) -> int:
    """Integer value of an AIG word in the SAT model (unemitted bits = 0)."""
    solver = session.solver
    emitter = session.emitter
    value = 0
    for i, lit in enumerate(aig_word):
        idx = lit >> 1
        if idx == 0:
            bit = lit & 1  # literal 0 = FALSE, literal 1 = TRUE
        else:
            var = emitter.var_for(lit)
            if var is None:
                bit = 0  # cone never emitted: unconstrained, pick 0
            else:
                bit = int(solver.model_value(var)) ^ (lit & 1)
        if bit:
            value |= 1 << i
    return value


def _lit_value(session: "EncodingSession", aig_lit: int) -> int:
    return _word_value(session, [aig_lit])


def extract_trace(engine: "BmcEngine", depth: int,
                  validate: bool = True) -> tuple[Trace, bool | None]:
    """Build a trace of length depth+1 from the last SAT model.

    Returns ``(trace, validated)`` where ``validated`` is True/False after
    simulator replay, or None when the model was abstracted (replay would
    not be meaningful).
    """
    design = engine.design
    session = engine.session
    un = session.unroller
    inputs_seq = []
    latches_seq = []
    for k in range(depth + 1):
        inputs_seq.append({
            name: _word_value(session, un.input_word(name, k))
            for name in design.inputs
        })
        latches_seq.append({
            name: _word_value(session, un.latch_word(name, k))
            for name in design.latches
        })

    init_latches = {
        name: latches_seq[0][name]
        for name, latch in design.latches.items() if latch.init is None
    }
    init_memories = _reconstruct_initial_memories(engine, depth)

    trace = Trace(design_name=design.name)
    trace.init_latches = dict(init_latches)
    trace.init_memories = {m: dict(c) for m, c in init_memories.items()}

    concrete = session.is_concrete()
    if concrete and validate:
        # Replay through the scalar reference oracle — the same Oracle
        # API the shrinker, the fuzz farm and the differential matrix
        # consume, so validation semantics stay in one place.
        oracle = SimulatorOracle(design)
        replay = oracle.replay(Stimulus(
            inputs=inputs_seq, init_latches=dict(init_latches),
            init_memories={m: dict(c) for m, c in init_memories.items()}))
        trace.cycles = replay.cycles
        prop = engine.prop
        final = trace.cycles[depth]["props"][prop.name]
        validated = final == oracle.expected_bad(prop.name)
        return trace, validated

    # Abstract model: report the SAT model's view without replay.
    for k in range(depth + 1):
        trace.cycles.append({
            "inputs": inputs_seq[k],
            "latches": latches_seq[k],
            "props": {},
            "watch": {},
        })
    return trace, None


def _reconstruct_initial_memories(engine: "BmcEngine", depth: int
                                  ) -> dict[str, dict[int, int]]:
    """Initial contents of arbitrary-init memories implied by the model.

    For each read that the model satisfied through the initial-state
    fall-through (no earlier write to its address), record the read value
    at that address.  Addresses never read-before-write are immaterial.
    """
    design = engine.design
    session = engine.session
    un = session.unroller
    out: dict[str, dict[int, int]] = {}
    for mem_name in sorted(session.kept_memories):
        mem = design.memories[mem_name]
        if mem.init is not None:
            continue
        # Seed declared per-address contents; only the genuinely
        # arbitrary locations are mined from the SAT model.
        contents: dict[int, int] = dict(mem.init_words)
        written: set[int] = set()
        for k in range(depth + 1):
            # Reads at frame k observe writes from frames < k.
            for port in mem.read_ports:
                en = _lit_value(session, un.lit(port.en, k))
                if not en:
                    continue
                addr = _word_value(session, un.word(port.addr, k))
                if addr in written or addr in contents:
                    continue
                rd = _word_value(session, un.rd_word(mem_name, port.index, k))
                contents[addr] = rd
            for port in mem.write_ports:
                en = _lit_value(session, un.lit(port.en, k))
                if en:
                    written.add(_word_value(session, un.word(port.addr, k)))
        out[mem_name] = contents
    return out
