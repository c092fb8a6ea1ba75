"""Unified concrete-semantics Oracle API.

Every soundness claim in this reproduction rests on differential
comparison against a concrete oracle: counterexample validation, trace
shrinking, the differential matrix, equivalence diagnosis, and the fuzz
farm all replay stimuli and ask "does the property (still) fail?".
Before this module each caller had its own plumbing — raw
``Simulator(...)`` construction, hand-rolled per-cycle property scans,
ad-hoc ``expand_memories`` wiring.  The :class:`Oracle` interface gives
them one shape:

* ``replay(stimulus) -> Trace`` — run the concrete semantics;
* ``check(prop, trace_or_stimulus) -> Verdict`` — first property
  violation (invariant) / witness (reach), replaying if needed;
* ``replay_batch`` / ``check_batch`` — many stimuli at once.  The
  scalar oracle loops; :class:`VectorOracle` evaluates every stimulus
  as one lane of a :class:`repro.sim.vector.VectorSimulator` batch, so
  N candidate checks cost one compiled array sweep instead of N
  interpreter runs.

Three implementations cover the concrete semantics the repo trusts:
the scalar reference interpreter (:class:`SimulatorOracle`), the
NumPy batch simulator (:class:`VectorOracle`, batch-of-1 degenerates
cleanly), and the paper's explicit-expansion baseline
(:class:`ExplicitOracle`, memories expanded into word latches).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

from repro.design.explicit import expand_memories, word_latch_name
from repro.design.netlist import Design
from repro.sim.simulator import Simulator
from repro.sim.trace import Trace
from repro.sim.vector import VectorSimulator, have_numpy


@dataclass
class Stimulus:
    """Everything a deterministic replay needs: inputs + initial state.

    The canonical exchange format between the BMC trace extractor, the
    shrinker, the fuzz farm and the oracles — a :class:`Trace` minus the
    recorded signal values.
    """

    inputs: list[dict] = field(default_factory=list)
    init_latches: dict = field(default_factory=dict)
    init_memories: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.inputs)

    @classmethod
    def from_trace(cls, trace: Trace) -> "Stimulus":
        return cls(inputs=trace.inputs_sequence(),
                   init_latches=dict(trace.init_latches),
                   init_memories={m: dict(c)
                                  for m, c in trace.init_memories.items()})

    def copy(self) -> "Stimulus":
        return Stimulus(inputs=[dict(v) for v in self.inputs],
                        init_latches=dict(self.init_latches),
                        init_memories={m: dict(c)
                                       for m, c in self.init_memories.items()})

    def to_dict(self) -> dict:
        """JSON-ready form (memory addresses become string keys)."""
        return {
            "inputs": [dict(v) for v in self.inputs],
            "init_latches": dict(sorted(self.init_latches.items())),
            "init_memories": {m: {str(a): v for a, v in sorted(c.items())}
                              for m, c in sorted(self.init_memories.items())},
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Stimulus":
        return cls(
            inputs=[{n: int(v) for n, v in vec.items()}
                    for vec in data.get("inputs", [])],
            init_latches={n: int(v)
                          for n, v in data.get("init_latches", {}).items()},
            init_memories={m: {int(a): int(v) for a, v in c.items()}
                           for m, c in data.get("init_memories", {}).items()},
        )


@dataclass(frozen=True)
class Verdict:
    """Outcome of checking one property against one concrete run."""

    prop: str
    kind: str
    #: Property violated (invariant) / witnessed (reach) somewhere.
    failed: bool
    #: First cycle where that happened, or None.
    cycle: Optional[int] = None

    def __bool__(self) -> bool:
        return self.failed


Subject = Union[Trace, Stimulus]


class Oracle:
    """Base class: shared scan/check logic over a design's properties.

    Subclasses implement :meth:`replay` (and may override the batch
    entry points with genuinely batched evaluation).
    """

    def __init__(self, design: Design) -> None:
        design.validate()
        self.design = design

    # -- protocol ----------------------------------------------------------

    def replay(self, stimulus: Stimulus) -> Trace:
        raise NotImplementedError

    def replay_batch(self, stimuli: Sequence[Stimulus]) -> list[Trace]:
        return [self.replay(s) for s in stimuli]

    def check(self, prop: str, subject: Subject) -> Verdict:
        """Verdict for ``prop`` on a trace (scanned) or stimulus (replayed)."""
        trace = subject if isinstance(subject, Trace) else self.replay(subject)
        return self.scan(prop, trace)

    def check_batch(self, prop: str,
                    stimuli: Sequence[Stimulus]) -> list[Verdict]:
        return [self.scan(prop, t) for t in self.replay_batch(stimuli)]

    # -- shared helpers ----------------------------------------------------

    def expected_bad(self, prop: str) -> int:
        """The property value that constitutes a failure/witness."""
        return 0 if self.design.properties[prop].kind == "invariant" else 1

    def scan(self, prop: str, trace: Trace) -> Verdict:
        """Scan an already-recorded trace for the first failure cycle."""
        kind = self.design.properties[prop].kind
        bad = self.expected_bad(prop)
        for k, cyc in enumerate(trace.cycles):
            if cyc["props"][prop] == bad:
                return Verdict(prop, kind, True, k)
        return Verdict(prop, kind, False, None)


class SimulatorOracle(Oracle):
    """The scalar reference interpreter as an oracle."""

    def replay(self, stimulus: Stimulus) -> Trace:
        sim = Simulator(self.design, init_latches=stimulus.init_latches,
                        init_memories=stimulus.init_memories)
        trace = sim.run(stimulus.inputs)
        trace.init_latches = dict(stimulus.init_latches)
        trace.init_memories = {m: dict(c)
                               for m, c in stimulus.init_memories.items()}
        return trace


class VectorOracle(Oracle):
    """Batched oracle: one :class:`VectorSimulator` lane per stimulus.

    ``replay`` runs a batch of 1; ``replay_batch``/``check_batch`` group
    stimuli by trace length (lanes of one batch must run the same number
    of cycles), chunk at ``max_batch`` lanes, and extract bit-exact
    scalar traces per lane.
    """

    def __init__(self, design: Design, max_batch: int = 1024) -> None:
        if not have_numpy():
            raise RuntimeError("VectorOracle requires numpy; "
                               "use SimulatorOracle instead")
        super().__init__(design)
        self.max_batch = max(1, max_batch)

    def replay(self, stimulus: Stimulus) -> Trace:
        return self.replay_batch([stimulus])[0]

    def replay_batch(self, stimuli: Sequence[Stimulus]) -> list[Trace]:
        out: list[Optional[Trace]] = [None] * len(stimuli)
        by_len: dict[int, list[int]] = {}
        for i, s in enumerate(stimuli):
            by_len.setdefault(len(s.inputs), []).append(i)
        for indices in by_len.values():
            for lo in range(0, len(indices), self.max_batch):
                chunk = indices[lo:lo + self.max_batch]
                for i, trace in zip(chunk, self._replay_chunk(
                        [stimuli[i] for i in chunk])):
                    out[i] = trace
        return out  # type: ignore[return-value]

    def check_batch(self, prop: str,
                    stimuli: Sequence[Stimulus]) -> list[Verdict]:
        """Batched verdicts without per-lane trace extraction.

        The shrinker's and the fuzz farm's hot path: only the property
        columns are inspected (``BatchTrace.first_cycle_where``), so the
        cost per lane is a few array reads instead of materializing a
        full scalar trace.
        """
        kind = self.design.properties[prop].kind
        bad = self.expected_bad(prop)
        out: list[Optional[Verdict]] = [None] * len(stimuli)
        by_len: dict[int, list[int]] = {}
        for i, s in enumerate(stimuli):
            by_len.setdefault(len(s.inputs), []).append(i)
        for indices in by_len.values():
            for lo in range(0, len(indices), self.max_batch):
                chunk = indices[lo:lo + self.max_batch]
                bt = self._run_chunk([stimuli[i] for i in chunk])
                firsts = bt.first_cycle_where(prop, bad)
                for i, cycle in zip(chunk, firsts):
                    out[i] = Verdict(prop, kind, cycle is not None, cycle)
        return out  # type: ignore[return-value]

    def _replay_chunk(self, stimuli: Sequence[Stimulus]) -> list[Trace]:
        traces = self._run_chunk(stimuli).lanes()
        for s, t in zip(stimuli, traces):
            # The trace's initial state is the *stimulus's* view (the
            # scalar oracle's convention), not the merged dense fill.
            t.init_latches = dict(s.init_latches)
            t.init_memories = {m: dict(c)
                               for m, c in s.init_memories.items()}
        return traces

    def _run_chunk(self, stimuli: Sequence[Stimulus]):
        import numpy as np

        design = self.design
        batch = len(stimuli)
        init_latches = {}
        for name, latch in design.latches.items():
            if any(name in s.init_latches for s in stimuli):
                default = latch.init if latch.init is not None else 0
                init_latches[name] = np.array(
                    [s.init_latches.get(name, default) for s in stimuli],
                    dtype=np.uint64)
        init_memories = {}
        for mem_name, mem in design.memories.items():
            addrs = sorted({a for s in stimuli
                            for a in s.init_memories.get(mem_name, {})})
            if not addrs:
                continue
            words = {}
            for addr in addrs:
                fallback = mem.init_words.get(
                    addr, mem.init if mem.init is not None else 0)
                words[addr] = np.array(
                    [s.init_memories.get(mem_name, {}).get(addr, fallback)
                     for s in stimuli], dtype=np.uint64)
            init_memories[mem_name] = words
        ncycles = len(stimuli[0].inputs)
        inputs_seq = []
        for k in range(ncycles):
            inputs_seq.append({
                name: np.array([s.inputs[k].get(name, 0) for s in stimuli],
                               dtype=np.uint64)
                for name in design.inputs
            })
        sim = VectorSimulator(design, batch, init_latches=init_latches,
                              init_memories=init_memories)
        return sim.run(inputs_seq)


class ExplicitOracle(Oracle):
    """The paper's explicit-expansion baseline as an oracle.

    Replays on ``expand_memories(design)``: initial memory contents
    become word-latch initial values, so the same :class:`Stimulus`
    drives both the EMM-level and the explicit-level semantics.  Traces
    carry the *expanded* design's latches (including the ``mem::wN``
    word latches) but the original property names, so verdicts are
    directly comparable.
    """

    def __init__(self, design: Design, max_batch: int = 1024) -> None:
        super().__init__(design)
        self.expanded = expand_memories(design)
        self._inner = default_oracle(self.expanded, max_batch=max_batch)

    def _translate(self, stimulus: Stimulus) -> Stimulus:
        init_latches = dict(stimulus.init_latches)
        for mem_name, words in stimulus.init_memories.items():
            for addr, value in words.items():
                init_latches[word_latch_name(mem_name, addr)] = value
        return Stimulus(inputs=[dict(v) for v in stimulus.inputs],
                        init_latches=init_latches, init_memories={})

    def replay(self, stimulus: Stimulus) -> Trace:
        return self._inner.replay(self._translate(stimulus))

    def replay_batch(self, stimuli: Sequence[Stimulus]) -> list[Trace]:
        return self._inner.replay_batch([self._translate(s) for s in stimuli])


def default_oracle(design: Design, max_batch: int = 1024) -> Oracle:
    """The fastest available concrete oracle for this environment."""
    if have_numpy():
        return VectorOracle(design, max_batch=max_batch)
    return SimulatorOracle(design)
