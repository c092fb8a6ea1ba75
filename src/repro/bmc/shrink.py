"""Counterexample minimization by oracle-checked greedy deltas.

BMC counterexamples carry whatever values the SAT solver happened to
pick: noisy input vectors, irrelevant arbitrary-init latch values, and
incidental initial memory contents.  This module shrinks a failing trace
while *preserving the failure*, replaying every candidate simplification
on a concrete oracle (:mod:`repro.sim.oracle`):

1. **Input zeroing** — set each input word (per cycle) to zero;
2. **Init-latch zeroing** — zero the arbitrary-init latch values;
3. **Memory-content pruning** — drop reconstructed initial memory words
   (unneeded locations revert to the default);
4. **Value shrinking** — replace surviving nonzero values by smaller
   ones (halving), pushing magnitudes toward zero.

Candidate simplifications of a pass are evaluated as **lanes of one
vector batch** (:class:`repro.sim.oracle.VectorOracle`): N candidates
cost one compiled array sweep instead of N interpreter replays.  All
individually-safe edits of a pass are then applied together when their
combination still fails, with a sequential fallback when edits interact
— so the result is the same locally-minimal trace shape the scalar
greedy loop produced: at the fixpoint no single remaining
simplification can be applied without losing the violation.
Deterministic and purely simulation-driven — no SAT calls — so it is
cheap even for long traces (and ~batch× cheaper than the scalar loop).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.design.netlist import Design
from repro.sim.oracle import Oracle, SimulatorOracle, Stimulus, default_oracle
from repro.sim.trace import Trace

#: Passes of the four edit kinds at most; the loop stops early at a
#: fixpoint.
SHRINK_ROUNDS = 3

#: One candidate simplification: a log line plus an in-place stimulus edit.
Edit = tuple[str, Callable[[Stimulus], None]]


@dataclass
class ShrinkResult:
    """A minimized counterexample plus bookkeeping."""

    trace: Trace
    #: Simplifications applied / candidate evaluations attempted.
    applied: int = 0
    attempted: int = 0
    #: Final failure cycle (may move earlier during shrinking).
    failure_cycle: int = 0
    log: list[str] = field(default_factory=list)


class TraceShrinker:
    """Shrinks one failing trace of one property.

    ``oracle`` defaults to the fastest available concrete oracle
    (vectorized when numpy is present); pass a
    :class:`repro.sim.oracle.SimulatorOracle` to force the scalar path.
    """

    def __init__(self, design: Design, property_name: str,
                 oracle: Optional[Oracle] = None) -> None:
        design.validate()
        self.design = design
        self.prop = design.properties[property_name]
        self.oracle = oracle if oracle is not None else default_oracle(design)

    # -- failure oracle -----------------------------------------------------

    def fails(self, inputs: list[dict], init_latches: dict,
              init_memories: dict) -> Optional[int]:
        """First cycle where the property is violated, or None."""
        return self._first_failure(Stimulus(
            inputs=[dict(v) for v in inputs],
            init_latches=dict(init_latches),
            init_memories={m: dict(c) for m, c in init_memories.items()}))

    def _first_failure(self, stimulus: Stimulus) -> Optional[int]:
        verdict = self.oracle.check(self.prop.name, stimulus)
        return verdict.cycle if verdict.failed else None

    def _first_failures(self, candidates: list[Stimulus]
                        ) -> list[Optional[int]]:
        """Batched failure oracle: one lane per candidate."""
        return [v.cycle if v.failed else None
                for v in self.oracle.check_batch(self.prop.name, candidates)]

    # -- the shrink loop ------------------------------------------------------

    def shrink(self, trace: Trace) -> ShrinkResult:
        """Greedily minimize ``trace``; it must currently fail."""
        stim = Stimulus.from_trace(trace)
        first = self._first_failure(stim)
        if first is None:
            raise ValueError("trace does not violate the property; "
                             "nothing to shrink")
        result = ShrinkResult(trace=trace, failure_cycle=first)
        # Truncate to the failure point immediately: later cycles are noise.
        stim.inputs = stim.inputs[:first + 1]

        for _ in range(SHRINK_ROUNDS):
            changed = False
            changed |= self._apply_edits(stim, self._zero_input_edits(stim),
                                         result)
            changed |= self._apply_edits(stim,
                                         self._zero_init_latch_edits(stim),
                                         result)
            changed |= self._apply_edits(stim,
                                         self._prune_memory_edits(stim),
                                         result)
            changed |= self._shrink_values(stim, result)
            if not changed:
                break

        final = self._first_failure(stim)
        assert final is not None, "shrinking lost the violation"
        stim.inputs = stim.inputs[:final + 1]
        # Rebuild the final trace on the scalar reference simulator so the
        # result has the canonical scalar shape regardless of the oracle.
        out = SimulatorOracle(self.design).replay(stim)
        result.trace = out
        result.failure_cycle = final
        return result

    # -- batched pass machinery ----------------------------------------------

    def _apply_edits(self, stim: Stimulus, edits: list[Edit],
                     result: ShrinkResult) -> bool:
        """Evaluate all edits as one batch; apply the surviving ones.

        Every edit is checked against the current base (one lane each).
        When several edits individually preserve the failure, their
        combination is checked once and applied wholesale if it still
        fails; otherwise the survivors are re-applied greedily in order
        (each re-checked against the evolving base), which matches the
        scalar loop's behaviour when edits interact.
        """
        if not edits:
            return False
        candidates = []
        for _desc, fn in edits:
            cand = stim.copy()
            fn(cand)
            candidates.append(cand)
        result.attempted += len(edits)
        failures = self._first_failures(candidates)
        good = [edit for edit, cycle in zip(edits, failures)
                if cycle is not None]
        if not good:
            return False
        if len(good) > 1:
            combined = stim.copy()
            for _desc, fn in good:
                fn(combined)
            result.attempted += 1
            if self._first_failure(combined) is not None:
                for desc, fn in good:
                    fn(stim)
                    result.applied += 1
                    result.log.append(desc)
                return True
        # Interacting edits: greedy fallback.  The first survivor is
        # known-good against the unchanged base; later ones re-check.
        changed = False
        for desc, fn in good:
            if changed:
                cand = stim.copy()
                fn(cand)
                result.attempted += 1
                if self._first_failure(cand) is None:
                    continue
            fn(stim)
            result.applied += 1
            result.log.append(desc)
            changed = True
        return changed

    # -- candidate generators -------------------------------------------------

    def _zero_input_edits(self, stim: Stimulus) -> list[Edit]:
        edits: list[Edit] = []
        for k, vec in enumerate(stim.inputs):
            for name in sorted(vec):
                if vec[name] == 0:
                    continue
                edits.append((f"input {name}@{k}: {vec[name]} -> 0",
                              _set_input(k, name, 0)))
        return edits

    def _zero_init_latch_edits(self, stim: Stimulus) -> list[Edit]:
        edits: list[Edit] = []
        for name in sorted(stim.init_latches):
            if stim.init_latches[name] == 0:
                continue
            edits.append((f"init latch {name}: "
                          f"{stim.init_latches[name]} -> 0",
                          _set_init_latch(name, 0)))
        return edits

    def _prune_memory_edits(self, stim: Stimulus) -> list[Edit]:
        edits: list[Edit] = []
        for mem_name in sorted(stim.init_memories):
            declared = self.design.memories[mem_name].init_words
            contents = stim.init_memories[mem_name]
            for addr in sorted(contents):
                if addr in declared:
                    continue  # declared ROM words are part of the design
                edits.append((f"{mem_name}[{addr}]: {contents[addr]} dropped",
                              _drop_word(mem_name, addr)))
        return edits

    def _halve_edits(self, stim: Stimulus) -> list[Edit]:
        edits: list[Edit] = []
        for k, vec in enumerate(stim.inputs):
            for name in sorted(vec):
                if vec[name] > 0:
                    edits.append((f"input {name}@{k}: {vec[name]} -> "
                                  f"{vec[name] // 2}",
                                  _set_input(k, name, vec[name] // 2)))
        for name in sorted(stim.init_latches):
            value = stim.init_latches[name]
            if value > 0:
                edits.append((f"init latch {name}: {value} -> {value // 2}",
                              _set_init_latch(name, value // 2)))
        for mem_name in sorted(stim.init_memories):
            declared = self.design.memories[mem_name].init_words
            contents = stim.init_memories[mem_name]
            for addr in sorted(contents):
                if addr in declared or contents[addr] <= 0:
                    continue
                edits.append((f"{mem_name}[{addr}]: {contents[addr]} -> "
                              f"{contents[addr] // 2}",
                              _set_word(mem_name, addr, contents[addr] // 2)))
        return edits

    def _shrink_values(self, stim: Stimulus, result: ShrinkResult) -> bool:
        """Repeated halving until no value can be pushed lower."""
        changed = False
        while self._apply_edits(stim, self._halve_edits(stim), result):
            changed = True
        return changed


# -- edit constructors (closures capturing the target, not the value) -------


def _set_input(cycle: int, name: str, value: int):
    def apply(s: Stimulus) -> None:
        s.inputs[cycle][name] = value
    return apply


def _set_init_latch(name: str, value: int):
    def apply(s: Stimulus) -> None:
        s.init_latches[name] = value
    return apply


def _drop_word(mem_name: str, addr: int):
    def apply(s: Stimulus) -> None:
        s.init_memories[mem_name].pop(addr, None)
    return apply


def _set_word(mem_name: str, addr: int, value: int):
    def apply(s: Stimulus) -> None:
        s.init_memories[mem_name][addr] = value
    return apply


def shrink_trace(design: Design, property_name: str, trace: Trace,
                 oracle: Optional[Oracle] = None) -> ShrinkResult:
    """One-call convenience wrapper around :class:`TraceShrinker`."""
    return TraceShrinker(design, property_name, oracle=oracle).shrink(trace)
