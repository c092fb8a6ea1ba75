"""Tests for the NumPy batch simulator and the Oracle API.

The contract under test is *bit-exactness*: every lane of a
:class:`repro.sim.vector.VectorSimulator` batch must reproduce the
scalar reference :class:`repro.sim.Simulator` exactly — same trace
values, same property verdicts, same initial-state bookkeeping — on
every netlist shape the repo generates, including multi-port memories,
chained read ports, arbitrary-init state and ROM init words.
"""

import random
import time

import pytest

pytest.importorskip("numpy")
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.casestudies.fifo import FifoParams, build_fifo
from repro.design import Design
from repro.sim import (ExplicitOracle, Simulator, SimulatorOracle,
                       Stimulus, Trace, VectorOracle, VectorSimulator,
                       default_oracle, have_numpy)
from repro.sim.fuzzfarm import build_fuzz_netlist, random_stimulus
from tests.test_differential_matrix import random_netlist


def counter_design():
    d = Design("cnt")
    en = d.input("en", 1)
    c = d.latch("c", 4, init=2)
    c.next = en.ite(c.expr + 1, c.expr)
    d.invariant("small", c.expr.ult(10))
    return d


def memory_design():
    """Two write ports (priority), chained reads, ROM words, noise latch."""
    d = Design("memdut")
    t = d.latch("t", 2, init=0)
    t.next = t.expr + 1
    noise = d.latch("noise", 3, init=None)
    noise.next = noise.expr
    mem = d.memory("m", 2, 3, read_ports=2, write_ports=2, init=None,
                   init_words={1: 5})
    mem.write(0).connect(addr=d.input("wa0", 2), data=d.input("wd0", 3),
                         en=d.input("we0", 1))
    mem.write(1).connect(addr=d.input("wa1", 2), data=d.input("wd1", 3),
                         en=d.input("we1", 1))
    mem.read(0).connect(addr=t.expr, en=1)
    # Chained read: port 1's address comes from port 0's data.
    mem.read(1).connect(addr=mem.read(0).data[0:2], en=d.input("re1", 1))
    d.reach("hit", mem.read(1).data.eq(5))
    d.invariant("no7", ~mem.read(0).data.eq(7))
    return d


def random_inputs(design, rng, cycles):
    return [{n: rng.randrange(1 << i.width)
             for n, i in design.inputs.items()} for _ in range(cycles)]


class TestBatchOfOne:
    """Batch of 1 must degenerate exactly to the scalar simulator."""

    def test_counter(self):
        d = counter_design()
        seq = [{"en": k % 2} for k in range(8)]
        ref = Simulator(d).run(seq)
        got = VectorSimulator(d, 1).run(seq).lane(0)
        assert got.cycles == ref.cycles

    def test_memory_with_state_overrides(self):
        d = memory_design()
        rng = random.Random(7)
        seq = random_inputs(d, rng, 6)
        init_l = {"noise": 5}
        init_m = {"m": {0: 3, 2: 6}}
        ref = Simulator(d, init_latches=init_l, init_memories=init_m).run(seq)
        got = VectorSimulator(d, 1, init_latches=init_l,
                              init_memories=init_m).run(seq).lane(0)
        assert got.cycles == ref.cycles
        # The raw simulator records the effective initial state (caller
        # overrides merged over declared ROM words); the scalar Trace
        # leaves these to the oracle layer.
        assert got.init_latches == {"noise": 5}
        assert got.init_memories == {"m": {0: 3, 1: 5, 2: 6}}


class TestLaneSemantics:
    def test_per_lane_inputs_and_inits(self):
        """Each lane sees its own inputs/initial state, not a mixture."""
        d = memory_design()
        rng = random.Random(13)
        batch = 16
        stimuli = [Stimulus(
            inputs=random_inputs(d, rng, 5),
            init_latches={"noise": rng.randrange(8)},
            init_memories={"m": {a: rng.randrange(8)
                                 for a in range(rng.randrange(4))}})
            for _ in range(batch)]
        traces = VectorOracle(d).replay_batch(stimuli)
        scalar = SimulatorOracle(d)
        for s, got in zip(stimuli, traces):
            assert got.cycles == scalar.replay(s).cycles

    def test_scalar_int_init_broadcasts(self):
        d = counter_design()
        sim = VectorSimulator(d, 4, init_latches={"c": 9})
        assert [int(v) for v in sim.latches["c"]] == [9] * 4

    def test_array_init_per_lane(self):
        d = counter_design()
        sim = VectorSimulator(d, 4, init_latches={"c": [1, 2, 3, 4]})
        sim.step({"en": 1})
        assert [int(v) for v in sim.latches["c"]] == [2, 3, 4, 5]

    def test_write_port_priority_highest_wins(self):
        d = memory_design()
        # Both ports write address 0 in the same cycle; port 1 must win.
        seq = [{"wa0": 0, "wd0": 2, "we0": 1, "wa1": 0, "wd1": 6, "we1": 1,
                "re1": 0}, {"re1": 0}]
        sim = VectorSimulator(d, 2)
        sim.step(seq[0])
        assert int(sim.mems["m"][0, 0]) == 6
        ref = Simulator(d)
        ref.step(seq[0])
        assert ref.memories["m"].get(0, 0) == 6

    def test_read_enable_low_forces_zero(self):
        d = memory_design()
        bt = VectorSimulator(d, 1, init_memories={"m": {0: 7}}).run(
            [{"re1": 0}])
        # read(0) addresses t=0 -> 7 -> chained addr 3; with re1=0 the
        # chained read reports 0 regardless of contents.
        assert bt.cycles[0]["props"]["no7"].max() == 0  # 7 read -> invariant
        ref = Simulator(d, init_memories={"m": {0: 7}}).run([{"re1": 0}])
        assert bt.lane(0).cycles == ref.cycles


class TestBatchTrace:
    def make(self, batch=8, cycles=6, seed=3):
        d = memory_design()
        rng = random.Random(seed)
        seqs = [random_inputs(d, rng, cycles) for _ in range(batch)]
        merged = [{n: np.array([seqs[b][k][n] for b in range(batch)],
                               dtype=np.uint64)
                   for n in d.inputs} for k in range(cycles)]
        bt = VectorSimulator(d, batch).run(merged)
        refs = [Simulator(d).run(seqs[b]) for b in range(batch)]
        return d, bt, refs

    def test_lane_extraction_matches_scalar(self):
        _, bt, refs = self.make()
        for b, ref in enumerate(refs):
            assert bt.lane(b).cycles == ref.cycles

    def test_from_batch_constructor(self):
        _, bt, refs = self.make()
        assert Trace.from_batch(bt, 2).cycles == refs[2].cycles

    def test_lane_out_of_range(self):
        _, bt, _ = self.make(batch=4)
        with pytest.raises(IndexError):
            bt.lane(4)

    def test_prop_matrix_shape(self):
        _, bt, _ = self.make(batch=8, cycles=6)
        assert bt.prop_matrix("hit").shape == (6, 8)

    def test_first_cycle_where_matches_scan(self):
        d, bt, refs = self.make(batch=8, seed=11)
        oracle = SimulatorOracle(d)
        firsts = bt.first_cycle_where("hit", 1)
        for b, ref in enumerate(refs):
            v = oracle.scan("hit", ref)
            assert firsts[b] == (v.cycle if v.failed else None)


class TestGuards:
    def test_wide_expression_rejected(self):
        d = Design("wide")
        a = d.input("a", 64)
        lit = d.latch("l", 65, init=0)
        lit.next = a.zext(65) + lit.expr
        d.invariant("p", lit.expr.eq(0))
        with pytest.raises(ValueError, match="64-bit"):
            VectorSimulator(d, 2)

    def test_batch_must_be_positive(self):
        with pytest.raises(ValueError):
            VectorSimulator(counter_design(), 0)

    def test_have_numpy_true_here(self):
        assert have_numpy()


class TestOracles:
    def test_default_oracle_is_vectorized(self):
        assert isinstance(default_oracle(counter_design()), VectorOracle)

    def test_check_batch_groups_mixed_lengths(self):
        d = memory_design()
        rng = random.Random(5)
        stimuli = [Stimulus(inputs=random_inputs(d, rng, rng.choice([3, 5])))
                   for _ in range(12)]
        vec = VectorOracle(d, max_batch=4)
        scalar = SimulatorOracle(d)
        for prop in ("hit", "no7"):
            got = vec.check_batch(prop, stimuli)
            want = scalar.check_batch(prop, stimuli)
            assert [(v.failed, v.cycle) for v in got] == \
                [(v.failed, v.cycle) for v in want]

    def test_explicit_oracle_matches_scalar_on_fifo(self):
        d = build_fifo(FifoParams(addr_width=2, data_width=2))
        rng = random.Random(2)
        stim = Stimulus(inputs=random_inputs(d, rng, 8))
        explicit = ExplicitOracle(d)
        scalar = SimulatorOracle(d)
        for prop in d.properties:
            got = explicit.check(prop, stim)
            want = scalar.check(prop, stim)
            assert (got.failed, got.cycle) == (want.failed, want.cycle), prop

    def test_stimulus_dict_roundtrip(self):
        s = Stimulus(inputs=[{"a": 1}, {"a": 0}], init_latches={"l": 3},
                     init_memories={"m": {0: 1, 3: 2}})
        s2 = Stimulus.from_dict(s.to_dict())
        assert s2.inputs == s.inputs
        assert s2.init_latches == s.init_latches
        assert s2.init_memories == s.init_memories


class TestRandomizedParity:
    """The satellite regression: scalar-vs-vector bit-exactness pinned
    with both seeded sweeps and hypothesis-driven stimulus."""

    @pytest.mark.parametrize("seed", range(8))
    def test_seeded_netlists(self, seed):
        design, _prop = random_netlist(seed)
        rng = random.Random(100 + seed)
        stimuli = [Stimulus(
            inputs=random_inputs(design, rng, 6),
            init_memories={m.name: {a: rng.randrange(1 << m.data_width)
                                    for a in range(rng.randrange(3))}
                           for m in design.memories.values()
                           if m.init is None})
            for _ in range(24)]
        traces = VectorOracle(design).replay_batch(stimuli)
        scalar = SimulatorOracle(design)
        for s, got in zip(stimuli, traces):
            ref = scalar.replay(s)
            assert got.cycles == ref.cycles
            assert got.init_latches == ref.init_latches
            assert got.init_memories == ref.init_memories

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_hypothesis_stimulus(self, data):
        d = memory_design()
        cycles = data.draw(st.integers(1, 6))
        inputs = [
            {n: data.draw(st.integers(0, (1 << i.width) - 1), label=f"{n}@{k}")
             for n, i in d.inputs.items()}
            for k in range(cycles)]
        init_l = {"noise": data.draw(st.integers(0, 7))}
        init_m = {"m": {a: data.draw(st.integers(0, 7))
                        for a in data.draw(st.sets(st.integers(0, 3)))}}
        stim = Stimulus(inputs=inputs, init_latches=init_l,
                        init_memories=init_m)
        got = VectorOracle(d).replay(stim)
        ref = SimulatorOracle(d).replay(stim)
        assert got.cycles == ref.cycles


class TestThroughput:
    """The vector oracle's reason to exist: at batch 256, ``check_batch``
    (verdicts only, the fuzz farm's and the batched shrinker's hot path)
    must deliver at least 10x the scalar interpreter's trials/s."""

    WORKLOADS = {"fifo": lambda: build_fifo(FifoParams(addr_width=3,
                                                       data_width=4)),
                 "fuzz-netlist": lambda: build_fuzz_netlist(3)}

    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    def test_check_batch_at_least_10x_scalar(self, workload):
        design = self.WORKLOADS[workload]()
        prop = sorted(design.properties)[0]
        rng = random.Random(7)
        stimuli = [random_stimulus(design, rng, 16) for _ in range(256)]
        # The scalar rate extrapolates from 32 interpreted lanes.
        sample = stimuli[:32]
        scalar, vector = SimulatorOracle(design), VectorOracle(design)
        vector.replay_batch(stimuli[:2])  # compile the plan outside the timing
        t0 = time.perf_counter()
        want = scalar.check_batch(prop, sample)
        t1 = time.perf_counter()
        got = vector.check_batch(prop, stimuli)
        t2 = time.perf_counter()
        assert [(v.failed, v.cycle) for v in got[:32]] == \
            [(v.failed, v.cycle) for v in want]
        for ref, lane in zip(scalar.replay_batch(sample),
                             vector.replay_batch(stimuli)):
            assert ref.cycles == lane.cycles
        speedup = (len(stimuli) / (t2 - t1)) / (len(sample) / (t1 - t0))
        assert speedup >= 10.0, f"vector check_batch only {speedup:.1f}x"
