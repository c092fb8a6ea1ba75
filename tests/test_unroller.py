"""Unroller: time-frame expansion must match the simulator cycle-for-cycle."""

import random

import pytest

from repro.aig import Aig, CnfEmitter
from repro.aig.eval import evaluate_word
from repro.bmc.unroller import Unroller
from repro.design import Design
from repro.sat import Solver
from repro.sim import Simulator


def random_latch_design(rng, n_latches=3, n_inputs=2, width=4):
    d = Design("rl")
    inputs = [d.input(f"i{k}", width) for k in range(n_inputs)]
    latches = [d.latch(f"l{k}", width, init=rng.randrange(1 << width))
               for k in range(n_latches)]
    pool = inputs + [lt.expr for lt in latches]

    def rand_expr(depth=0):
        if depth > 2 or rng.random() < 0.3:
            return rng.choice(pool)
        op = rng.choice(["add", "sub", "and", "or", "xor", "mux", "not"])
        a = rand_expr(depth + 1)
        if op == "not":
            return ~a
        b = rand_expr(depth + 1)
        if op == "add":
            return a + b
        if op == "sub":
            return a - b
        if op == "and":
            return a & b
        if op == "or":
            return a | b
        if op == "xor":
            return a ^ b
        return a.eq(b).ite(a, b)

    for latch in latches:
        latch.next = rand_expr()
    probe = rand_expr()
    d.invariant("p", probe.eq(0))
    return d, latches, probe


@pytest.mark.parametrize("seed", range(8))
def test_unrolled_frames_match_simulator(seed):
    rng = random.Random(seed)
    d, latches, probe = random_latch_design(rng)
    solver = Solver(proof=False)
    emitter = CnfEmitter(Aig(), solver)
    un = Unroller(d, emitter)
    depth = 6
    for __ in range(depth + 1):
        un.add_frame()

    # Drive the AIG inputs with a random stimulus and compare every
    # latch word and the probe against the simulator, frame by frame.
    stimulus = [{name: rng.randrange(1 << d.inputs[name].width)
                 for name in d.inputs} for __ in range(depth + 1)]
    env = {}
    for k, vec in enumerate(stimulus):
        for name, value in vec.items():
            for i, bit in enumerate(un.input_word(name, k)):
                env[bit] = bool((value >> i) & 1)
    # Frame-0 latch values = declared inits.
    aig = un.aig
    for latch in latches:
        for i, bit in enumerate(un.latch_word(latch.name, 0)):
            env[bit] = bool((latch.init >> i) & 1)
    # Later frames: latch word k+1 must evaluate the frame-k next cone;
    # wire the frame-k+1 latch input bits to those evaluated values.
    sim = Simulator(d)
    for k in range(depth + 1):
        sim.begin_cycle(stimulus[k])
        for latch in latches:
            word = un.latch_word(latch.name, k)
            assert evaluate_word(aig, env, word) == sim.latches[latch.name]
        assert evaluate_word(aig, env, un.word(probe, k)) == sim.eval(probe)
        if k < depth:
            for latch in latches:
                nxt = un.word(latch.next, k)
                value = evaluate_word(aig, env, nxt)
                for i, bit in enumerate(un.latch_word(latch.name, k + 1)):
                    env[bit] = bool((value >> i) & 1)
        sim.commit_cycle()


def test_link_clauses_enforce_transitions():
    d = Design("t")
    c = d.latch("c", 3, init=5)
    c.next = c.expr + 1
    d.invariant("p", c.expr.ule(7))
    solver = Solver(proof=False)
    emitter = CnfEmitter(Aig(), solver)
    un = Unroller(d, emitter)
    un.add_frame()
    un.add_frame()
    un.add_frame()
    # Force frame-0 value via units, then frame-2 must be init+2.
    for i, bit in enumerate(un.latch_word("c", 0)):
        lit = emitter.sat_lit(bit)
        solver.add_clause([lit if (5 >> i) & 1 else -lit])
    assert solver.solve().sat
    val = 0
    for i, bit in enumerate(un.latch_word("c", 2)):
        if solver.model_value(emitter.sat_lit(bit)):
            val |= 1 << i
    assert val == 7


def test_freed_latches_have_no_link_clauses():
    d = Design("t")
    a = d.latch("a", 2, init=0)
    b = d.latch("b", 2, init=0)
    a.next = a.expr + 1
    b.next = b.expr + 1
    d.invariant("p", a.expr.ule(3))
    solver = Solver(proof=False)
    emitter = CnfEmitter(Aig(), solver)
    un = Unroller(d, emitter, kept_latches=frozenset({"a"}))
    un.add_frame()
    un.add_frame()
    # b@1 is a pseudo-primary input: both 0 and 3 must be satisfiable.
    b1 = [emitter.sat_lit(bit) for bit in un.latch_word("b", 1)]
    assert solver.solve([b1[0], b1[1]]).sat
    assert solver.solve([-b1[0], -b1[1]]).sat
    # a@1 is linked: force a@0 = 0, then a@1 == 1 is forced.
    a0 = [emitter.sat_lit(bit) for bit in un.latch_word("a", 0)]
    a1 = [emitter.sat_lit(bit) for bit in un.latch_word("a", 1)]
    assert not solver.solve([-a0[0], -a0[1], -a1[0]]).sat
    assert solver.solve([-a0[0], -a0[1], a1[0], -a1[1]]).sat


def test_frames_must_be_added_in_order():
    d = Design("t")
    c = d.latch("c", 2, init=0)
    c.next = c.expr
    d.invariant("p", c.expr.eq(0))
    solver = Solver(proof=False)
    emitter = CnfEmitter(Aig(), solver)
    un = Unroller(d, emitter)
    assert un.add_frame() == 0
    assert un.add_frame() == 1
    assert un.frames == 2
