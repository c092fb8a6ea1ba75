"""Clause intake: the compiled ``intake`` and the Python body of
``Solver.add_clause`` leave the same solver behind, call for call.

Seeded random streams of ``add_clause`` and ``solve`` calls drive two
solvers in lockstep: the subject, in the ``solver_mode`` under test, and
a reference on the pure-Python loops.  After every call the return value
(or the exception) and the whole solver state must match.  The streams
mix duplicates, tautologies, literals fixed at level 0 and literals
assigned on a kept assumption trail, units, all-false clauses, tag and
tag-set labels, list, tuple and generator inputs, and out-of-range
literals; ``test_streams_reach_every_intake_branch`` checks that each of
those cases really occurs.
"""

import collections
import random

import pytest

import repro.sat.solver as solver_mod
from repro.sat import Solver
from tests.test_solver_layout import check_layout, search_state

NVARS = 10
SEGMENTS = 3
OPS = 40


def _signed(rng, v):
    return v if rng.random() < 0.5 else -v


def _random_clause(rng, s):
    """Literals drawn so that duplicates, tautologies and assigned
    literals are common."""
    lits = []
    for _ in range(rng.choice((1, 2, 2, 3, 3, 4, 5))):
        r = rng.random()
        if lits and r < 0.15:
            lits.append(rng.choice(lits))
        elif lits and r < 0.25:
            lits.append(-rng.choice(lits))
        elif r < 0.55:
            assigned = [lt >> 1 for lt in s._trail]
            lits.append(_signed(rng, rng.choice(assigned) if assigned
                                else rng.randrange(1, NVARS + 1)))
        else:
            lits.append(_signed(rng, rng.randrange(1, NVARS + 1)))
    if rng.random() < 0.08:
        bad = rng.choice((0, NVARS + 1, -(NVARS + 7)))
        lits.insert(rng.randrange(len(lits) + 1), bad)
    return lits


def _as_input(lits, kind):
    if kind == "tuple":
        return tuple(lits)
    if kind == "generator":
        return (x for x in lits)
    return list(lits)


def _intake_tags(s, lits):
    """The branches of add_clause's one pass that ``lits`` takes, read
    from the solver state the pass will see: add_clause first drops the
    free search levels (every level under proof logging).  Empty when
    that would also leave root units to propagate first."""
    if s.is_broken:
        return set()
    keep = len(s._trail_lim)
    if keep and (s.proof_logging or s._assump_levels[-1] == 0):
        keep = 0 if s.proof_logging else s._assump_levels.index(0)
    if keep == 0:
        bound = s._trail_lim[0] if s._trail_lim else len(s._trail)
        roots = sum(1 for lt in s._trail if s._levels[lt >> 1] == 0)
        if min(s._qhead, bound) < roots:
            return set()

    def value(lt):
        if s._vals[lt] == -1 or s._levels[lt >> 1] > keep:
            return -1
        return s._vals[lt]

    tags = set()
    out, late = [], []
    absorbed = False
    for x in lits:
        if not 1 <= abs(x) <= s.num_vars:
            if absorbed:
                tags.add("bad literal after an absorbing one")
            tags.add("bad literal")
            return tags
        if absorbed:
            continue
        lt = x << 1 if x > 0 else (-x) << 1 | 1
        v = value(lt)
        if v == -1:
            if lt in out:
                tags.add("duplicate")
            elif lt ^ 1 in out:
                tags.add("tautology against the open list")
                absorbed = True
            else:
                out.append(lt)
        elif s._levels[lt >> 1] == 0:
            if v == 1:
                tags.add("true at level 0")
                absorbed = True
            else:
                tags.add("false at level 0"
                         + (" with proof" if s.proof_logging else ""))
        elif v == 1:
            tags.add("on a kept trail")
            if lt in out:
                tags.add("duplicate")
            elif lt ^ 1 in late:
                tags.add("tautology against the late list")
                absorbed = True
            else:
                out.append(lt)
        else:
            tags.add("on a kept trail")
            if lt in late:
                tags.add("duplicate")
            elif lt ^ 1 in out:
                tags.add("tautology against the open list")
                absorbed = True
            else:
                late.append(lt)
    if not absorbed:
        if not out:
            tags.add("all false")
        elif len(out) + len(late) == 1:
            tags.add("unit")
    return tags


class _CountingKernel:
    """The compiled kernel, counting what ``intake`` answered."""

    def __init__(self, kernel, counts):
        self._kernel = kernel
        self._counts = counts

    def __getattr__(self, name):
        return getattr(self._kernel, name)

    def intake(self, ctx, lits, proof):
        cid = self._kernel.intake(ctx, lits, proof)
        self._counts["kernel " + ("deferred" if cid is None else
                                  "absorbed" if cid < 0 else "stored")] += 1
        return cid


def _call(kernel, fn, *args):
    """``fn(*args)`` with the solver's kernel set to ``kernel``; returns
    the result or the exception's type and message."""
    saved = solver_mod._kernel
    solver_mod._kernel = kernel
    try:
        return fn(*args)
    except ValueError as exc:
        return ("ValueError", str(exc))
    finally:
        solver_mod._kernel = saved


def run_stream(seed, proof, counts):
    """Drive a subject solver (the current kernel) and a reference (the
    Python loops) through one seeded stream, comparing after each call;
    ``counts`` tallies the cases the stream covered."""
    kernel = solver_mod._kernel
    if kernel is not None:
        kernel = _CountingKernel(kernel, counts)
    rng = random.Random(seed)
    for _ in range(SEGMENTS):
        subject, reference = Solver(proof=proof), Solver(proof=proof)
        for s in (subject, reference):
            for _ in range(NVARS):
                s.new_var()
        prefix = [_signed(rng, v)
                  for v in rng.sample(range(1, NVARS + 1), 3)]
        for step in range(OPS):
            if rng.random() < 0.25:
                assumps = prefix[:rng.randrange(0, 4)]
                got = _call(kernel, subject.solve, assumps)
                want = _call(None, reference.solve, assumps)
                assert (got.sat, got.failed_assumptions) == (
                    want.sat, want.failed_assumptions), (seed, step)
            else:
                lits = _random_clause(rng, subject)
                kind = rng.choice(("list", "list", "tuple", "generator"))
                label = rng.choice((None, step, frozenset((step, "x"))))
                for tag in _intake_tags(subject, lits):
                    counts[tag] += 1
                counts[kind] += 1
                if isinstance(label, frozenset):
                    counts["frozenset label"] += 1
                got = _call(kernel, subject.add_clause,
                            _as_input(lits, kind), label)
                want = _call(None, reference.add_clause,
                             _as_input(lits, kind), label)
                assert got == want, (seed, step, lits)
            check_layout(subject)
            a, b = search_state(subject), search_state(reference)
            for key in a:
                assert a[key] == b[key], (seed, step, key)
            if subject.is_broken:
                break


@pytest.mark.parametrize("proof", [False, True])
@pytest.mark.parametrize("seed", range(10))
def test_intake_matches_the_python_body(seed, proof, solver_mode):
    run_stream(seed, proof, collections.Counter())


def test_streams_reach_every_intake_branch():
    """The seeds above cover every case the intake distinguishes, and
    the kernel stores, absorbs and defers clauses."""
    counts = collections.Counter()
    for proof in (False, True):
        for seed in range(10):
            run_stream(seed, proof, counts)
    wanted = [
        "duplicate", "tautology against the open list",
        "tautology against the late list", "true at level 0",
        "false at level 0", "false at level 0 with proof",
        "on a kept trail", "unit", "all false", "frozenset label",
        "tuple", "generator", "bad literal after an absorbing one"]
    if solver_mod._kernel is not None:
        wanted += ["kernel stored", "kernel absorbed", "kernel deferred"]
    assert all(counts[w] > 0 for w in wanted), counts
