"""The compiled solver kernel: it is built where it can be, and it keeps
Python's reference counts straight.

The search itself is checked elsewhere: the encoding pins, the layout,
kept-trail and solver-fast tests run with the kernel and again with the
pure-Python loops.
"""

import gc
import importlib.machinery
import os
import random
import shutil
import sysconfig
import tracemalloc
import weakref

import pytest

import repro.sat.solver as solver_mod
from repro.bmc import BmcOptions, EncodingSession, verify_many
from repro.casestudies import CpuParams, build_cpu, memcpy_program
from repro.sat import Solver
from tests.test_kept_trail import _run_session


def test_kernel_is_built_where_a_toolchain_exists():
    """Where gcc and ``Python.h`` exist the kernel must load, so a broken
    build cannot leave the suite testing only the fallback."""
    header = os.path.join(sysconfig.get_paths()["include"], "Python.h")
    if shutil.which("gcc") is None or not os.path.exists(header):
        pytest.skip("no gcc or Python.h: the pure-Python loops run")
    assert solver_mod._kernel is not None, solver_mod._kernel_error


def test_stale_builds_are_pruned(tmp_path):
    """A fresh build removes the builds of older sources for the same
    interpreter, and leaves other interpreters' builds and another
    process's unfinished temp file alone."""
    if solver_mod._kernel is None:
        pytest.skip(f"no compiled solver kernel: {solver_mod._kernel_error}")
    shutil.copy(os.path.join(os.path.dirname(solver_mod.__file__),
                             "_kernel.c"), tmp_path)
    cache = tmp_path / "__pycache__"
    cache.mkdir()
    suffix = importlib.machinery.EXTENSION_SUFFIXES[0]
    stale = cache / f"_kernel_000000000000{suffix}"
    other_python = cache / "_kernel_000000000000.cpython-399-other.so"
    in_flight = cache / f"_kernel_111111111111{suffix}.4242.tmp"
    for f in (stale, other_python, in_flight):
        f.write_bytes(b"not a shared object")
    module, error = solver_mod._load_kernel(str(tmp_path))
    assert module is not None, error
    assert not stale.exists()
    assert other_python.exists() and in_flight.exists()
    builds = [f.name for f in cache.iterdir() if f.name.endswith(suffix)]
    assert builds == [os.path.basename(module.__file__)]


def _cpu_memcpy_session(pba):
    """The cpu memcpy session of the encoding pins: kept-trail conflicts
    and order-heap re-inserts; with ``pba`` the solver logs proofs, so
    conflict analysis collects the antecedents and level-0 unit chains
    of every learned clause."""
    params = CpuParams(pc_width=5, addr_width=3, data_width=4)
    design = build_cpu(memcpy_program(2, src=0, dst=4, params=params), params)
    opts = BmcOptions(max_depth=20, pba=pba)
    session = EncodingSession(design, opts)
    verify_many(design, options=opts, session=session)
    assert session.solver.stats.conflicts > 0
    assert bool(session.solver._derivations) == pba
    return session.solver


def _level0_chain_session():
    """Conflict analysis over level-0 unit chains, with proof logging.

    Random 3-SAT clauses each carry one more literal, the negation of a
    link of an implication chain 301 -> 302 -> ... -> 420.  The unit that
    starts the chain comes last, so the stored clauses keep those
    literals, now false at level 0, and every conflict through them
    collects the link's unit chain (the BMC sessions above never do).
    """
    rng = random.Random(3)
    s = Solver(proof=True)
    for _ in range(420):
        s.new_var()
    for v in range(301, 420):
        s.add_clause([-v, v + 1])
    for _ in range(516):
        lits = [v if rng.random() < 0.5 else -v
                for v in rng.sample(range(1, 121), 3)]
        s.add_clause(lits + [-rng.randrange(301, 421)])
    s.add_clause([301])
    s.solve()
    assert len(s._l0_memo) > 50


def test_kernel_leaks_no_references():
    """Three rounds of sessions on fresh solvers, without and with proof
    logging, hold no more traced memory after the third round than after
    the first.  A reference the kernel forgets to drop leaks megabytes
    per round here."""
    if solver_mod._kernel is None:
        pytest.skip(f"no compiled solver kernel: {solver_mod._kernel_error}")
    tracemalloc.start()
    try:
        traced = []
        for _ in range(3):
            _cpu_memcpy_session(pba=False)
            _cpu_memcpy_session(pba=True)
            _level0_chain_session()
            gc.collect()
            traced.append(tracemalloc.get_traced_memory()[0])
    finally:
        tracemalloc.stop()
    assert traced[2] <= traced[0] + 16 * 1024, traced


def _check_untracked(s):
    """The solver's storage is out of the cycle collector and holds
    nothing but ints: the outer lists, the literal objects, the label
    run starts, every clause, and every watch list and binary-watch list
    created so far (a slot with no watch yet holds None).  The label
    values hold the caller's objects and stay tracked."""
    gc.collect()
    outer = (s._vals, s._levels, s._reasons, s._activity, s._saved_phase,
             s._watches, s._bin_watches, s._clauses, s._trail, s._trail_lim,
             s._assump_levels, s._heap, s._heap_pos, s._lit_objs,
             s._label_starts)
    assert not any(gc.is_tracked(lst) for lst in outer)
    assert gc.is_tracked(s._label_vals)
    ints = (s._vals, s._levels, s._reasons, s._saved_phase, s._trail,
            s._trail_lim, s._assump_levels, s._heap, s._heap_pos,
            s._lit_objs, s._label_starts)
    assert all(type(x) is int for lst in ints for x in lst)
    assert all(type(a) is float for a in s._activity)
    created = [wl for wl in (*s._watches, *s._bin_watches) if wl is not None]
    assert created
    for lists in (created, [c for c in s._clauses if c is not None]):
        assert all(type(lst) is list for lst in lists)
        assert not any(gc.is_tracked(lst) for lst in lists)
        assert all(type(x) is int for lst in lists for x in lst)


def test_solver_storage_is_untracked():
    """With the kernel loaded, the cpu memcpy sessions (with and without
    proof logging) and kept-trail sessions, whose clauses take the Python
    intake body and ``_place_under_trail``, leave all solver storage
    untracked; ``_label_vals`` holds caller objects and stays tracked."""
    if solver_mod._kernel is None:
        pytest.skip(f"no compiled solver kernel: {solver_mod._kernel_error}")
    for pba in (False, True):
        s = _cpu_memcpy_session(pba)
        _check_untracked(s)
        # A label that holds a tracked object keeps ``_label_vals``
        # tracked.
        s.add_clause([s.new_var(), s.new_var()], ("tag", _Tag()))
        assert gc.is_tracked(s._label_vals)
    solvers = []
    for seed in range(12):
        for proof in (False, True):
            _run_session(seed, proof, instrument=solvers.append)
    assert sum(s.stats.learned for s in solvers) > 0
    for s in solvers:
        _check_untracked(s)


class _Tag:
    """A weakly referenceable clause label."""


def test_solver_in_a_reference_cycle_is_reclaimed(solver_mode):
    """A solver reachable only through a cycle — here through the label
    of one of its own clauses — is freed by ``gc.collect()``."""
    s = Solver(proof=False)
    for _ in range(6):
        s.new_var()
    tag = _Tag()
    tag.solver = s
    s.add_clause([1, 2, 3], label=tag)
    s.add_clause([-1, 4])
    s.add_clause([-4, -2])
    assert s.solve([1]).sat
    refs = (weakref.ref(s), weakref.ref(tag))
    del s, tag
    gc.collect()
    assert all(ref() is None for ref in refs)
