"""The compiled solver kernel: it is built where it can be, and it keeps
Python's reference counts straight.

The search itself is checked elsewhere: the encoding pins, the layout,
kept-trail and solver-fast tests run with the kernel and again with the
pure-Python loops.
"""

import gc
import os
import shutil
import sysconfig
import tracemalloc

import pytest

import repro.sat.solver as solver_mod
from repro.bmc import BmcOptions, EncodingSession, verify_many
from repro.casestudies import CpuParams, build_cpu, memcpy_program


def test_kernel_is_built_where_a_toolchain_exists():
    """Where gcc and ``Python.h`` exist the kernel must load, so a broken
    build cannot leave the suite testing only the fallback."""
    header = os.path.join(sysconfig.get_paths()["include"], "Python.h")
    if shutil.which("gcc") is None or not os.path.exists(header):
        pytest.skip("no gcc or Python.h: the pure-Python loops run")
    assert solver_mod._kernel is not None, solver_mod._kernel_error


def _cpu_memcpy_session():
    """The cpu memcpy session of the encoding pins: kept-trail conflicts
    and order-heap re-inserts."""
    params = CpuParams(pc_width=5, addr_width=3, data_width=4)
    design = build_cpu(memcpy_program(2, src=0, dst=4, params=params), params)
    opts = BmcOptions(max_depth=20)
    session = EncodingSession(design, opts)
    verify_many(design, options=opts, session=session)
    assert session.solver.stats.conflicts > 0


def test_kernel_leaks_no_references():
    """Three sessions on fresh solvers hold no more traced memory after
    the third than after the first.  A reference the kernel forgets to
    drop leaks megabytes per run here."""
    if solver_mod._kernel is None:
        pytest.skip(f"no compiled solver kernel: {solver_mod._kernel_error}")
    tracemalloc.start()
    try:
        traced = []
        for _ in range(3):
            _cpu_memcpy_session()
            gc.collect()
            traced.append(tracemalloc.get_traced_memory()[0])
    finally:
        tracemalloc.stop()
    assert traced[2] <= traced[0] + 16 * 1024, traced
