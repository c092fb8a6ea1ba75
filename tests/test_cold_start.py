"""Cold start: importing and running the BMC path loads no optional layer.

``import repro`` and a BMC run need neither numpy (only the vector
simulator and its consumers use it) nor the Verilog parser (only the
parse/roundtrip flows do), and a plain CLI ``verify`` needs no
``subprocess`` (only a solver-kernel build runs gcc).  Each of these
loads on first use instead.  The checks run in fresh interpreters,
because this process has long since imported everything.

The numpy-free install is covered the same way: a child hides numpy
behind a meta-path finder and drives every consumer's fallback.

Nor does the verification path load OpenSSL: the two digests it needs
(the kernel's source hash and ``Design.fingerprint``) come from
CPython's built-in SHA modules through :mod:`repro.utils.digest`, so
``_hashlib`` (which maps libcrypto) stays out of the service's process
and its pooled workers.
"""

import json
import os
import subprocess
import sys
import textwrap

import pytest

import repro
import repro.design
import repro.sat.solver  # noqa: F401 - builds the kernel here, not in a child

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

LAZY = ("numpy", "repro.design.verilog_parser")


def run_child(code: str, script=None) -> dict:
    """Run ``code`` in a fresh interpreter; its last stdout line is JSON.

    With ``script`` (a path) the code is written there and run as a
    file, so that pooled workers can import what it defines."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    code = textwrap.dedent(code)
    argv = ["-c", code]
    if script is not None:
        with open(script, "w") as f:
            f.write(code)
        argv = [str(script)]
    proc = subprocess.run([sys.executable, *argv],
                          env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_bmc_run_loads_neither_numpy_nor_the_verilog_parser():
    # The imports are the benchmark harness's set-up (perfbench/rep.py).
    got = run_child("""
        import json, sys
        import repro, repro.bmc, repro.casestudies, repro.pba.abstraction
        import repro.service
        from repro.bmc import BmcOptions, verify, verify_many
        from repro.casestudies.fifo import FifoParams, build_fifo

        design = build_fifo(FifoParams(addr_width=2, data_width=2))
        cex = verify(design, "can_fill", BmcOptions(max_depth=6))
        many = verify_many(design, options=BmcOptions(max_depth=3))
        print(json.dumps({
            "status": cex.status, "validated": cex.trace_validated,
            "many": sorted(many),
            "loaded": [m for m in %r if m in sys.modules]}))
    """ % (LAZY,))
    assert got["status"] == "cex" and got["validated"]
    assert "empty_full_exclusive" in got["many"]
    assert got["loaded"] == []


def test_cli_verify_loads_no_optional_module():
    got = run_child("""
        import contextlib, io, json, sys
        from repro.cli import main

        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = main(["verify", "fifo", "--max-depth", "2"])
        print(json.dumps({
            "code": code, "out": out.getvalue(),
            "loaded": [m for m in %r if m in sys.modules]}))
    """ % (LAZY + ("subprocess", "multiprocessing"),))
    assert "data_integrity" in got["out"]
    assert got["code"] in (0, 1)
    assert got["loaded"] == []


def test_cli_list_loads_no_engine_solver_or_case_study():
    """``python -m repro.cli list`` prints the case-study names without
    importing the BMC engine, the solver or any builder; ``import
    repro`` resolves its re-exports on first access."""
    got = run_child("""
        import contextlib, io, json, runpy, sys

        sys.argv = ["repro-emm", "list"]
        with contextlib.redirect_stdout(io.StringIO()) as out:
            try:
                runpy.run_module("repro.cli", run_name="__main__")
            except SystemExit as exc:
                code = exc.code
        print(json.dumps({
            "code": code, "out": out.getvalue().split(),
            "loaded": sorted(m for m in sys.modules
                             if m in ("repro.bmc.engine", "repro.sat.solver")
                             or m.startswith("repro.casestudies"))}))
    """)
    assert got["code"] == 0
    assert "quicksort" in got["out"] and "cpu" in got["out"]
    assert got["loaded"] == []


def test_package_reexports_resolve_lazily():
    from repro.bmc import BmcOptions, verify
    from repro.design import Design

    namespace: dict = {}
    exec("from repro import *", namespace)
    assert namespace["verify"] is repro.verify is verify
    assert namespace["BmcOptions"] is BmcOptions
    assert namespace["Design"] is repro.Design is Design
    with pytest.raises(AttributeError):
        getattr(repro, "no_such_name")


def test_lazy_parser_names_resolve():
    namespace: dict = {}
    exec("from repro.design import *", namespace)
    from repro.design import VerilogError, parse_verilog, verilog_parser

    assert namespace["parse_verilog"] is parse_verilog \
        is verilog_parser.parse_verilog
    assert namespace["VerilogError"] is VerilogError
    with pytest.raises(VerilogError):
        parse_verilog("module broken(")
    with pytest.raises(AttributeError):
        getattr(repro.design, "no_such_name")


def test_vector_simulator_loads_numpy_on_first_use():
    pytest.importorskip("numpy")
    got = run_child("""
        import json, sys
        from repro.casestudies.fifo import FifoParams, build_fifo
        from repro.sim import VectorSimulator

        before = "numpy" in sys.modules
        design = build_fifo(FifoParams(addr_width=2, data_width=2))
        sim = VectorSimulator(design, 4)
        bt = sim.run([{}] * 3)
        print(json.dumps({"before": before, "after": "numpy" in sys.modules,
                          "cycles": len(bt), "lanes": len(bt.lanes())}))
    """)
    assert got == {"before": False, "after": True, "cycles": 3, "lanes": 4}


def test_numpy_free_fallback():
    got = run_child("""
        import json, sys

        class HideNumpy:
            attempts = 0

            def find_spec(self, name, path=None, target=None):
                if name == "numpy" or name.startswith("numpy."):
                    HideNumpy.attempts += 1
                    raise ModuleNotFoundError(f"No module named {name!r}")
                return None

        sys.meta_path.insert(0, HideNumpy())

        from repro.bmc import BmcOptions, verify
        from repro.bmc.shrink import shrink_trace
        from repro.casestudies.fifo import FifoParams, build_fifo
        from repro.sim import (SimulatorOracle, VectorSimulator,
                               default_oracle, have_numpy)

        design = build_fifo(FifoParams(addr_width=2, data_width=2))
        probes = [have_numpy(), have_numpy()]
        scalar = isinstance(default_oracle(design), SimulatorOracle)
        try:
            VectorSimulator(design, 2)
            vector_error = None
        except RuntimeError as exc:
            vector_error = str(exc)
        cex = verify(design, "can_fill", BmcOptions(max_depth=6))
        shrunk = shrink_trace(design, "can_fill", cex.trace)
        print(json.dumps({
            "probes": probes, "attempts": HideNumpy.attempts,
            "scalar": scalar, "vector_error": vector_error,
            "status": cex.status, "validated": cex.trace_validated,
            "shrunk_ok": shrunk.failure_cycle <= cex.depth}))
    """)
    assert got["probes"] == [False, False]
    assert got["attempts"] == 1
    assert got["scalar"]
    assert "requires numpy" in got["vector_error"]
    assert got["status"] == "cex" and got["validated"]
    assert got["shrunk_ok"]


def test_verification_path_loads_no_openssl(tmp_path):
    """A memory design's ``verify``, its fingerprint and a two-worker
    service run leave ``_hashlib`` unloaded, in the parent and in every
    pooled worker: a fault plan checks the worker at the end of each
    job and fails the job if it is loaded."""
    got = run_child("""
        import json, sys
        from functools import partial

        import repro
        from repro.bmc import BmcOptions, verify
        from repro.casestudies.fifo import FifoParams, build_fifo
        from repro.service import FaultPlan, RetryPolicy, VerificationService
        from repro.service.faults import POINT_EXIT


        class NoOpenSsl(FaultPlan):
            def fire(self, point, prop, window, attempt, inline=False):
                if point == POINT_EXIT and "_hashlib" in sys.modules:
                    raise RuntimeError("_hashlib loaded in a worker")


        if __name__ == "__main__":
            factory = partial(build_fifo, FifoParams(addr_width=2, data_width=2))
            design = factory()
            assert design.memories
            cex = verify(design, "can_fill", BmcOptions(max_depth=6))
            fingerprint = design.fingerprint()
            with VerificationService(factory, BmcOptions(max_depth=4), jobs=2,
                                     retry=RetryPolicy(max_retries=0),
                                     fault_plan=NoOpenSsl()) as svc:
                streamed = [(r.status, r.detail) for r in svc.stream()]
            print(json.dumps({
                "status": cex.status, "fingerprint": fingerprint,
                "streamed": streamed,
                "parent": "_hashlib" in sys.modules}))
    """, script=tmp_path / "no_openssl.py")
    assert got["status"] == "cex"
    assert len(got["fingerprint"]) == 64
    statuses = [status for status, _ in got["streamed"]]
    assert statuses.count("failed") == statuses.count("retry") == 0, got
    assert len(statuses) - statuses.count("cancelled") >= 2, got
    assert not got["parent"]


def test_builtin_digests_equal_hashlib(monkeypatch):
    """The built-in digests are ``hashlib``'s values: the loaded kernel
    build is named by the SHA-1 of its source, and a fingerprint does
    not change when ``hashlib`` computes it."""
    import hashlib

    import repro.design.netlist as netlist
    import repro.sat.solver as solver_mod
    from repro.casestudies.multiport_soc import (MultiportSocParams,
                                                 build_multiport_soc)
    from repro.utils import digest

    assert "_hashlib" not in (digest.sha1.__module__, digest.sha256.__module__)
    with open(os.path.join(os.path.dirname(solver_mod.__file__),
                           "_kernel.c"), "rb") as f:
        source = f.read()
    want = hashlib.sha1(source).hexdigest()
    assert digest.sha1(source).hexdigest() == want
    if solver_mod._kernel is not None:
        name = os.path.basename(solver_mod._kernel.__file__)
        assert name.startswith(f"_kernel_{want[:12]}."), name
    design = build_multiport_soc(MultiportSocParams(3, 4))
    fingerprint = design.fingerprint()
    monkeypatch.setattr(netlist, "sha256", hashlib.sha256)
    assert design.fingerprint() == fingerprint
