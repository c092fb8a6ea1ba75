"""Smoke tests of the benchmark itself (not part of the package's suite).

    python3 -m pytest perfbench/smoke.py -q

Every workload runs end to end at tiny depth with tracing on; the
wrappers must be gone afterwards, a wrong expected verdict must count as
a verdict error, and ``run.py`` must print its result line, compare two
result files, and fail without the package source.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from types import SimpleNamespace

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench import expected, oracles, run  # noqa: E402
from perfbench.rep import run_rep  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

SPEC = run.load_spec()
LAYER_NAMES = {m["name"] for m in SPEC["per_layer"]} - {"trace.overhead_ratio"}


def _patched_attributes() -> dict:
    """Every attribute the tracer replaces, keyed by (owner, name)."""
    import repro.bmc.engine as engine_mod
    import repro.pba.abstraction as pba_mod
    import repro.service.service as service_mod
    from repro.aig.tseitin import CnfEmitter
    from repro.bmc.induction import LoopFreeConstraints
    from repro.bmc.session import EncodingSession
    from repro.bmc.unroller import Unroller
    from repro.emm.forwarding import EmmMemory
    from repro.sat.solver import Solver
    from repro.service.service import VerificationService
    from repro.service.supervisor import PoolSupervisor

    owners = {
        EncodingSession: ("__init__", "extend_to", "p_lits"),
        Unroller: ("add_frame",), LoopFreeConstraints: ("add_frame",),
        EmmMemory: ("add_frame",), CnfEmitter: ("sat_lit",),
        Solver: ("add_clause", "solve", "core_labels",
                 "core_unlabeled_count"),
        pba_mod: ("run_pba_phase",), engine_mod: ("extract_trace",),
        VerificationService: ("stream", "close"), PoolSupervisor: ("run",),
        service_mod: ("_worker_run",),
    }
    return {(owner, name): getattr(owner, name)
            for owner, names in owners.items() for name in names}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_workload_traced_end_to_end(workload):
    from repro.sat.solver import Solver

    before = _patched_attributes()
    original_solve = Solver.solve
    record = run_rep(workload, seed=3, trace=True, tiny=True)
    assert Solver.solve is original_solve
    assert _patched_attributes() == before
    assert record["errors"] == []
    assert record["cnf_clauses_vars"] > 0
    metrics = record["layers"]["metrics"]
    assert set(metrics) == LAYER_NAMES
    assert metrics["solve.n"] > 0 and metrics["encode.s"] > 0
    assert 0.0 < metrics["trace.coverage"] <= 1.0


def test_wrappers_restored_when_workload_raises(monkeypatch):
    before = _patched_attributes()

    def boom(*_args):
        raise RuntimeError("injected")

    wl = WORKLOADS["fifo_integrity"]
    monkeypatch.setitem(WORKLOADS, "fifo_integrity",
                        type(wl)(wl.name, wl.build, boom))
    with pytest.raises(RuntimeError, match="injected"):
        run_rep("fifo_integrity", seed=0, trace=True, tiny=True)
    assert _patched_attributes() == before


def test_wrong_expected_verdict_is_a_verdict_error():
    wrong = {"data_integrity": {"status": "bounded", "depth": 4,
                                "method": None}}
    record = run_rep("fifo_integrity", seed=0, trace=False, tiny=True,
                     expected=wrong)
    assert len(record["errors"]) == 1
    assert "expected bounded@4" in record["errors"][0]


def test_check_flags_unvalidated_cex_and_bad_statuses():
    want = {"p": {"status": "cex", "depth": 2, "method": None},
            "q": {"status": "bounded", "depth": 5, "method": None}}
    got = [{"property": "p", "status": "cex", "depth": 2, "method": None,
            "trace_validated": None},
           {"property": "q", "status": "degraded", "depth": 3,
            "method": None, "trace_validated": None},
           {"property": "r", "status": "proof", "depth": 1,
            "method": "forward", "trace_validated": None}]
    errors = expected.check(got, want)
    assert len(errors) == 3
    assert expected.check(got[:1], {"p": want["p"]}) != []


def test_oracle_proof_needs_same_depth_and_method():
    want = {"status": "proof", "depth": 13, "method": "forward"}

    def got(status, depth, method):
        return SimpleNamespace(status=status, depth=depth, method=method,
                               trace_validated=None)

    assert oracles._agrees(want, got("proof", 13, "forward"))
    assert not oracles._agrees(want, got("proof", 12, "forward"))
    assert not oracles._agrees(want, got("proof", 13, "backward"))


def test_setup_only_repetition_stops_after_build():
    record = run_rep("cpu_service", seed=0, trace=False, setup_only=True)
    assert set(record) == {"workload", "import_s", "build_s", "setup_s"}
    assert record["setup_s"] == record["import_s"] + record["build_s"] > 0


def _run_py(args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py"] + args,
                          cwd=cwd, capture_output=True, text=True,
                          timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
def test_run_py_prints_result_line(trace, tmp_path):
    out = tmp_path / "r.json"
    proc = _run_py(["--workload", "soc_falsify", "--seed", "5",
                    "--seconds", "1", "--trace", str(trace), "--tiny",
                    "--out", str(out)])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    section = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in section}
    assert all(set(v) == {"value", "unit"} for v in result["metrics"].values())
    saved = json.loads(out.read_text())["workloads"]["soc_falsify"]
    assert "per_layer" in saved if trace else "end_to_end" in saved


def test_compare_prints_deltas(tmp_path):
    base = {"reps": 3, "end_to_end": {"verdict_s": 2.0, "setup_s": 0.3},
            "per_layer": {"solve.s": 1.0}}
    change = {"reps": 3, "end_to_end": {"verdict_s": 1.5, "setup_s": 0.3},
              "per_layer": {"solve.s": 0.5}}
    run.save(str(tmp_path / "a.json"), "fifo_integrity", 1, base)
    run.save(str(tmp_path / "b.json"), "fifo_integrity", 1, change)
    proc = _run_py(["--compare", str(tmp_path / "a.json"),
                    str(tmp_path / "b.json")])
    assert proc.returncode == 0, proc.stderr
    assert "fifo_integrity" in proc.stdout
    assert "-25.0%" in proc.stdout and "-50.0%" in proc.stdout


def test_fails_without_package_source(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run_py(["--workload", "soc_falsify", "--seed", "1",
                    "--seconds", "1", "--trace", "0"], cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
