"""Shared fixtures."""

import pytest

import repro.sat.solver as solver_mod


@pytest.fixture(params=["native", "python"])
def solver_mode(request, monkeypatch):
    """Run a test with the compiled solver kernel (``native``) and with
    the pure-Python loops (``python``: ``_kernel`` set to None).  The two
    must search identically, so every pinned counter holds in both."""
    if request.param == "python":
        monkeypatch.setattr(solver_mod, "_kernel", None)
    elif solver_mod._kernel is None:
        pytest.skip(f"no compiled solver kernel: {solver_mod._kernel_error}")
    return request.param
