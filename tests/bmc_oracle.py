"""Independent oracles for BMC verdicts on designs with memories.

Nothing here runs an EMM encoder: the explicit model expands every
memory into registers (:func:`repro.design.expand_memories`) and is
checked by plain BMC falsification, the BDD engine computes exact
reachability on that model, and counterexample traces are replayed on
the scalar simulator through :func:`repro.sim.default_oracle`.  The EMM
encodings are checked against these instead of against copies of their
own earlier code paths.
"""

from repro.bdd import bdd_model_check
from repro.bmc import BmcOptions, verify
from repro.design import expand_memories
from repro.sim import Stimulus, default_oracle


def explicit_falsify(design, prop, depth):
    """Bounded falsification of the memory-expanded model up to ``depth``."""
    return verify(expand_memories(design), prop,
                  BmcOptions(find_proof=False, use_emm=False,
                             max_depth=depth))


def verdict_of(result):
    """The ``(status, cex_depth)`` verdict of a bounded falsification run."""
    assert result.status in ("cex", "bounded"), result.status
    return result.status, result.depth if result.status == "cex" else None


def bdd_verdict(design, prop):
    """Exact ``(status, cex_depth)`` of the memory-expanded model.

    Asserts that the BDD engine finishes, so a test relying on it cannot
    lose its oracle silently.
    """
    b = bdd_model_check(expand_memories(design), prop)
    assert b.status in ("proof", "cex"), (prop, b.status)
    return b.status, b.cex_depth


def assert_verdict(result, oracle, ctx=None, design=None, prop=None):
    """``result`` agrees with the independent verdict ``oracle``.

    ``oracle`` is ``(status, cex_depth)``: ``("cex", k)`` when the
    shortest counterexample has depth ``k``, ``("proof", None)`` when
    none exists at any depth (BDD reachability), and ``("bounded",
    None)`` when none exists up to a horizon covering every depth the
    run checked (explicit-memory falsification).

    * A counterexample must have exactly the oracle's depth; its trace
      must validate and, with ``design``/``prop`` given, replay on the
      simulator failing at that depth.
    * A BOUNDED run must not have missed a counterexample within its
      depth.
    * A PROOF is rejected whenever the oracle knows a counterexample,
      except a forward-termination PROOF past its checked depths:
      forward termination judges loop-freedom over the latch state
      only and can claim PROOF too early, a known bug pinned by
      ``tests/test_diameter_induction.py::
      test_forward_termination_sees_memory_contents``.  Backward
      induction PROOFs are always checked.
    """
    status, cex_depth = oracle
    ctx = (ctx, result.status, result.depth, oracle)
    if result.status == "cex":
        assert (status, cex_depth) == ("cex", result.depth), ctx
        assert result.trace_validated is True, ctx
        assert len(result.trace.cycles) == result.depth + 1, ctx
        if design is not None:
            v = default_oracle(design).check(prop,
                                             Stimulus.from_trace(result.trace))
            assert v.failed and v.cycle == result.depth, (ctx, v)
    elif result.status == "bounded":
        assert status != "cex" or cex_depth > result.depth, ctx
    else:
        assert result.status == "proof", ctx
        if result.method == "forward" and status == "cex":
            # BMC-3 falsified depths 0..d-1 before claiming PROOF at d.
            assert cex_depth >= result.depth, ctx
        else:
            assert status != "cex", ctx


def assert_matches_oracle(result, design, prop, ctx=None, bdd=False):
    """An EMM run agrees with explicit-memory falsification over the
    depths it checked and, with ``bdd=True``, with exact BDD
    reachability (which also checks a PROOF's induction claim).
    """
    # BMC-3 tries the termination checks before falsification at each
    # depth, so a PROOF at depth d falsified depths 0..d-1 only.
    depth = result.depth - 1 if result.status == "proof" else result.depth
    if depth >= 0:
        explicit = explicit_falsify(design, prop, depth)
        assert_verdict(result, verdict_of(explicit), ctx, design, prop)
    if bdd:
        assert_verdict(result, bdd_verdict(design, prop), ctx)

