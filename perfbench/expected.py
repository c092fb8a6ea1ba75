"""Hand-written expected verdicts, and the check that counts errors.

Every entry of :data:`EXPECTED` was cross-checked once against an oracle
that does not use EMM; ``oracle`` names which one confirmed it
(``python3 perfbench/oracles.py`` repeats the cross-check).  The
independent oracle is the explicit engine: ``expand_memories`` turns each
memory into word latches and plain BMC runs without EMM constraints.
``bdd_model_check`` was tried on every design and exceeded its
500k-node limit before the first image, so it confirms nothing here.

A verdict is an error when its (status, depth, method) differs from the
table, when a counterexample's simulator replay is not ``True``, when it
ended ``timeout``/``degraded``/``failed``, or when an expected property
is missing or an unexpected one appears.  PBA entries also pin the
abstraction (stable depth, latch-reason count, kept bits, kept memories);
unsat cores are encoding-specific, so no independent oracle confirms
those fields and their ``oracle`` says so.
"""

from __future__ import annotations

EXPLICIT = "explicit engine (expand_memories + BMC without EMM)"

_SOC = ["alarm_mode_%d" % i for i in range(8)] + ["we_or_wd_zero"]

EXPECTED = {
    "fifo_integrity": {
        "data_integrity": {
            "status": "bounded", "depth": 11, "method": None,
            "oracle": EXPLICIT + ": no CEX up to depth 11"},
    },
    "soc_falsify": {
        name: {"status": "bounded", "depth": 40, "method": None,
               "oracle": EXPLICIT + ": no CEX up to depth 40"}
        for name in _SOC
    },
    "quicksort_pba": {
        "P2": {
            "status": "bounded", "depth": 20, "method": None,
            "oracle": EXPLICIT + " on the concrete design: no CEX up to "
                      "depth 20; abstraction fields are self-consistency "
                      "only",
            "pba": {"stable": True, "stable_depth": 6, "latch_reasons": 12,
                    "kept_latch_bits": 39, "orig_latch_bits": 62,
                    "kept_memories": ["arr", "stack"]},
        },
    },
    "cpu_service": {
        "halts": {
            "status": "cex", "depth": 12, "method": None,
            "trace_validated": True,
            "oracle": EXPLICIT + ": CEX at depth 12, replay validated"},
        "halted_acc_one": {
            "status": "proof", "depth": 13, "method": "forward",
            "oracle": EXPLICIT + ": forward-induction proof at depth 13"},
        "pc_in_bounds": {
            "status": "proof", "depth": 13, "method": "forward",
            "oracle": EXPLICIT + ": forward-induction proof at depth 13"},
    },
}

#: Verdicts of the ``tiny=True`` smoke variants (no oracle needed: every
#: depth is below the first counterexample and the first proof).
TINY = {
    "fifo_integrity": {"data_integrity": {"status": "bounded", "depth": 3,
                                          "method": None}},
    "soc_falsify": {name: {"status": "bounded", "depth": 3, "method": None}
                    for name in _SOC},
    "quicksort_pba": {"P2": {"status": "bounded", "depth": 4,
                             "method": None}},
    "cpu_service": {name: {"status": "bounded", "depth": 5, "method": None}
                    for name in ("halted_acc_one", "halts", "pc_in_bounds")},
}

_BAD_STATUSES = ("timeout", "degraded", "failed")


def check(verdicts: list[dict], expected: dict) -> list[str]:
    """Return one message per verdict error (empty when all match)."""
    errors = []
    seen = {v["property"]: v for v in verdicts}
    for name in sorted(set(seen) - set(expected)):
        errors.append(f"{name}: unexpected property")
    for name, want in sorted(expected.items()):
        got = seen.get(name)
        if got is None:
            errors.append(f"{name}: no verdict")
            continue
        if got["status"] in _BAD_STATUSES:
            errors.append(f"{name}: ended {got['status']}")
        elif (got["status"], got["depth"], got["method"]) != \
                (want["status"], want["depth"], want["method"]):
            errors.append(f"{name}: got {got['status']}@{got['depth']} "
                          f"({got['method']}), expected {want['status']}@"
                          f"{want['depth']} ({want['method']})")
        if got["status"] == "cex" and got["trace_validated"] is not True:
            errors.append(f"{name}: CEX replay gave "
                          f"{got['trace_validated']!r}")
        if "pba" in want and got.get("pba") != want["pba"]:
            errors.append(f"{name}: abstraction {got.get('pba')}, "
                          f"expected {want['pba']}")
    return errors
