"""Shared infrastructure for the reproduction benchmarks.

Every benchmark registers rows into a session-global report; the conftest
prints the paper-vs-measured tables after pytest-benchmark's own summary.

Scaling: the paper ran AW=10..12 memories on a 2.8 GHz Xeon with 3-hour
timeouts.  The pure-Python stack runs the same algorithms at reduced
address/data widths by default; set ``EMM_BENCH_SCALE=full`` for larger
configurations (expect long runtimes, faithfully to the paper's own
multi-hour numbers).
"""

from __future__ import annotations

import os
from collections import defaultdict

#: quick = CI-friendly minutes; full = closer to paper scale (much slower).
SCALE = os.environ.get("EMM_BENCH_SCALE", "quick")

#: Per-run wall-clock budget (seconds) standing in for the paper's 3 hours.
EXPLICIT_TIMEOUT_S = float(os.environ.get("EMM_BENCH_TIMEOUT", "60"))

_REPORTS: dict[str, list[list[str]]] = defaultdict(list)
_HEADERS: dict[str, list[str]] = {}
_NOTES: dict[str, str] = {}


def is_full() -> bool:
    return SCALE == "full"


def table(name: str, headers: list[str], note: str = "") -> None:
    """Declare a report table (idempotent)."""
    _HEADERS[name] = headers
    if note:
        _NOTES[name] = note


def add_row(name: str, *cells) -> None:
    _REPORTS[name].append([str(c) for c in cells])


def fmt_time(result) -> str:
    if result.status == "timeout":
        return f">{EXPLICIT_TIMEOUT_S:.0f}s (timeout)"
    return f"{result.stats.wall_time_s:.1f}s"


def fmt_mem(result) -> str:
    if result.status == "timeout":
        return "-"
    return f"{result.stats.sat_clauses}"


def fmt_dedup(result) -> str:
    """Comparator-dedup savings of a BMC run, as "<hits>h/<folds>f".

    ``hits`` counts EMM address comparisons answered from the comparator
    cache; ``folds`` counts comparisons that collapsed to a constant
    without emitting any clauses (see repro.emm.addrcmp).  Both are zero
    when the workload never repeats an address cone.
    """
    if result.status == "timeout":
        return "-"
    s = result.stats
    return f"{s.emm_addr_eq_cache_hits}h/{s.emm_addr_eq_folded}f"


def render_all() -> str:
    out = []
    for name, headers in _HEADERS.items():
        rows = _REPORTS.get(name, [])
        if not rows:
            continue
        widths = [len(h) for h in headers]
        for row in rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        line = "  ".join(h.ljust(w) for h, w in zip(headers, widths))
        sep = "-" * len(line)
        out.append("")
        out.append(f"== {name} ==")
        if name in _NOTES:
            out.append(_NOTES[name])
        out.append(line)
        out.append(sep)
        for row in rows:
            out.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(out)
