"""DIMACS CNF reading/writing for interoperability and debugging."""

from __future__ import annotations

from typing import Iterable, Sequence, TextIO


def parse_dimacs(text: str) -> tuple[int, list[list[int]]]:
    """Parse DIMACS CNF text into ``(num_vars, clauses)``.

    Tolerates missing/inconsistent ``p cnf`` headers (the variable count is
    widened to the maximum literal seen) and comment lines anywhere.
    A line starting with ``%`` ends the formula: SATLIB benchmark files
    (``uf*``/``uuf*``) close with a ``%`` line and a stray ``0``.
    """
    num_vars = 0
    clauses: list[list[int]] = []
    current: list[int] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("%"):
            break
        if line.startswith("p"):
            parts = line.split()
            if len(parts) >= 4 and parts[1] == "cnf":
                num_vars = int(parts[2])
            continue
        for tok in line.split():
            lit = int(tok)
            if lit == 0:
                clauses.append(current)
                current = []
            else:
                num_vars = max(num_vars, abs(lit))
                current.append(lit)
    if current:
        clauses.append(current)
    return num_vars, clauses


def write_dimacs(out: TextIO, num_vars: int,
                 clauses: Iterable[Sequence[int]],
                 comments: Iterable[str] = ()) -> None:
    """Write clauses in DIMACS CNF format to a text stream."""
    clause_list = [list(c) for c in clauses]
    for comment in comments:
        out.write(f"c {comment}\n")
    out.write(f"p cnf {num_vars} {len(clause_list)}\n")
    for clause in clause_list:
        out.write(" ".join(str(lt) for lt in clause))
        out.write(" 0\n")
