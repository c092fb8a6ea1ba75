"""Truth-table SAT decider: the solver tests' independent oracle.

Bit-parallel over all ``2**num_vars`` assignments at once: each
variable is one Python int whose bit ``k`` is the variable's value under
assignment ``k``, a clause is the OR of its literal columns, and the CNF
is satisfiable when the AND of its clauses has any bit left.  The cost
doubles with every variable, so use it up to about 20 variables and
check larger CNFs by models and proof certificates.
"""

from functools import lru_cache


@lru_cache(maxsize=None)
def _columns(num_vars):
    """Column of every variable (index 0 unused) plus the all-ones mask."""
    n = 1 << num_vars
    cols = [0]
    for v in range(num_vars):
        block = 1 << v
        col = ((1 << block) - 1) << block  # 2**v zeros, then 2**v ones
        width = 2 * block
        while width < n:
            col |= col << width
            width *= 2
        cols.append(col)
    return cols, (1 << n) - 1


def brute_force_sat(num_vars, clauses, extra_units=()):
    """True when ``clauses`` plus the unit ``extra_units`` are satisfiable."""
    cols, full = _columns(num_vars)
    alive = full
    for clause in list(clauses) + [[u] for u in extra_units]:
        sat = 0
        for lit in clause:
            sat |= cols[lit] if lit > 0 else full ^ cols[-lit]
        alive &= sat
        if not alive:
            return False
    return True
