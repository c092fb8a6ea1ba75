"""Miter construction and (bounded) sequential equivalence checking.

A *miter* runs two designs lock-step on shared primary inputs and
asserts that chosen output expressions stay pairwise equal.  On top of
the EMM engine this gives sequential equivalence checking for designs
*with embedded memories* — each side's memories are modeled by EMM
constraints, never expanded — which is also how the test-suite
cross-validates EMM against the explicit expansion: the miter of a
design and ``expand_memories(design)`` must be unfalsifiable.

Each side is a :class:`repro.design.rewrite.DesignCopy` of its design
with every latch and memory renamed ``a::name`` / ``b::name``; the
primary inputs are declared once, after both sides' state, and shared.

Arbitrary-initial-state memories need care: by default each side's
memory starts with its *own* arbitrary contents, so a miter of two
sorters over uninitialized arrays is trivially falsifiable.  Passing
``share_arbitrary_init=True`` declares same-named arbitrary-init
memories to hold the *same* unknown initial contents, implemented by
extending the paper's equation (6) consistency constraints across the
pair (see ``BmcOptions.shared_init_memories``).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional, Sequence

from repro.design.netlist import Design, Expr
from repro.design.rewrite import DesignCopy

#: Separator used when prefixing per-side state names inside the miter.
SIDE_SEP = "::"


def build_miter(a: Design, b: Design,
                outputs: Sequence[tuple[Expr, Expr]],
                name: Optional[str] = None) -> Design:
    """Product design asserting the paired output expressions stay equal.

    Both designs must declare the same primary inputs (name and width);
    the miter drives each shared input into both sides.  The returned
    design carries one invariant ``equiv`` — the conjunction of the
    pairwise equalities — and per-pair invariants ``equiv_0``,
    ``equiv_1``, … for finer diagnosis.
    """
    a.validate()
    b.validate()
    if {n: i.width for n, i in a.inputs.items()} != \
            {n: i.width for n, i in b.inputs.items()}:
        raise ValueError("designs have different primary inputs; "
                         "a miter needs a shared input interface")
    if not outputs:
        raise ValueError("no output pairs to compare")
    product = Design(name or f"miter({a.name},{b.name})")
    side_a = DesignCopy(a, product, prefix=f"a{SIDE_SEP}")
    side_b = DesignCopy(b, product, prefix=f"b{SIDE_SEP}")
    for inp in a.inputs.values():
        product.input(inp.name, inp.width)
    side_a.finish(properties=False)
    side_b.finish(properties=False)
    checks = []
    for i, (ea, eb) in enumerate(outputs):
        if ea.design is not a or eb.design is not b:
            raise ValueError(f"output pair {i} does not belong to (a, b)")
        if ea.width != eb.width:
            raise ValueError(f"output pair {i} width mismatch "
                             f"({ea.width} vs {eb.width})")
        eq = side_a.rewrite(ea).eq(side_b.rewrite(eb))
        product.invariant(f"equiv_{i}", eq)
        checks.append(eq)
    product.invariant("equiv", product.and_many(checks))
    return product


def shared_init_groups(a: Design, b: Design) -> tuple[frozenset[str], ...]:
    """Pair same-named arbitrary-init memories of the two miter sides."""
    groups = []
    for mem_name, mem in a.memories.items():
        other = b.memories.get(mem_name)
        if other is None or mem.init is not None or other.init is not None:
            continue
        if (mem.addr_width, mem.data_width) != \
                (other.addr_width, other.data_width):
            continue
        groups.append(frozenset({f"a{SIDE_SEP}{mem_name}",
                                 f"b{SIDE_SEP}{mem_name}"}))
    return tuple(groups)


def check_equivalence(a: Design, b: Design,
                      outputs: Sequence[tuple[Expr, Expr]],
                      max_depth: int = 20,
                      share_arbitrary_init: bool = False,
                      find_proof: bool = False,
                      options=None):
    """Bounded (or inductive) equivalence of the paired outputs.

    Returns the :class:`repro.bmc.BmcResult` of checking ``equiv`` on the
    miter: CEX means the designs differ (the trace shows the diverging
    run); BOUNDED means no difference up to ``max_depth``; PROOF (only
    with ``find_proof=True``) means the outputs are equal in all
    reachable states.

    Miters are the headline workload for cross-memory comparator
    sharing (:class:`repro.emm.addrcmp.SharedComparatorTables`): the
    ``a::``/``b::`` memory copies see structurally
    identical address cones, so the session registry answers the second
    copy's comparators from the first copy's cache entries (bench C10).
    """
    from repro.bmc.engine import BmcEngine, BmcOptions

    miter = build_miter(a, b, outputs)
    base = options or BmcOptions()
    opts = replace(base, max_depth=max_depth, find_proof=find_proof,
                   pba=False)
    if share_arbitrary_init:
        opts = replace(opts, shared_init_memories=shared_init_groups(a, b))
    return BmcEngine(miter, "equiv", opts).run()
