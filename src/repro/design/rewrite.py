"""Copying a design into a derived design.

:class:`DesignCopy` is the one copier behind the three derived designs:
the explicit-memory expansion (``design/explicit.py``), the two sides of
a miter (``design/equiv.py``) and the memory abstractions of the
Industry Design II flow (``props/invariant_flow.py``). It alone knows
every latch and memory field, so no derived design can drop one.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.design.netlist import Design, Expr, Memory, Property, postorder


class ExprRewriter:
    """Rebuilds expressions of a source design inside a target design.

    Leaves are mapped as follows: constants are re-made; inputs and
    latches are looked up *by name* in the target design (they must have
    been declared already; latch names carry ``prefix``); ``memread``
    leaves are resolved through the ``memread_map`` — populate it before
    rewriting anything that reads memory.
    """

    def __init__(self, source: Design, target: Design,
                 prefix: str = "") -> None:
        self.source = source
        self.target = target
        self.prefix = prefix
        self.memread_map: dict[tuple[str, int], Expr] = {}
        self._cache: dict[int, Expr] = {}

    def rewrite(self, expr: Expr) -> Expr:
        """Rewrite ``expr`` (from the source design) into the target design."""
        cache = self._cache
        got = cache.get(expr._id)
        if got is not None:
            return got
        for e in postorder((expr,), cache):
            cache[e._id] = self._rebuild(e)
        return cache[expr._id]

    def _rebuild(self, e: Expr) -> Expr:
        t = self.target
        if e.kind == "const":
            return t.const(e.payload, e.width)
        if e.kind == "input":
            inp = t.inputs.get(e.payload)
            if inp is None:
                raise KeyError(f"input {e.payload!r} missing in target design")
            return inp.expr
        if e.kind == "latch":
            name = self.prefix + e.payload
            latch = t.latches.get(name)
            if latch is None:
                raise KeyError(f"latch {name!r} missing in target design")
            return latch.expr
        if e.kind == "memread":
            mapped = self.memread_map.get(e.payload)
            if mapped is None:
                raise KeyError(f"memread {e.payload} has no mapping")
            if mapped.width != e.width:
                raise ValueError("memread mapping width mismatch")
            return mapped
        args = tuple(self._cache[a._id] for a in e.args)
        return t._mk(e.kind, e.width, args, e.payload)


class DesignCopy(ExprRewriter):
    """Copies ``source`` into ``target``, in two phases.

    Construction declares ``prefix + name`` for every latch and for
    every memory not in ``replaced``, with their initial values, in the
    source's declaration order; :meth:`finish` wires the logic. Callers
    declare inputs and their own state in between: declaration order is
    ``bdd_model_check``'s variable order.
    """

    def __init__(self, source: Design, target: Design, prefix: str = "",
                 replaced: frozenset[str] = frozenset()) -> None:
        super().__init__(source, target, prefix)
        self.replaced = replaced
        for latch in source.latches.values():
            target.latch(prefix + latch.name, latch.width, latch.init)
        for mem in source.memories.values():
            if mem.name in replaced:
                continue
            copy = target.memory(
                prefix + mem.name, mem.addr_width, mem.data_width,
                mem.num_read_ports, mem.num_write_ports, mem.init,
                mem.init_words)
            for port in mem.read_ports:
                self.memread_map[(mem.name, port.index)] = \
                    copy.read(port.index).data

    def finish(self,
               read_data: Optional[Callable[[Memory, int], Expr]] = None,
               properties: bool = True) -> None:
        """Wire the copied logic; call once the inputs are declared.

        Each read port of a replaced memory reads ``read_data(mem,
        port_index)``, resolved in ``port_evaluation_order`` so a read
        address may use another replaced port's data.
        """
        src, tgt, rw = self.source, self.target, self.rewrite
        for mem_name, index in src.port_evaluation_order():
            if mem_name in self.replaced:
                self.memread_map[(mem_name, index)] = read_data(
                    src.memories[mem_name], index)
        for mem in src.memories.values():
            if mem.name in self.replaced:
                continue
            copy = tgt.memories[self.prefix + mem.name]
            for port in mem.read_ports:
                copy.read(port.index).connect(addr=rw(port.addr),
                                              en=rw(port.en))
            for port in mem.write_ports:
                copy.write(port.index).connect(
                    addr=rw(port.addr), data=rw(port.data), en=rw(port.en))
        for latch in src.latches.values():
            tgt.latches[self.prefix + latch.name].next = rw(latch.next)
        if properties:
            for prop in src.properties.values():
                tgt._add_property(Property(prop.name, prop.kind,
                                           rw(prop.expr)))
