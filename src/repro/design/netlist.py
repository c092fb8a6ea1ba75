"""Word-level netlist IR: expressions, latches, memories, properties.

Expressions are immutable and hash-consed per design, so structurally
identical sub-expressions are shared; the BMC unroller and the simulator
both exploit this for caching.  Widths are checked at construction time —
a malformed design fails fast, not inside the SAT solver.
"""

from __future__ import annotations

from typing import Container, Iterable, Mapping, Optional, Union

from repro.utils.digest import sha256

ExprLike = Union["Expr", int]

#: Expression kinds with their arities (args are child expressions).
_BINARY_SAME_WIDTH = {"and", "or", "xor", "add", "sub"}
_COMPARE = {"eq", "ult"}


class Expr:
    """A hash-consed word-level expression node.

    Supports Python operators for the common cases (``+ - & | ^ ~``,
    ``expr[i]`` / ``expr[lo:hi]`` bit slicing) and named methods for
    comparisons (``eq``, ``ne``, ``ult`` …) to avoid hijacking ``__eq__``.
    """

    __slots__ = ("design", "kind", "width", "args", "payload", "_id")

    def __init__(self, design: "Design", kind: str, width: int,
                 args: tuple["Expr", ...], payload, _id: int) -> None:
        self.design = design
        self.kind = kind
        self.width = width
        self.args = args
        self.payload = payload
        self._id = _id

    # -- operator sugar -------------------------------------------------

    def _coerce(self, other: ExprLike) -> "Expr":
        return self.design.coerce(other, self.width)

    def __add__(self, other: ExprLike) -> "Expr":
        return self.design._mk("add", self.width, (self, self._coerce(other)))

    def __sub__(self, other: ExprLike) -> "Expr":
        return self.design._mk("sub", self.width, (self, self._coerce(other)))

    def __and__(self, other: ExprLike) -> "Expr":
        return self.design._mk("and", self.width, (self, self._coerce(other)))

    def __or__(self, other: ExprLike) -> "Expr":
        return self.design._mk("or", self.width, (self, self._coerce(other)))

    def __xor__(self, other: ExprLike) -> "Expr":
        return self.design._mk("xor", self.width, (self, self._coerce(other)))

    def __invert__(self) -> "Expr":
        return self.design._mk("not", self.width, (self,))

    def __getitem__(self, key) -> "Expr":
        if isinstance(key, slice):
            lo = key.start or 0
            hi = key.stop if key.stop is not None else self.width
        else:
            lo, hi = key, key + 1
        if not 0 <= lo < hi <= self.width:
            raise IndexError(f"slice [{lo}:{hi}] out of range for width {self.width}")
        return self.design._mk("slice", hi - lo, (self,), (lo, hi))

    # -- comparisons (explicit names; __eq__ stays identity) -----------

    def eq(self, other: ExprLike) -> "Expr":
        return self.design._mk("eq", 1, (self, self._coerce(other)))

    def ne(self, other: ExprLike) -> "Expr":
        return ~self.eq(other)

    def ult(self, other: ExprLike) -> "Expr":
        return self.design._mk("ult", 1, (self, self._coerce(other)))

    def ule(self, other: ExprLike) -> "Expr":
        return ~self._coerce(other).ult(self)

    def ugt(self, other: ExprLike) -> "Expr":
        return self._coerce(other).ult(self)

    def uge(self, other: ExprLike) -> "Expr":
        return ~self.ult(other)

    def is_zero(self) -> "Expr":
        return self.eq(0)

    def nonzero(self) -> "Expr":
        return ~self.eq(0)

    # -- structure ------------------------------------------------------

    def ite(self, then: ExprLike, els: ExprLike) -> "Expr":
        """``self ? then : els``; ``self`` must be 1-bit.

        Bare ints are widened to the other arm's width (at least one arm
        must be an expression).
        """
        if self.width != 1:
            raise ValueError("ite selector must be 1 bit wide")
        d = self.design
        if isinstance(then, Expr):
            t = then
            e = d.coerce(els, t.width)
        elif isinstance(els, Expr):
            e = els
            t = d.coerce(then, e.width)
        else:
            raise ValueError("ite: cannot infer width from two bare ints")
        if t.width != e.width:
            raise ValueError(f"ite arm width mismatch {t.width} vs {e.width}")
        return d._mk("mux", t.width, (self, t, e))

    def zext(self, width: int) -> "Expr":
        if width < self.width:
            raise ValueError("zext target narrower than source")
        if width == self.width:
            return self
        return self.design._mk("zext", width, (self,))

    def concat(self, high: "Expr") -> "Expr":
        """``high`` becomes the upper bits; self stays low."""
        return self.design._mk("concat", self.width + high.width, (self, high))

    def implies(self, other: ExprLike) -> "Expr":
        if self.width != 1:
            raise ValueError("implies operands must be 1 bit wide")
        return ~self | self._coerce(other)

    def __repr__(self) -> str:
        if self.kind == "const":
            return f"<{self.payload}:w{self.width}>"
        if self.kind in ("input", "latch"):
            return f"<{self.kind} {self.payload}:w{self.width}>"
        if self.kind == "memread":
            return f"<rd {self.payload[0]}.r{self.payload[1]}:w{self.width}>"
        return f"<{self.kind}:w{self.width}#{self._id}>"


class Input:
    """A primary input word."""

    def __init__(self, name: str, width: int, expr: Expr) -> None:
        self.name = name
        self.width = width
        self.expr = expr


class Latch:
    """A register word with an initial value and a next-state function.

    ``init=None`` means the initial value is arbitrary (unconstrained),
    which the proof engines treat soundly as a free symbolic word.
    """

    def __init__(self, design: "Design", name: str, width: int,
                 init: Optional[int]) -> None:
        self.design = design
        self.name = name
        self.width = width
        if init is not None:
            init &= (1 << width) - 1
        self.init = init
        self.expr = design._mk("latch", width, (), name)
        self._next: Optional[Expr] = None

    @property
    def next(self) -> Optional[Expr]:
        return self._next

    @next.setter
    def next(self, value: ExprLike) -> None:
        expr = self.design.coerce(value, self.width)
        if expr.width != self.width:
            raise ValueError(
                f"latch {self.name}: next width {expr.width} != {self.width}")
        self._next = expr


class ReadPort:
    """A memory read port: drives Addr/RE, exposes the RD word."""

    def __init__(self, design: "Design", mem: "Memory", index: int) -> None:
        self.memory = mem
        self.index = index
        self.addr: Optional[Expr] = None
        self.en: Optional[Expr] = None
        self.data = design._mk("memread", mem.data_width, (), (mem.name, index))

    def connect(self, addr: ExprLike, en: ExprLike = 1) -> Expr:
        """Wire the address/read-enable; returns the read-data expression."""
        d = self.memory.design
        self.addr = d.coerce(addr, self.memory.addr_width)
        self.en = d.coerce(en, 1)
        return self.data


class WritePort:
    """A memory write port: drives Addr/WD/WE."""

    def __init__(self, mem: "Memory", index: int) -> None:
        self.memory = mem
        self.index = index
        self.addr: Optional[Expr] = None
        self.en: Optional[Expr] = None
        self.data: Optional[Expr] = None

    def connect(self, addr: ExprLike, data: ExprLike, en: ExprLike = 1) -> None:
        d = self.memory.design
        self.addr = d.coerce(addr, self.memory.addr_width)
        self.data = d.coerce(data, self.memory.data_width)
        self.en = d.coerce(en, 1)


class Memory:
    """An embedded memory module with R read and W write ports.

    ``init`` is a uniform initial value for every location, or ``None``
    for an *arbitrary* initial state (Section 4.2 of the paper).
    ``init_words`` overrides individual addresses — the ROM/program case:
    listed locations start with the given words, the rest fall back to
    ``init`` (or stay arbitrary when ``init`` is None).

    When a location is written by several ports in the same cycle, the
    highest port index wins — matching the priority order of the EMM
    exclusivity chain in equation (4); well-formed designs avoid such
    data races (the paper assumes their absence).
    """

    def __init__(self, design: "Design", name: str, addr_width: int,
                 data_width: int, read_ports: int, write_ports: int,
                 init: Optional[int],
                 init_words: Optional[Mapping[int, int]] = None) -> None:
        if read_ports < 1 or write_ports < 1:
            raise ValueError("memories need at least one read and one write port")
        self.design = design
        self.name = name
        self.addr_width = addr_width
        self.data_width = data_width
        data_mask = (1 << data_width) - 1
        if init is not None:
            init &= data_mask
        self.init = init
        self.init_words: dict[int, int] = {}
        for addr, value in dict(init_words or {}).items():
            if not 0 <= addr < (1 << addr_width):
                raise ValueError(
                    f"init_words address {addr} out of range for "
                    f"addr_width {addr_width}")
            self.init_words[addr] = value & data_mask
        self.read_ports = [ReadPort(design, self, i) for i in range(read_ports)]
        self.write_ports = [WritePort(self, i) for i in range(write_ports)]

    def initial_word(self, addr: int) -> Optional[int]:
        """Initial value at ``addr``; None when it is arbitrary."""
        got = self.init_words.get(addr)
        if got is not None:
            return got
        return self.init

    @property
    def num_read_ports(self) -> int:
        return len(self.read_ports)

    @property
    def num_write_ports(self) -> int:
        return len(self.write_ports)

    def read(self, index: int = 0) -> ReadPort:
        return self.read_ports[index]

    def write(self, index: int = 0) -> WritePort:
        return self.write_ports[index]

    @property
    def num_words(self) -> int:
        return 1 << self.addr_width

    @property
    def num_bits(self) -> int:
        """State bits an explicit model of this memory would add."""
        return self.num_words * self.data_width


class Property:
    """A named verification obligation.

    ``kind`` is ``"invariant"`` (expr must hold in all reachable states;
    result is PROOF or a counterexample) or ``"reach"`` (find a witness
    reaching expr; result is a witness trace or an unreachability proof).
    """

    def __init__(self, name: str, kind: str, expr: Expr) -> None:
        if kind not in ("invariant", "reach"):
            raise ValueError(f"unknown property kind {kind!r}")
        if expr.width != 1:
            raise ValueError("property expression must be 1 bit wide")
        self.name = name
        self.kind = kind
        self.expr = expr


class Design:
    """A sequential word-level design with embedded memories."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.inputs: dict[str, Input] = {}
        self.latches: dict[str, Latch] = {}
        self.memories: dict[str, Memory] = {}
        self.properties: dict[str, Property] = {}
        self._cache: dict[tuple, Expr] = {}
        self._next_id = 0

    # -- expression construction ----------------------------------------

    def _mk(self, kind: str, width: int, args: tuple[Expr, ...],
            payload=None) -> Expr:
        for a in args:
            if a.design is not self:
                raise ValueError("expression belongs to a different design")
        if kind in _BINARY_SAME_WIDTH or kind in _COMPARE:
            if args[0].width != args[1].width:
                raise ValueError(
                    f"{kind}: width mismatch {args[0].width} vs {args[1].width}")
        key = (kind, tuple(a._id for a in args), payload, width)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        expr = Expr(self, kind, width, args, payload, self._next_id)
        self._next_id += 1
        self._cache[key] = expr
        return expr

    def const(self, value: int, width: int) -> Expr:
        """A constant word (value is masked to ``width`` bits)."""
        value &= (1 << width) - 1
        return self._mk("const", width, (), value)

    def coerce(self, value: ExprLike, width: int) -> Expr:
        """Accept an Expr of matching width or an in-range int (made const).

        Unlike :meth:`const`, coercion refuses ints that do not fit in
        ``width`` bits — silently masking ``expr.ult(8)`` on a 3-bit word
        to ``expr.ult(0)`` has burned enough people.
        """
        if isinstance(value, Expr):
            if value.width != width:
                raise ValueError(f"expected width {width}, got {value.width}")
            return value
        value = int(value)
        if not 0 <= value < (1 << width):
            raise ValueError(f"constant {value} does not fit in {width} bits")
        return self.const(value, width)

    def input(self, name: str, width: int) -> Expr:
        """Declare a primary input; returns its expression."""
        if name in self.inputs:
            raise ValueError(f"duplicate input {name!r}")
        expr = self._mk("input", width, (), name)
        self.inputs[name] = Input(name, width, expr)
        return expr

    def latch(self, name: str, width: int, init: Optional[int] = 0) -> Latch:
        """Declare a latch word; set ``.next`` before verification."""
        if name in self.latches:
            raise ValueError(f"duplicate latch {name!r}")
        latch = Latch(self, name, width, init)
        self.latches[name] = latch
        return latch

    def memory(self, name: str, addr_width: int, data_width: int,
               read_ports: int = 1, write_ports: int = 1,
               init: Optional[int] = 0,
               init_words: Optional[Mapping[int, int]] = None) -> Memory:
        """Declare an embedded memory module.

        ``init_words`` seeds individual addresses (program ROMs, lookup
        tables); other locations start at ``init``, or arbitrary when
        ``init`` is None.
        """
        if name in self.memories:
            raise ValueError(f"duplicate memory {name!r}")
        mem = Memory(self, name, addr_width, data_width,
                     read_ports, write_ports, init, init_words)
        self.memories[name] = mem
        return mem

    def mux(self, sel: ExprLike, then: ExprLike, els: ExprLike) -> Expr:
        sel_e = self.coerce(sel, 1)
        return sel_e.ite(then, els)

    def and_many(self, exprs: Iterable[ExprLike]) -> Expr:
        out = self.const(1, 1)
        for e in exprs:
            out = out & self.coerce(e, 1)
        return out

    def or_many(self, exprs: Iterable[ExprLike]) -> Expr:
        out = self.const(0, 1)
        for e in exprs:
            out = out | self.coerce(e, 1)
        return out

    # -- properties -------------------------------------------------------

    def invariant(self, name: str, expr: Expr) -> Property:
        """Declare a safety property: ``expr`` holds in every reachable state."""
        return self._add_property(Property(name, "invariant", expr))

    def reach(self, name: str, expr: Expr) -> Property:
        """Declare a reachability target: find a state where ``expr`` holds."""
        return self._add_property(Property(name, "reach", expr))

    def _add_property(self, prop: Property) -> Property:
        if prop.name in self.properties:
            raise ValueError(f"duplicate property {prop.name!r}")
        if prop.expr.design is not self:
            raise ValueError("property expression belongs to another design")
        self.properties[prop.name] = prop
        return prop

    # -- validation ------------------------------------------------------

    def validate(self) -> None:
        """Check the design is closed and well-formed; raises on problems."""
        for latch in self.latches.values():
            if latch.next is None:
                raise ValueError(f"latch {latch.name!r} has no next-state function")
        for mem in self.memories.values():
            for port in mem.read_ports:
                if port.addr is None or port.en is None:
                    raise ValueError(
                        f"memory {mem.name!r} read port {port.index} unconnected")
            for port in mem.write_ports:
                if port.addr is None or port.en is None or port.data is None:
                    raise ValueError(
                        f"memory {mem.name!r} write port {port.index} unconnected")
        self.port_evaluation_order()  # raises on combinational port cycles

    def port_evaluation_order(self) -> list[tuple[str, int]]:
        """Topological order for same-cycle read-port evaluation.

        Read port B may use read port A's data in its address (chained
        indirection); cycles through memory ports are rejected.
        Returns ``[(mem_name, port_index), ...]``.
        """
        ports = [(m.name, p.index) for m in self.memories.values()
                 for p in m.read_ports]
        deps: dict[tuple[str, int], set[tuple[str, int]]] = {}
        for mem in self.memories.values():
            for port in mem.read_ports:
                deps[(mem.name, port.index)] = leaf_support(
                    [e for e in (port.addr, port.en) if e is not None],
                    "memread")
        order: list[tuple[str, int]] = []
        state: dict[tuple[str, int], int] = {}

        def visit(p: tuple[str, int]) -> None:
            st = state.get(p, 0)
            if st == 1:
                raise ValueError(f"combinational cycle through memory port {p}")
            if st == 2:
                return
            state[p] = 1
            for q in deps[p]:
                visit(q)
            state[p] = 2
            order.append(p)

        for p in ports:
            visit(p)
        return order

    # -- identity ----------------------------------------------------------

    def fingerprint(self) -> str:
        """Stable content hash of the design's semantics.

        Covers inputs, latches (width/init/next), memories (geometry,
        init, init words, port wiring) and properties, with expressions
        hashed structurally — so the digest is independent of declaration
        order, construction history and process identity (unlike
        ``id()``-based keys), but changes whenever any semantic detail
        does.  This is the session-cache key
        (:class:`repro.bmc.session.SessionCache`): equal fingerprints
        mean the same verification problem.  The SHA-256 comes from
        :mod:`repro.utils.digest` (CPython's built-in module, not
        OpenSSL's); the digest is the same value either way.
        """
        # Per-node digests, memoized on the hash-consed node id: shared
        # sub-DAGs are hashed once, so the walk is linear in unique nodes
        # rather than exponential in sharing depth.
        memo: dict[int, str] = {}

        def digest(e: Optional[Expr]) -> str:
            if e is None:
                return "-"
            if e._id in memo:
                return memo[e._id]
            for n in postorder((e,), memo):
                h = sha256(repr(
                    (n.kind, n.width, n.payload,
                     tuple(memo[a._id] for a in n.args))).encode())
                memo[n._id] = h.hexdigest()
            return memo[e._id]

        parts = [f"design {self.name}"]
        for name in sorted(self.inputs):
            parts.append(f"input {name} {self.inputs[name].width}")
        for name in sorted(self.latches):
            latch = self.latches[name]
            parts.append(f"latch {name} {latch.width} {latch.init} "
                         f"{digest(latch.next)}")
        for name in sorted(self.memories):
            mem = self.memories[name]
            words = ",".join(f"{a}:{v}"
                             for a, v in sorted(mem.init_words.items()))
            parts.append(f"memory {name} {mem.addr_width} {mem.data_width} "
                         f"{mem.init} [{words}]")
            for port in mem.read_ports:
                parts.append(f"  r{port.index} {digest(port.addr)} "
                             f"{digest(port.en)}")
            for port in mem.write_ports:
                parts.append(f"  w{port.index} {digest(port.addr)} "
                             f"{digest(port.data)} {digest(port.en)}")
        for name in sorted(self.properties):
            prop = self.properties[name]
            parts.append(f"property {name} {prop.kind} {digest(prop.expr)}")
        return sha256("\n".join(parts).encode()).hexdigest()

    # -- metrics -----------------------------------------------------------

    def num_latch_bits(self) -> int:
        """Latch bits excluding memory registers (the paper's 'FF' count)."""
        return sum(lit.width for lit in self.latches.values())

    def num_memory_bits(self) -> int:
        return sum(m.num_bits for m in self.memories.values())

    def stats(self) -> dict:
        return {
            "inputs": sum(i.width for i in self.inputs.values()),
            "latch_bits": self.num_latch_bits(),
            "memories": len(self.memories),
            "memory_bits": self.num_memory_bits(),
            "properties": len(self.properties),
        }


def postorder(roots: Iterable[Expr], done: Container[int]) -> list[Expr]:
    """The nodes under ``roots`` whose ids are not in ``done``, children
    before parents, each once.

    ``done`` is the caller's memo (a cache keyed by node id); its nodes
    and everything below them are skipped.  The walk is iterative, so a
    chain deeper than the recursion limit is fine.  The order is fixed:
    missing args are pushed in ``args`` order and the last one pushed is
    visited first.  The AIG lowering numbers nodes in this order, and
    that numbering fixes the SAT variable order.
    """
    order: list[Expr] = []
    seen: set[int] = set()
    stack = list(roots)
    while stack:
        e = stack[-1]
        i = e._id
        if i in done or i in seen:
            stack.pop()
            continue
        missing = [a for a in e.args
                   if a._id not in done and a._id not in seen]
        if missing:
            stack.extend(missing)
            continue
        stack.pop()
        seen.add(i)
        order.append(e)
    return order


def leaf_support(exprs: Iterable[Expr], kind: str) -> set:
    """Payloads of the ``kind`` leaves (``"latch"``, ``"input"``,
    ``"memread"``) in the combinational fanin of ``exprs``.

    A memory's read data is a leaf: the walk does not continue into the
    read port's address or enable logic.
    """
    return {e.payload for e in postorder(exprs, ()) if e.kind == kind}
