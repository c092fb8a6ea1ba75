"""Verilog-2001 frontend: parse a synthesizable subset into a Design.

The paper's case studies were "implemented using Verilog HDL"; this
module lets such sources drive the verification platform directly.  The
accepted subset is the one :func:`repro.design.verilog.write_verilog`
emits, which makes the two ends roundtrippable (and the test-suite
checks the roundtrip by sequential equivalence):

* ``module``/``endmodule`` with a port list; ``clk`` and ``rst`` ports
  are recognized and consumed by the clocking template;
* ``input`` / ``output`` / ``reg`` / ``wire`` declarations, vectors
  ``[msb:0]``, and memories ``reg [w-1:0] name [0:n-1];``;
* continuous assigns (``assign x = e;`` or ``wire x = e;``) with the
  operators ``~ ! & | ^ && || + - == != < <= > >= ?: {,} [i] [h:l]``;
* one or more ``always @(posedge clk)`` blocks of non-blocking
  assignments with arbitrarily nested ``if``/``else`` — the idiomatic
  ``if (rst) begin <constant resets> end else begin ... end`` shape
  becomes latch initial values;
* memory writes ``name[addr] <= data;`` (each distinct occurrence is a
  write port) and reads ``name[addr]`` in any expression (each distinct
  address expression is a read port);
* ``prop_*`` outputs become properties; an ``\\`ifdef FORMAL`` block
  with ``assert``/``cover`` statements selects invariant vs. reach kind
  (default: invariant).

Everything else — blocking assigns in clocked blocks, multiple clocks,
latches inferred from incomplete combinational always blocks, dynamic
bit-selects of plain registers — is rejected with a located error.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Optional, Union

from repro.design.netlist import Design, Expr, ReadPort

__all__ = ["parse_verilog", "VerilogError"]

#: Output ports named ``prop_<name>`` become property ``<name>``, the
#: naming :func:`repro.design.verilog.write_verilog` emits.
PROP_PREFIX = "prop_"


class VerilogError(ValueError):
    """Parse or elaboration failure, with line information when known."""


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+)
  | (?P<comment>//[^\n]*|/\*.*?\*/)
  | (?P<sized>\d+\s*'\s*[bdhBDH]\s*[0-9a-fA-F_xzXZ?]+)
  | (?P<num>\d+)
  | (?P<id>[A-Za-z_][A-Za-z0-9_$]*)
  | (?P<op><=|==|!=|&&|\|\||<<|>>|>=|[-+~!&|^<>=?:;,.(){}\[\]@*/])
""", re.VERBOSE | re.DOTALL)


@dataclass
class Token:
    kind: str  # 'id' | 'num' | 'sized' | 'op'
    text: str
    line: int


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    pos = 0
    line = 1
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise VerilogError(f"line {line}: unexpected character {text[pos]!r}")
        kind = m.lastgroup
        tok = m.group()
        if kind not in ("ws", "comment"):
            tokens.append(Token(kind, tok, line))
        line += tok.count("\n")
        pos = m.end()
    return tokens


def _parse_sized_literal(text: str, line: int) -> tuple[int, int]:
    """``8'hFF`` -> (value, width)."""
    m = re.match(r"(\d+)\s*'\s*([bdhBDH])\s*([0-9a-fA-F_xzXZ?]+)", text)
    if m is None:
        raise VerilogError(f"line {line}: bad literal {text!r}")
    width = int(m.group(1))
    base = {"b": 2, "d": 10, "h": 16}[m.group(2).lower()]
    digits = m.group(3).replace("_", "")
    if re.search(r"[xzXZ?]", digits):
        raise VerilogError(f"line {line}: x/z literals are not supported")
    value = int(digits, base)
    if value >= (1 << width):
        raise VerilogError(f"line {line}: literal {text!r} overflows its width")
    return value, width


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------

@dataclass
class Node:
    line: int


@dataclass
class Num(Node):
    value: int
    width: Optional[int]  # None = unsized


@dataclass
class Ident(Node):
    name: str


@dataclass
class Index(Node):
    base: str
    index: "AstExpr"


@dataclass
class PartSelect(Node):
    base: str
    msb: int
    lsb: int


@dataclass
class Unary(Node):
    op: str
    arg: "AstExpr"


@dataclass
class Binary(Node):
    op: str
    lhs: "AstExpr"
    rhs: "AstExpr"


@dataclass
class Ternary(Node):
    cond: "AstExpr"
    then: "AstExpr"
    other: "AstExpr"


@dataclass
class Concat(Node):
    parts: list["AstExpr"]


AstExpr = Union[Num, Ident, Index, PartSelect, Unary, Binary, Ternary, Concat]


@dataclass
class NbAssign(Node):
    """Non-blocking assignment: target (reg or mem[addr]) <= rhs."""

    target: str
    index: Optional[AstExpr]
    rhs: AstExpr


@dataclass
class IfStmt(Node):
    cond: AstExpr
    then: list["Stmt"]
    other: list["Stmt"]


Stmt = Union[NbAssign, IfStmt]


@dataclass
class PortDecl:
    name: str
    direction: str  # 'input' | 'output'
    width: int


@dataclass
class VarDecl:
    name: str
    width: int
    depth: Optional[int] = None  # memories: number of words


@dataclass
class ModuleAst:
    name: str = ""
    ports: list[PortDecl] = field(default_factory=list)
    regs: list[VarDecl] = field(default_factory=list)
    wires: dict[str, AstExpr] = field(default_factory=dict)
    assigns: dict[str, AstExpr] = field(default_factory=dict)
    always_blocks: list[list[Stmt]] = field(default_factory=list)
    #: memory name -> {address: value} from ``initial`` blocks.
    initial_words: dict[str, dict[int, int]] = field(default_factory=dict)
    #: property name -> 'invariant' | 'reach', from the FORMAL block.
    formal_kinds: dict[str, str] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

_BINARY_LEVELS = [
    ["||"],
    ["&&"],
    ["|"],
    ["^"],
    ["&"],
    ["==", "!="],
    ["<", "<=", ">", ">="],
    ["+", "-"],
]


class _Parser:
    def __init__(self, tokens: list[Token]) -> None:
        self.tokens = tokens
        self.pos = 0

    # -- token plumbing --------------------------------------------------

    def peek(self, offset: int = 0) -> Optional[Token]:
        i = self.pos + offset
        return self.tokens[i] if i < len(self.tokens) else None

    def next(self) -> Token:
        tok = self.peek()
        if tok is None:
            raise VerilogError("unexpected end of file")
        self.pos += 1
        return tok

    def expect(self, text: str) -> Token:
        tok = self.next()
        if tok.text != text:
            raise VerilogError(
                f"line {tok.line}: expected {text!r}, found {tok.text!r}")
        return tok

    def accept(self, text: str) -> bool:
        tok = self.peek()
        if tok is not None and tok.text == text:
            self.pos += 1
            return True
        return False

    def at(self, text: str) -> bool:
        tok = self.peek()
        return tok is not None and tok.text == text

    # -- top level ---------------------------------------------------------

    def parse_module(self) -> ModuleAst:
        ast = ModuleAst()
        self.expect("module")
        ast.name = self.next().text
        if self.accept("("):
            while not self.accept(")"):
                tok = self.next()
                if tok.text == ",":
                    continue
        self.expect(";")
        while not self.at("endmodule"):
            tok = self.peek()
            if tok is None:
                raise VerilogError("missing endmodule")
            if tok.text in ("input", "output"):
                self._parse_port_decl(ast)
            elif tok.text == "reg":
                self._parse_reg_decl(ast)
            elif tok.text == "wire":
                self._parse_wire_decl(ast)
            elif tok.text == "assign":
                self._parse_assign(ast)
            elif tok.text == "always":
                self._parse_always(ast)
            elif tok.text == "initial":
                self._parse_initial(ast)
            else:
                raise VerilogError(
                    f"line {tok.line}: unsupported construct {tok.text!r}")
        self.expect("endmodule")
        return ast

    def _parse_range(self) -> int:
        """``[msb:0]`` -> width; absent range -> 1."""
        if not self.accept("["):
            return 1
        msb_tok = self.next()
        if msb_tok.kind != "num":
            raise VerilogError(f"line {msb_tok.line}: vector bounds must be "
                               "integer literals")
        self.expect(":")
        lsb_tok = self.next()
        self.expect("]")
        if lsb_tok.text != "0":
            raise VerilogError(f"line {lsb_tok.line}: only [msb:0] vectors "
                               "are supported")
        return int(msb_tok.text) + 1

    def _parse_port_decl(self, ast: ModuleAst) -> None:
        direction = self.next().text
        self.accept("reg")
        width = self._parse_range()
        while True:
            name = self.next()
            ast.ports.append(PortDecl(name.text, direction, width))
            if not self.accept(","):
                break
        self.expect(";")

    def _parse_reg_decl(self, ast: ModuleAst) -> None:
        self.expect("reg")
        width = self._parse_range()
        while True:
            name = self.next().text
            depth = None
            if self.accept("["):  # memory: [0:N-1]
                lo = self.next()
                self.expect(":")
                hi = self.next()
                self.expect("]")
                if lo.text != "0":
                    raise VerilogError(
                        f"line {lo.line}: memory ranges must start at 0")
                depth = int(hi.text) + 1
            ast.regs.append(VarDecl(name, width, depth))
            if not self.accept(","):
                break
        self.expect(";")

    def _parse_wire_decl(self, ast: ModuleAst) -> None:
        self.expect("wire")
        self._parse_range()  # width re-derived during elaboration
        name = self.next().text
        if self.accept("="):
            ast.wires[name] = self.parse_expr()
        elif self.accept(","):
            raise VerilogError("wire lists without initializers are not "
                               "supported; use one `wire name = expr;` each")
        self.expect(";")

    def _parse_assign(self, ast: ModuleAst) -> None:
        self.expect("assign")
        name = self.next().text
        self.expect("=")
        ast.assigns[name] = self.parse_expr()
        self.expect(";")

    def _parse_always(self, ast: ModuleAst) -> None:
        tok = self.expect("always")
        self.expect("@")
        self.expect("(")
        edge = self.next()
        clk = self.next()
        if edge.text != "posedge" or clk.text != "clk":
            raise VerilogError(f"line {tok.line}: only `always @(posedge clk)` "
                               "blocks are supported")
        self.expect(")")
        ast.always_blocks.append(self._parse_stmt_block())

    def _parse_initial(self, ast: ModuleAst) -> None:
        """``initial begin mem[3] = 8'd7; ... end`` — ROM contents."""
        tok = self.expect("initial")
        self.expect("begin")
        while not self.accept("end"):
            name = self.next()
            self.expect("[")
            addr = self.next()
            if addr.kind != "num":
                raise VerilogError(f"line {addr.line}: initial-block "
                                   "addresses must be integer literals")
            self.expect("]")
            self.expect("=")
            value = self.next()
            if value.kind == "sized":
                val, __ = _parse_sized_literal(value.text, value.line)
            elif value.kind == "num":
                val = int(value.text)
            else:
                raise VerilogError(f"line {value.line}: initial-block values "
                                   "must be literals")
            self.expect(";")
            ast.initial_words.setdefault(name.text, {})[int(addr.text)] = val

    def _parse_stmt_block(self) -> list[Stmt]:
        if self.accept("begin"):
            stmts: list[Stmt] = []
            while not self.accept("end"):
                stmts.append(self._parse_stmt())
            return stmts
        return [self._parse_stmt()]

    def _parse_stmt(self) -> Stmt:
        tok = self.peek()
        if tok is None:
            raise VerilogError("unexpected end of file in statement")
        if tok.text == "if":
            self.next()
            self.expect("(")
            cond = self.parse_expr()
            self.expect(")")
            then = self._parse_stmt_block()
            other: list[Stmt] = []
            if self.accept("else"):
                other = self._parse_stmt_block()
            return IfStmt(tok.line, cond, then, other)
        # Non-blocking assignment.
        name = self.next()
        if name.kind != "id":
            raise VerilogError(f"line {name.line}: expected statement, found "
                               f"{name.text!r}")
        index: Optional[AstExpr] = None
        if self.accept("["):
            index = self.parse_expr()
            self.expect("]")
        if self.accept("="):
            raise VerilogError(f"line {name.line}: blocking assignment to "
                               f"{name.text!r} in a clocked block; use <=")
        self.expect("<=")
        rhs = self.parse_expr()
        self.expect(";")
        return NbAssign(name.line, name.text, index, rhs)

    # -- expressions --------------------------------------------------------

    def parse_expr(self) -> AstExpr:
        return self._parse_ternary()

    def _parse_ternary(self) -> AstExpr:
        cond = self._parse_binary(0)
        if self.accept("?"):
            then = self._parse_ternary()
            self.expect(":")
            other = self._parse_ternary()
            return Ternary(cond.line, cond, then, other)
        return cond

    def _parse_binary(self, level: int) -> AstExpr:
        if level >= len(_BINARY_LEVELS):
            return self._parse_unary()
        lhs = self._parse_binary(level + 1)
        ops = _BINARY_LEVELS[level]
        while True:
            tok = self.peek()
            if tok is None or tok.text not in ops:
                return lhs
            # `<=` is an operator here only inside expressions; statement
            # context never reaches this point with a pending assignment.
            self.next()
            rhs = self._parse_binary(level + 1)
            lhs = Binary(tok.line, tok.text, lhs, rhs)

    def _parse_unary(self) -> AstExpr:
        tok = self.peek()
        if tok is not None and tok.text in ("~", "!", "-"):
            self.next()
            arg = self._parse_unary()
            return Unary(tok.line, tok.text, arg)
        return self._parse_primary()

    def _parse_primary(self) -> AstExpr:
        tok = self.next()
        if tok.text == "(":
            inner = self.parse_expr()
            self.expect(")")
            return inner
        if tok.text == "{":
            parts = [self.parse_expr()]
            while self.accept(","):
                parts.append(self.parse_expr())
            self.expect("}")
            return Concat(tok.line, parts)
        if tok.kind == "sized":
            value, width = _parse_sized_literal(tok.text, tok.line)
            return Num(tok.line, value, width)
        if tok.kind == "num":
            return Num(tok.line, int(tok.text), None)
        if tok.kind == "id":
            name = tok.text
            if self.accept("["):
                first = self.parse_expr()
                if self.accept(":"):
                    second = self.parse_expr()
                    self.expect("]")
                    if not isinstance(first, Num) or not isinstance(second, Num):
                        raise VerilogError(
                            f"line {tok.line}: part-select bounds must be "
                            "constant")
                    return PartSelect(tok.line, name, first.value, second.value)
                self.expect("]")
                return Index(tok.line, name, first)
            return Ident(tok.line, name)
        raise VerilogError(f"line {tok.line}: unexpected token {tok.text!r} "
                           "in expression")


# ---------------------------------------------------------------------------
# Elaboration: AST -> Design
# ---------------------------------------------------------------------------

_FORMAL_RE = re.compile(
    r"`ifdef\s+FORMAL(?P<body>.*?)`endif", re.DOTALL)
_ASSERT_RE = re.compile(r"\b(assert|cover)\s*\(\s*([A-Za-z_][A-Za-z0-9_$]*)")


def _strip_formal(text: str) -> tuple[str, dict[str, str]]:
    """Remove the FORMAL block; harvest assert/cover property kinds."""
    kinds: dict[str, str] = {}
    m = _FORMAL_RE.search(text)
    if m is None:
        return text, kinds
    for verb, name in _ASSERT_RE.findall(m.group("body")):
        kinds[name] = "invariant" if verb == "assert" else "reach"
    return text[:m.start()] + text[m.end():], kinds


class _Elaborator:
    def __init__(self, ast: ModuleAst) -> None:
        self.ast = ast
        self.design = Design(ast.name)
        self.widths: dict[str, int] = {}
        self.mem_decls: dict[str, VarDecl] = {}
        #: memory -> address ASTs, one read port per distinct address.
        self._read_addrs: dict[str, list[AstExpr]] = {}
        self._wire_cache: dict[str, Expr] = {}
        self._elaborating: set[str] = set()

    # -- entry ----------------------------------------------------------------

    def run(self) -> Design:
        d = self.design
        for port in self.ast.ports:
            if port.direction == "input" and port.name not in ("clk", "rst"):
                d.input(port.name, port.width)
                self.widths[port.name] = port.width
        for reg in self.ast.regs:
            if reg.depth is None:
                self.widths[reg.name] = reg.width
            else:
                if reg.depth & (reg.depth - 1):
                    raise VerilogError(
                        f"memory {reg.name!r} depth {reg.depth} is not a "
                        "power of two")
                self.mem_decls[reg.name] = reg
        self._elaborate_registers()
        # Properties are elaborated *before* the memory ports are wired:
        # a read that appears only in a property (or a wire feeding one)
        # must still allocate its read port.
        self._attach_properties()
        self._connect_memories()
        d.validate()
        return d

    # -- clocked blocks ---------------------------------------------------------

    def _elaborate_registers(self) -> None:
        d = self.design
        reg_writes: dict[str, list] = {}   # reg -> updates (applied in order)
        mem_writes: dict[str, list] = {}   # mem -> [(guard, addr, data)]
        resets: dict[str, int] = {}
        for block in self.ast.always_blocks:
            stmts = block
            # Recognize the reset idiom on the outermost statement.
            if (len(stmts) == 1 and isinstance(stmts[0], IfStmt)
                    and isinstance(stmts[0].cond, Ident)
                    and stmts[0].cond.name == "rst"):
                for s in stmts[0].then:
                    if not isinstance(s, NbAssign) or s.index is not None \
                            or not isinstance(s.rhs, Num):
                        raise VerilogError(
                            f"line {s.line}: reset branch must contain only "
                            "`reg <= constant;` assignments")
                    resets[s.target] = s.rhs.value
                stmts = stmts[0].other
            self._collect(stmts, None, reg_writes, mem_writes)

        # Declare latches first (so RHS elaboration can reference them) …
        for reg in self.ast.regs:
            if reg.depth is None:
                init = resets.get(reg.name)
                d.latch(reg.name, reg.width, init)
        for name, decl in self.mem_decls.items():
            write_count = max(1, len(mem_writes.get(name, [])))
            d.memory(name, addr_width=(decl.depth - 1).bit_length(),
                     data_width=decl.width, read_ports=1,
                     write_ports=write_count, init=None,
                     init_words=self.ast.initial_words.get(name))
        # … then build the next-state functions.
        for reg in self.ast.regs:
            if reg.depth is not None:
                continue
            latch = d.latches[reg.name]
            nxt: Expr = latch.expr
            for guard, rhs_ast in reg_writes.get(reg.name, []):
                rhs = self._coerce(self._expr(rhs_ast), reg.width, rhs_ast)
                nxt = rhs if guard is None else self._cond(guard).ite(rhs, nxt)
            latch.next = nxt
        self._mem_writes = mem_writes

    def _collect(self, stmts: list[Stmt], guard: Optional[AstExpr],
                 reg_writes: dict, mem_writes: dict) -> None:
        for s in stmts:
            if isinstance(s, NbAssign):
                if s.index is not None:
                    if s.target not in self.mem_decls:
                        raise VerilogError(
                            f"line {s.line}: indexed assignment to "
                            f"non-memory {s.target!r}")
                    mem_writes.setdefault(s.target, []).append(
                        (guard, s.index, s.rhs))
                else:
                    reg_writes.setdefault(s.target, []).append((guard, s.rhs))
            elif isinstance(s, IfStmt):
                then_guard = s.cond if guard is None else \
                    Binary(s.line, "&&", guard, s.cond)
                self._collect(s.then, then_guard, reg_writes, mem_writes)
                if s.other:
                    neg = Unary(s.line, "!", s.cond)
                    else_guard = neg if guard is None else \
                        Binary(s.line, "&&", guard, neg)
                    self._collect(s.other, else_guard, reg_writes, mem_writes)

    def _connect_memories(self) -> None:
        d = self.design
        # Elaborating one port's address can *discover* further reads (of
        # the same or another memory), growing the `_read_addrs` lists —
        # iterate to a fixpoint before anything is connected.
        write_conns: dict[str, list] = {}
        for name in self.mem_decls:
            mem = d.memories[name]
            conns = []
            for guard, addr_ast, data_ast in self._mem_writes.get(name, []):
                addr = self._coerce(self._expr(addr_ast), mem.addr_width,
                                    addr_ast)
                data = self._coerce(self._expr(data_ast), mem.data_width,
                                    data_ast)
                en = d.const(1, 1) if guard is None else self._cond(guard)
                conns.append((addr, data, en))
            write_conns[name] = conns
        read_conns: dict[str, list] = {name: [] for name in self.mem_decls}
        progress = True
        while progress:
            progress = False
            for name in self.mem_decls:
                mem = d.memories[name]
                addrs = self._read_addrs.get(name, [])
                done = read_conns[name]
                while len(done) < len(addrs):
                    ast = addrs[len(done)]
                    done.append(self._coerce(self._expr(ast),
                                             mem.addr_width, ast))
                    progress = True
        for name in self.mem_decls:
            mem = d.memories[name]
            aw = mem.addr_width
            if not read_conns[name]:
                # No read anywhere: connect a dormant port.
                mem.read(0).connect(addr=d.const(0, aw), en=0)
            else:
                for i, addr in enumerate(read_conns[name]):
                    mem.read(i).connect(addr=addr, en=1)
            if not write_conns[name]:
                mem.write(0).connect(addr=d.const(0, aw),
                                     data=d.const(0, mem.data_width), en=0)
            for i, (addr, data, en) in enumerate(write_conns[name]):
                mem.write(i).connect(addr=addr, data=data, en=en)

    def _attach_properties(self) -> None:
        d = self.design
        for port in self.ast.ports:
            if port.direction != "output":
                continue
            if not port.name.startswith(PROP_PREFIX):
                continue
            expr_ast = self.ast.assigns.get(port.name)
            if expr_ast is None:
                raise VerilogError(
                    f"property output {port.name!r} has no assign")
            kind = self.ast.formal_kinds.get(port.name, "invariant")
            expr = self._expr(expr_ast)
            if expr.width != 1:
                expr = expr.nonzero()
            pname = port.name[len(PROP_PREFIX):]
            if kind == "invariant":
                d.invariant(pname, expr)
            else:
                d.reach(pname, expr)

    # -- expression elaboration -------------------------------------------------

    def _memory_read(self, node: Index) -> Expr:
        """Each syntactically distinct address becomes one read port.

        The ports are connected (addresses elaborated, enables tied high)
        in :meth:`_connect_memories` once the full set is known.
        """
        name = node.base
        addrs = self._read_addrs.setdefault(name, [])
        key = _ast_key(node.index)
        for i, existing in enumerate(addrs):
            if _ast_key(existing) == key:
                return self._port_data(name, i)
        addrs.append(node.index)
        return self._port_data(name, len(addrs) - 1)

    def _port_data(self, name: str, index: int) -> Expr:
        mem = self.design.memories[name]
        while mem.num_read_ports <= index:
            mem.read_ports.append(ReadPort(self.design, mem,
                                           mem.num_read_ports))
        return mem.read(index).data

    def _expr(self, node: AstExpr, width_hint: Optional[int] = None) -> Expr:
        d = self.design
        if isinstance(node, Num):
            width = node.width or width_hint
            if width is None:
                raise VerilogError(
                    f"line {node.line}: cannot infer width of unsized "
                    f"literal {node.value}; use a sized literal like "
                    f"8'd{node.value}")
            return d.const(node.value, width)
        if isinstance(node, Ident):
            return self._ident(node)
        if isinstance(node, Index):
            if node.base in self.mem_decls:
                return self._memory_read(node)
            base = self._ident_by_name(node.base, node.line)
            if not isinstance(node.index, Num):
                raise VerilogError(
                    f"line {node.line}: dynamic bit-select of {node.base!r} "
                    "is not supported")
            i = node.index.value
            return base[i]
        if isinstance(node, PartSelect):
            base = self._ident_by_name(node.base, node.line)
            return base[node.lsb:node.msb + 1]
        if isinstance(node, Unary):
            if node.op == "~":
                return ~self._expr(node.arg, width_hint)
            if node.op == "!":
                return self._expr(node.arg).is_zero()
            if node.op == "-":
                arg = self._expr(node.arg, width_hint)
                return d.const(0, arg.width) - arg
        if isinstance(node, Binary):
            return self._binary(node, width_hint)
        if isinstance(node, Ternary):
            cond = self._cond(node.cond)
            then = self._expr_pair(node.then, node.other, width_hint)
            return cond.ite(*then)
        if isinstance(node, Concat):
            parts = [self._expr(p) for p in node.parts]
            out = parts[-1]  # last part is the least significant
            for p in reversed(parts[:-1]):
                out = out.concat(p)
            return out
        raise VerilogError(f"line {node.line}: cannot elaborate {node!r}")

    def _binary(self, node: Binary, width_hint: Optional[int]) -> Expr:
        op = node.op
        if op in ("&&", "||"):
            lhs = self._cond(node.lhs)
            rhs = self._cond(node.rhs)
            return lhs & rhs if op == "&&" else lhs | rhs
        hint = width_hint if op in ("&", "|", "^", "+", "-") else None
        lhs, rhs = self._expr_pair(node.lhs, node.rhs, hint)
        if op == "&":
            return lhs & rhs
        if op == "|":
            return lhs | rhs
        if op == "^":
            return lhs ^ rhs
        if op == "+":
            return lhs + rhs
        if op == "-":
            return lhs - rhs
        if op == "==":
            return lhs.eq(rhs)
        if op == "!=":
            return lhs.ne(rhs)
        if op == "<":
            return lhs.ult(rhs)
        if op == "<=":
            return lhs.ule(rhs)
        if op == ">":
            return lhs.ugt(rhs)
        if op == ">=":
            return lhs.uge(rhs)
        raise VerilogError(f"line {node.line}: operator {op!r} unsupported")

    def _expr_pair(self, a: AstExpr, b: AstExpr,
                   width_hint: Optional[int]) -> tuple[Expr, Expr]:
        """Elaborate two operands, letting a sized one set the other's width."""
        a_num = isinstance(a, Num) and a.width is None
        b_num = isinstance(b, Num) and b.width is None
        if a_num and not b_num:
            eb = self._expr(b, width_hint)
            return self._expr(a, eb.width), eb
        if b_num and not a_num:
            ea = self._expr(a, width_hint)
            return ea, self._expr(b, ea.width)
        return self._expr(a, width_hint), self._expr(b, width_hint)

    def _cond(self, node: AstExpr) -> Expr:
        expr = self._expr(node)
        return expr if expr.width == 1 else expr.nonzero()

    def _coerce(self, expr: Expr, width: int, node: AstExpr) -> Expr:
        if expr.width == width:
            return expr
        if expr.width < width:
            return expr.zext(width)
        raise VerilogError(
            f"line {node.line}: expression of width {expr.width} does not "
            f"fit target width {width}")

    def _ident(self, node: Ident) -> Expr:
        return self._ident_by_name(node.name, node.line)

    def _ident_by_name(self, name: str, line: int) -> Expr:
        d = self.design
        if name in d.inputs:
            return d.inputs[name].expr
        if name in d.latches:
            return d.latches[name].expr
        if name in self._wire_cache:
            return self._wire_cache[name]
        ast_expr = self.ast.wires.get(name) or self.ast.assigns.get(name)
        if ast_expr is not None:
            if name in self._elaborating:
                raise VerilogError(
                    f"line {line}: combinational cycle through wire {name!r}")
            self._elaborating.add(name)
            expr = self._expr(ast_expr)
            self._elaborating.discard(name)
            self._wire_cache[name] = expr
            return expr
        raise VerilogError(f"line {line}: unknown identifier {name!r}")


def _ast_key(node: AstExpr):
    """Structural key for read-address deduplication."""
    if isinstance(node, Num):
        return ("num", node.value, node.width)
    if isinstance(node, Ident):
        return ("id", node.name)
    if isinstance(node, Index):
        return ("ix", node.base, _ast_key(node.index))
    if isinstance(node, PartSelect):
        return ("ps", node.base, node.msb, node.lsb)
    if isinstance(node, Unary):
        return ("un", node.op, _ast_key(node.arg))
    if isinstance(node, Binary):
        return ("bin", node.op, _ast_key(node.lhs), _ast_key(node.rhs))
    if isinstance(node, Ternary):
        return ("tern", _ast_key(node.cond), _ast_key(node.then),
                _ast_key(node.other))
    if isinstance(node, Concat):
        return ("cat", tuple(_ast_key(p) for p in node.parts))
    raise TypeError(node)


def parse_verilog(text: str) -> Design:
    """Parse Verilog source (the supported subset) into a Design.

    Outputs whose names start with :data:`PROP_PREFIX` become properties;
    an ``\\`ifdef FORMAL`` block's ``assert``/``cover`` statements select
    the kind, defaulting to invariant.
    """
    stripped, kinds = _strip_formal(text)
    tokens = tokenize(stripped)
    parser = _Parser(tokens)
    ast = parser.parse_module()
    ast.formal_kinds = kinds
    return _Elaborator(ast).run()
