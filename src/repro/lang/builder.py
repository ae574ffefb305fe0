"""Python-embedded construction API for Fleet processing units.

This is the reproduction of the paper's Scala-embedded DSL (Section 3). A
unit is built imperatively::

    b = UnitBuilder("histogram", input_width=8, output_width=8)
    counter = b.reg("counter", width=7)
    freqs = b.bram("frequencies", elements=256, width=8)
    idx = b.reg("idx", width=9)

    with b.when(counter == 100):
        with b.while_(idx < 256):
            b.emit(freqs[idx])
            freqs[idx] = 0
            idx.set(idx + 1)
        idx.set(0)
    freqs[b.input] = freqs[b.input] + 1
    counter.set(b.mux(counter == 100, 1, counter + 1))

    unit = b.finish()

Exactly as in the paper, statements have concurrent semantics: every
statement is evaluated against the state at the start of the virtual cycle
and all writes commit together. ``when``/``elif_``/``otherwise`` map to the
paper's ``if``/``else if``/``else`` and ``while_`` to its ``while``.

Because the DSL is embedded in Python, ordinary Python loops and functions
generate Fleet statements — the same metaprogramming the paper leans on for
parameterized units (e.g. the regex compiler builds one circuit per regex).
"""

from contextlib import contextmanager

from . import ast
from .analysis import validate_program
from .errors import FleetSyntaxError, FleetWidthError


def _to_node(value, width_hint=None):
    """Coerce a Python int or an :class:`Expr` to an AST node."""
    if isinstance(value, Expr):
        return value.node
    if isinstance(value, bool):
        return ast.Const(int(value), 1)
    if isinstance(value, int):
        return ast.Const(value, width_hint) if width_hint else ast.Const(value)
    raise FleetSyntaxError(
        f"expected a Fleet expression or int, got {value!r}"
    )


class Expr:
    """Operator-overloading wrapper around an AST expression node.

    Comparison operators build 1-bit Fleet expressions rather than Python
    booleans, so ``Expr`` objects are hashable by identity and must not be
    used where Python truthiness is needed.
    """

    __slots__ = ("node",)

    def __init__(self, node):
        self.node = node

    @property
    def width(self):
        return self.node.width

    # -- arithmetic ---------------------------------------------------------
    def _bin(self, op, other, reflected=False):
        other = _to_node(other)
        lhs, rhs = (other, self.node) if reflected else (self.node, other)
        return Expr(ast.BinOp(op, lhs, rhs))

    def __add__(self, other):
        return self._bin("add", other)

    def __radd__(self, other):
        return self._bin("add", other, reflected=True)

    def __sub__(self, other):
        return self._bin("sub", other)

    def __rsub__(self, other):
        return self._bin("sub", other, reflected=True)

    def __mul__(self, other):
        return self._bin("mul", other)

    def __rmul__(self, other):
        return self._bin("mul", other, reflected=True)

    # -- bitwise ------------------------------------------------------------
    def __and__(self, other):
        return self._bin("and", other)

    def __rand__(self, other):
        return self._bin("and", other, reflected=True)

    def __or__(self, other):
        return self._bin("or", other)

    def __ror__(self, other):
        return self._bin("or", other, reflected=True)

    def __xor__(self, other):
        return self._bin("xor", other)

    def __rxor__(self, other):
        return self._bin("xor", other, reflected=True)

    def __invert__(self):
        return Expr(ast.UnOp("not", self.node))

    def __lshift__(self, other):
        return self._bin("shl", other)

    def __rshift__(self, other):
        return self._bin("shr", other)

    # -- comparisons (1-bit results) ----------------------------------------
    def __eq__(self, other):  # noqa: D105 - builds hardware, not truth
        return self._bin("eq", other)

    def __ne__(self, other):
        return self._bin("ne", other)

    def __lt__(self, other):
        return self._bin("lt", other)

    def __le__(self, other):
        return self._bin("le", other)

    def __gt__(self, other):
        return self._bin("gt", other)

    def __ge__(self, other):
        return self._bin("ge", other)

    __hash__ = object.__hash__

    def __bool__(self):
        raise FleetSyntaxError(
            "Fleet expressions have no Python truth value; use b.when(...) "
            "for conditionals and &, |, ~ for boolean logic"
        )

    # -- bit access ----------------------------------------------------------
    def bits(self, hi, lo):
        """Inclusive bit slice ``[hi:lo]``."""
        return Expr(ast.Slice(self.node, hi, lo))

    def bit(self, i):
        """Single bit ``[i]``."""
        return Expr(ast.Slice(self.node, i, i))

    # -- reductions ----------------------------------------------------------
    def any(self):
        """OR-reduce: 1 iff any bit set (also: nonzero test)."""
        return Expr(ast.UnOp("orr", self.node))

    def all(self):
        """AND-reduce: 1 iff all bits set."""
        return Expr(ast.UnOp("andr", self.node))

    def parity(self):
        """XOR-reduce."""
        return Expr(ast.UnOp("xorr", self.node))

    def logical_not(self):
        """1 iff the value is zero."""
        return Expr(ast.UnOp("lnot", self.node))

    def __repr__(self):
        return f"Expr({self.node!r})"


class RegHandle(Expr):
    """Handle for a declared register: usable as an expression, assigned
    with :meth:`set`."""

    __slots__ = ("_decl", "_builder")

    def __init__(self, decl, builder):
        super().__init__(ast.RegRead(decl))
        self._decl = decl
        self._builder = builder

    @property
    def decl(self):
        return self._decl

    def set(self, value):
        """Schedule ``value`` to be written to this register at the end of
        the current virtual cycle (when the enclosing conditions hold)."""
        node = _coerce_assign(value, self._decl.width, self._decl.name)
        self._builder._append(ast.RegAssign(self._decl, node))

    __hash__ = object.__hash__


class VectorRegHandle:
    """Handle for a vector register bank; index to read, assign to write."""

    __slots__ = ("_decl", "_builder")

    def __init__(self, decl, builder):
        self._decl = decl
        self._builder = builder

    @property
    def decl(self):
        return self._decl

    def __getitem__(self, index):
        return Expr(
            ast.VectorRegRead(
                self._decl, _to_node(index, self._decl.index_width)
            )
        )

    def __setitem__(self, index, value):
        node = _coerce_assign(value, self._decl.width, self._decl.name)
        self._builder._append(
            ast.VectorRegAssign(
                self._decl, _to_node(index, self._decl.index_width), node
            )
        )


class BramHandle:
    """Handle for a BRAM; index to read, assign to write.

    The Fleet restrictions (at most one read and one write per virtual
    cycle, no dependent reads) are checked by the software simulator and by
    static analysis at :meth:`UnitBuilder.finish`.
    """

    __slots__ = ("_decl", "_builder")

    def __init__(self, decl, builder):
        self._decl = decl
        self._builder = builder

    @property
    def decl(self):
        return self._decl

    def __getitem__(self, addr):
        return Expr(
            ast.BramRead(self._decl, _to_node(addr, self._decl.addr_width))
        )

    def __setitem__(self, addr, value):
        node = _coerce_assign(value, self._decl.width, self._decl.name)
        self._builder._append(
            ast.BramWrite(
                self._decl, _to_node(addr, self._decl.addr_width), node
            )
        )


def _coerce_assign(value, target_width, target_name):
    """Coerce an assignment RHS, truncating wider expressions (Chisel-style
    connect semantics) and rejecting constants that cannot fit."""
    node = _to_node(value)
    if isinstance(node, ast.Const) and node.value >= (1 << target_width):
        raise FleetWidthError(
            f"constant {node.value} does not fit in {target_width}-bit "
            f"target {target_name!r}"
        )
    if node.width > target_width:
        node = ast.Slice(node, target_width - 1, 0)
    return node


class UnitBuilder:
    """Builds a :class:`~repro.lang.ast.UnitProgram` statement by statement."""

    def __init__(self, name, *, input_width=8, output_width=8):
        self.name = name
        self.input_width = input_width
        self.output_width = output_width
        self._regs = []
        self._vregs = []
        self._brams = []
        self._names = set()
        self._body = []
        self._blocks = [self._body]  # stack of open statement lists
        self._wire_count = 0
        self._while_depth = 0
        self._stmt_count = 0
        self._finished = False

    # -- state declarations ---------------------------------------------------
    def _claim_name(self, name):
        if not name or not isinstance(name, str):
            raise FleetSyntaxError(f"bad state element name {name!r}")
        if name in self._names:
            raise FleetSyntaxError(f"duplicate state element name {name!r}")
        self._names.add(name)

    def reg(self, name, *, width, init=0):
        """Declare a register and return its handle."""
        self._claim_name(name)
        decl = ast.RegDecl(name, width, init)
        self._regs.append(decl)
        self._count_line()
        return RegHandle(decl, self)

    def vreg(self, name, *, elements, width, init=0):
        """Declare a vector register bank and return its handle."""
        self._claim_name(name)
        decl = ast.VectorRegDecl(name, elements, width, init)
        self._vregs.append(decl)
        self._count_line()
        return VectorRegHandle(decl, self)

    def bram(self, name, *, elements, width):
        """Declare a BRAM and return its handle."""
        self._claim_name(name)
        decl = ast.BramDecl(name, elements, width)
        self._brams.append(decl)
        self._count_line()
        return BramHandle(decl, self)

    def wire(self, value, name=None):
        """Hold a temporary value (the paper's ``wire`` type).

        The returned expression evaluates the wire's definition once per
        virtual cycle however many times it is read — use wires for any
        value consumed by later expressions (e.g. chained compare-selects)
        so the expression DAG stays a DAG.
        """
        if name is None:
            name = f"w{self._wire_count}"
            self._wire_count += 1
        return Expr(ast.WireRead(ast.WireDecl(name, _to_node(value))))

    # -- expressions -----------------------------------------------------------
    @property
    def input(self):
        """The current input token."""
        return Expr(ast.InputToken(self.input_width))

    @property
    def stream_finished(self):
        """1-bit flag, true during post-stream cleanup virtual cycles."""
        return Expr(ast.StreamFinished())

    def const(self, value, width=None):
        return Expr(ast.Const(value, width))

    def mux(self, cond, then, els):
        """``cond ? then : els``."""
        return Expr(
            ast.Mux(_to_node(cond), _to_node(then), _to_node(els))
        )

    def cat(self, *parts):
        """Concatenate bits; first argument is most significant."""
        return Expr(ast.Concat([_to_node(p) for p in parts]))

    def all_of(self, *conds):
        """AND of 1-bit conditions."""
        return self._fold("and", conds)

    def any_of(self, *conds):
        """OR of 1-bit conditions."""
        return self._fold("or", conds)

    def not_(self, cond):
        """Logical negation of a condition (1 iff ``cond`` is zero)."""
        return Expr(ast.UnOp("lnot", _to_node(cond)))

    def _fold(self, op, conds):
        if not conds:
            raise FleetSyntaxError("need at least one condition")
        node = _to_node(conds[0])
        for c in conds[1:]:
            node = ast.BinOp(op, node, _to_node(c))
        return Expr(node)

    # -- statements --------------------------------------------------------------
    def _append(self, stmt):
        if self._finished:
            raise FleetSyntaxError(
                f"unit {self.name!r} is finished; no more statements allowed"
            )
        self._blocks[-1].append(stmt)
        self._count_line()

    def _count_line(self):
        self._stmt_count += 1

    def emit(self, value):
        """Emit one output token this virtual cycle (at most one emit may
        execute per virtual cycle, per the paper's restriction)."""
        node = _coerce_assign(value, self.output_width, "<output>")
        self._append(ast.Emit(node))

    @contextmanager
    def _nested(self):
        """Collect a block's statements for the ``if``/``while`` built
        from them once the block closes."""
        body = []
        self._blocks.append(body)
        try:
            yield body
        finally:
            self._blocks.pop()

    @contextmanager
    def when(self, cond):
        """Open an ``if`` block."""
        cond = _check_cond(_to_node(cond))
        with self._nested() as body:
            yield
        self._append(ast.If([(cond, body)]))

    @contextmanager
    def elif_(self, cond):
        """Open an ``else if`` arm on the immediately preceding ``when``."""
        stmt = self._last_if("elif_")
        with self._arm(stmt, _check_cond(_to_node(cond))):
            yield

    @contextmanager
    def otherwise(self):
        """Open the ``else`` arm on the immediately preceding ``when``."""
        with self._arm(self._last_if("otherwise"), None):
            yield

    @contextmanager
    def _arm(self, stmt, cond):
        """Rebuild ``stmt``, the open block's last ``if``, with one more
        arm once the arm's block closes."""
        self._count_line()
        with self._nested() as body:
            yield
        self._blocks[-1][-1] = ast.If(stmt.arms + ((cond, body),))

    def _last_if(self, what):
        block = self._blocks[-1]
        if not block or not isinstance(block[-1], ast.If):
            raise FleetSyntaxError(
                f"{what} must immediately follow a when/elif_ block"
            )
        stmt = block[-1]
        if stmt.arms and stmt.arms[-1][0] is None:
            raise FleetSyntaxError(f"{what} after otherwise()")
        return stmt

    @contextmanager
    def while_(self, cond):
        """Open a ``while`` loop: body statements execute one virtual cycle
        per iteration without consuming the input token; statements outside
        every loop execute on the final virtual cycle once all loop
        conditions are false. Nesting is not supported (as in the paper)."""
        if self._while_depth:
            raise FleetSyntaxError(
                "nested while loops are not supported; fold the inner loop "
                "into explicit state machine states (see paper Section 3)"
            )
        cond = _check_cond(_to_node(cond))
        self._while_depth += 1
        try:
            with self._nested() as body:
                yield
        finally:
            self._while_depth -= 1
        self._append(ast.While(cond, body))

    # -- completion ---------------------------------------------------------------
    def finish(self):
        """Validate and freeze the program."""
        if len(self._blocks) != 1:
            raise FleetSyntaxError("finish() called inside an open block")
        self._finished = True
        program = ast.UnitProgram(
            self.name,
            self.input_width,
            self.output_width,
            self._regs,
            self._vregs,
            self._brams,
            self._body,
            source_lines=self._stmt_count,
        )
        validate_program(program)
        return program


def _check_cond(node):
    if node.width != 1:
        raise FleetWidthError(
            f"condition must be 1 bit wide, got {node.width} bits; "
            "use comparisons or .any()"
        )
    return node
