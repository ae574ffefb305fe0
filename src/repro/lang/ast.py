"""Abstract syntax tree for Fleet processing-unit programs.

A :class:`UnitProgram` is the immutable result of building a processing unit
with :class:`repro.lang.builder.UnitBuilder`. It holds the declared state
elements (registers, vector registers, BRAMs) and a body of statements with
the paper's concurrent per-virtual-cycle semantics:

* every statement is (conceptually) evaluated every virtual cycle against the
  *current* state, gated by the conjunction of its enclosing conditions;
* statements inside a ``while`` execute on loop virtual cycles; statements
  outside every ``while`` execute only on the final (``while_done``) virtual
  cycle for the current input token;
* all state writes commit together at the end of the virtual cycle.

The AST is deliberately small — the paper lists the full feature set in its
Figure 2 and this module implements exactly that set.
"""

import hashlib

from .. import ops
from . import types
from .errors import FleetSyntaxError, FleetWidthError

#: How constructors assign fields: instances reject attribute writes.
_init = object.__setattr__


class Frozen:
    """Base of every declaration, expression, statement and program:
    attribute writes raise, so a built program never changes and what is
    derived from it (fingerprint, certificate, lowering, engines) stays
    valid. A copy is the object itself, as for any immutable value."""

    __slots__ = ()

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self


# ---------------------------------------------------------------------------
# State element declarations
# ---------------------------------------------------------------------------


class RegDecl(Frozen):
    """A register with a declared width and reset/init value."""

    __slots__ = ("name", "width", "init")

    def __init__(self, name, width, init=0):
        _init(self, "name", name)
        _init(self, "width", types.check_width(width))
        if not types.fits(init, width):
            raise FleetWidthError(
                f"register {name!r}: init {init} does not fit in {width} bits"
            )
        _init(self, "init", init)

    def __repr__(self):
        return f"RegDecl({self.name!r}, width={self.width}, init={self.init})"


class VectorRegDecl(Frozen):
    """A bank of registers with dynamic (random-access) indexing.

    Unlike a BRAM, a vector register is built from flip-flops and mux trees,
    so reads have no latency and are not restricted; the area model charges
    accordingly.
    """

    __slots__ = ("name", "elements", "width", "init")

    def __init__(self, name, elements, width, init=0):
        if elements < 1:
            raise FleetSyntaxError(
                f"vector register {name!r}: needs >= 1 element"
            )
        _init(self, "name", name)
        _init(self, "elements", elements)
        _init(self, "width", types.check_width(width))
        if not types.fits(init, width):
            raise FleetWidthError(
                f"vector register {name!r}: init {init} does not fit in "
                f"{width} bits"
            )
        _init(self, "init", init)

    @property
    def index_width(self):
        return max(1, (self.elements - 1).bit_length())

    def __repr__(self):
        return (
            f"VectorRegDecl({self.name!r}, elements={self.elements}, "
            f"width={self.width})"
        )


class WireDecl(Frozen):
    """A named combinational temporary (the paper's ``wire`` type).

    Wires make expression sharing explicit: a wire's defining expression is
    evaluated once per virtual cycle no matter how many places read it,
    which is also how the generated RTL behaves. Without them, deep
    compare-select chains (e.g. a Smith-Waterman row update) would blow up
    exponentially when treated as trees.
    """

    __slots__ = ("name", "value", "width")

    def __init__(self, name, value):
        _init(self, "name", name)
        _init(self, "value", value)
        _init(self, "width", value.width)

    def __repr__(self):
        return f"WireDecl({self.name!r}, width={self.width})"


class BramDecl(Frozen):
    """A block RAM: one read and one write per virtual cycle, one-cycle
    read latency in hardware, zero-initialized (as on most FPGAs)."""

    __slots__ = ("name", "elements", "width")

    def __init__(self, name, elements, width):
        if elements < 1:
            raise FleetSyntaxError(f"BRAM {name!r}: needs >= 1 element")
        _init(self, "name", name)
        _init(self, "elements", elements)
        _init(self, "width", types.check_width(width))

    @property
    def addr_width(self):
        return max(1, (self.elements - 1).bit_length())

    def __repr__(self):
        return (
            f"BramDecl({self.name!r}, elements={self.elements}, "
            f"width={self.width})"
        )


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


class Node(Frozen):
    """Base class for expression nodes. Every node has a ``width``."""

    __slots__ = ("width",)

    def children(self):
        """Child expression nodes, for generic traversals."""
        return ()


class Const(Node):
    __slots__ = ("value",)

    def __init__(self, value, width=None):
        if value < 0:
            raise FleetWidthError(
                f"Fleet constants are unsigned, got {value}"
            )
        if width is None:
            width = types.bits_for(value)
        if not types.fits(value, width):
            raise FleetWidthError(
                f"constant {value} does not fit in {width} bits"
            )
        _init(self, "value", value)
        _init(self, "width", types.check_width(width))

    def __repr__(self):
        return f"Const({self.value}, w={self.width})"


class InputToken(Node):
    """The current input token (the paper's ``input`` expression)."""

    __slots__ = ()

    def __init__(self, width):
        _init(self, "width", types.check_width(width))

    def __repr__(self):
        return f"InputToken(w={self.width})"


class StreamFinished(Node):
    """1-bit flag: true during the post-stream cleanup virtual cycles."""

    __slots__ = ()

    def __init__(self):
        _init(self, "width", 1)

    def __repr__(self):
        return "StreamFinished()"


class RegRead(Node):
    __slots__ = ("reg",)

    def __init__(self, reg):
        _init(self, "reg", reg)
        _init(self, "width", reg.width)

    def __repr__(self):
        return f"RegRead({self.reg.name})"


class VectorRegRead(Node):
    __slots__ = ("vreg", "index")

    def __init__(self, vreg, index):
        _init(self, "vreg", vreg)
        _init(self, "index", index)
        _init(self, "width", vreg.width)

    def children(self):
        return (self.index,)

    def __repr__(self):
        return f"VectorRegRead({self.vreg.name}, {self.index!r})"


class BramRead(Node):
    __slots__ = ("bram", "addr")

    def __init__(self, bram, addr):
        _init(self, "bram", bram)
        _init(self, "addr", addr)
        _init(self, "width", bram.width)

    def children(self):
        return (self.addr,)

    def __repr__(self):
        return f"BramRead({self.bram.name}, {self.addr!r})"


class WireRead(Node):
    __slots__ = ("wire",)

    def __init__(self, wire):
        _init(self, "wire", wire)
        _init(self, "width", wire.width)

    def children(self):
        return (self.wire.value,)

    def __repr__(self):
        return f"WireRead({self.wire.name})"


class BinOp(Node):
    __slots__ = ("op", "lhs", "rhs")

    def __init__(self, op, lhs, rhs):
        if op not in ops.BINOPS:
            raise FleetSyntaxError(f"unknown binary operator {op!r}")
        _init(self, "op", op)
        _init(self, "lhs", lhs)
        _init(self, "rhs", rhs)
        _init(self, "width", ops.binop_width(op, lhs.width, rhs.width))

    def children(self):
        return (self.lhs, self.rhs)

    def __repr__(self):
        return f"BinOp({self.op}, {self.lhs!r}, {self.rhs!r})"


class UnOp(Node):
    __slots__ = ("op", "operand")

    def __init__(self, op, operand):
        if op not in ops.UNOPS:
            raise FleetSyntaxError(f"unknown unary operator {op!r}")
        _init(self, "op", op)
        _init(self, "operand", operand)
        _init(self, "width", ops.unop_width(op, operand.width))

    def children(self):
        return (self.operand,)

    def __repr__(self):
        return f"UnOp({self.op}, {self.operand!r})"


class Mux(Node):
    """``cond ? then : els`` with a 1-bit-checked condition."""

    __slots__ = ("cond", "then", "els")

    def __init__(self, cond, then, els):
        if cond.width != 1:
            raise FleetWidthError(
                f"mux condition must be 1 bit, got {cond.width}"
            )
        _init(self, "cond", cond)
        _init(self, "then", then)
        _init(self, "els", els)
        _init(self, "width", max(then.width, els.width))

    def children(self):
        return (self.cond, self.then, self.els)

    def __repr__(self):
        return f"Mux({self.cond!r}, {self.then!r}, {self.els!r})"


class Slice(Node):
    """Bit slice ``operand[hi:lo]``, both bounds inclusive, lo <= hi."""

    __slots__ = ("operand", "hi", "lo")

    def __init__(self, operand, hi, lo):
        if not (0 <= lo <= hi):
            raise FleetWidthError(f"bad slice bounds [{hi}:{lo}]")
        if hi >= operand.width:
            raise FleetWidthError(
                f"slice [{hi}:{lo}] out of range for width {operand.width}"
            )
        _init(self, "operand", operand)
        _init(self, "hi", hi)
        _init(self, "lo", lo)
        _init(self, "width", hi - lo + 1)

    def children(self):
        return (self.operand,)

    def __repr__(self):
        return f"Slice({self.operand!r}, {self.hi}, {self.lo})"


class Concat(Node):
    """Bit concatenation; ``parts[0]`` is the most significant."""

    __slots__ = ("parts",)

    def __init__(self, parts):
        parts = tuple(parts)
        if not parts:
            raise FleetSyntaxError("concat of zero parts")
        _init(self, "parts", parts)
        _init(self, "width", types.check_width(sum(p.width for p in parts)))

    def children(self):
        return self.parts

    def __repr__(self):
        return f"Concat({list(self.parts)!r})"


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


class Statement(Frozen):
    __slots__ = ()


class RegAssign(Statement):
    __slots__ = ("reg", "value")

    def __init__(self, reg, value):
        _init(self, "reg", reg)
        _init(self, "value", value)

    def __repr__(self):
        return f"RegAssign({self.reg.name}, {self.value!r})"


class VectorRegAssign(Statement):
    __slots__ = ("vreg", "index", "value")

    def __init__(self, vreg, index, value):
        _init(self, "vreg", vreg)
        _init(self, "index", index)
        _init(self, "value", value)

    def __repr__(self):
        return (
            f"VectorRegAssign({self.vreg.name}, {self.index!r}, "
            f"{self.value!r})"
        )


class BramWrite(Statement):
    __slots__ = ("bram", "addr", "value")

    def __init__(self, bram, addr, value):
        _init(self, "bram", bram)
        _init(self, "addr", addr)
        _init(self, "value", value)

    def __repr__(self):
        return f"BramWrite({self.bram.name}, {self.addr!r}, {self.value!r})"


class Emit(Statement):
    __slots__ = ("value",)

    def __init__(self, value):
        _init(self, "value", value)

    def __repr__(self):
        return f"Emit({self.value!r})"


class If(Statement):
    """A chain of (condition, body) arms; a final arm with condition ``None``
    is the ``else`` block."""

    __slots__ = ("arms",)

    def __init__(self, arms):
        _init(self, "arms", tuple((cond, tuple(body)) for cond, body in arms))

    def __repr__(self):
        return f"If({len(self.arms)} arms)"


class While(Statement):
    __slots__ = ("cond", "body")

    def __init__(self, cond, body):
        _init(self, "cond", cond)
        _init(self, "body", tuple(body))

    def __repr__(self):
        return f"While({self.cond!r}, {len(self.body)} stmts)"


# ---------------------------------------------------------------------------
# Program container
# ---------------------------------------------------------------------------


class UnitProgram(Frozen):
    """An immutable, validated Fleet processing-unit program."""

    __slots__ = ("name", "input_width", "output_width", "regs", "vregs",
                 "brams", "body", "source_lines", "_fingerprint", "_sites")

    def __init__(self, name, input_width, output_width, regs, vregs, brams,
                 body, source_lines=None):
        _init(self, "name", name)
        _init(self, "input_width", types.check_width(input_width))
        _init(self, "output_width", types.check_width(output_width))
        _init(self, "regs", tuple(regs))
        _init(self, "vregs", tuple(vregs))
        _init(self, "brams", tuple(brams))
        _init(self, "body", tuple(body))
        #: Number of builder-API lines used to express the unit; feeds the
        #: Figure 8 lines-of-code comparison.
        _init(self, "source_lines", source_lines)
        _init(self, "_fingerprint", None)
        _init(self, "_sites", None)

    @property
    def fingerprint(self):
        """SHA-256 hex digest of :func:`canonical_form`, computed once."""
        if self._fingerprint is None:
            canonical = repr(canonical_form(self)).encode("utf-8")
            _init(self, "_fingerprint", hashlib.sha256(canonical).hexdigest())
        return self._fingerprint

    @property
    def sites(self):
        """The program's :class:`~repro.lang.sites.ProgramSites`: one walk
        of its statements and guards, made on first use."""
        if self._sites is None:
            from .sites import ProgramSites

            _init(self, "_sites", ProgramSites(self))
        return self._sites

    def __repr__(self):
        return (
            f"UnitProgram({self.name!r}, in={self.input_width}b, "
            f"out={self.output_width}b, regs={len(self.regs)}, "
            f"vregs={len(self.vregs)}, brams={len(self.brams)})"
        )


# ---------------------------------------------------------------------------
# Generic traversals
# ---------------------------------------------------------------------------


def walk_expr(node):
    """Yield ``node`` and every expression node beneath it.

    Expressions are DAGs (wires and reused sub-expressions are shared), so
    each distinct node is yielded exactly once.
    """
    stack = [node]
    seen = set()
    while stack:
        n = stack.pop()
        if id(n) in seen:
            continue
        seen.add(id(n))
        yield n
        stack.extend(n.children())


def contains_bram_read(node):
    """Whether any :class:`BramRead` appears in the expression tree."""
    return any(isinstance(n, BramRead) for n in walk_expr(node))


def walk_statements(body):
    """Yield every statement in ``body``, recursing into ifs and whiles."""
    stack = list(reversed(body))
    while stack:
        stmt = stack.pop()
        yield stmt
        if isinstance(stmt, If):
            for _, arm_body in reversed(stmt.arms):
                stack.extend(reversed(arm_body))
        elif isinstance(stmt, While):
            stack.extend(reversed(stmt.body))


def statement_exprs(stmt):
    """The expression trees directly referenced by ``stmt`` (not recursing
    into nested statements)."""
    if isinstance(stmt, RegAssign):
        return (stmt.value,)
    if isinstance(stmt, VectorRegAssign):
        return (stmt.index, stmt.value)
    if isinstance(stmt, BramWrite):
        return (stmt.addr, stmt.value)
    if isinstance(stmt, Emit):
        return (stmt.value,)
    if isinstance(stmt, If):
        return tuple(c for c, _ in stmt.arms if c is not None)
    if isinstance(stmt, While):
        return (stmt.cond,)
    raise FleetSyntaxError(f"unknown statement {stmt!r}")


#: The leading fields of each node's canonical descriptor: a tag, then
#: the node's scalars; the indices of its child expressions follow.
_FORMS = {
    Const: lambda n: ("const", n.value, n.width),
    InputToken: lambda n: ("input", n.width),
    StreamFinished: lambda n: ("sf",),
    RegRead: lambda n: ("reg", n.reg.name),
    VectorRegRead: lambda n: ("vreg", n.vreg.name),
    BramRead: lambda n: ("bram", n.bram.name),
    WireRead: lambda n: ("wire", n.wire.name),
    BinOp: lambda n: ("bin", n.op),
    UnOp: lambda n: ("un", n.op),
    Mux: lambda n: ("mux",),
    Slice: lambda n: ("slice", n.hi, n.lo),
    Concat: lambda n: ("cat",),
    RegAssign: lambda s: ("set", s.reg.name),
    VectorRegAssign: lambda s: ("vset", s.vreg.name),
    BramWrite: lambda s: ("store", s.bram.name),
    Emit: lambda s: ("emit",),
}


def canonical_form(program):
    """A canonical serialization of ``program``, the input of its
    :attr:`UnitProgram.fingerprint`. Declarations are referenced by
    name, never by object identity; expression nodes are emitted once
    into a descriptor table and referenced by index, so DAG-shaped
    programs (deep shared wires) serialize in linear size."""
    descriptors = []
    index = {}

    def expr(node):
        position = index.get(id(node))
        if position is None:
            children = tuple(expr(child) for child in node.children())
            descriptors.append(_FORMS[type(node)](node) + children)
            position = index[id(node)] = len(descriptors) - 1
        return position

    def stmt(node):
        if isinstance(node, If):
            return ("if",) + tuple(
                (None if cond is None else expr(cond), block(arm_body))
                for cond, arm_body in node.arms
            )
        if isinstance(node, While):
            return ("while", expr(node.cond), block(node.body))
        return _FORMS[type(node)](node) + tuple(
            expr(e) for e in statement_exprs(node))

    def block(body):
        return tuple(stmt(s) for s in body)

    body = block(program.body)
    return (
        "fleet-unit-v1", program.name, program.input_width,
        program.output_width,
        tuple((r.name, r.width, r.init) for r in program.regs),
        tuple((v.name, v.elements, v.width, v.init) for v in program.vregs),
        tuple((b.name, b.elements, b.width) for b in program.brams),
        tuple(descriptors), body,
    )
