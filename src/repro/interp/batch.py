"""Vectorized many-PU batch engine: N lockstep replicas per virtual cycle.

The compiled engine (:mod:`repro.interp.compile`) removed per-node
dispatch but still executes one processing unit at a time; simulating a
Figure-7 fleet of 192+ PUs costs N independent runs. This module lowers
a :class:`~repro.lang.ast.UnitProgram` *once* into NumPy array code that
executes N replicas per virtual cycle as SIMD over struct-of-arrays
state:

* registers become rows of one ``(R, N)`` ``uint64`` matrix (lane ``i``
  is replica ``i``'s value);
* vector registers and BRAMs with the same element count are stacked
  into ``(B, E, N)`` ``uint64`` groups, read with flat gathers and
  written with boolean-compressed scatters;
* guards and ``while_done`` become boolean lane masks, and every
  pending write commits at end-of-cycle as ``old += (new - old) * mask``
  — exact modulo ``2**64`` — preserving the interpreter's
  read-start-of-cycle / last-write-wins semantics bit for bit;
* replicas with unequal stream lengths run under an active-lane mask
  (the :mod:`repro.isa.simt` reconvergence idiom), so one compilation
  serves a whole ragged batch.

The lowering is *structural*: expression nodes are interned (CSE over
the program DAG), then grouped into classes of nodes with the same
operator and child classes. Each class evaluates with one ufunc call
over a ``(G, N)`` block — differing constants become ``(G, 1)``
columns — so per-cycle Python overhead scales with the number of
*shapes* in the program, not the number of nodes.

Every arithmetic value lives in a ``uint64`` lane: Fleet's width rules
(:mod:`repro.lang.types`) guarantee each expression's exact value fits
its inferred width ``<= 64`` bits, so ``uint64`` arithmetic is exact
everywhere except explicit wrap points (``sub`` and assignment
truncation AND with the width mask, ``not`` XORs it). Comparisons,
reductions, and guard masks are ``bool`` arrays — NumPy's boolean
ufunc loops are measurably faster than integer ones, and booleans feed
``uint64`` arithmetic without casts. The generated per-cycle code calls
every ufunc with preallocated ``out=`` buffers, hoists all row views
out of the loop, and never passes ``dtype=``/``casting=`` keywords on
the hot path (both measurably triple a small-N ufunc call).

Soundness conditions (checked by :func:`batch_support`):

* every BRAM/vector register has a power-of-two element count (same
  totality gate as the compiled engine);
* every expression width is at most 64 bits and every constant fits a
  machine word;
* only the operator set the compiled engine supports appears.

Like check-elision in the compiled engine, automatic selection
(:func:`batch_engine_for`) additionally requires a clean covering
:class:`~repro.lint.certificate.RestrictionCertificate`: the grouped
write commits assume the restriction checks can never fire.

For certified programs on a host with a C toolchain,
:func:`compile_batch` also attaches a native tier
(:mod:`repro.interp.cc`): the certified-specialized cycle rendered as
one lane-major C kernel, bit-identical to the NumPy lowering.

NumPy is an optional dependency: when it is missing every entry point
degrades gracefully (``batch_support`` says so, ``batch_engine_for``
returns ``None`` so callers fall back to the compiled engine) and
:func:`compile_batch` raises a :class:`FleetSimulationError` with an
install hint.
"""

try:  # pragma: no cover - exercised both ways across environments
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

from ..envcfg import env_choice
from ..lang import ast
from ..lang.errors import (
    FleetConfigError,
    FleetLoopLimitError,
    FleetSimulationError,
)
from ..lang.types import MACHINE_WIDTH, machine_bits, mask
from ..telemetry.metrics import counter as _tm_counter
from . import cc as _cc
from . import native as _native
from .native import cc_available
from .trace import StreamTrace

#: Live telemetry (repro.telemetry; zero-cost unless FLEET_METRICS).
_BATCH_FALLBACKS = _tm_counter(
    "fleet_batch_fallback_total",
    "batch_engine_for() declined and callers fell back to per-stream "
    "engines",
    ("reason",),
)
_BATCH_COMPILES = _tm_counter(
    "fleet_batch_compiles_total",
    "Unit programs lowered to the SIMD batch engine",
)
_NATIVE_DECLINES = _tm_counter(
    "fleet_batch_native_declines_total",
    "compile_batch() built no native kernel and the batch runs on the "
    "NumPy tier",
    ("reason",),
)

#: Shown when the batch engine is requested but NumPy is not importable.
NUMPY_HINT = (
    "the batch engine requires numpy (`pip install numpy`); "
    "install it or use the compiled engine"
)

#: Fleet binary operator -> local alias of the NumPy ufunc in the
#: generated driver's prelude.
_BIN_UFUNC = {
    "add": "add", "sub": "sub", "mul": "mul",
    "and": "and", "or": "orb", "xor": "xor",
    "shl": "shl", "shr": "shr",
    "eq": "eq", "ne": "ne", "lt": "lt", "le": "le",
    "gt": "gt", "ge": "ge",
}

_CMP_OPS = frozenset(("eq", "ne", "lt", "le", "gt", "ge"))
_UN_OPS = frozenset(("not", "lnot", "orr", "andr", "xorr"))
_BOOL_UNS = frozenset(("lnot", "orr", "andr", "xorr"))


def numpy_available():
    """Whether NumPy imported successfully (the batch engine's only
    dependency beyond the standard library)."""
    return _np is not None


class _Unsupported(Exception):
    """Raised during lowering when a program can't take the batch path."""


def batch_support(program):
    """Whether ``program`` can run on the batch engine.

    Returns ``(True, "")`` or ``(False, reason)``. The conditions are the
    compiled engine's totality gate plus the machine-word gate: every
    expression must fit a 64-bit lane.
    """
    if _np is None:
        return False, NUMPY_HINT
    from .compile import _state_shape_ok

    if not _state_shape_ok(program):
        return False, (
            "every BRAM and vector register needs a power-of-two "
            "element count"
        )
    if machine_bits(program.input_width) is None:
        return False, f"input width {program.input_width} exceeds 64 bits"
    if machine_bits(program.output_width) is None:
        return False, f"output width {program.output_width} exceeds 64 bits"
    roots = []
    for stmt in ast.walk_statements(program.body):
        roots.extend(ast.statement_exprs(stmt))
    seen = set()
    for root in roots:
        for node in ast.walk_expr(root):
            if id(node) in seen:
                continue
            seen.add(id(node))
            if isinstance(node, ast.Const):
                if node.value > mask(MACHINE_WIDTH):
                    return False, (
                        f"constant {node.value} exceeds a 64-bit machine word"
                    )
                continue
            if machine_bits(node.width) is None:
                return False, (
                    f"expression width {node.width} exceeds 64-bit lanes"
                )
            if isinstance(node, ast.BinOp):
                if node.op not in _BIN_UFUNC:
                    return False, f"unsupported operator {node.op!r}"
            elif isinstance(node, ast.UnOp):
                if node.op not in _UN_OPS:
                    return False, f"unsupported operator {node.op!r}"
            elif not isinstance(node, (
                ast.InputToken, ast.StreamFinished, ast.RegRead,
                ast.WireRead, ast.VectorRegRead, ast.BramRead, ast.Mux,
                ast.Slice, ast.Concat,
            )):
                return False, f"unsupported node {node!r}"
    return True, ""


# ---------------------------------------------------------------------------
# Occurrences (CSE) and structural classes
# ---------------------------------------------------------------------------


class _Occ:
    """One interned expression occurrence (a value-numbered DAG node)."""

    __slots__ = ("idx", "kind", "op", "width", "children", "params",
                 "value", "cls", "row")

    def __init__(self, idx, kind, op, width, children, params, value=None):
        self.idx = idx
        self.kind = kind
        self.op = op
        self.width = width
        self.children = children
        self.params = params
        self.value = value
        self.cls = None
        self.row = None


class _Cls:
    """A structural class: occurrences evaluated by one stacked ufunc."""

    __slots__ = ("idx", "kind", "op", "members", "name", "store")

    def __init__(self, idx, kind, op):
        self.idx = idx
        self.kind = kind
        self.op = op
        self.members = []
        self.name = None
        self.store = "u"


class _BatchCodegen:
    def __init__(self, program):
        self.program = program
        self.occs = []
        self.memo = {}
        self.node_memo = {}
        self.pool = []
        self.pool_memo = {}
        self.pool_mat = set()
        self.alloc = []           # (name, rows_or_None, "u"/"b"/"intp")
        self.hoists = {}          # view expr -> prelude local name
        self.lines_cls = []
        self.lines_mask = []
        self.lines_wd = []
        self.lines_emit = []
        self.lines_guard = []
        self.lines_commit = []
        self.mask_count = 0
        self.scratch_count = 0
        self.snap_memo = {}
        self.wd_cache = {}
        self.cnz_cache = {}
        self.whiles = []          # activation mask names
        self.site_regs = []       # (row, mask, val_occ)
        self.site_states = []     # (gid, member, mask, addr_occ, val_occ)
        self.site_emits = []      # (mask, val_occ)
        self._build_layout()
        self.plan = self._walk_body(program.body)
        self._assign_classes()
        self._decide_stores()

    # -- state layout --------------------------------------------------------
    def _build_layout(self):
        program = self.program
        nregs = len(program.regs)
        self.reg_groups = {64: list(range(nregs))} if nregs else {}
        self.reg_loc = {i: (64, i) for i in range(nregs)}
        self.state_groups = []    # (64, elements, [(kind, index), ...])
        self.state_loc = {}       # (kind, index) -> (gid, member)
        keymap = {}
        decls = [("vreg", i, v) for i, v in enumerate(program.vregs)]
        decls += [("bram", i, b) for i, b in enumerate(program.brams)]
        for kind, i, decl in decls:
            gid = keymap.get(decl.elements)
            if gid is None:
                gid = len(self.state_groups)
                keymap[decl.elements] = gid
                self.state_groups.append((64, decl.elements, []))
            members = self.state_groups[gid][2]
            self.state_loc[(kind, i)] = (gid, len(members))
            members.append((kind, i))

    # -- interning -----------------------------------------------------------
    def _intern(self, kind, op, width, children, params, value=None):
        key = (kind, op, width, children, params, value)
        idx = self.memo.get(key)
        if idx is not None:
            return idx
        if kind != "const" and machine_bits(width) is None:
            raise _Unsupported(f"width {width} exceeds 64-bit lanes")
        occ = _Occ(len(self.occs), kind, op, width, children, params, value)
        self.occs.append(occ)
        self.memo[key] = occ.idx
        return occ.idx

    def _const(self, value, width):
        return self._intern("const", None, width, (), (), value)

    def _trunc(self, oid, width):
        occ = self.occs[oid]
        if occ.kind == "const":
            return self._const(occ.value & mask(width), width)
        if occ.width <= width:
            return oid
        return self._slice(oid, 0, width)

    def _slice(self, oid, lo, width):
        occ = self.occs[oid]
        if occ.kind == "const":
            return self._const((occ.value >> lo) & mask(width), width)
        if lo == 0 and width >= occ.width:
            return oid
        return self._intern("slice", None, width, (oid,), (lo,))

    def occ_of(self, node):
        oid = self.node_memo.get(id(node))
        if oid is None:
            oid = self._occ_of(node)
            self.node_memo[id(node)] = oid
        return oid

    def _occ_of(self, node):
        from .. import ops

        if isinstance(node, ast.Const):
            if node.value > mask(MACHINE_WIDTH):
                raise _Unsupported(f"constant {node.value} exceeds 64 bits")
            return self._const(node.value, node.width)
        if isinstance(node, ast.InputToken):
            return self._intern("token", None, node.width, (), ())
        if isinstance(node, ast.StreamFinished):
            return self._intern("sf", None, 1, (), ())
        if isinstance(node, ast.WireRead):
            return self.occ_of(node.wire.value)
        if isinstance(node, ast.RegRead):
            ri = self.program.regs.index(node.reg)
            return self._intern("reg", None, node.width, (), (ri,))
        if isinstance(node, (ast.VectorRegRead, ast.BramRead)):
            if isinstance(node, ast.VectorRegRead):
                kind = "vreg"
                di = self.program.vregs.index(node.vreg)
                aw = node.vreg.index_width
                addr = self.occ_of(node.index)
            else:
                kind = "bram"
                di = self.program.brams.index(node.bram)
                aw = node.bram.addr_width
                addr = self.occ_of(node.addr)
            gid, member = self.state_loc[(kind, di)]
            addr = self._trunc(addr, aw)
            aocc = self.occs[addr]
            if aocc.kind == "const":
                _, elements, _ = self.state_groups[gid]
                row = member * elements + aocc.value
                return self._intern("sload", None, node.width, (),
                                    (gid, row))
            return self._intern("vread", None, node.width, (addr,),
                                (gid, member))
        if isinstance(node, ast.BinOp):
            lhs = self.occ_of(node.lhs)
            rhs = self.occ_of(node.rhs)
            lo, ro = self.occs[lhs], self.occs[rhs]
            if lo.kind == "const" and ro.kind == "const":
                value = ops.eval_binop(
                    node.op, lo.value, ro.value,
                    node.lhs.width, node.rhs.width,
                )
                return self._const(value, node.width)
            if node.op == "shr" and ro.kind == "const" \
                    and ro.value >= node.lhs.width:
                return self._const(0, node.width)
            if node.op not in _BIN_UFUNC:
                raise _Unsupported(f"operator {node.op!r}")
            return self._intern("bin", node.op, node.width, (lhs, rhs),
                                (node.lhs.width, node.rhs.width))
        if isinstance(node, ast.UnOp):
            a = self.occ_of(node.operand)
            ao = self.occs[a]
            if ao.kind == "const":
                value = ops.eval_unop(node.op, ao.value, node.operand.width)
                return self._const(value, node.width)
            op = node.op
            if op not in _UN_OPS:
                raise _Unsupported(f"operator {op!r}")
            if node.operand.width == 1:
                # Width-1 reductions are the identity; width-1 NOT is
                # logical-not (both keep the 0/1 value exact).
                if op in ("orr", "andr", "xorr"):
                    return a
                if op == "not":
                    op = "lnot"
            return self._intern("un", op, node.width, (a,),
                                (node.operand.width,))
        if isinstance(node, ast.Mux):
            cond = self.occ_of(node.cond)
            co = self.occs[cond]
            if co.kind == "const":
                return self.occ_of(node.then if co.value else node.els)
            then = self.occ_of(node.then)
            els = self.occ_of(node.els)
            if then == els:
                return then
            return self._intern("mux", None, node.width, (cond, then, els),
                                ())
        if isinstance(node, ast.Slice):
            return self._slice(self.occ_of(node.operand), node.lo,
                               node.width)
        if isinstance(node, ast.Concat):
            parts = tuple(self.occ_of(p) for p in node.parts)
            if all(self.occs[p].kind == "const" for p in parts):
                value = 0
                for p, pn in zip(parts, node.parts):
                    value = (value << pn.width) | self.occs[p].value
                return self._const(value, node.width)
            widths = tuple(p.width for p in node.parts)
            return self._intern("cat", None, node.width, parts, (widths,))
        raise _Unsupported(f"unsupported node {node!r}")

    # -- statement walk (builds occs, records the plan) ----------------------
    def _walk_body(self, body):
        plan = []
        for stmt in body:
            if isinstance(stmt, ast.If):
                arms = []
                for cond, arm_body in stmt.arms:
                    cocc = None if cond is None else self.occ_of(cond)
                    arms.append((cocc, self._walk_body(arm_body)))
                plan.append(("if", arms))
            elif isinstance(stmt, ast.While):
                cocc = self.occ_of(stmt.cond)
                plan.append(("while", cocc, self._walk_body(stmt.body)))
            elif isinstance(stmt, ast.RegAssign):
                ri = self.program.regs.index(stmt.reg)
                val = self._trunc(self.occ_of(stmt.value), stmt.reg.width)
                plan.append(("reg", ri, val))
            elif isinstance(stmt, ast.VectorRegAssign):
                di = self.program.vregs.index(stmt.vreg)
                gid, member = self.state_loc[("vreg", di)]
                addr = self._trunc(self.occ_of(stmt.index),
                                   stmt.vreg.index_width)
                val = self._trunc(self.occ_of(stmt.value), stmt.vreg.width)
                plan.append(("state", gid, member, addr, val))
            elif isinstance(stmt, ast.BramWrite):
                di = self.program.brams.index(stmt.bram)
                gid, member = self.state_loc[("bram", di)]
                addr = self._trunc(self.occ_of(stmt.addr),
                                   stmt.bram.addr_width)
                val = self._trunc(self.occ_of(stmt.value), stmt.bram.width)
                plan.append(("state", gid, member, addr, val))
            elif isinstance(stmt, ast.Emit):
                val = self._trunc(self.occ_of(stmt.value),
                                  self.program.output_width)
                plan.append(("emit", val))
            else:
                raise _Unsupported(f"unsupported statement {stmt!r}")
        return plan

    # -- classing ------------------------------------------------------------
    def _assign_classes(self):
        self.classes = []
        sigmap = {}
        for occ in self.occs:
            if occ.kind in ("const", "token", "sf"):
                continue
            if occ.kind == "reg":
                sig = ("reg",)
            elif occ.kind == "sload":
                sig = ("sload", occ.params[0])
            else:
                marks = []
                for ci in occ.children:
                    c = self.occs[ci]
                    if c.kind == "const":
                        marks.append("K")
                    elif c.kind == "token":
                        marks.append("T")
                    elif c.kind == "sf":
                        marks.append("S")
                    else:
                        marks.append(("C", c.cls))
                extra = occ.params[0] if occ.kind == "vread" else None
                sig = (occ.kind, occ.op, tuple(marks), extra)
            cls = sigmap.get(sig)
            if cls is None:
                cls = _Cls(len(self.classes), occ.kind, occ.op)
                self.classes.append(cls)
                sigmap[sig] = cls
            occ.cls = cls.idx
            occ.row = len(cls.members)
            cls.members.append(occ.idx)

    def _boolish_child(self, ci):
        """Whether child occurrence ``ci`` is stored as (or acts like) a
        boolean: a bool-stored class row, stream-finished, or a 0/1
        constant."""
        c = self.occs[ci]
        if c.kind == "sf":
            return True
        if c.kind == "const":
            return c.value <= 1
        if c.kind in ("token", "reg", "sload"):
            return False
        return self.classes[c.cls].store == "b"

    def _decide_stores(self):
        """Pick bool vs uint64 storage per class. Children are always
        interned (and therefore classed) before their parents, so one
        in-order pass suffices."""
        for cls in self.classes:
            if cls.kind == "bin" and cls.op in _CMP_OPS:
                cls.store = "b"
            elif cls.kind == "un" and cls.op in _BOOL_UNS:
                cls.store = "b"
            elif cls.kind == "bin" and cls.op in ("and", "or", "xor"):
                if all(
                    self._boolish_child(ci)
                    for m in cls.members
                    for ci in self.occs[m].children
                ):
                    cls.store = "b"
            elif cls.kind == "mux":
                if all(
                    self._boolish_child(self.occs[m].children[s])
                    for m in cls.members
                    for s in (1, 2)
                ):
                    cls.store = "b"

    # -- pools, buffers, hoisted views ---------------------------------------
    def _pool(self, array, mat=False):
        """Intern a constant array. ``mat=True`` marks a per-row value
        column to be materialized as a full contiguous ``(g, N)`` matrix
        in the prelude: a ``(g, 1)`` broadcast forces the ufunc off its
        flat 1-D fast loop and measures ~2x slower per call."""
        key = (array.dtype.str, array.shape, array.tobytes())
        idx = self.pool_memo.get(key)
        if idx is None:
            idx = len(self.pool)
            self.pool.append(array)
            self.pool_memo[key] = idx
        if mat:
            self.pool_mat.add(idx)
        return f"_k{idx}"

    def _buffer(self, name, rows, dt):
        self.alloc.append((name, rows, dt))
        return name

    def _scratch(self, rows, dt):
        name = f"_x{self.scratch_count}"
        self.scratch_count += 1
        return self._buffer(name, rows, dt)

    def _hoist(self, expr):
        """Prelude-hoisted local for a row/slice view of a stable buffer
        (a basic-slice view stays live across in-place writes; nothing in
        the generated body ever rebinds a buffer)."""
        name = self.hoists.get(expr)
        if name is None:
            name = f"_h{len(self.hoists)}"
            self.hoists[expr] = name
        return name

    # -- operand realization -------------------------------------------------
    def _occ_matrow(self, occ):
        """(matrix, row) for an occurrence living in a stacked matrix."""
        if occ.kind == "reg":
            return "_rm", occ.params[0]
        if occ.kind == "sload":
            gid, row = occ.params
            return f"_sld{gid}", row
        cls = self.classes[occ.cls]
        return cls.name, occ.row

    def _rows(self, kids):
        """Operand info for same-class occurrences stacked in row order:
        ``("x", expr, is_bool)``. Single rows and contiguous slices are
        hoisted views; scattered rows fall back to a fancy gather (which
        copies, so it must be evaluated fresh each cycle)."""
        k0 = kids[0]
        if k0.kind in ("reg", "sload"):
            isb = False
        else:
            isb = self.classes[k0.cls].store == "b"
        mat0, _ = self._occ_matrow(k0)
        rows = [self._occ_matrow(k)[1] for k in kids]
        if all(r == rows[0] for r in rows):
            return ("x", self._hoist(f"{mat0}[{rows[0]}]"), isb)
        if all(rows[i] + 1 == rows[i + 1] for i in range(len(rows) - 1)):
            return ("x",
                    self._hoist(f"{mat0}[{rows[0]}:{rows[-1] + 1}]"), isb)
        step = rows[1] - rows[0]
        if step > 1 and all(
            rows[i] + step == rows[i + 1] for i in range(len(rows) - 1)
        ):
            # A constant-stride run is a basic-slice view: no per-cycle
            # gather copy.
            return ("x", self._hoist(
                f"{mat0}[{rows[0]}:{rows[-1] + 1}:{step}]"), isb)
        idx = self._pool(_np.array(rows, dtype=_np.intp))
        return ("x", f"{mat0}[{idx}]", isb)

    def _slot(self, cls, slot):
        """Operand info for one child slot of every member of ``cls``:
        ``("k", values)`` or ``("x", expr, is_bool)``."""
        kids = [self.occs[self.occs[m].children[slot]]
                for m in cls.members]
        k0 = kids[0]
        if k0.kind == "const":
            return ("k", [k.value for k in kids])
        if k0.kind == "token":
            return ("x", "_tok", False)
        if k0.kind == "sf":
            return ("x", "_sf", True)
        return self._rows(kids)

    def _refo(self, oid):
        """Operand info for a single occurrence."""
        occ = self.occs[oid]
        if occ.kind == "const":
            return ("k", [occ.value])
        if occ.kind == "token":
            return ("x", "_tok", False)
        if occ.kind == "sf":
            return ("x", "_sf", True)
        return self._rows([occ])

    def _isb(self, info):
        return info[0] == "x" and info[2]

    def _is_bool_oid(self, oid):
        occ = self.occs[oid]
        if occ.kind == "sf":
            return True
        if occ.kind in ("const", "token", "reg", "sload"):
            return False
        return self.classes[occ.cls].store == "b"

    def _sx(self, info, other_bool=False, arith=False):
        """Source text for an operand. Constants become plain literals
        (NEP 50 weak scalars adopt the uint64 array dtype) except when
        the partner operand is a boolean array: a weak int above 1 would
        raise OverflowError against ``bool``, and arithmetic must not
        fall into NumPy's logical bool-loops, so those constants are
        wrapped as typed ``_u64(...)`` scalars (or bool literals/columns
        for pure mask logic)."""
        if info[0] == "x":
            return info[1]
        values = info[1]
        if all(v == values[0] for v in values):
            v = values[0]
            if other_bool:
                if arith or v > 1:
                    return f"_u64({v})"
                return "True" if v else "False"
            return str(v)
        if other_bool and not arith and max(values) <= 1:
            col = _np.array(values, dtype=_np.bool_).reshape(-1, 1)
        else:
            col = _np.array(values, dtype=_np.uint64).reshape(-1, 1)
        return self._pool(col, mat=True)

    # -- class evaluation ----------------------------------------------------
    def _emit_class_lines(self):
        lines = self.lines_cls
        for cls in self.classes:
            if cls.kind in ("reg", "sload"):
                continue
            name = f"_c{cls.idx}"
            cls.name = name
            self._buffer(name, len(cls.members),
                         "b" if cls.store == "b" else "u")
            if cls.kind == "bin":
                self._emit_bin(lines, cls, name)
            elif cls.kind == "un":
                self._emit_un(lines, cls, name)
            elif cls.kind == "mux":
                self._emit_mux(lines, cls, name)
            elif cls.kind == "vread":
                self._emit_vread(lines, cls, name)
            elif cls.kind == "slice":
                self._emit_slice(lines, cls, name)
            elif cls.kind == "cat":
                self._emit_cat(lines, cls, name)
            else:  # pragma: no cover - classing covers all kinds
                raise _Unsupported(f"class kind {cls.kind!r}")

    def _emit_bin(self, lines, cls, name):
        op = cls.op
        g = len(cls.members)
        ai = self._slot(cls, 0)
        bi = self._slot(cls, 1)
        ab, bb = self._isb(ai), self._isb(bi)
        fn = f"_{_BIN_UFUNC[op]}"
        if op in _CMP_OPS:
            a = self._sx(ai, other_bool=bb)
            b = self._sx(bi, other_bool=ab)
            lines.append(f"{fn}({a}, {b}, out={name})")
            return
        if op == "shr":
            # A boolean operand needs the same uint64 coercion as the
            # arithmetic ops: NumPy has no bool shift loop, and a weak
            # int against bool picks the int64 one.
            a = self._sx(ai, other_bool=bb, arith=True)
            b = self._sx(bi, other_bool=ab, arith=True)
            dt = ", dtype=_np.uint64" if ab and bb else ""
            bmaxes = []
            for m in cls.members:
                rocc = self.occs[self.occs[m].children[1]]
                bmaxes.append(rocc.value if rocc.kind == "const"
                              else mask(self.occs[m].params[1]))
            if max(bmaxes) < 64:
                lines.append(f"{fn}({a}, {b}, out={name}{dt})")
            else:
                bs = self._scratch(g, "u")
                bm = self._scratch(g, "b")
                lines.append(f"_min({b}, 63, out={bs})")
                lines.append(f"{fn}({a}, {bs}, out={name})")
                lines.append(f"_lt({b}, 64, out={bm})")
                lines.append(f"_mul({name}, {bm}, out={name})")
            return
        arith = op in ("add", "sub", "mul", "shl")
        a = self._sx(ai, other_bool=bb, arith=arith)
        b = self._sx(bi, other_bool=ab, arith=arith)
        dt = ""
        if op in ("add", "sub", "shl") and ab and bb:
            # bool+bool is logical-or in NumPy; force the uint64 loop.
            dt = ", dtype=_np.uint64"
        lines.append(f"{fn}({a}, {b}, out={name}{dt})")
        if op == "sub":
            widths = [self.occs[m].width for m in cls.members]
            if any(w < 64 for w in widths):
                mk = self._sx(("k", [mask(w) for w in widths]))
                lines.append(f"_and({name}, {mk}, out={name})")

    def _emit_un(self, lines, cls, name):
        op = cls.op
        g = len(cls.members)
        ai = self._slot(cls, 0)
        a = self._sx(ai)
        opw = [self.occs[m].params[0] for m in cls.members]
        if op == "not":
            mk = self._sx(("k", [mask(w) for w in opw]))
            lines.append(f"_xor({a}, {mk}, out={name})")
        elif op == "lnot":
            if self._isb(ai):
                lines.append(f"_lnot({a}, out={name})")
            else:
                lines.append(f"_eq({a}, 0, out={name})")
        elif op == "orr":
            lines.append(f"_ne({a}, 0, out={name})")
        elif op == "andr":
            mk = self._sx(("k", [mask(w) for w in opw]))
            lines.append(f"_eq({a}, {mk}, out={name})")
        else:  # xorr: xor-shift parity fold (high bits are zero)
            sc = self._scratch(g, "u")
            s2 = self._scratch(g, "u")
            lines.append(f"_cpy({sc}, {a})")
            sh = 32
            while sh:
                lines.append(f"_shr({sc}, {sh}, out={s2})")
                lines.append(f"_xor({sc}, {s2}, out={sc})")
                sh //= 2
            lines.append(f"_and({sc}, 1, out={sc})")
            lines.append(f"_ne({sc}, 0, out={name})")

    def _emit_mux(self, lines, cls, name):
        g = len(cls.members)
        ci = self._slot(cls, 0)
        ti = self._slot(cls, 1)
        ei = self._slot(cls, 2)
        cexpr = self._sx(ci)
        cbool = self._isb(ci)
        cw = max(self.occs[self.occs[m].children[0]].width
                 for m in cls.members)
        if cls.store == "b":
            # name = e ^ ((t ^ e) & c), all booleans.
            if not cbool:
                cn = self._scratch(g, "b")
                lines.append(f"_ne({cexpr}, 0, out={cn})")
                cexpr = cn
            if ti[0] == "k" and ei[0] == "k":
                dv = [tv ^ ev for tv, ev in zip(ti[1], ei[1])]
                d = self._sx(("k", dv), other_bool=True)
                lines.append(f"_and({d}, {cexpr}, out={name})")
                if any(ei[1]):
                    e = self._sx(("k", ei[1]), other_bool=True)
                    lines.append(f"_xor({name}, {e}, out={name})")
                return
            t = self._sx(ti, other_bool=True)
            e = self._sx(ei, other_bool=True)
            lines.append(f"_xor({t}, {e}, out={name})")
            lines.append(f"_and({name}, {cexpr}, out={name})")
            lines.append(f"_xor({name}, {e}, out={name})")
            return
        # name = (t - e) * c + e, exact modulo 2**64 for a 0/1 cond.
        if not cbool and cw > 1:
            cn = self._scratch(g, "b")
            lines.append(f"_ne({cexpr}, 0, out={cn})")
            cexpr = cn
            cbool = True
        if ti[0] == "k" and ei[0] == "k":
            dv = [(tv - ev) % 2 ** 64 for tv, ev in zip(ti[1], ei[1])]
            d = self._sx(("k", dv), other_bool=cbool, arith=True)
            lines.append(f"_mul({cexpr}, {d}, out={name})")
            if any(ei[1]):
                e = self._sx(("k", ei[1]))
                lines.append(f"_add({name}, {e}, out={name})")
            return
        t = self._sx(ti, other_bool=self._isb(ei), arith=True)
        e = self._sx(ei, other_bool=self._isb(ti), arith=True)
        lines.append(f"_sub({t}, {e}, out={name})")
        lines.append(f"_mul({name}, {cexpr}, out={name})")
        lines.append(f"_add({name}, {e}, out={name})")

    def _emit_vread(self, lines, cls, name):
        g = len(cls.members)
        gid = self.occs[cls.members[0]].params[0]
        _, elements, _ = self.state_groups[gid]
        ai = self._slot(cls, 0)
        a = self._sx(ai)
        # Index math runs in intp: a uint64 fancy index measures ~2x
        # slower than intp, and one flat gather beats an N-D fancy
        # gather (whose multi-index setup costs more than three ufuncs).
        ix = self._scratch(g, "intp")
        if self._isb(ai):
            lines.append(f"_mul({a}, _nNi, out={ix})")
        else:
            lines.append(f"_mul({a}, _N, out={ix}, casting='unsafe')")
        lines.append(f"_add({ix}, _lanesi, out={ix})")
        bases = [self.occs[m].params[1] * elements for m in cls.members]
        if any(bases):
            if all(b == bases[0] for b in bases):
                lines.append(f"_add({ix}, {bases[0]} * _N, out={ix})")
            else:
                col = self._pool(
                    _np.array(bases, dtype=_np.intp).reshape(-1, 1),
                    mat=True,
                )
                off = self._hoist(f"{col} * _N")
                lines.append(f"_add({ix}, {off}, out={ix})")
        lines.append(f"_cpy({name}, _sfl{gid}[{ix}])")

    def _emit_slice(self, lines, cls, name):
        ai = self._slot(cls, 0)
        a = self._sx(ai)
        los = [self.occs[m].params[0] for m in cls.members]
        widths = [self.occs[m].width for m in cls.members]
        child_ws = [self.occs[self.occs[m].children[0]].width
                    for m in cls.members]
        src = a
        if any(los):
            lo = self._sx(("k", los))
            lines.append(f"_shr({src}, {lo}, out={name})")
            src = name
        need_and = any(w < cw - lo
                       for w, cw, lo in zip(widths, child_ws, los))
        if need_and or src == a:
            mk = self._sx(("k", [mask(w) for w in widths]))
            lines.append(f"_and({src}, {mk}, out={name})")

    def _emit_cat(self, lines, cls, name):
        nparts = len(self.occs[cls.members[0]].children)
        infos = [self._slot(cls, s) for s in range(nparts)]
        widths_by_slot = [
            [self.occs[m].params[0][s] for m in cls.members]
            for s in range(nparts)
        ]
        # Fold any constant prefix into a single OR against the first
        # non-constant part (an all-constant cat folds at intern time).
        if infos[0][0] == "k":
            accv = list(infos[0][1])
            idx0 = 1
            while infos[idx0][0] == "k":
                accv = [(av << w) | pv for av, w, pv in zip(
                    accv, widths_by_slot[idx0], infos[idx0][1])]
                idx0 += 1
            shifted = [av << w
                       for av, w in zip(accv, widths_by_slot[idx0])]
            p = infos[idx0]
            ke = self._sx(("k", shifted), other_bool=self._isb(p))
            lines.append(f"_orb({ke}, {self._sx(p)}, out={name})")
            src = name
            srcb = False
            idx0 += 1
        else:
            src = self._sx(infos[0])
            srcb = self._isb(infos[0])
            idx0 = 1
        for si in range(idx0, nparts):
            we = self._sx(("k", widths_by_slot[si]),
                          other_bool=srcb, arith=True)
            lines.append(f"_shl({src}, {we}, out={name})")
            p = infos[si]
            lines.append(f"_orb({name}, {self._sx(p)}, out={name})")
            src = name
            srcb = False

    # -- masks and sites -----------------------------------------------------
    def _new_mask(self):
        """Masks live as rows of one stacked ``(M, N)`` matrix so a
        single per-cycle or-reduction yields every site guard at once."""
        name = f"_m{self.mask_count}"
        self.mask_count += 1
        return name

    def _norm(self, oid, out_lines):
        """Boolean expression for a condition occurrence; wide or
        uint64-stored conditions normalize through the shared ``_mnt``
        temp (consumed immediately by the following mask op)."""
        occ = self.occs[oid]
        if occ.kind == "sf":
            return "_sf"
        info = self._refo(oid)
        if self._isb(info):
            return info[1]
        out_lines.append(f"_ne({info[1]}, 0, out=_mnt)")
        return "_mnt"

    def _emit_masks(self, plan, ctx, in_loop):
        lines = self.lines_mask
        for item in plan:
            kind = item[0]
            if kind == "if":
                arms = item[1]
                nav = ctx
                narms = len(arms)
                for i, (cocc, subplan) in enumerate(arms):
                    if cocc is None:
                        self._emit_masks(subplan, nav, in_loop)
                        break
                    occ = self.occs[cocc]
                    if occ.kind == "const":
                        if occ.value:
                            self._emit_masks(subplan, nav, in_loop)
                            break
                        continue
                    c01 = self._norm(cocc, lines)
                    m = self._new_mask()
                    lines.append(f"_and({c01}, {nav}, out={m})")
                    self._emit_masks(subplan, m, in_loop)
                    if i + 1 < narms:
                        # m is a subset of nav, so nav' = nav ^ m.
                        nv = self._new_mask()
                        lines.append(f"_xor({nav}, {m}, out={nv})")
                        nav = nv
            elif kind == "while":
                _, cocc, subplan = item
                occ = self.occs[cocc]
                if occ.kind == "const" and not occ.value:
                    continue
                if occ.kind == "const":
                    act = ctx
                else:
                    c01 = self._norm(cocc, lines)
                    act = self._new_mask()
                    lines.append(f"_and({c01}, {ctx}, out={act})")
                self.whiles.append(act)
                self._emit_masks(subplan, act, True)
            elif kind == "reg":
                _, ri, val = item
                self.site_regs.append(
                    (ri, self._site_mask(ctx, in_loop), val)
                )
            elif kind == "state":
                _, gid, member, addr, val = item
                self.site_states.append(
                    (gid, member, self._site_mask(ctx, in_loop), addr, val)
                )
            else:  # emit
                self.site_emits.append(
                    (self._site_mask(ctx, in_loop), item[1])
                )

    def _site_mask(self, ctx, in_loop):
        """Leaf-site mask: statements outside every while fire only on the
        while_done cycle (paper Section 3)."""
        if in_loop or not self.has_whiles:
            return ctx
        name = self.wd_cache.get(ctx)
        if name is None:
            name = self._new_mask()
            self.wd_cache[ctx] = name
            self.lines_wdctx.append(f"_and({ctx}, _wd, out={name})")
        return name

    # -- emits ---------------------------------------------------------------
    def _emit_emit_lines(self):
        sites = self.site_emits
        lines = self.lines_emit
        if not sites:
            self.em_guard = None
            return
        if len(sites) == 1:
            m, val = sites[0]
            self.em_guard = self._guard(m)
            self.emm = m
            occ = self.occs[val]
            if occ.kind == "const":
                self.emv_chunk = (
                    f"_np.full(_si.shape[0], {occ.value}, _np.uint64)"
                )
            else:
                self.emv_chunk = f"_np.take({self._refo(val)[1]}, _si)"
            return
        self._buffer("_emv", None, "u")
        self._buffer("_emb", None, "b")
        self._buffer("_emt", None, "u")
        # Each site only contributes when its mask has a live lane (most
        # cycles fire at most one site); sites are certified disjoint,
        # so masked values sum (and mask bits OR) without interference.
        lines.append("_emn = False")
        for m, val in sites:
            occ = self.occs[val]
            if occ.kind == "const":
                v = self._sx(("k", [occ.value]), other_bool=True,
                             arith=True)
            else:
                v = self._refo(val)[1]
            lines.append(f"if {self._guard(m)}:")
            lines.append("    if _emn:")
            lines.append(f"        _mul({v}, {m}, out=_emt)")
            lines.append("        _add(_emv, _emt, out=_emv)")
            lines.append(f"        _orb(_emb, {m}, out=_emb)")
            lines.append("    else:")
            lines.append(f"        _mul({v}, {m}, out=_emv)")
            lines.append(f"        _cpy(_emb, {m})")
            lines.append("        _emn = True")
        self.em_guard = "_emn"
        self.emm = "_emb"
        self.emv_chunk = "_np.take(_emv, _si)"

    # -- commits -------------------------------------------------------------
    def _val_sig(self, oid):
        """Run-compatibility signature of a commit value/addr operand."""
        occ = self.occs[oid]
        if occ.kind == "const":
            return ("const", occ.value)
        if occ.kind in ("token", "sf"):
            return ("leaf", occ.kind)
        matrix, row = self._occ_matrow(occ)
        return ("row", matrix, row)

    def _snap(self, expr, rows=None):
        """Start-of-commit snapshot buffer for an aliased operand (a
        register/state row another commit may overwrite this cycle)."""
        name = self.snap_memo.get(expr)
        if name is None:
            name = f"_sn{len(self.snap_memo)}"
            self.snap_memo[expr] = name
            self.alloc.append((name, rows, "u"))
            self.lines_snap.append(f"_cpy({name}, {expr})")
        return name

    def _commit_ref(self, oid):
        """Operand text safe to read *during* the commit phase."""
        occ = self.occs[oid]
        if occ.kind == "const":
            return str(occ.value)
        info = self._refo(oid)
        if occ.kind in ("reg", "sload"):
            return self._snap(info[1])
        return info[1]

    def _run_block(self, sigs, oids):
        """Stacked (k, N) expression for a compatible run of operands, or
        ``None`` when they don't stack."""
        if all(s[0] == "const" for s in sigs):
            return ("col", self._sx(("k", [s[1] for s in sigs])))
        if all(s == sigs[0] for s in sigs):
            return ("same", self._commit_ref(oids[0]))
        if all(s[0] == "row" and s[1] == sigs[0][1] for s in sigs):
            rows = [s[2] for s in sigs]
            step = rows[1] - rows[0]
            if step >= 1 and all(
                rows[i] + step == rows[i + 1]
                for i in range(len(rows) - 1)
            ):
                # A constant-stride run is a basic-slice view (stride 1
                # is the common case; stride > 1 shows up when another
                # member of the same class sits between the operands).
                sl = f"{rows[0]}:{rows[-1] + 1}"
                if step > 1:
                    sl += f":{step}"
                expr = self._hoist(f"{sigs[0][1]}[{sl}]")
                if self.occs[oids[0]].kind in ("reg", "sload"):
                    expr = self._snap(expr, rows=len(rows))
                return ("block", expr)
        return None

    def _mask_row(self, m):
        """Row of ``m`` in the stacked mask matrix, or ``None``."""
        if m.startswith("_m") and m[2:].isdigit():
            return int(m[2:])
        return None

    def _guard(self, m):
        """Any-lane flag for mask ``m``; sites whose mask is empty this
        cycle are skipped entirely. Stacked masks read their slot in the
        per-cycle ``_gb`` guard vector (one reduction covers them all);
        anything else falls back to a cached ``count_nonzero``."""
        if m.startswith("_m") and m[2:].isdigit():
            return f"_gb[{int(m[2:])}]"
        flag = self.cnz_cache.get(m)
        if flag is None:
            flag = f"_f{len(self.cnz_cache)}"
            self.cnz_cache[m] = flag
            self.lines_guard.append(f"{flag} = _cnz({m})")
        return flag

    def _emit_reg_commits(self):
        lines = self.lines_commit
        sites = self.site_regs
        from collections import Counter

        counts = Counter(row for row, _, _ in sites)
        i = 0
        wn = 0
        while i < len(sites):
            row, m, val = sites[i]
            j = i + 1
            block = None
            if counts[row] == 1:
                while (j < len(sites)
                       and sites[j][0] == sites[j - 1][0] + 1
                       and counts[sites[j][0]] == 1
                       and sites[j][1] == m):
                    j += 1
                while j > i + 1:
                    block = self._run_block(
                        [self._val_sig(s[2]) for s in sites[i:j]],
                        [s[2] for s in sites[i:j]],
                    )
                    if block is not None:
                        break
                    j -= 1
            flag = self._guard(m)
            if j > i + 1:
                _, vexpr = block
                k = j - i
                w = self._buffer(f"_w{wn}", k, "u")
                wn += 1
                vt = self._hoist(f"_rm[{row}:{row + k}]")
                lines.append(f"if {flag}:")
                lines.append(f"    _sub({vexpr}, {vt}, out={w})")
                lines.append(f"    _mul({w}, {m}, out={w})")
                lines.append(f"    _add({vt}, {w}, out={vt})")
                i = j
            else:
                v = self._commit_ref(val)
                w = self._buffer(f"_w{wn}", None, "u")
                wn += 1
                old = self._hoist(f"_rm[{row}]")
                lines.append(f"if {flag}:")
                lines.append(f"    _sub({v}, {old}, out={w})")
                lines.append(f"    _mul({w}, {m}, out={w})")
                lines.append(f"    _add({old}, {w}, out={old})")
                i += 1

    def _emit_state_commits(self):
        lines = self.lines_commit
        sites = self.site_states
        i = 0
        wn = 0
        while i < len(sites):
            gid, member, m, addr, val = sites[i]
            _, elements, _ = self.state_groups[gid]
            j = i + 1
            ablock = vblock = None
            while (j < len(sites)
                   and sites[j][0] == gid
                   and sites[j][1] == sites[j - 1][1] + 1
                   and sites[j][2] == m):
                j += 1
            mr = None
            while j > i + 1:
                run = sites[i:j]
                ablock = self._run_block(
                    [self._val_sig(s[3]) for s in run],
                    [s[3] for s in run],
                )
                vblock = self._run_block(
                    [self._val_sig(s[4]) for s in run],
                    [s[4] for s in run],
                )
                if ablock is not None and vblock is not None \
                        and ablock[0] != "col":
                    break
                j -= 1
                ablock = vblock = None
            k = j - i
            flag = self._guard(m)
            if k > 1:
                aexpr = ablock[1]
                wi = self._buffer(f"_wi{wn}", k, "intp")
            else:
                aexpr = self._commit_ref(addr)
                wi = self._buffer(f"_wi{wn}", None, "intp")
            wn += 1
            lines.append(f"if {flag}:")
            if self._is_bool_oid(addr):
                lines.append(f"    _mul({aexpr}, _nNi, out={wi})")
            else:
                lines.append(
                    f"    _mul({aexpr}, _N, out={wi}, casting='unsafe')"
                )
            lines.append(f"    _add({wi}, _lanesi, out={wi})")
            if k > 1:
                bases = [s[1] * elements for s in sites[i:j]]
                col = self._pool(
                    _np.array(bases, dtype=_np.intp).reshape(-1, 1),
                    mat=True,
                )
                off = self._hoist(f"{col} * _N")
                lines.append(f"    _add({wi}, {off}, out={wi})")
            elif member:
                lines.append(
                    f"    _add({wi}, {member * elements} * _N, out={wi})"
                )
            lines.append(f"    _si = _nz({m})[0]")
            sel = "[:, _si]"
            if k > 1:
                kindv, vexpr = vblock
                if kindv == "col":
                    if vexpr.startswith("_k"):
                        rhs = f"{vexpr}{sel}"  # materialized (k, N)
                    else:
                        rhs = vexpr  # uniform scalar broadcasts
                elif kindv == "same":
                    occ = self.occs[sites[i][4]]
                    if occ.kind == "const":
                        rhs = str(occ.value)
                    else:
                        rhs = f"_np.take({vexpr}, _si)"
                else:
                    rhs = f"{vexpr}{sel}"
                lines.append(f"    _sfl{gid}[{wi}{sel}] = {rhs}")
            else:
                occ = self.occs[val]
                if occ.kind == "const":
                    rhs = str(occ.value)
                else:
                    rhs = f"_np.take({self._commit_ref(val)}, _si)"
                lines.append(f"    _sfl{gid}[{wi}[_si]] = {rhs}")
            i = j if k > 1 else i + 1

    # -- assembly ------------------------------------------------------------
    def _has_live_while(self, plan):
        """Whether any while under ``plan`` can actually activate,
        mirroring :meth:`_emit_masks`'s arm pruning exactly: a
        const-false if-arm is skipped, a const-false while is dead, and
        a const-true or else arm shadows every later arm. Anything
        looser would set ``has_whiles`` for a loop ``_emit_masks``
        never visits, leaving ``self.whiles`` empty at assembly time."""
        for item in plan:
            if item[0] == "if":
                for cocc, sub in item[1]:
                    occ = None if cocc is None else self.occs[cocc]
                    if occ is not None and occ.kind == "const" \
                            and not occ.value:
                        continue
                    if self._has_live_while(sub):
                        return True
                    if occ is None or occ.kind == "const":
                        break
            elif item[0] == "while":
                occ = self.occs[item[1]]
                if not (occ.kind == "const" and not occ.value):
                    return True
        return False

    def generate(self):
        self.has_whiles = self._has_live_while(self.plan)
        self.lines_wdctx = []
        self.lines_snap = []
        self._emit_class_lines()
        self._emit_masks(self.plan, "_act", False)
        if self.has_whiles:
            if len(self.whiles) == 1:
                self.lines_wd = [f"_lnot({self.whiles[0]}, out=_wd)"]
            else:
                acc = self.whiles[0]
                self.lines_wd = []
                for a in self.whiles[1:]:
                    self.lines_wd.append(f"_orb({acc}, {a}, out=_wd)")
                    acc = "_wd"
                self.lines_wd.append("_lnot(_wd, out=_wd)")
        self._emit_emit_lines()
        self._emit_reg_commits()
        self._emit_state_commits()
        return self._assemble()

    def _assemble(self):
        no_whiles = not self.has_whiles
        body = []
        body.extend(self.lines_cls)
        body.extend(self.lines_mask)
        if self.has_whiles:
            body.extend(self.lines_wd)
        body.extend(self.lines_wdctx)
        if self.mask_count:
            body.append("_any(_mm, axis=1, out=_gb)")
        body.extend(self.lines_guard)
        if self.em_guard is not None:
            body.extend(self.lines_emit)
            body.append(f"if {self.em_guard}:")
            body.append(f"    _si = _nz({self.emm})[0]")
            body.append(f"    _chunks.append((_si, {self.emv_chunk}))")
            body.append("    if _ls:")
            body.append(f"        _add(_ema[_p], {self.emm}, "
                        "out=_ema[_p])")
            body.append("    else:")
            body.append(f"        _add(_emc, {self.emm}, out=_emc)")
        body.extend(self.lines_snap)
        body.extend(self.lines_commit)

        lines = []
        out = lines.append
        out("def run_batch(_toks, _lens, _regs, _sgs, _max_vc, _res):")
        out("    _N = int(_lens.shape[0])")
        out("    _L = int(_toks.shape[0])")
        for name, alias in (
            ("add", "_add"), ("subtract", "_sub"), ("multiply", "_mul"),
            ("bitwise_and", "_and"), ("bitwise_or", "_orb"),
            ("bitwise_xor", "_xor"), ("left_shift", "_shl"),
            ("right_shift", "_shr"), ("equal", "_eq"),
            ("not_equal", "_ne"), ("less", "_lt"), ("less_equal", "_le"),
            ("greater", "_gt"), ("greater_equal", "_ge"),
            ("minimum", "_min"), ("logical_not", "_lnot"),
            ("count_nonzero", "_cnz"), ("nonzero", "_nz"),
            ("copyto", "_cpy"),
        ):
            out(f"    {alias} = _np.{name}")
        out("    _u64 = _np.uint64")
        out("    _any = _np.logical_or.reduce")
        for i in range(len(self.pool)):
            if i in self.pool_mat:
                out(f"    _k{i} = _np.repeat(_K[{i}], _N, axis=1)")
            else:
                out(f"    _k{i} = _K[{i}]")
        if self.reg_groups:
            out("    _rm = _regs[0]")
        for gid in range(len(self.state_groups)):
            out(f"    _sg{gid} = _sgs[{gid}]")
            out(f"    _sfl{gid} = _sg{gid}.reshape(-1)")
            out(f"    _sld{gid} = _sg{gid}.reshape(-1, _N)")
        for name, rows, dt in self.alloc:
            dte = {"u": "_np.uint64", "b": "_np.bool_",
                   "intp": "_np.intp"}[dt]
            if rows is None:
                out(f"    {name} = _np.empty(_N, {dte})")
            else:
                out(f"    {name} = _np.empty(({rows}, _N), {dte})")
        if self.mask_count:
            out(f"    _mm = _np.empty(({self.mask_count}, _N), "
                "_np.bool_)")
            for i in range(self.mask_count):
                out(f"    _m{i} = _mm[{i}]")
            out(f"    _gb = _np.empty({self.mask_count}, _np.bool_)")
        out("    _lanesi = _np.arange(_N, dtype=_np.intp)")
        out("    _lanesu = _np.arange(_N, dtype=_np.uint64)")
        out("    _nN = _np.uint64(_N)")
        out("    _nNi = _np.intp(_N)")
        out("    _ones = _np.ones(_N, _np.bool_)")
        out("    _act = _ones")
        out("    _sfz = _np.zeros(_N, _np.bool_)")
        out("    _sfo = _ones")
        out("    _ztok = _np.zeros(_N, _np.uint64)")
        out("    _tokb = _np.empty(_N, _np.uint64)")
        out("    _vca = _np.zeros((_L + 1, _N), _np.int32)")
        out("    _ema = _np.zeros((_L + 1, _N), _np.int32)")
        out("    _emc = _np.zeros(_N, _np.int64)")
        out("    _spent = _np.zeros(_N, _np.int64)")
        out("    _posc = _np.empty(_N, _np.intp)")
        out("    _sfb = _np.empty(_N, _np.bool_)")
        out("    _insb = _np.empty(_N, _np.bool_)")
        out("    _mnt = _np.empty(_N, _np.bool_)")
        if self.has_whiles:
            out("    _wd = _np.empty(_N, _np.bool_)")
            out("    _db = _np.empty(_N, _np.bool_)")
        for expr, hname in self.hoists.items():
            out(f"    {hname} = {expr}")
        out("    _chunks = []")
        out("    _tflat = _toks.reshape(-1)")
        out("    _ls0 = bool((_lens == _lens[0]).all())")
        out("    _ls = _ls0")
        out("    _L0 = int(_lens[0])")
        out("    _p = 0")
        out("    _sp = 0")
        out("    _gc = 0")
        out("    if not _ls:")
        out("        _pos = _np.zeros(_N, _np.intp)")
        out("        _act = _np.empty(_N, _np.bool_)")
        out("        _le(_pos, _lens, out=_act)")
        out("    while True:")
        out("        _gc += 1")
        out("        _sp += 1")
        out("        if _ls:")
        out("            if _p < _L0:")
        out("                _tok = _toks[_p]")
        out("                _sf = _sfz")
        out("            else:")
        out("                _tok = _ztok")
        out("                _sf = _sfo")
        out("        else:")
        out("            _lt(_pos, _lens, out=_insb)")
        out("            _eq(_pos, _lens, out=_sfb)")
        out("            if _L:")
        out("                _min(_pos, _L - 1, out=_posc)")
        out("                _mul(_posc, _N, out=_posc)")
        out("                _add(_posc, _lanesi, out=_posc)")
        out("                _cpy(_tokb, _tflat[_posc])")
        out("                _mul(_tokb, _insb, out=_tokb)")
        out("                _tok = _tokb")
        out("            else:")
        out("                _tok = _ztok")
        out("            _sf = _sfb")
        for line in body:
            out("        " + line)
        if no_whiles:
            out("        if _ls:")
            out("            _p += 1")
            out("            _sp = 0")
            out("            if _p > _L0:")
            out("                break")
            out("        else:")
        else:
            out("        if _ls:")
            out("            _nwd = _cnz(_wd)")
            out("            if _nwd == _N:")
            out("                _vca[_p] = _sp")
            out("                _sp = 0")
            out("                _p += 1")
            out("                if _p > _L0:")
            out("                    break")
            out("            elif _nwd:")
            out("                _pos = _np.full(_N, _p, dtype=_np.intp)")
            out("                _add(_pos, _wd, out=_pos, "
                "casting='unsafe')")
            out("                _vca[_p, _wd] = _sp")
            out("                _spent[:] = _sp")
            out("                _lnot(_wd, out=_mnt)")
            out("                _mul(_spent, _mnt, out=_spent)")
            out("                _mul(_ema[_p], _mnt, out=_emc, "
                "casting='unsafe')")
            out("                _mul(_ema[_p], _wd, out=_ema[_p])")
            out("                _act = _np.empty(_N, _np.bool_)")
            out("                _le(_pos, _lens, out=_act)")
            out("                _ls = False")
            out("            else:")
            out("                if _sp >= _max_vc:")
            out("                    raise _LoopError("
                "'while loop did not terminate within '"
                " + str(_max_vc) + ' virtual cycles')")
            out("        else:")
        out("            _add(_spent, _act, out=_spent)")
        if no_whiles:
            out("            _db = _act")
        else:
            out("            _and(_act, _wd, out=_db)")
        out("            _nd = _cnz(_db)")
        out("            if _nd:")
        out("                _di = _nz(_db)[0]")
        out("                _pi = _pos.take(_di)")
        out("                _vca[_pi, _di] = _spent.take(_di)")
        out("                _ema[_pi, _di] = _emc.take(_di)")
        out("                _lnot(_db, out=_mnt)")
        out("                _mul(_spent, _mnt, out=_spent)")
        out("                _mul(_emc, _mnt, out=_emc)")
        out("                _add(_pos, _db, out=_pos)")
        out("                _le(_pos, _lens, out=_act)")
        out("                if not _cnz(_act):")
        out("                    break")
        if not no_whiles:
            out("            if _gc >= _max_vc and "
                "_cnz(_ge(_spent, _max_vc)):")
            out("                raise _LoopError("
                "'while loop did not terminate within '"
                " + str(_max_vc) + ' virtual cycles')")
        out("    _res['cycles'] = _gc")
        out("    _res['chunks'] = _chunks")
        out("    _res['vca'] = _vca")
        out("    _res['ema'] = _ema")
        out(f"    _res['vc_all_ones'] = {no_whiles} and _ls0")
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Native tier: one C kernel per certified program via cffi
# ---------------------------------------------------------------------------
#
# The NumPy lowering above amortizes Python overhead across N lanes, but
# each virtual cycle still pays ~one ufunc dispatch per structural class.
# When a C toolchain is present (cffi + a working compiler) and the
# program certifies, :mod:`repro.interp.cc` renders the certified-
# specialized cycle as one lane-major C kernel and runs every lane as
# straight-line machine code. Lanes never interact — outputs, traces,
# and final state are interleaving-independent, and the batch's global
# cycle count is the max over lanes — so the lane-major loop nest
# reproduces the SIMD semantics exactly. If the kernel's output buffer
# fills, it returns a capacity error and the pure run is simply retried
# with a larger one.


_CC_BACKENDS = ("auto", "numpy", "cc")


def batch_backend_env():
    """Validated ``FLEET_BATCH_BACKEND`` setting.

    ``auto`` (the default) uses the native tier when the program
    certifies and a C toolchain is available, and falls back to NumPy;
    ``numpy``/``cc`` force a tier. Unknown values raise
    :class:`FleetConfigError` immediately rather than silently running
    the wrong backend (the shared :func:`repro.envcfg.env_choice`
    validator).
    """
    return env_choice("FLEET_BATCH_BACKEND", _CC_BACKENDS, "auto")


def _try_cc_build(program, unit, required=False):
    """The native kernel for ``unit``, or ``None`` when the native tier
    declines: no toolchain (or ``FLEET_NATIVE=off``), an uncertified
    program, or a failed build — each decline counted by reason.
    ``required`` (``FLEET_BATCH_BACKEND=cc``) raises instead."""
    from ..lint.certificate import certificate_for

    if required:
        return _cc.compile_cc(program, unit)
    if not cc_available():
        _NATIVE_DECLINES.inc(reason="no_toolchain")
        return None
    certificate = certificate_for(program)
    if not certificate.ok:
        _NATIVE_DECLINES.inc(reason="uncertified")
        return None
    try:
        return _cc.compile_cc(program, unit, certificate=certificate)
    except FleetSimulationError:
        _NATIVE_DECLINES.inc(reason="build_failed")
        return None


def _run_batch_cc(program, unit, arrs, lens, n, max_vc):
    """Execute one ragged batch on the native kernel; mirrors the NumPy
    driver's result assembly exactly."""
    cc = unit.cc
    ffi, lib = cc.ffi, cc.lib
    max_len = int(lens.max()) if n else 0
    width = max(max_len, 1)
    toks = _np.zeros((n, width), dtype=_np.uint64)
    for i, a in enumerate(arrs):
        if a.shape[0]:
            toks[i, : a.shape[0]] = a
    lens64 = _np.ascontiguousarray(lens, dtype=_np.int64)
    vca = _np.zeros((n, width + 1), dtype=_np.int32)
    ema = _np.zeros((n, width + 1), dtype=_np.int32)
    out_cnt = _np.zeros(n, dtype=_np.int64)
    err = _np.zeros(4, dtype=_np.int64)
    total = int(lens64.sum())
    cap = max(4 * total + 16 * n + 1024, 4096)
    while True:
        regs, sgroups = unit.init_state(n)
        cc_sgs = [
            _np.ascontiguousarray(sg.transpose(0, 2, 1)) for sg in sgroups
        ]
        out_vals = _np.empty(cap, dtype=_np.uint64)
        vca[:] = 0
        ema[:] = 0
        out_cnt[:] = 0
        regp = (ffi.from_buffer("uint64_t[]", regs[0])
                if regs else ffi.NULL)
        args = (
            [ffi.from_buffer("uint64_t[]", toks),
             ffi.from_buffer("int64_t[]", lens64),
             width, n, regp]
            + [ffi.from_buffer("uint64_t[]", sg) for sg in cc_sgs]
            + [max_vc,
               ffi.from_buffer("uint64_t[]", out_vals), cap,
               ffi.from_buffer("int64_t[]", out_cnt),
               ffi.from_buffer("int32_t[]", vca),
               ffi.from_buffer("int32_t[]", ema),
               ffi.from_buffer("int64_t[]", err)]
        )
        rc = lib.fleet_run(*args)
        if rc == 0:
            break
        if int(err[0]) == 2:
            # Output buffer filled. The kernel is pure over its inputs,
            # so rerun from fresh state with a larger buffer.
            cap *= 4
            continue
        raise FleetLoopLimitError(
            "while loop did not terminate within "
            + str(max_vc) + " virtual cycles"
        )
    for sg, csg in zip(sgroups, cc_sgs):
        sg[:] = csg.transpose(0, 2, 1)

    counts = out_cnt.tolist()
    flat = out_vals[: int(out_cnt.sum())].tolist()
    outputs = []
    pos = 0
    for c in counts:
        outputs.append(flat[pos:pos + c])
        pos += c

    vc_rows = vca.tolist()
    em_rows = ema.tolist()
    len_list = lens64.tolist()
    traces = []
    for i in range(n):
        length = len_list[i]
        trace = StreamTrace()
        trace.vcycles_per_token = vc_rows[i][: length + 1]
        trace.emits_per_token = em_rows[i][: length + 1]
        trace._cleanup_recorded = True
        traces.append(trace)
    stats = BatchStats([t.total_vcycles for t in traces])
    cycles = int(vca.sum(axis=1, dtype=_np.int64).max()) if n else 0
    return BatchResult(program, outputs, traces, stats, cycles,
                       unit, regs, sgroups)


# ---------------------------------------------------------------------------
# Compiled batch unit + library driver
# ---------------------------------------------------------------------------


class BatchUnit:
    """A Fleet program lowered once to N-lane NumPy array code.

    ``run_batch(toks, lens, regs, sgroups, max_vc, res)`` executes every
    lane's whole stream (plus cleanup) against the struct-of-arrays
    state; the lowering is independent of N, so one unit serves any
    batch size.
    """

    __slots__ = ("program", "run_batch", "source", "reg_groups",
                 "reg_loc", "state_groups", "state_loc", "cc")

    def __init__(self, program, run_batch, source, codegen):
        self.program = program
        self.run_batch = run_batch
        self.source = source
        self.cc = None
        self.reg_groups = {
            bits: list(rows) for bits, rows in codegen.reg_groups.items()
        }
        self.reg_loc = dict(codegen.reg_loc)
        self.state_groups = [
            (bits, elements, list(members))
            for bits, elements, members in codegen.state_groups
        ]
        self.state_loc = dict(codegen.state_loc)

    def init_state(self, n):
        """Fresh per-lane state arrays for an N-lane batch."""
        program = self.program
        regs = []
        if self.reg_groups:
            rows = self.reg_groups[64]
            arr = _np.zeros((len(rows), n), _np.uint64)
            for row, ri in enumerate(rows):
                init = program.regs[ri].init
                if init:
                    arr[row, :] = init
            regs.append(arr)
        sgroups = []
        for _, elements, members in self.state_groups:
            arr = _np.zeros((len(members), elements, n), _np.uint64)
            for m, (kind, di) in enumerate(members):
                if kind == "vreg" and program.vregs[di].init:
                    arr[m, :, :] = program.vregs[di].init
            sgroups.append(arr)
        return regs, sgroups


def compile_batch(program, backend=None):
    """Lower ``program`` to a :class:`BatchUnit`.

    ``backend`` (default: the validated ``FLEET_BATCH_BACKEND``
    environment setting) selects the execution tier: ``"auto"`` attaches
    the native kernel (:func:`repro.interp.cc.compile_cc`) when the
    program certifies and a C toolchain is available, and otherwise runs
    pure NumPy; ``"numpy"`` / ``"cc"`` force a tier (``"cc"`` raises
    for an uncertified program or a missing toolchain). Both tiers are
    bit-identical; the NumPy lowering is always built — it doubles as
    documentation of the SIMD semantics and as the portable fallback.

    Raises :class:`FleetSimulationError` when NumPy is missing or the
    program can't take the batch path; use :func:`try_compile_batch` for
    the optional variant.
    """
    ok, reason = batch_support(program)
    if not ok:
        raise FleetSimulationError(
            f"program {program.name!r} is not batch-compilable: {reason}"
        )
    codegen = _BatchCodegen(program)
    try:
        source = codegen.generate()
    except _Unsupported as exc:
        raise FleetSimulationError(
            f"program {program.name!r} is not batch-compilable: "
            f"{exc.args[0]}"
        ) from None
    namespace = {
        "_np": _np,
        "_K": list(codegen.pool),
        "_SimError": FleetSimulationError,
        "_LoopError": FleetLoopLimitError,
    }
    code = compile(source, f"<fleet-batch:{program.name}>", "exec")
    exec(code, namespace)
    _BATCH_COMPILES.inc()
    unit = BatchUnit(program, namespace["run_batch"], source, codegen)
    want = batch_backend_env() if backend is None else backend
    if want not in _CC_BACKENDS:
        raise FleetConfigError(
            f"backend={want!r} is not a recognized batch backend: "
            f"choose one of {', '.join(_CC_BACKENDS)}"
        )
    if want != "numpy":
        unit.cc = _try_cc_build(program, unit, required=(want == "cc"))
    return unit


def try_compile_batch(program):
    """:func:`compile_batch`, returning ``None`` when unsupported. Cached
    on the (immutable) program object."""
    cached = getattr(program, "_fleet_batch", False)
    if cached is not False:
        return cached
    try:
        unit = compile_batch(program)
    except FleetSimulationError:
        unit = None
    program._fleet_batch = unit
    return unit


def batch_engine_for(program, check_restrictions=True):
    """The :class:`BatchUnit` to use for whole-batch execution, or
    ``None`` when callers must fall back to per-stream engines.

    Mirrors :func:`repro.interp.compile.fast_engine_for`: the
    environment can veto (``FLEET_ENGINE=interp`` or ``compiled``) or
    force (``FLEET_ENGINE=batch``, support permitting); in the default
    automatic mode the batch engine — whose grouped commits elide all
    dynamic restriction checks — additionally requires the same clean
    covering :class:`~repro.lint.certificate.RestrictionCertificate` as
    compiled-engine check-elision. The certificate is checked before
    anything is compiled, so an uncertified program costs no lowering.
    """
    from .compile import _checks_elidable, env_engine

    env = env_engine()
    if env in ("interp", "compiled"):
        _BATCH_FALLBACKS.inc(reason="env_veto")
        return None
    if env != "batch" and check_restrictions \
            and not _checks_elidable(program):
        _BATCH_FALLBACKS.inc(reason="no_certificate")
        return None
    unit = try_compile_batch(program)
    if unit is None:
        _BATCH_FALLBACKS.inc(reason="unsupported")
    return unit


class BatchStats:
    """Per-batch occupancy accounting (the :mod:`repro.obs` counters).

    Lanes run contiguously from global cycle 1 until their stream (plus
    cleanup) completes, so per-cycle lane occupancy is derivable from the
    per-lane totals: at global cycle ``t`` exactly the lanes with
    ``total_vcycles >= t`` are active, and the ragged-tail waste is
    everything the longest lane forces the batch to wait for.
    """

    def __init__(self, lane_vcycles):
        self.lane_vcycles = list(lane_vcycles)
        self.lanes = len(self.lane_vcycles)
        self.cycles = max(self.lane_vcycles, default=0)
        self.busy_lane_cycles = sum(self.lane_vcycles)

    @property
    def slot_cycles(self):
        return self.lanes * self.cycles

    @property
    def waste_fraction(self):
        """Fraction of lane-cycle slots idle while the batch drains its
        ragged tail (0.0 for a uniform batch)."""
        if not self.slot_cycles:
            return 0.0
        return 1.0 - self.busy_lane_cycles / self.slot_cycles

    @property
    def mean_active_lanes(self):
        """Mean replicas active per virtual cycle."""
        if not self.cycles:
            return 0.0
        return self.busy_lane_cycles / self.cycles

    def active_lanes_at(self, cycle):
        """Replicas active during 1-based global virtual cycle ``cycle``."""
        return sum(1 for v in self.lane_vcycles if v >= cycle)

    def as_dict(self):
        return {
            "lanes": self.lanes,
            "cycles": self.cycles,
            "busy_lane_cycles": self.busy_lane_cycles,
            "mean_active_lanes": round(self.mean_active_lanes, 3),
            "waste_fraction": round(self.waste_fraction, 6),
        }

    def __repr__(self):
        return (
            f"BatchStats(lanes={self.lanes}, cycles={self.cycles}, "
            f"waste={self.waste_fraction:.3f})"
        )


class PredictedBatchStats:
    """Static occupancy prediction for one ragged batch.

    Built *before* the batch runs, from the certified per-token vcycle
    interval the cost analysis seals into the program's restriction
    certificate (:mod:`repro.lint.cost`): lane ``i`` with ``n_i`` tokens
    provably finishes within ``cost.stream_vcycles(n_i)``, so the
    spread of those intervals bounds the lockstep ragged-tail waste.

    The waste bound is sound, not an estimate: whichever lane attains
    the batch makespan ``M`` is busy all ``M`` cycles and every other
    lane is busy at least its certified lower bound, so

    ``waste <= 1 - 1/L - (sum(lo) - max(lo)) / (L * M_hi)``

    with the right side maximized at the certified makespan upper bound
    ``M_hi = max(hi_i)`` (the expression is increasing in ``M``).
    ``waste_bound`` is ``None`` when any lane's cost is unbounded.
    """

    def __init__(self, cost, lane_tokens):
        self.lane_tokens = list(lane_tokens)
        self.lanes = len(self.lane_tokens)
        #: per-lane certified (lo, hi) total-vcycle intervals
        self.lane_bounds = [
            cost.stream_vcycles(n) for n in self.lane_tokens
        ]
        los = [lo for lo, _hi in self.lane_bounds]
        his = [hi for _lo, hi in self.lane_bounds]
        self.cycles_lo = max(los, default=0)
        self.cycles_hi = (None if any(hi is None for hi in his)
                          else max(his, default=0))

    @property
    def waste_bound(self):
        """Certified upper bound on :attr:`BatchStats.waste_fraction`,
        or ``None`` when some lane has no finite cost bound."""
        if not self.lanes or self.cycles_hi is None:
            return None
        if not self.cycles_hi:
            return 0.0
        los = [lo for lo, _hi in self.lane_bounds]
        slack = sum(los) - max(los)
        return max(0.0, 1.0 - 1.0 / self.lanes
                   - slack / (self.lanes * self.cycles_hi))

    def check(self, stats):
        """Violation strings if the measured :class:`BatchStats` lands
        outside the certified prediction (empty = sound)."""
        violations = []
        for i, (measured, (lo, hi)) in enumerate(
                zip(stats.lane_vcycles, self.lane_bounds)):
            if measured < lo or (hi is not None and measured > hi):
                violations.append(
                    f"lane {i}: {measured} vcycles outside certified "
                    f"[{lo}, {hi}]"
                )
        bound = self.waste_bound
        if bound is not None and stats.waste_fraction > bound + 1e-12:
            violations.append(
                f"waste {stats.waste_fraction:.6f} exceeds certified "
                f"bound {bound:.6f}"
            )
        return violations

    def compare(self, stats):
        """Predicted-vs-actual occupancy report for one measured run."""
        return {
            "lanes": self.lanes,
            "predicted_cycles": [self.cycles_lo, self.cycles_hi],
            "actual_cycles": stats.cycles,
            "predicted_waste_bound": self.waste_bound,
            "actual_waste": round(stats.waste_fraction, 6),
            "sound": not self.check(stats),
        }

    def as_dict(self):
        return {
            "lanes": self.lanes,
            "lane_bounds": [list(pair) for pair in self.lane_bounds],
            "cycles": [self.cycles_lo, self.cycles_hi],
            "waste_bound": self.waste_bound,
        }

    def __repr__(self):
        bound = self.waste_bound
        waste = "unbounded" if bound is None else f"{bound:.3f}"
        return (
            f"PredictedBatchStats(lanes={self.lanes}, "
            f"cycles=[{self.cycles_lo}, {self.cycles_hi}], "
            f"waste<={waste})"
        )


def predict_batch_stats(program, lane_tokens):
    """Static :class:`PredictedBatchStats` for ``program`` lanes with
    ``lane_tokens`` tokens each, or ``None`` when the program's
    certificate carries no cost facts."""
    from ..lint.certificate import certificate_for

    cost = certificate_for(program).cost
    if cost is None:
        return None
    return PredictedBatchStats(cost, lane_tokens)


class BatchResult:
    """Outputs, traces, and occupancy stats of one ragged-batch run."""

    __slots__ = ("program", "outputs", "traces", "stats", "cycles",
                 "_unit", "_regs", "_sgroups", "_predicted")

    def __init__(self, program, outputs, traces, stats, cycles, unit,
                 regs, sgroups):
        self.program = program
        self.outputs = outputs
        self.traces = traces
        self.stats = stats
        self.cycles = cycles
        self._unit = unit
        self._regs = regs
        self._sgroups = sgroups
        self._predicted = False  # lazily computed (None is a result)

    @property
    def predicted_stats(self):
        """Static :class:`PredictedBatchStats` for this batch's lane
        token counts (``None`` when the program has no cost facts).
        Lazy — the lint cost pass runs only when occupancy prediction
        is asked for, never on the batch execution path."""
        if self._predicted is False:
            self._predicted = predict_batch_stats(
                self.program,
                [len(t.emits_per_token) - 1 for t in self.traces],
            )
        return self._predicted

    def occupancy_report(self):
        """Predicted-vs-actual occupancy: the certified pre-run bounds
        next to the measured :class:`BatchStats`, or ``None`` when no
        prediction exists."""
        predicted = self.predicted_stats
        if predicted is None:
            return None
        return predicted.compare(self.stats)

    def peek_reg(self, lane, name):
        """Final architectural value of register ``name`` in ``lane``."""
        for ri, reg in enumerate(self.program.regs):
            if reg.name == name:
                bits, row = self._unit.reg_loc[ri]
                gi = sorted(self._unit.reg_groups).index(bits)
                return int(self._regs[gi][row, lane])
        raise FleetSimulationError(f"no register named {name!r}")

    def peek_bram(self, lane, name):
        """Final contents of BRAM ``name`` in ``lane``, as a list."""
        for di, bram in enumerate(self.program.brams):
            if bram.name == name:
                gid, member = self._unit.state_loc[("bram", di)]
                return [
                    int(x) for x in self._sgroups[gid][member, :, lane]
                ]
        raise FleetSimulationError(f"no BRAM named {name!r}")

    def reg_state(self, lane):
        """``{name: value}`` of every register in ``lane`` (the
        differential harness's final-state comparison)."""
        return {
            reg.name: self.peek_reg(lane, reg.name)
            for reg in self.program.regs
        }


def _validate_stream(program, stream, tok_dtype):
    """Convert one stream to a bounds-checked token array."""
    in_mask = mask(program.input_width)
    if isinstance(stream, (bytes, bytearray, memoryview)):
        arr = _np.frombuffer(bytes(stream), dtype=_np.uint8)
        if program.input_width < 8 and arr.size \
                and int(arr.max()) > in_mask:
            bad = next(t for t in stream if t > in_mask)
            raise FleetSimulationError(
                f"token {bad!r} does not fit the declared "
                f"{program.input_width}-bit input width"
            )
        return arr.astype(tok_dtype)
    tokens = list(stream)
    try:
        arr = _np.asarray(tokens, dtype=_np.uint64)
    except (OverflowError, ValueError, TypeError):
        arr = None
    if arr is None or (arr.size and int(arr.max()) > in_mask):
        for token in tokens:
            if not (isinstance(token, int) and 0 <= token <= in_mask):
                raise FleetSimulationError(
                    f"token {token!r} does not fit the declared "
                    f"{program.input_width}-bit input width"
                )
        raise FleetSimulationError(  # pragma: no cover - defensive
            "token stream failed numpy conversion"
        )
    return arr.astype(tok_dtype)


def run_batch_streams(program, streams, *, max_vcycles_per_token=1_000_000,
                      unit=None):
    """Execute ``streams`` (one per lane, ragged lengths allowed) in a
    single SIMD batch; returns a :class:`BatchResult` whose outputs and
    per-lane :class:`~repro.interp.trace.StreamTrace` virtual-cycle
    counts are bit-identical to N independent compiled-engine runs.

    Note on invalid tokens: the batch engine validates all streams
    upfront, so a bad token raises before *any* lane executes (the
    sequential engines raise mid-stream after earlier tokens ran).
    """
    if _np is None:
        raise FleetSimulationError(NUMPY_HINT)
    if unit is None:
        unit = compile_batch(program)
    streams = list(streams)
    n = len(streams)
    if n == 0:
        raise FleetSimulationError("run_batch_streams needs >= 1 stream")
    tok_dtype = _np.uint64
    arrs = [_validate_stream(program, s, tok_dtype) for s in streams]
    lens = _np.array([a.shape[0] for a in arrs], dtype=_np.intp)
    # FLEET_NATIVE=off must win over a kernel cached on the unit:
    # flipping it mid-process (tests do) drops back to the NumPy tier.
    if unit.cc is not None and _native.native_enabled():
        return _run_batch_cc(program, unit, arrs, lens, n,
                             max_vcycles_per_token)
    max_len = int(lens.max()) if n else 0
    toks = _np.zeros((max_len, n), dtype=tok_dtype)
    for i, a in enumerate(arrs):
        if a.shape[0]:
            toks[: a.shape[0], i] = a
    regs, sgroups = unit.init_state(n)
    res = {}
    unit.run_batch(toks, lens, regs, sgroups, max_vcycles_per_token, res)

    chunks = res["chunks"]
    if chunks:
        # Scatter each per-cycle chunk straight into its lane's slot
        # range (counting sort by lane); a lane emits at most once per
        # cycle, so the fancy read-modify-write on `fill` is alias-free.
        counts = _np.bincount(
            _np.concatenate([c[0] for c in chunks]), minlength=n
        )
        offs = _np.zeros(n + 1, dtype=_np.intp)
        _np.cumsum(counts, out=offs[1:])
        flat = _np.empty(int(offs[n]), dtype=_np.uint64)
        fill = offs[:n].copy()
        for si, vals in chunks:
            flat[fill[si]] = vals
            fill[si] += 1
        flat_list = flat.tolist()
        bounds = offs.tolist()
        outputs = [
            flat_list[bounds[i]:bounds[i + 1]] for i in range(n)
        ]
    else:
        outputs = [[] for _ in range(n)]

    vca, ema = res["vca"], res["ema"]
    all_ones = res["vc_all_ones"]
    # One bulk tolist per matrix (C-speed) beats n per-lane tolists.
    vc_rows = None if all_ones else vca.T.tolist()
    em_rows = ema.T.tolist()
    len_list = lens.tolist()
    traces = []
    for i in range(n):
        length = len_list[i]
        trace = StreamTrace()
        if all_ones:
            trace.vcycles_per_token = [1] * (length + 1)
        else:
            trace.vcycles_per_token = vc_rows[i][: length + 1]
        trace.emits_per_token = em_rows[i][: length + 1]
        trace._cleanup_recorded = True
        traces.append(trace)
    stats = BatchStats([t.total_vcycles for t in traces])
    return BatchResult(program, outputs, traces, stats, res["cycles"],
                       unit, regs, sgroups)


class BatchStreamSimulator:
    """Drop-in stream simulator backed by the batch engine (N=1).

    ``run`` executes the whole stream on the SIMD path. The incremental
    API (``process_token``/``finish_stream``) transparently delegates to
    a :class:`~repro.interp.compile.CompiledSimulator` — the batch
    lowering is whole-stream by construction — so ``FLEET_ENGINE=batch``
    never breaks token-at-a-time drivers.
    """

    def __init__(self, program, *, check_restrictions=True,
                 max_vcycles_per_token=1_000_000, unit=None):
        self.program = program
        self.check_restrictions = check_restrictions
        self.max_vcycles_per_token = max_vcycles_per_token
        self._unit = unit if unit is not None else compile_batch(program)
        self.reset()

    def reset(self):
        self._outputs = []
        self._finished = False
        self._result = None
        self._fallback = None
        self.trace = StreamTrace()

    def _delegate(self):
        if self._fallback is None:
            from .compile import CompiledSimulator

            self._fallback = CompiledSimulator(
                self.program,
                check_restrictions=self.check_restrictions,
                max_vcycles_per_token=self.max_vcycles_per_token,
            )
        return self._fallback

    def run(self, tokens):
        if self._finished:
            raise FleetSimulationError(
                "stream already finished; reset() to reuse the simulator"
            )
        if self._fallback is not None:
            outputs = self._fallback.run(tokens)
            self.trace = self._fallback.trace
            self._outputs = list(self._fallback.outputs)
            self._finished = True
            return outputs
        result = run_batch_streams(
            self.program, [list(tokens)], unit=self._unit,
            max_vcycles_per_token=self.max_vcycles_per_token,
        )
        self._result = result
        self._outputs = list(result.outputs[0])
        self.trace = result.traces[0]
        self._finished = True
        return list(self._outputs)

    def process_token(self, token):
        if self._finished:
            raise FleetSimulationError(
                "stream already finished; reset() to reuse the simulator"
            )
        sim = self._delegate()
        out = sim.process_token(token)
        self.trace = sim.trace
        self._outputs = list(sim.outputs)
        return out

    def finish_stream(self):
        if self._finished:
            raise FleetSimulationError("stream already finished")
        sim = self._delegate()
        out = sim.finish_stream()
        self.trace = sim.trace
        self._outputs = list(sim.outputs)
        self._finished = True
        return out

    @property
    def outputs(self):
        return list(self._outputs)

    def peek_reg(self, name):
        if self._result is not None:
            return self._result.peek_reg(0, name)
        if self._fallback is not None:
            return self._fallback.peek_reg(name)
        for reg in self.program.regs:
            if reg.name == name:
                return reg.init
        raise FleetSimulationError(f"no register named {name!r}")

    def peek_bram(self, name):
        if self._result is not None:
            return self._result.peek_bram(0, name)
        if self._fallback is not None:
            return self._fallback.peek_bram(name)
        for bram in self.program.brams:
            if bram.name == name:
                return [0] * bram.elements
        raise FleetSimulationError(f"no BRAM named {name!r}")


__all__ = [
    "BatchResult",
    "BatchStats",
    "BatchStreamSimulator",
    "BatchUnit",
    "NUMPY_HINT",
    "PredictedBatchStats",
    "batch_backend_env",
    "batch_engine_for",
    "batch_support",
    "cc_available",
    "compile_batch",
    "numpy_available",
    "predict_batch_stats",
    "run_batch_streams",
    "try_compile_batch",
]
