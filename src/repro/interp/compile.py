"""Compile-to-Python fast engine for Fleet processing units.

The AST-walking interpreter in :mod:`repro.interp.simulator` pays Python
dispatch on every expression node of every virtual cycle. This module
lowers a checked :class:`~repro.lang.ast.UnitProgram` *once* into
specialized Python source — straight-line statements, no per-node
dispatch — compiles it with :func:`compile`/``exec``, and exposes the
result as a drop-in engine producing bit-identical outputs and the same
:class:`~repro.interp.trace.StreamTrace` per-token virtual-cycle counts.

Lowering strategy (mirrors the interpreter's two-pass virtual cycle):

* registers are unpacked into local variables for the whole stream and
  repacked at the end; vector registers and BRAMs stay Python lists,
  mutated in place;
* multiply-referenced expression nodes (wires, shared sub-expressions)
  are hoisted into per-cycle temporaries, evaluated once in dependency
  order — the same sharing the RTL simulator exploits, and what keeps
  deep compare-select chains (Smith-Waterman) from exploding;
* pass 1 computes ``while_done`` with early-exit guards over only the
  statements that contain a ``while``;
* pass 2 is the statement tree rendered as nested ``if``s; writes land
  in pending variables (sentinel-guarded) and commit at the end of the
  cycle, preserving the concurrent read-start-of-cycle semantics.

When is the fast engine sound?

* Every BRAM and vector register must have a power-of-two element count:
  then address truncation guarantees in-range accesses, every expression
  node is total, and unconditional hoisting plus short-circuit ``Mux``
  rendering are value-exact and error-free.
* With ``check_restrictions=False`` the interpreter's conflict semantics
  are last-write-wins in statement order, which the generated pending
  variables reproduce exactly, so any supported program qualifies.
* With ``check_restrictions=True`` the dynamic restriction checks are
  elided only when the program carries a clean
  :class:`~repro.lint.certificate.RestrictionCertificate`: the static
  prover (:func:`repro.lang.prover.prove_program`) shows the conflict
  checks can never fire, the same exclusivity argument covers
  vector-register assignments, and the lint pipeline reports no
  error-severity findings.

Set the environment variable ``FLEET_ENGINE=interp`` to disable the fast
path globally and force the authoritative interpreter oracle.
"""

import time

from ..envcfg import env_choice
from ..lang import ast
from ..lang.errors import (
    FleetLoopLimitError,
    FleetSimulationError,
)
from ..lang.types import mask
from ..telemetry.metrics import counter as _tm_counter
from ..telemetry.metrics import enabled as _tm_enabled
from ..telemetry.metrics import histogram as _tm_histogram
from .trace import StreamTrace

#: Live telemetry (repro.telemetry; zero-cost unless FLEET_METRICS).
_ENGINE_SELECTED = _tm_counter(
    "fleet_interp_engine_selected_total",
    "Simulator engines handed out by make_simulator()",
    ("engine",),
)
_COMPILES = _tm_counter(
    "fleet_interp_compiles_total",
    "Unit programs lowered by the compiled engine",
)
_COMPILE_SECONDS = _tm_histogram(
    "fleet_interp_compile_seconds",
    "Wall-clock seconds per compiled-engine lowering",
)
_CHECK_ELISIONS = _tm_counter(
    "fleet_lint_check_elisions_total",
    "Dynamic restriction-check elision decisions, by outcome",
    ("result",),
)
_SPECIALIZATIONS = _tm_counter(
    "fleet_interp_specializations_total",
    "Certified-specialization attempts, by outcome",
    ("result",),
)
_SPECIALIZED_ELISIONS = _tm_counter(
    "fleet_interp_specialized_elisions_total",
    "Guards deleted at codegen time by certified specialization, by kind",
    ("kind",),
)

#: Maximum nesting of a rendered (inline) expression; deeper chains are
#: hoisted into temporaries so generated source never stresses the parser.
DEPTH_CAP = 20

_LEAF_NODES = (ast.Const, ast.InputToken, ast.StreamFinished, ast.RegRead)

_SIMPLE_BINOPS = {
    "add": "+", "mul": "*", "and": "&", "or": "|", "xor": "^",
    "shl": "<<", "shr": ">>",
    "eq": "==", "ne": "!=", "lt": "<", "le": "<=", "gt": ">", "ge": ">=",
}


class _Unsupported(Exception):
    """Raised during lowering when a program can't take the fast path."""


class _NoWrite:
    __slots__ = ()

    def __repr__(self):
        return "<no-write>"


#: Sentinel distinguishing "no pending write this cycle" from any value.
_NW = _NoWrite()


class CompiledUnit:
    """A Fleet program lowered to specialized Python functions.

    ``run_token(token, sf, regs, vregs, brams, outputs, max_vc)`` runs one
    input token (or, with ``sf=1``, the post-stream cleanup) against the
    given state lists and returns ``(vcycles, emits)``.

    ``run_stream(tokens, regs, vregs, brams, outputs, max_vc, vclist,
    emlist)`` runs a whole stream plus the cleanup cycle, appending one
    per-token entry to ``vclist``/``emlist`` — the stream-level fast path
    with the token loop inside generated code.

    ``specialized`` is true when the lowering consumed a clean
    certificate's :class:`~repro.lint.facts.SpecializationFacts`;
    ``elisions`` then counts what the facts let codegen delete
    (``None`` on guarded units).
    """

    __slots__ = ("program", "run_token", "run_stream", "source",
                 "specialized", "elisions")

    def __init__(self, program, run_token, run_stream, source,
                 specialized=False, elisions=None):
        self.program = program
        self.run_token = run_token
        self.run_stream = run_stream
        self.source = source
        self.specialized = specialized
        self.elisions = elisions


# ---------------------------------------------------------------------------
# Code generation
# ---------------------------------------------------------------------------


class _Codegen:
    """Lower one program to Python source.

    ``facts`` (a clean certificate's
    :class:`~repro.lint.facts.SpecializationFacts`) switches on the
    *certified specialization* path: guards the interval domain proves
    redundant are deleted from the generated source instead of rendered —
    width-truncation masks whose operand already fits, BRAM/vreg address
    truncations with proven-in-range addresses, wrap masks on provably
    non-borrowing subtractions, slice masks on operands proven inside the
    sliced window, proven-constant expressions folded to literals, direct
    (commit-free) emits under the certificate's emit-exclusivity proof,
    and — for loop-free programs — the whole virtual-cycle machinery
    collapsed to a straight-line cycle. Every elision is counted in
    ``self.elisions`` so specialization is observable. With
    ``facts=None`` this is byte-for-byte the historical guarded codegen.
    """

    def __init__(self, program, facts=None):
        self.program = program
        self.facts = facts
        self._fact_key_memo = {}
        if facts is not None:
            from ..lint.facts import expr_fact_key

            self._expr_fact_key = expr_fact_key
        self.elisions = {
            "value_masks": 0, "addr_masks": 0, "sub_masks": 0,
            "slice_masks": 0, "const_folds": 0, "dead_arms": 0,
            "direct_emits": 0, "uncond_commits": 0, "straightline": 0,
            "reg_sentinels": 0,
        }
        self.reg_name = {r: f"_r{i}" for i, r in enumerate(program.regs)}
        self.vreg_name = {v: f"_v{i}" for i, v in enumerate(program.vregs)}
        self.bram_name = {b: f"_b{i}" for i, b in enumerate(program.brams)}
        self._while_cache = {}
        # Per-render state (see _begin_render): the specialized path
        # renders the cycle several times — once generic for run_token,
        # once per stream phase (token sf=0, cleanup sf=1) — and each
        # render has its own temporaries, live statement structure, and
        # written-state sets.
        self._phase = None
        self._temp = {}
        self._begin_render(None)

    def _begin_render(self, phase):
        """Reset per-render state and recompute the live statement
        structure for ``phase`` (``None`` = generic, ``0`` = stream
        token phase with ``sf`` folded to 0, ``1`` = cleanup phase with
        ``sf`` folded to 1 and the input token folded to 0)."""
        self._phase = phase
        self._temp = {}  # id(node) -> temp variable name
        self._live_arms_cache = {}
        # Which state elements are ever written *in live statements*,
        # and how many syntactic assignment sites each vector register
        # has (one site can commit through a cheap tuple; several need
        # an append list).
        self.assigned_regs = []
        self.vreg_sites = {}
        self.written_brams = []
        self.has_emit = False
        for stmt in self._live_leaves(self.program.body):
            if isinstance(stmt, ast.RegAssign):
                if stmt.reg not in self.assigned_regs:
                    self.assigned_regs.append(stmt.reg)
            elif isinstance(stmt, ast.VectorRegAssign):
                self.vreg_sites[stmt.vreg] = (
                    self.vreg_sites.get(stmt.vreg, 0) + 1
                )
            elif isinstance(stmt, ast.BramWrite):
                if stmt.bram not in self.written_brams:
                    self.written_brams.append(stmt.bram)
            elif isinstance(stmt, ast.Emit):
                self.has_emit = True
        # A render with no live while finishes every virtual cycle on
        # the first pass (`_wd` is vacuously true), so the cycle loop,
        # the `_wd` flag, and the loop-limit check all collapse.
        self._straightline = self.facts is not None and not \
            self._has_live_while(self.program.body)
        # A clean certificate proves emit statements mutually exclusive
        # (at most one fires per cycle), and emitted values are never
        # read back within the cycle — so emits can append directly
        # instead of staging through the `_em` pending slot.
        self.direct_emit = self.facts is not None and self.has_emit
        # State whose pending write provably lands every cycle (an
        # unconditional top-level leaf in a straight-line render):
        # commits drop the no-write sentinel test.
        self._uncond_vregs = set()
        self._uncond_brams = set()
        # Snapshot-read scheme (specialized renders only): registers
        # that are both read and assigned in live code snapshot their
        # start-of-cycle value into `_o{i}` once, every read renders as
        # the snapshot, and writes land directly in `_r{i}` at their
        # site — no pending variable, no end-of-cycle commit. Registers
        # read but never written (or written but never read) need no
        # snapshot at all.
        self._snap_regs = set()
        self._reg_read_name = self.reg_name
        self._region_temps = {}
        if self.facts is not None:
            assigned = set(self.assigned_regs)
            seen = set()
            stack = [root for root, _region in self._collect_roots()]
            while stack:
                node = stack.pop()
                if id(node) in seen:
                    continue
                seen.add(id(node))
                if isinstance(node, ast.RegRead) and node.reg in assigned:
                    self._snap_regs.add(node.reg)
                stack.extend(node.children())
            self._reg_read_name = {
                reg: (f"_o{i}" if reg in self._snap_regs else f"_r{i}")
                for i, reg in enumerate(self.program.regs)
            }

    # -- structure helpers ---------------------------------------------------
    def _contains_while(self, stmt):
        cached = self._while_cache.get(id(stmt))
        if cached is None:
            cached = any(
                isinstance(s, ast.While) for s in ast.walk_statements([stmt])
            )
            self._while_cache[id(stmt)] = cached
        return cached

    # -- live structure under specialization --------------------------------
    def _phase_const(self, node):
        """Compile-time value of ``node`` in a phase-specialized render
        (``sf`` and, in the cleanup phase, the input token are
        literals), or ``None``. Mirrors the *rendered* semantics —
        untruncated adds/shifts, wrap-masked sub — so a folded branch
        decision matches exactly what the emitted code would compute."""
        if isinstance(node, ast.Const):
            return node.value
        if self._phase is None:
            return None
        if isinstance(node, ast.StreamFinished):
            return self._phase
        if isinstance(node, ast.InputToken):
            return 0 if self._phase == 1 else None
        if isinstance(node, ast.WireRead):
            return self._phase_const(node.wire.value)
        if isinstance(node, ast.UnOp):
            a = self._phase_const(node.operand)
            if a is None:
                return None
            w = node.operand.width
            if node.op == "not":
                return (~a) & mask(w)
            if node.op == "lnot":
                return 1 if a == 0 else 0
            if node.op == "orr":
                return 1 if a != 0 else 0
            if node.op == "andr":
                return 1 if a == mask(w) else 0
            if node.op == "xorr":
                return bin(a).count("1") & 1
            return None
        if isinstance(node, ast.BinOp):
            a = self._phase_const(node.lhs)
            b = self._phase_const(node.rhs)
            # Zero absorption: operands are total and pure under the
            # power-of-two gate, so `x & 0` / `x * 0` fold without
            # knowing x.
            if node.op in ("and", "mul") and (a == 0 or b == 0):
                return 0
            if a is None or b is None:
                return None
            if node.op == "add":
                return a + b
            if node.op == "sub":
                return (a - b) & mask(node.width)
            if node.op == "mul":
                return a * b
            if node.op == "and":
                return a & b
            if node.op == "or":
                return a | b
            if node.op == "xor":
                return a ^ b
            if node.op == "shl":
                return a << b
            if node.op == "shr":
                return a >> b
            if node.op == "eq":
                return 1 if a == b else 0
            if node.op == "ne":
                return 1 if a != b else 0
            if node.op == "lt":
                return 1 if a < b else 0
            if node.op == "le":
                return 1 if a <= b else 0
            if node.op == "gt":
                return 1 if a > b else 0
            if node.op == "ge":
                return 1 if a >= b else 0
            return None
        if isinstance(node, ast.Mux):
            c = self._phase_const(node.cond)
            if c is None:
                return None
            return self._phase_const(node.then if c else node.els)
        if isinstance(node, ast.Slice):
            a = self._phase_const(node.operand)
            if a is None:
                return None
            return (a >> node.lo) & mask(node.width)
        if isinstance(node, ast.Concat):
            out = 0
            for part in node.parts:
                p = self._phase_const(part)
                if p is None:
                    return None
                out = (out << part.width) | p
            return out
        return None

    def _cond_const(self, node):
        """Compile-time truth value of a branch condition in the current
        render — certificate-proven constants plus phase literals — or
        ``None`` when the branch stays dynamic."""
        if self.facts is None:
            return None
        value = self.facts.constant(self._key(node))
        if value is not None:
            return value
        return self._phase_const(node)

    def _live_arms(self, stmt):
        """``stmt.arms`` as ``(cond, body, source_index)`` triples with
        compile-time-dead arms deleted: a proven-false arm vanishes, a
        proven-true arm becomes the final ``else`` (later arms are
        unreachable). Source indices are preserved so per-site fact
        locations keep lining up with the lint engine's statement paths.
        Identity on the guarded path."""
        if self.facts is None:
            return [(cond, arm_body, j)
                    for j, (cond, arm_body) in enumerate(stmt.arms)]
        cached = self._live_arms_cache.get(id(stmt))
        if cached is not None:
            return cached
        arms = []
        for j, (cond, arm_body) in enumerate(stmt.arms):
            if cond is None:
                arms.append((None, arm_body, j))
                break
            value = self._cond_const(cond)
            if value is None:
                arms.append((cond, arm_body, j))
            elif value:
                arms.append((None, arm_body, j))
                self.elisions["dead_arms"] += \
                    len(stmt.arms) - len(arms)
                break
            else:
                self.elisions["dead_arms"] += 1
        self._live_arms_cache[id(stmt)] = arms
        return arms

    def _live_while(self, stmt):
        """Whether a ``while`` can ever be entered in this render."""
        return self._cond_const(stmt.cond) != 0

    def _contains_live_while(self, stmt):
        """:meth:`_contains_while`, but blind to whiles that can never
        be entered in this render."""
        if self.facts is None:
            return self._contains_while(stmt)
        return self._has_live_while([stmt])

    def _has_live_while(self, body):
        for stmt in body:
            if isinstance(stmt, ast.While):
                if self._live_while(stmt):
                    return True
            elif isinstance(stmt, ast.If):
                for _cond, arm_body, _j in self._live_arms(stmt):
                    if self._has_live_while(arm_body):
                        return True
        return False

    def _live_leaves(self, body):
        """Leaf statements reachable in this render, in source order."""
        out = []
        for stmt in body:
            if isinstance(stmt, ast.While):
                if self._live_while(stmt):
                    out.extend(self._live_leaves(stmt.body))
            elif isinstance(stmt, ast.If):
                for _cond, arm_body, _j in self._live_arms(stmt):
                    out.extend(self._live_leaves(arm_body))
            else:
                out.append(stmt)
        return out

    # -- specialization fact queries ----------------------------------------
    def _key(self, node):
        return self._expr_fact_key(node, self._fact_key_memo)

    def _elide(self, kind):
        self.elisions[kind] += 1

    def _fits(self, node, width):
        """Whether ``node``'s value provably fits ``width`` bits at every
        occurrence (so its truncation mask may be deleted)."""
        return self.facts is not None and self.facts.fits(
            self._key(node), width
        )

    def _site_fits(self, node, width, location, role):
        """:meth:`_fits`, additionally trying the guard-refined bound at
        the leaf statement ``location`` — sound there because each leaf
        renders exactly once."""
        if self.facts is None:
            return False
        return self.facts.site_fits(location, role, width) or \
            self.facts.fits(self._key(node), width)

    # -- expression rendering ------------------------------------------------
    def _render(self, node):
        name = self._temp.get(id(node))
        if name is not None:
            return name
        return self._render_body(node)

    def _render_body(self, node):
        if isinstance(node, ast.Const):
            return repr(node.value)
        if self.facts is not None and not isinstance(node, _LEAF_NODES):
            folded = self.facts.constant(self._key(node))
            if folded is not None:
                self._elide("const_folds")
                return repr(folded)
        if isinstance(node, ast.InputToken):
            return "0" if self._phase == 1 else "token"
        if isinstance(node, ast.StreamFinished):
            return "sf" if self._phase is None else repr(self._phase)
        if isinstance(node, ast.RegRead):
            return self._reg_read_name[node.reg]
        if isinstance(node, ast.WireRead):
            return self._render(node.wire.value)
        if isinstance(node, ast.VectorRegRead):
            index = self._trunc(node.index, node.vreg.index_width,
                                kind="addr_masks")
            return f"{self.vreg_name[node.vreg]}[{index}]"
        if isinstance(node, ast.BramRead):
            addr = self._trunc(node.addr, node.bram.addr_width,
                               kind="addr_masks")
            return f"{self.bram_name[node.bram]}[{addr}]"
        if isinstance(node, ast.BinOp):
            lhs, rhs = self._render(node.lhs), self._render(node.rhs)
            op = _SIMPLE_BINOPS.get(node.op)
            if op is not None:
                return f"({lhs} {op} {rhs})"
            if node.op == "sub":
                if self.facts is not None and self.facts.sub_exact(
                    self._key(node.lhs), self._key(node.rhs)
                ):
                    # Proven borrow-free: the wrap mask is a no-op.
                    self._elide("sub_masks")
                    return f"({lhs} - {rhs})"
                return f"(({lhs} - {rhs}) & {hex(mask(node.width))})"
            raise _Unsupported(node)
        if isinstance(node, ast.UnOp):
            a = self._render(node.operand)
            w = node.operand.width
            if node.op == "not":
                return f"((~{a}) & {hex(mask(w))})"
            if node.op == "lnot":
                return f"({a} == 0)"
            if node.op == "orr":
                return f"({a} != 0)"
            if node.op == "andr":
                return f"({a} == {hex(mask(w))})"
            if node.op == "xorr":
                return f'(bin({a}).count("1") & 1)'
            raise _Unsupported(node)
        if isinstance(node, ast.Mux):
            # Value-exact short circuit: both arms are pure under the
            # power-of-two gate, so skipping the untaken arm is safe.
            cond = self._render(node.cond)
            then = self._render(node.then)
            els = self._render(node.els)
            return f"(({then}) if {cond} else ({els}))"
        if isinstance(node, ast.Slice):
            a = self._render(node.operand)
            if node.lo == 0 and node.width == node.operand.width:
                return a
            shifted = a if node.lo == 0 else f"({a} >> {node.lo})"
            if self._fits(node.operand, node.hi + 1):
                # Operand proven inside the sliced window: nothing above
                # bit `hi` survives the shift, the mask is a no-op.
                self._elide("slice_masks")
                return shifted
            return f"({shifted} & {hex(mask(node.width))})"
        if isinstance(node, ast.Concat):
            out = self._render(node.parts[0])
            for part in node.parts[1:]:
                out = f"(({out} << {part.width}) | {self._render(part)})"
            return out
        raise _Unsupported(node)

    def _trunc(self, node, width, kind="value_masks"):
        rendered = self._render(node)
        if node.width > width:
            if self._fits(node, width):
                self._elide(kind)
                return rendered
            return f"({rendered} & {hex(mask(width))})"
        return rendered

    def _trunc_at(self, node, width, location, role, kind):
        """:meth:`_trunc` for a leaf-statement operand, also consulting
        the guard-refined per-site bound at ``location``."""
        rendered = self._render(node)
        if node.width > width:
            if self._site_fits(node, width, location, role):
                self._elide(kind)
                return rendered
            return f"({rendered} & {hex(mask(width))})"
        return rendered

    # -- shared-node hoisting ------------------------------------------------
    def _collect_roots(self):
        """Expression roots in the order the generated code references
        them, each tagged with its *branch region* — the chain of
        ``(id(If-or-While), arm-index)`` steps pass 2 descends through
        to reach the reference. Only live statements contribute — dead
        arms and never-entered whiles are not rendered, so their
        expressions must not be hoisted.

        Regions drive temp sinking (specialized renders): within one
        virtual cycle every statement renders as pure branches, never a
        Python loop, so a temporary may be computed at the top of the
        deepest region dominating all its references instead of at cycle
        top. Pass-1 references and branch *conditions* live in the
        enclosing region (an ``elif`` chain cannot hold statements
        between arms)."""
        roots = []

        def pass1(body):
            for stmt in body:
                if isinstance(stmt, ast.While):
                    if self._live_while(stmt):
                        roots.append((stmt.cond, ()))
                elif isinstance(stmt, ast.If) and \
                        self._contains_live_while(stmt):
                    for cond, arm_body, _j in self._live_arms(stmt):
                        if cond is not None:
                            roots.append((cond, ()))
                        pass1(arm_body)

        def pass2(body, region):
            for stmt in body:
                if isinstance(stmt, ast.If):
                    for cond, arm_body, j in self._live_arms(stmt):
                        if cond is not None:
                            roots.append((cond, region))
                        pass2(arm_body, region + ((id(stmt), j),))
                elif isinstance(stmt, ast.While):
                    if self._live_while(stmt):
                        roots.append((stmt.cond, region))
                        pass2(stmt.body, region + ((id(stmt), -1),))
                else:
                    for root in ast.statement_exprs(stmt):
                        roots.append((root, region))

        if not self._straightline:
            pass1(self.program.body)
        pass2(self.program.body, ())
        return roots

    def _hoist_lines(self, pairs):
        """Choose and emit per-cycle temporaries: any node referenced more
        than once (a DAG share) and any node whose rendered nesting would
        exceed :data:`DEPTH_CAP`.

        Returns the cycle-top temp lines. In specialized renders, temps
        whose every reference lives inside one branch region *sink* to
        that region (stored in ``self._region_temps`` for
        :meth:`_emit_pass2` to emit at region entry), so e.g. hash
        chains used only on the ingest arm are not recomputed on every
        flush cycle. A child temp's region is forced to dominate every
        parent's region, so definitions always precede uses."""
        counts = {}
        region_of = {}
        for root, region in pairs:
            if self.facts is None:
                region = ()
            stack = [root]
            while stack:
                node = stack.pop()
                seen = counts.get(id(node), 0)
                counts[id(node)] = seen + 1
                if id(node) in region_of:
                    old = region_of[id(node)]
                    if old != region:
                        # Longest common prefix: deepest common region.
                        lca = []
                        for a, b in zip(old, region):
                            if a != b:
                                break
                            lca.append(a)
                        region_of[id(node)] = tuple(lca)
                else:
                    region_of[id(node)] = region
                if seen == 0:
                    stack.extend(node.children())
        # Deterministic postorder over the DAG (children before parents).
        post = []
        visited = set()
        for root, _region in pairs:
            stack = [(root, False)]
            while stack:
                node, expanded = stack.pop()
                if expanded:
                    post.append(node)
                    continue
                if id(node) in visited:
                    continue
                visited.add(id(node))
                stack.append((node, True))
                for child in reversed(node.children()):
                    stack.append((child, False))
        # The counting walk expands each node's children once, so a
        # shared node reached again from a deeper root does not push its
        # LCA down to its own children. Propagate parents-first (reverse
        # postorder): every child's region must dominate (prefix) each
        # of its parents' regions.
        for node in reversed(post):
            parent_region = region_of[id(node)]
            for child in node.children():
                old = region_of[id(child)]
                if old != parent_region:
                    lca = []
                    for a, b in zip(old, parent_region):
                        if a != b:
                            break
                        lca.append(a)
                    region_of[id(child)] = tuple(lca)
        lines = []
        self._region_temps = {}
        depth = {}
        for node in post:
            child_depths = [
                1 if id(c) in self._temp else depth[id(c)]
                for c in node.children()
            ]
            d = 1 + max(child_depths, default=0)
            if self.facts is not None and not isinstance(
                node, _LEAF_NODES
            ) and self.facts.constant(self._key(node)) is not None:
                # Proven constant: renders as a literal everywhere, so
                # sharing/depth never justify a temporary.
                depth[id(node)] = 1
                continue
            if not isinstance(node, _LEAF_NODES) and (
                counts[id(node)] >= 2 or d > DEPTH_CAP
            ):
                body = self._render_body(node)
                name = f"_t{len(self._temp)}"
                self._temp[id(node)] = name
                region = region_of[id(node)]
                if region:
                    self._region_temps.setdefault(region, []).append(
                        f"{name} = {body}"
                    )
                else:
                    lines.append(f"{name} = {body}")
                d = 1
            depth[id(node)] = d
        return lines

    # -- statement rendering ------------------------------------------------
    def _emit_pass1(self, lines, body, indent):
        """Compute ``_wd`` (while_done) exactly as the interpreter's
        ``_any_loop_active``: evaluate only statements that can contain an
        active while, short-circuiting once one is found."""
        wrote = False
        for stmt in body:
            if isinstance(stmt, ast.While):
                if not self._live_while(stmt):
                    continue
                cond = self._render(stmt.cond)
                lines.append("    " * indent + f"if _wd and {cond}:")
                lines.append("    " * (indent + 1) + "_wd = False")
                wrote = True
            elif isinstance(stmt, ast.If) and \
                    self._contains_live_while(stmt):
                lines.append("    " * indent + "if _wd:")
                first = True
                for cond, arm_body, _j in self._live_arms(stmt):
                    if cond is not None:
                        kw = "if" if first else "elif"
                        rendered = self._render(cond)
                        lines.append(
                            "    " * (indent + 1) + f"{kw} {rendered}:"
                        )
                    else:
                        lines.append(
                            "    " * (indent + 1)
                            + ("if 1:" if first else "else:")
                        )
                    first = False
                    if not self._emit_pass1(lines, arm_body, indent + 2):
                        lines.append("    " * (indent + 2) + "pass")
                wrote = True
        return wrote

    def _leaf_code(self, stmt, location):
        # Leaf operands get the guard-refined per-site bounds recorded by
        # the lint engine at this exact statement location (sound: each
        # leaf renders exactly once), falling back to global bounds.
        if isinstance(stmt, ast.RegAssign):
            index = self.program.regs.index(stmt.reg)
            value = self._trunc_at(stmt.value, stmt.reg.width,
                                   location, "value", "value_masks")
            if self.facts is not None:
                # Snapshot-read scheme: reads render as the `_o{i}`
                # snapshot, so the write can land in place — no pending
                # slot, no end-of-cycle commit.
                self._elide("reg_sentinels")
                return f"_r{index} = {value}"
            return f"_pr{index} = {value}"
        if isinstance(stmt, ast.VectorRegAssign):
            index = self.program.vregs.index(stmt.vreg)
            idx = self._trunc_at(stmt.index, stmt.vreg.index_width,
                                 location, "addr", "addr_masks")
            value = self._trunc_at(stmt.value, stmt.vreg.width,
                                   location, "value", "value_masks")
            if self.vreg_sites[stmt.vreg] == 1:
                return f"_pv{index} = ({idx}, {value})"
            return f"_pv{index}.append(({idx}, {value}))"
        if isinstance(stmt, ast.BramWrite):
            index = self.program.brams.index(stmt.bram)
            addr = self._trunc_at(stmt.addr, stmt.bram.addr_width,
                                  location, "addr", "addr_masks")
            value = self._trunc_at(stmt.value, stmt.bram.width,
                                   location, "value", "value_masks")
            return f"_pb{index} = ({addr}, {value})"
        if isinstance(stmt, ast.Emit):
            value = self._trunc_at(stmt.value, self.program.output_width,
                                   location, "value", "value_masks")
            if self.direct_emit:
                # Certified emit exclusivity: at most one emit statement
                # fires per cycle, so the pending `_em` staging slot (and
                # its end-of-cycle commit test) is unnecessary.
                self._elide("direct_emits")
                return f"outputs.append({value}); emits += 1"
            return f"_em = {value}"
        raise _Unsupported(stmt)

    def _emit_pass2(self, lines, body, indent, in_loop, path="body",
                    region=()):
        wrote = False
        pending = []
        # Temps sunk to this branch region are computed at region entry,
        # before any condition or leaf that references them (pure and
        # total by the hoisting gate, so evaluation is unconditional
        # within the region).
        for code in self._region_temps.get(region, ()) if region else ():
            lines.append("    " * indent + code)
            wrote = True

        def flush():
            nonlocal wrote
            if not pending:
                return
            if in_loop or self._straightline:
                # In a loop body — or in a straight-line specialized
                # cycle, where `_wd` is vacuously true — leaves fire
                # unconditionally.
                for code in pending:
                    lines.append("    " * indent + code)
            else:
                # Leaf statements outside every while fire only on the
                # while_done virtual cycle (paper Section 3).
                lines.append("    " * indent + "if _wd:")
                for code in pending:
                    lines.append("    " * (indent + 1) + code)
            pending.clear()
            wrote = True

        for i, stmt in enumerate(body):
            loc = f"{path}[{i}]"
            if isinstance(stmt, ast.If):
                live = self._live_arms(stmt)
                if not live:
                    continue
                flush()
                first = True
                for cond, arm_body, j in live:
                    if cond is not None:
                        kw = "if" if first else "elif"
                        rendered = self._render(cond)
                        lines.append("    " * indent + f"{kw} {rendered}:")
                    else:
                        lines.append(
                            "    " * indent + ("if 1:" if first else "else:")
                        )
                    first = False
                    if not self._emit_pass2(
                        lines, arm_body, indent + 1, in_loop,
                        f"{loc}.arm[{j}].body",
                        region + ((id(stmt), j),),
                    ):
                        lines.append("    " * (indent + 1) + "pass")
                wrote = True
            elif isinstance(stmt, ast.While):
                if not self._live_while(stmt):
                    continue
                flush()
                cond = self._render(stmt.cond)
                lines.append("    " * indent + f"if {cond}:")
                if not self._emit_pass2(
                    lines, stmt.body, indent + 1, True, f"{loc}.body",
                    region + ((id(stmt), -1),),
                ):
                    lines.append("    " * (indent + 1) + "pass")
                wrote = True
            else:
                if indent == 0 and self._straightline and not in_loop:
                    self._mark_unconditional(stmt)
                pending.append(self._leaf_code(stmt, loc))
        flush()
        return wrote

    def _mark_unconditional(self, stmt):
        """Record that this leaf's pending write provably lands every
        cycle (top-level statement in a straight-line render), so the
        commit can skip the no-write sentinel test. Sound regardless of
        other, conditional sites: the unconditional site (re)assigns the
        pending variable every cycle, so it is always freshly defined,
        and statement-order last-write-wins is preserved by the pending
        variable itself. Registers need no marking: specialized renders
        write them in place (snapshot-read scheme)."""
        if isinstance(stmt, ast.VectorRegAssign):
            if self.vreg_sites[stmt.vreg] == 1:
                self._uncond_vregs.add(stmt.vreg)
        elif isinstance(stmt, ast.BramWrite):
            self._uncond_brams.add(stmt.bram)

    # -- assembly -----------------------------------------------------------
    def _cycle_lines(self):
        """One virtual cycle, as source lines at relative indent 0."""
        roots = self._collect_roots()
        lines = []
        if self.facts is not None:
            # Snapshot-read scheme: capture the start-of-cycle value of
            # every read+written register once; all reads below render
            # as `_o{i}`, so writes can land directly in `_r{i}`.
            for i, reg in enumerate(self.program.regs):
                if reg in self._snap_regs:
                    lines.append(f"_o{i} = _r{i}")
        lines.extend(self._hoist_lines(roots))
        if not self._straightline:
            lines.append("_wd = True")
            self._emit_pass1(lines, self.program.body, 0)
        # Pass 2 is rendered before the pending-variable inits are
        # chosen: rendering discovers which pending writes provably land
        # every cycle (their init and commit test are dropped).
        body_lines = []
        self._emit_pass2(body_lines, self.program.body, 0, False)
        for i, reg in enumerate(self.program.regs):
            # Specialized renders write registers in place (snapshot-read
            # scheme) — no pending slot to initialize.
            if self.facts is None and reg in self.assigned_regs:
                lines.append(f"_pr{i} = _NW")
        for i, vreg in enumerate(self.program.vregs):
            sites = self.vreg_sites.get(vreg, 0)
            if sites == 1 and vreg not in self._uncond_vregs:
                lines.append(f"_pv{i} = _NW")
            elif sites > 1:
                lines.append(f"_pv{i} = []")
        for i, bram in enumerate(self.program.brams):
            if bram in self.written_brams and \
                    bram not in self._uncond_brams:
                lines.append(f"_pb{i} = _NW")
        if self.has_emit and not self.direct_emit:
            lines.append("_em = _NW")
        lines.extend(body_lines)
        # Commit: all writes land together at the end of the cycle.
        for i, reg in enumerate(self.program.regs):
            if self.facts is None and reg in self.assigned_regs:
                lines.append(f"if _pr{i} is not _NW: _r{i} = _pr{i}")
        for i, vreg in enumerate(self.program.vregs):
            sites = self.vreg_sites.get(vreg, 0)
            if vreg in self._uncond_vregs:
                self._elide("uncond_commits")
                lines.append(f"_v{i}[_pv{i}[0]] = _pv{i}[1]")
            elif sites == 1:
                lines.append(
                    f"if _pv{i} is not _NW: _v{i}[_pv{i}[0]] = _pv{i}[1]"
                )
            elif sites > 1:
                lines.append(f"for _wi, _wx in _pv{i}: _v{i}[_wi] = _wx")
        for i, bram in enumerate(self.program.brams):
            if bram in self._uncond_brams:
                self._elide("uncond_commits")
                lines.append(f"_b{i}[_pb{i}[0]] = _pb{i}[1]")
            elif bram in self.written_brams:
                lines.append(
                    f"if _pb{i} is not _NW: _b{i}[_pb{i}[0]] = _pb{i}[1]"
                )
        if self.has_emit and not self.direct_emit:
            lines.append("if _em is not _NW:")
            lines.append("    outputs.append(_em)")
            lines.append("    emits += 1")
        return lines

    def _state_unpack(self, lines, indent):
        pad = "    " * indent
        for i in range(len(self.program.regs)):
            lines.append(f"{pad}_r{i} = regs[{i}]")
        for i in range(len(self.program.vregs)):
            lines.append(f"{pad}_v{i} = vregs[{i}]")
        for i in range(len(self.program.brams)):
            lines.append(f"{pad}_b{i} = brams[{i}]")

    def _state_repack(self, lines, indent):
        pad = "    " * indent
        repacked = False
        for i in range(len(self.program.regs)):
            lines.append(f"{pad}regs[{i}] = _r{i}")
            repacked = True
        if not repacked:
            lines.append(f"{pad}pass")

    def _cycle_at(self, lines, cycle, straightline, indent):
        """Emit one virtual-cycle execution (the cycle loop, or the
        collapsed straight-line form leaving ``vc`` implicit = 1) at
        ``indent``."""
        pad = "    " * indent
        vc_error = (
            '"while loop did not terminate within '
            '%d virtual cycles" % (max_vc,)'
        )
        if straightline:
            # A fully-dead body (every statement elided) still needs a
            # syntactically valid block under the caller's `try:`.
            if cycle:
                lines.extend(pad + line for line in cycle)
            else:
                lines.append(pad + "pass")
        elif self.facts is not None:
            # Specialized loop: `range` drives the cycle counter at C
            # speed and the loop-limit check moves into the for/else —
            # same cycle count and same raise point as the guarded form
            # (`_vcb` pre-clamps max_vc <= 0 to "one cycle, then raise",
            # matching the guarded while loop's check-after-cycle order).
            lines.append(pad + "for vc in range(1, _vcb):")
            lines.extend(pad + "    " + line for line in cycle)
            lines.append(pad + "    if _wd:")
            lines.append(pad + "        break")
            lines.append(pad + "else:")
            lines.append(pad + f"    raise _LoopError({vc_error})")
        else:
            lines.append(pad + "vc = 0")
            lines.append(pad + "while True:")
            lines.append(pad + "    vc += 1")
            lines.extend(pad + "    " + line for line in cycle)
            lines.append(pad + "    if _wd:")
            lines.append(pad + "        break")
            lines.append(pad + "    if vc >= max_vc:")
            lines.append(pad + f"        raise _LoopError({vc_error})")

    def _render_cycle(self, phase):
        """Begin a fresh render for ``phase`` and produce its cycle
        lines; returns ``(cycle_lines, straightline)``."""
        self._begin_render(phase)
        if self._straightline:
            self._elide("straightline")
        return self._cycle_lines(), self._straightline

    def generate(self):
        program = self.program
        in_mask = mask(program.input_width)
        token_error = (
            f'"token %r does not fit the declared '
            f'{program.input_width}-bit input width" % (token,)'
        )
        validate = (
            f"if not (isinstance(token, int) and 0 <= token <= {in_mask}):"
        )

        # run_token: one generic render (sf is a runtime argument) —
        # the incremental process_token/finish_stream entry point.
        cycle, straightline = self._render_cycle(None)
        lines = []
        lines.append(
            "def run_token(token, sf, regs, vregs, brams, outputs, max_vc):"
        )
        self._state_unpack(lines, 1)
        lines.append("    emits = 0")
        if straightline:
            # One cycle per token by construction (no live whiles): the
            # cycle loop, `_wd`, and the loop-limit check are deleted.
            lines.append("    vc = 1")
            lines.append("    try:")
            self._cycle_at(lines, cycle, True, 2)
        else:
            if self.facts is not None:
                lines.append("    _vcb = max_vc + 1 if max_vc > 0 else 2")
            lines.append("    try:")
            self._cycle_at(lines, cycle, False, 2)
        lines.append("    finally:")
        self._state_repack(lines, 2)
        lines.append("    return vc, emits")
        lines.append("")
        lines.append(
            "def run_stream(tokens, regs, vregs, brams, outputs, max_vc, "
            "vclist, emlist):"
        )
        self._state_unpack(lines, 1)
        if self.facts is None:
            # Guarded form: one generic cycle body, token/cleanup phases
            # multiplexed through `sf` at runtime.
            lines.append("    _n = len(tokens)")
            lines.append("    try:")
            lines.append("        for _ti in range(_n + 1):")
            lines.append("            if _ti < _n:")
            lines.append("                token = tokens[_ti]")
            lines.append("                sf = 0")
            lines.append("                " + validate)
            lines.append(
                f"                    raise _SimError({token_error})"
            )
            lines.append("            else:")
            lines.append("                token = 0")
            lines.append("                sf = 1")
            lines.append("            emits = 0")
            self._cycle_at(lines, cycle, False, 3)
            lines.append("            vclist.append(vc)")
            lines.append("            emlist.append(emits)")
            lines.append("    finally:")
            self._state_repack(lines, 2)
            return "\n".join(lines) + "\n"
        # Specialized form: the stream loop is phase-split. The token
        # phase renders the cycle with `sf` folded to 0 and the cleanup
        # phase with `sf` folded to 1 (and the input token folded to 0),
        # so each phase's dead arms — every `if sf:` flush branch, and
        # any while that only spins during the flush — vanish from the
        # other phase's code entirely.
        tok_cycle, tok_straight = self._render_cycle(0)
        fin_cycle, fin_straight = self._render_cycle(1)
        if not (tok_straight and fin_straight):
            lines.append("    _vcb = max_vc + 1 if max_vc > 0 else 2")
        lines.append("    try:")
        lines.append("        for token in tokens:")
        lines.append("            " + validate)
        lines.append(f"                raise _SimError({token_error})")
        lines.append("            emits = 0")
        self._cycle_at(lines, tok_cycle, tok_straight, 3)
        lines.append(
            "            vclist.append(1)" if tok_straight
            else "            vclist.append(vc)"
        )
        lines.append("            emlist.append(emits)")
        lines.append("        emits = 0")
        self._cycle_at(lines, fin_cycle, fin_straight, 2)
        lines.append(
            "        vclist.append(1)" if fin_straight
            else "        vclist.append(vc)"
        )
        lines.append("        emlist.append(emits)")
        lines.append("    finally:")
        self._state_repack(lines, 2)
        return "\n".join(lines) + "\n"


def _state_shape_ok(program):
    """Power-of-two element counts make every truncated address in range,
    so all expression nodes are total — the purity gate for hoisting."""
    for vreg in program.vregs:
        if vreg.elements != (1 << vreg.index_width):
            return False
    for bram in program.brams:
        if bram.elements != (1 << bram.addr_width):
            return False
    return True


def compile_program(program, certificate=None):
    """Lower ``program`` to a :class:`CompiledUnit`.

    With a ``certificate`` (a clean, covering
    :class:`~repro.lint.certificate.RestrictionCertificate`), the
    lowering takes the *certified specialization* path: the certificate's
    interval facts delete truncation masks and address guards from the
    generated source. Specialization **refuses** a certificate that is
    rejected, carries no facts, or does not cover ``program`` (stale or
    mismatched fingerprint) — a hard error, never a silent fallback,
    because a caller passing a certificate is asserting it should apply.

    Raises :class:`FleetSimulationError` when the program can't take the
    fast path (non-power-of-two state element, or an AST node the
    lowering doesn't know). Use :func:`try_compile` /
    :func:`try_specialize` for the optional variants.
    """
    if certificate is not None:
        if not certificate.ok:
            raise FleetSimulationError(
                f"program {program.name!r}: refusing specialization — "
                "certificate is rejected"
            )
        if not certificate.covers(program):
            raise FleetSimulationError(
                f"program {program.name!r}: refusing specialization — "
                "certificate fingerprint does not match (stale or "
                "mismatched certificate)"
            )
        if certificate.facts is None:
            raise FleetSimulationError(
                f"program {program.name!r}: refusing specialization — "
                "certificate carries no specialization facts"
            )
    if not _state_shape_ok(program):
        raise FleetSimulationError(
            f"program {program.name!r} is not compilable: every BRAM and "
            "vector register needs a power-of-two element count"
        )
    started = time.perf_counter() if _tm_enabled() else None
    facts = None if certificate is None else certificate.facts
    try:
        codegen = _Codegen(program, facts=facts)
        source = codegen.generate()
    except _Unsupported as exc:
        raise FleetSimulationError(
            f"program {program.name!r} is not compilable: "
            f"unsupported node {exc.args[0]!r}"
        ) from None
    namespace = {
        "_NW": _NW,
        "_SimError": FleetSimulationError,
        "_LoopError": FleetLoopLimitError,
    }
    tag = "specialized" if facts is not None else "compiled"
    code = compile(source, f"<fleet-{tag}:{program.name}>", "exec")
    exec(code, namespace)
    if started is not None:
        _COMPILES.inc()
        _COMPILE_SECONDS.observe(time.perf_counter() - started)
        if facts is not None:
            for kind, count in codegen.elisions.items():
                if count:
                    _SPECIALIZED_ELISIONS.inc(count, kind=kind)
    return CompiledUnit(
        program, namespace["run_token"], namespace["run_stream"], source,
        specialized=facts is not None,
        elisions=dict(codegen.elisions) if facts is not None else None,
    )


def try_compile(program):
    """:func:`compile_program` (guarded codegen), returning ``None`` when
    unsupported.

    The result (including failure) is cached on the program object —
    programs are immutable once built.
    """
    cached = getattr(program, "_fleet_compiled", False)
    if cached is not False:
        return cached
    try:
        unit = compile_program(program)
    except FleetSimulationError:
        unit = None
    program._fleet_compiled = unit
    return unit


def try_specialize(program, certificate=None):
    """The certified-specialized :class:`CompiledUnit` for ``program``,
    or ``None`` when it can't have one (uncertified, unsupported by the
    compiled lowering, or a supplied certificate that does not apply).

    With ``certificate=None`` the (fingerprint-memoized) certificate is
    fetched via :func:`repro.lint.certificate.certificate_for`. The
    result (including failure) is cached on the program object, separate
    from the guarded unit cache.
    """
    from ..lint.certificate import certificate_for

    if certificate is None:
        cached = getattr(program, "_fleet_specialized", False)
        if cached is not False:
            return cached
        certificate = certificate_for(program)
        unit = None
        if certificate.ok and certificate.facts is not None \
                and certificate.covers(program):
            try:
                unit = compile_program(program, certificate=certificate)
            except FleetSimulationError:
                unit = None
        _SPECIALIZATIONS.inc(
            result="specialized" if unit is not None else "guarded"
        )
        program._fleet_specialized = unit
        return unit
    # Explicit certificate: validate *this* certificate (it may be stale
    # or mismatched — refusal, not fallback). Once it's shown to apply,
    # the shared cache is safe: facts derive deterministically from the
    # program, so any applicable certificate specializes identically.
    if not (certificate.ok and certificate.facts is not None
            and certificate.covers(program)):
        _SPECIALIZATIONS.inc(result="refused")
        return None
    cached = getattr(program, "_fleet_specialized", False)
    if cached is not False and cached is not None:
        return cached
    try:
        unit = compile_program(program, certificate=certificate)
    except FleetSimulationError:
        unit = None
    _SPECIALIZATIONS.inc(
        result="specialized" if unit is not None else "guarded"
    )
    program._fleet_specialized = unit
    return unit


# ---------------------------------------------------------------------------
# Restriction-elision proof
# ---------------------------------------------------------------------------


def _checks_elidable(program):
    """Can the compiled engine (which performs no dynamic restriction
    checks) stand in for the checking interpreter on this program?

    Delegates to the lint layer's
    :class:`~repro.lint.certificate.RestrictionCertificate`: the prover's
    exclusivity proof, the vector-register exclusivity argument, and the
    absence of error-severity lint findings (definite out-of-bounds
    addresses, dependent reads) — the same condition, now shared with
    :class:`~repro.interp.simulator.UnitSimulator`'s ``certificate``
    parameter and the ``python -m repro.lint`` CLI."""
    from ..lint.certificate import certificate_for

    certificate = certificate_for(program)
    elidable = certificate.ok and certificate.covers(program)
    _CHECK_ELISIONS.inc(result="elided" if elidable else "kept")
    return elidable


#: Engines selectable through the ``FLEET_ENGINE`` environment variable.
_ENGINE_CHOICES = (
    "auto", "interp", "compiled", "compiled-certified", "batch",
)


def env_engine():
    """The validated ``FLEET_ENGINE`` environment setting (``"auto"``
    when unset or empty).

    A typo like ``FLEET_ENGINE=compield`` would otherwise silently fall
    back to the default engine — precisely when the user is trying to
    pin one — so unknown values raise
    :class:`~repro.lang.errors.FleetConfigError` at the first
    engine-selection point instead (via the shared
    :func:`repro.envcfg.env_choice` validator).
    """
    return env_choice("FLEET_ENGINE", _ENGINE_CHOICES, "auto")


def fast_engine_for(program, check_restrictions=True):
    """The :class:`CompiledUnit` to use for ``program``, or ``None`` when
    the interpreter must run (unsupported program, restriction checks
    not provably elidable, or ``FLEET_ENGINE=interp`` in the
    environment). ``FLEET_ENGINE=batch`` selects the batch engine only
    for whole-batch entry points; per-stream callers keep the compiled
    engine, which the batch engine itself uses as its incremental
    fallback.

    A certified program gets the **specialized** unit (certificate facts
    consumed at codegen time, guards deleted); an uncertified one that
    only passes because ``check_restrictions=False`` keeps the guarded
    lowering. ``FLEET_ENGINE=compiled`` forces the guarded lowering even
    for certified programs (the debugging escape hatch).
    """
    forced = env_engine()
    if forced == "interp":
        return None
    unit = try_compile(program)
    if unit is None:
        return None
    if check_restrictions:
        if not _checks_elidable(program):
            return None
        if forced != "compiled":
            specialized = try_specialize(program)
            if specialized is not None:
                return specialized
    return unit


# ---------------------------------------------------------------------------
# Simulator-compatible driver
# ---------------------------------------------------------------------------


class CompiledSimulator:
    """Drop-in :class:`~repro.interp.simulator.UnitSimulator` replacement
    driving a :class:`CompiledUnit` (same incremental API, outputs, trace,
    and peek hooks)."""

    def __init__(self, program, *, check_restrictions=True,
                 max_vcycles_per_token=1_000_000, unit=None):
        self.program = program
        self.check_restrictions = check_restrictions
        self.max_vcycles_per_token = max_vcycles_per_token
        self._unit = unit if unit is not None else compile_program(program)
        self.reset()

    def reset(self):
        self._reg_values = [r.init for r in self.program.regs]
        self._vregs = [[v.init] * v.elements for v in self.program.vregs]
        self._brams = [[0] * b.elements for b in self.program.brams]
        self._outputs = []
        self._finished = False
        self.trace = StreamTrace()

    @property
    def source(self):
        """The generated Python source (debugging hook)."""
        return self._unit.source

    def run(self, tokens):
        tokens = list(tokens)
        if self._finished:
            raise FleetSimulationError(
                "stream already finished; reset() to reuse the simulator"
            )
        vclist, emlist = [], []
        n = len(tokens)
        try:
            self._unit.run_stream(
                tokens, self._reg_values, self._vregs, self._brams,
                self._outputs, self.max_vcycles_per_token, vclist, emlist,
            )
        finally:
            for i in range(len(vclist)):
                self.trace.record_token(vclist[i], emlist[i], i == n)
            if len(vclist) == n + 1:
                self._finished = True
        return self.outputs

    def process_token(self, token):
        if self._finished:
            raise FleetSimulationError(
                "stream already finished; reset() to reuse the simulator"
            )
        if not isinstance(token, int) or not (
            0 <= token <= mask(self.program.input_width)
        ):
            raise FleetSimulationError(
                f"token {token!r} does not fit the declared "
                f"{self.program.input_width}-bit input width"
            )
        before = len(self._outputs)
        vc, emits = self._unit.run_token(
            token, 0, self._reg_values, self._vregs, self._brams,
            self._outputs, self.max_vcycles_per_token,
        )
        self.trace.record_token(vc, emits, False)
        return self._outputs[before:]

    def finish_stream(self):
        if self._finished:
            raise FleetSimulationError("stream already finished")
        before = len(self._outputs)
        vc, emits = self._unit.run_token(
            0, 1, self._reg_values, self._vregs, self._brams,
            self._outputs, self.max_vcycles_per_token,
        )
        self.trace.record_token(vc, emits, True)
        self._finished = True
        return self._outputs[before:]

    @property
    def outputs(self):
        return list(self._outputs)

    def peek_reg(self, name):
        for reg, value in zip(self.program.regs, self._reg_values):
            if reg.name == name:
                return value
        raise FleetSimulationError(f"no register named {name!r}")

    def peek_bram(self, name):
        for bram, data in zip(self.program.brams, self._brams):
            if bram.name == name:
                return list(data)
        raise FleetSimulationError(f"no BRAM named {name!r}")


def make_simulator(program, *, check_restrictions=True,
                   max_vcycles_per_token=1_000_000, engine="auto",
                   certificate=None):
    """Build the best available simulator for ``program``.

    ``engine`` selects:

    * ``"auto"`` — the best provably-equivalent engine: the certified
      specialized unit when the program certifies, else the guarded
      compiled unit, else the interpreter. ``FLEET_ENGINE=batch``
      upgrades supported programs to the batch engine, whose native
      tier runs certified programs as C (falls back gracefully when
      unsupported).
    * ``"interp"`` — force the authoritative oracle.
    * ``"compiled"`` — force the *guarded* compiled lowering (raises
      when unsupported).
    * ``"compiled-certified"`` — force the certified specialization
      (raises when the program is unsupported or not certified, or when
      a passed ``certificate`` does not apply).
    * ``"batch"`` — force the SIMD batch engine (raises when
      unsupported).

    ``certificate`` is forwarded to the interpreter (a clean covering
    :class:`~repro.lint.certificate.RestrictionCertificate` disables the
    dynamic restriction checks) and to the specializing engines, which
    refuse it when stale.
    """
    from .simulator import UnitSimulator

    if engine == "interp":
        _ENGINE_SELECTED.inc(engine="interp")
        return UnitSimulator(
            program, check_restrictions=check_restrictions,
            max_vcycles_per_token=max_vcycles_per_token, engine="interp",
            certificate=certificate,
        )
    if engine == "compiled":
        _ENGINE_SELECTED.inc(engine="compiled")
        return CompiledSimulator(
            program, check_restrictions=check_restrictions,
            max_vcycles_per_token=max_vcycles_per_token,
        )
    if engine == "compiled-certified":
        unit = try_specialize(program, certificate=certificate)
        if unit is None:
            raise FleetSimulationError(
                f"program {program.name!r} cannot take the certified "
                "specialized engine: not certified (or the supplied "
                "certificate does not apply), or unsupported by the "
                "compiled lowering"
            )
        _ENGINE_SELECTED.inc(engine="compiled-certified")
        return CompiledSimulator(
            program, check_restrictions=check_restrictions,
            max_vcycles_per_token=max_vcycles_per_token, unit=unit,
        )
    if engine == "batch":
        from .batch import BatchStreamSimulator

        _ENGINE_SELECTED.inc(engine="batch")
        return BatchStreamSimulator(
            program, check_restrictions=check_restrictions,
            max_vcycles_per_token=max_vcycles_per_token,
        )
    if engine != "auto":
        raise FleetSimulationError(f"unknown engine {engine!r}")
    forced = env_engine()
    if forced == "batch":
        from .batch import BatchStreamSimulator, batch_engine_for

        batch_unit = batch_engine_for(program)
        if batch_unit is not None:
            _ENGINE_SELECTED.inc(engine="batch")
            return BatchStreamSimulator(
                program, check_restrictions=check_restrictions,
                max_vcycles_per_token=max_vcycles_per_token,
                unit=batch_unit,
            )
    if certificate is not None and certificate.ok \
            and certificate.covers(program):
        check_restrictions = False
        if forced not in ("interp", "compiled"):
            unit = try_specialize(program, certificate=certificate)
            if unit is not None:
                _ENGINE_SELECTED.inc(engine="compiled-certified")
                return CompiledSimulator(
                    program, check_restrictions=check_restrictions,
                    max_vcycles_per_token=max_vcycles_per_token, unit=unit,
                )
    unit = fast_engine_for(program, check_restrictions)
    if unit is not None:
        selected = "compiled-certified" if unit.specialized else "compiled"
        _ENGINE_SELECTED.inc(engine=selected)
        return CompiledSimulator(
            program, check_restrictions=check_restrictions,
            max_vcycles_per_token=max_vcycles_per_token, unit=unit,
        )
    _ENGINE_SELECTED.inc(engine="interp")
    return UnitSimulator(
        program, check_restrictions=check_restrictions,
        max_vcycles_per_token=max_vcycles_per_token, engine="interp",
        certificate=certificate,
    )


__all__ = [
    "CompiledSimulator",
    "CompiledUnit",
    "compile_program",
    "env_engine",
    "fast_engine_for",
    "make_simulator",
    "try_compile",
    "try_specialize",
]
