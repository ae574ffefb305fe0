"""One lowering of a certified program's virtual cycle, printed as Python
(:mod:`repro.interp.compile`) and as C (:mod:`repro.interp.cc`).

A clean :class:`~repro.lint.certificate.RestrictionCertificate` proves
the dynamic restriction checks can never fire, and its
:class:`~repro.lint.facts.SpecializationFacts` prove which guards are
redundant. :func:`lower` consumes both **once** and builds the stream's
two virtual cycles — the token phase (``stream_finished`` folded to 0)
and the cleanup phase (``stream_finished`` folded to 1, the input token
folded to 0) — with every decision already taken:

* dead ``if`` arms and never-entered ``while`` loops are gone (certified
  constants and phase literals decide branch conditions);
* proven-redundant truncation masks, address guards, subtraction wrap
  masks and slice masks are elided; proven-constant expressions fold;
* registers read and written in live code snapshot their start-of-cycle
  value (``_o{i}``), so writes land in place; every other read names the
  register itself (``_r{i}``);
* shared and over-deep sub-expressions become temporaries (``_t{k}``),
  each sunk to the deepest branch region dominating its uses;
* each vector-register and BRAM write is a pending write of a known kind
  (single site, multi-site queue) and commits unconditionally when it
  provably lands every cycle; emits append directly (certified emit
  exclusivity);
* C shift-amount safety is decided per shift; a cycle with no live
  ``while`` is straight-line (one virtual cycle, no loop machinery).

Every elision is counted in :attr:`LoweredProgram.elisions`. The printers
walk the structure below and consult no certificate fact and no AST.

Expressions are tuples tagged by their first element::

    ("k", value)                  literal
    ("token",)                    the input token
    ("var", name)                 register, snapshot, or temporary
    ("index", array, expr)        vreg/BRAM element read, e.g. "_b0"
    ("bin", symbol, lhs, rhs)     + - * & | ^ == != < <= > >=
    ("shift", symbol, lhs, rhs, safe)
                                  << or >>; ``safe``: amount <= 63
    ("shr_k", expr, amount)       shift right by a literal (slices)
    ("mask", expr, width)         truncation to ``width`` bits
    ("not", expr)                 bitwise complement (always masked)
    ("lnot", expr) ("orr", expr) ("xorr", expr) ("andr", expr, width)
    ("mux", cond, then, els)
    ("cat", first, [(width, part), ...])

Statements of a cycle body::

    ("if", [(cond or None, block), ...])   None: the final else
    ("while", cond, block)                 one loop-body cycle
    ("wd", [leaf, ...])                    leaves gated on while_done
    ("set_reg", i, value)
    ("set_vreg", i, index, value, uncond)  the vreg's only write site
    ("push_vreg", i, index, value)         one of several write sites
    ("write_bram", i, addr, value, uncond)
    ("emit", value)

where a block is ``(temps, statements)`` and ``temps`` lists
``(name, expr)`` computed at block entry. Pass 1 (the ``while_done``
computation of non-straight-line cycles) is a list of
``("while", cond)`` and ``("if", [(cond or None, pass1), ...])``.
"""

from ..lang import ast
from ..lang.errors import FleetSimulationError
from ..lang.sites import LEAF_KINDS
from ..lang.types import mask
from ..ops import eval_binop, eval_unop

#: Maximum nesting of a printed (inline) expression; deeper chains are
#: hoisted into temporaries so generated source never stresses a parser.
DEPTH_CAP = 20

_LEAF_NODES = (ast.Const, ast.InputToken, ast.StreamFinished, ast.RegRead)

_BIN_SYMBOLS = {
    "add": "+", "sub": "-", "mul": "*", "and": "&", "or": "|", "xor": "^",
    "eq": "==", "ne": "!=", "lt": "<", "le": "<=", "gt": ">", "ge": ">=",
}

#: Elision kinds, in the order :attr:`LoweredProgram.elisions` lists them.
ELISION_KINDS = (
    "value_masks", "addr_masks", "sub_masks", "slice_masks", "const_folds",
    "dead_arms", "direct_emits", "uncond_commits", "straightline",
    "reg_sentinels",
)


class Cycle:
    """One phase's virtual cycle, fully decided (see the module
    docstring for the statement and expression forms).

    ``snapshots`` are the register indices whose start-of-cycle value is
    captured; ``temps`` the cycle-top temporaries; ``pass1`` the
    ``while_done`` computation (empty when ``straightline``); ``body``
    the statements; ``vregs`` one ``(index, sites, uncond)`` per written
    vector register and ``brams`` one ``(index, uncond)`` per written
    BRAM, in declaration order — the pending writes to declare and
    commit."""

    __slots__ = ("straightline", "snapshots", "temps", "pass1", "body",
                 "vregs", "brams")

    def __init__(self, straightline, snapshots, temps, pass1, body, vregs,
                 brams):
        self.straightline = straightline
        self.snapshots = snapshots
        self.temps = temps
        self.pass1 = pass1
        self.body = body
        self.vregs = vregs
        self.brams = brams


class LoweredProgram:
    """A certified program's two phase cycles plus what the printers
    need of its interface: state counts and the input width."""

    __slots__ = ("name", "input_width", "n_regs", "n_vregs", "n_brams",
                 "token", "cleanup", "elisions")

    def __init__(self, program, token, cleanup, elisions):
        self.name = program.name
        self.input_width = program.input_width
        self.n_regs = len(program.regs)
        self.n_vregs = len(program.vregs)
        self.n_brams = len(program.brams)
        self.token = token
        self.cleanup = cleanup
        self.elisions = elisions


def state_shape_ok(program):
    """Power-of-two element counts make every truncated address in range,
    so all expression nodes are total — the purity gate for hoisting and
    for short-circuit ``Mux`` printing."""
    for vreg in program.vregs:
        if vreg.elements != (1 << vreg.index_width):
            return False
    for bram in program.brams:
        if bram.elements != (1 << bram.addr_width):
            return False
    return True


def certified_lowering(program, what):
    """``program``'s :class:`LoweredProgram` under its own certificate
    (:func:`repro.lint.certificate.certificate_for`).

    **Refuses** (raises :class:`FleetSimulationError`, naming ``what``)
    a program whose certificate is rejected or carries no facts, and a
    program whose state shape fails :func:`state_shape_ok`. The lowering
    is built once per program structure
    (:func:`repro.lint.certificate.artifacts_for`), so the Python unit
    and the C kernel of a program print the same one.
    """
    from ..lint.certificate import artifacts_for, certificate_for

    certificate = certificate_for(program)
    if not certificate.ok:
        raise FleetSimulationError(
            f"program {program.name!r}: refusing {what} — certificate "
            "is rejected"
        )
    if certificate.facts is None:
        raise FleetSimulationError(
            f"program {program.name!r}: refusing {what} — certificate "
            "carries no specialization facts"
        )
    if not state_shape_ok(program):
        raise FleetSimulationError(
            f"program {program.name!r} is not compilable: every BRAM and "
            "vector register needs a power-of-two element count"
        )
    record = artifacts_for(program)
    if record.lowered is None:
        record.lowered = lower(program, certificate.facts)
    return record.lowered


def lower(program, facts):
    """Lower ``program`` under ``facts`` (a clean certificate's
    :class:`~repro.lint.facts.SpecializationFacts`) into its token-phase
    and cleanup-phase cycles."""
    lowering = _Lowering(program, facts)
    token = lowering.cycle(0)
    cleanup = lowering.cycle(1)
    return LoweredProgram(program, token, cleanup, lowering.elisions)


def _common_prefix(a, b):
    """Longest common prefix of two region paths: their deepest common
    branch region."""
    out = []
    for x, y in zip(a, b):
        if x != y:
            break
        out.append(x)
    return tuple(out)


class _Lowering:
    """Builds the phase cycles of one program; ``elisions`` accumulates
    over both."""

    def __init__(self, program, facts):
        from ..lint.facts import expr_fact_key

        self.program = program
        self.facts = facts
        self._expr_fact_key = expr_fact_key
        self._fact_key_memo = {}
        self.elisions = dict.fromkeys(ELISION_KINDS, 0)
        # Each leaf's fact location, from the program's sites. A leaf
        # placed twice has no one location; it uses the global facts.
        self._location = {}
        for site in program.sites.sites:
            if site.kind in LEAF_KINDS.values():
                self._location[id(site.stmt)] = (
                    None if id(site.stmt) in self._location
                    else site.location)

    def _key(self, node):
        return self._expr_fact_key(node, self._fact_key_memo)

    def _elide(self, kind):
        self.elisions[kind] += 1

    # -- per-phase live structure -------------------------------------------
    def _begin(self, phase):
        """Reset per-cycle state and find the live statement structure
        of ``phase``: which state is written, how many write sites each
        vector register has, whether any ``while`` can be entered, and
        which registers need a start-of-cycle snapshot."""
        self.phase = phase
        self._temp = {}  # id(node) -> temporary name
        self._region_temps = {}
        self._live_arms_cache = {}
        assigned = set()
        self.vreg_sites = {}
        self.written_brams = set()
        for stmt in self._live_leaves(self.program.body):
            if isinstance(stmt, ast.RegAssign):
                assigned.add(stmt.reg)
            elif isinstance(stmt, ast.VectorRegAssign):
                self.vreg_sites[stmt.vreg] = (
                    self.vreg_sites.get(stmt.vreg, 0) + 1
                )
            elif isinstance(stmt, ast.BramWrite):
                self.written_brams.add(stmt.bram)
        # No live while: every virtual cycle finishes on the first pass
        # (`_wd` is vacuously true), so the cycle loop, the `_wd` flag,
        # and the loop-limit check all collapse.
        self.straightline = not self._has_live_while(self.program.body)
        # Pending writes that provably land every cycle (an unconditional
        # top-level leaf of a straight-line cycle) commit without a
        # no-write test.
        self._uncond_vregs = set()
        self._uncond_brams = set()
        # Registers both read and assigned in live code snapshot their
        # start-of-cycle value once; reads name the snapshot and writes
        # land in place — no pending slot, no end-of-cycle commit.
        self._snap_regs = set()
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

    def _phase_const(self, node):
        """Compile-time value of ``node`` in this phase (``sf`` and, in
        the cleanup phase, the input token are literals), or ``None``.
        Operators evaluate as the interpreter does (:mod:`repro.ops`);
        the printed code computes the same values, because width
        inference makes every unmasked printed result fit its width."""
        if isinstance(node, ast.Const):
            return node.value
        if isinstance(node, ast.StreamFinished):
            return self.phase
        if isinstance(node, ast.InputToken):
            return 0 if self.phase == 1 else None
        if isinstance(node, ast.WireRead):
            return self._phase_const(node.wire.value)
        if isinstance(node, ast.UnOp):
            a = self._phase_const(node.operand)
            if a is None:
                return None
            return eval_unop(node.op, a, node.operand.width)
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
            return eval_binop(node.op, a, b, node.lhs.width, node.rhs.width)
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
        """Compile-time truth value of a branch condition — a certified
        constant or a phase literal — or ``None`` when it stays
        dynamic."""
        value = self.facts.constant(self._key(node))
        if value is not None:
            return value
        return self._phase_const(node)

    def _live_arms(self, stmt):
        """``stmt.arms`` as ``(cond, body, source_index)`` triples with
        compile-time-dead arms deleted: a proven-false arm vanishes, a
        proven-true arm becomes the final ``else`` (later arms are
        unreachable). Source indices keep branch regions distinct."""
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
                self.elisions["dead_arms"] += len(stmt.arms) - len(arms)
                break
            else:
                self.elisions["dead_arms"] += 1
        self._live_arms_cache[id(stmt)] = arms
        return arms

    def _live_while(self, stmt):
        """Whether a ``while`` can ever be entered in this phase."""
        return self._cond_const(stmt.cond) != 0

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
        """Leaf statements reachable in this phase, in source order."""
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

    # -- expressions ----------------------------------------------------------
    def _expr(self, node):
        name = self._temp.get(id(node))
        if name is not None:
            return ("var", name)
        return self._expr_body(node)

    def _expr_body(self, node):
        if isinstance(node, ast.Const):
            return ("k", node.value)
        if not isinstance(node, _LEAF_NODES):
            folded = self.facts.constant(self._key(node))
            if folded is not None:
                self._elide("const_folds")
                return ("k", folded)
        if isinstance(node, ast.InputToken):
            return ("k", 0) if self.phase == 1 else ("token",)
        if isinstance(node, ast.StreamFinished):
            return ("k", self.phase)
        if isinstance(node, ast.RegRead):
            return ("var", self._reg_read_name[node.reg])
        if isinstance(node, ast.WireRead):
            return self._expr(node.wire.value)
        if isinstance(node, ast.VectorRegRead):
            index = self._trunc(node.index, node.vreg.index_width,
                                "addr_masks")
            i = self.program.vregs.index(node.vreg)
            return ("index", f"_v{i}", index)
        if isinstance(node, ast.BramRead):
            addr = self._trunc(node.addr, node.bram.addr_width, "addr_masks")
            i = self.program.brams.index(node.bram)
            return ("index", f"_b{i}", addr)
        if isinstance(node, ast.BinOp):
            lhs, rhs = self._expr(node.lhs), self._expr(node.rhs)
            if node.op in ("shl", "shr"):
                symbol = "<<" if node.op == "shl" else ">>"
                return ("shift", symbol, lhs, rhs, self._shift_safe(node.rhs))
            out = ("bin", _BIN_SYMBOLS[node.op], lhs, rhs)
            if node.op == "sub":
                if self.facts.sub_exact(self._key(node.lhs),
                                        self._key(node.rhs)):
                    # Proven borrow-free: the wrap mask is a no-op.
                    self._elide("sub_masks")
                    return out
                return ("mask", out, node.width)
            return out
        if isinstance(node, ast.UnOp):
            a = self._expr(node.operand)
            w = node.operand.width
            if node.op == "not":
                return ("mask", ("not", a), w)
            if node.op in ("lnot", "orr", "xorr"):
                return (node.op, a)
            return ("andr", a, w)
        if isinstance(node, ast.Mux):
            # Value-exact short circuit: both arms are pure under the
            # power-of-two gate, so skipping the untaken arm is safe.
            return ("mux", self._expr(node.cond), self._expr(node.then),
                    self._expr(node.els))
        if isinstance(node, ast.Slice):
            a = self._expr(node.operand)
            if node.lo == 0 and node.width == node.operand.width:
                return a
            shifted = a if node.lo == 0 else ("shr_k", a, node.lo)
            if self.facts.fits(self._key(node.operand), node.hi + 1):
                # Operand proven inside the sliced window: nothing above
                # bit `hi` survives the shift, the mask is a no-op.
                self._elide("slice_masks")
                return shifted
            return ("mask", shifted, node.width)
        if isinstance(node, ast.Concat):
            return ("cat", self._expr(node.parts[0]),
                    [(part.width, self._expr(part))
                     for part in node.parts[1:]])
        raise _unsupported(self.program, node)

    def _shift_safe(self, amount):
        """Whether a shift amount is provably at most 63 (a constant, a
        narrow operand, or an interval fact): C shifts by >= 64 are
        undefined where Python's are total."""
        if isinstance(amount, ast.Const):
            return amount.value <= 63
        if mask(amount.width) <= 63:
            return True
        bound = self.facts.interval(self._key(amount))
        return bound is not None and bound[1] <= 63

    def _trunc(self, node, width, kind, site=None):
        """``node`` truncated to ``width`` bits, the mask elided when the
        operand provably fits — by its global bound or, for a leaf
        operand, by the guard-refined bound at its ``(location, role)``
        site (sound there because each leaf prints exactly once)."""
        value = self._expr(node)
        if node.width <= width:
            return value
        if (site is not None and self.facts.site_fits(*site, width)) \
                or self.facts.fits(self._key(node), width):
            self._elide(kind)
            return value
        return ("mask", value, width)

    # -- shared-node hoisting ------------------------------------------------
    def _collect_roots(self):
        """Expression roots in the order the printed cycle references
        them, each tagged with its *branch region* — the chain of
        ``(id(If-or-While), arm-index)`` steps pass 2 descends through
        to reach the reference. Only live statements contribute.

        Within one virtual cycle every statement prints as pure
        branches, never a loop, so a temporary may be computed at the
        top of the deepest region dominating all its references. Pass-1
        references and branch *conditions* live in the enclosing region
        (an ``elif`` chain cannot hold statements between arms)."""
        roots = []

        def pass1(body):
            for stmt in body:
                if isinstance(stmt, ast.While):
                    if self._live_while(stmt):
                        roots.append((stmt.cond, ()))
                elif isinstance(stmt, ast.If) and \
                        self._has_live_while([stmt]):
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

        if not self.straightline:
            pass1(self.program.body)
        pass2(self.program.body, ())
        return roots

    def _hoist(self, pairs):
        """Choose the temporaries: any node referenced more than once (a
        DAG share) and any node whose printed nesting would exceed
        :data:`DEPTH_CAP`. Returns the cycle-top temporaries; those whose
        every reference lives inside one branch region sink to it (kept
        in ``self._region_temps``), so e.g. hash chains used only on the
        ingest arm are not recomputed on every flush cycle. A child's
        region always dominates every parent's, so definitions precede
        uses."""
        counts = {}
        region_of = {}
        for root, region in pairs:
            stack = [root]
            while stack:
                node = stack.pop()
                seen = counts.get(id(node), 0)
                counts[id(node)] = seen + 1
                if id(node) in region_of:
                    old = region_of[id(node)]
                    if old != region:
                        region_of[id(node)] = _common_prefix(old, region)
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
        # region down to its own children. Propagate parents-first: every
        # child's region must dominate each of its parents' regions.
        for node in reversed(post):
            parent_region = region_of[id(node)]
            for child in node.children():
                old = region_of[id(child)]
                if old != parent_region:
                    region_of[id(child)] = _common_prefix(old,
                                                          parent_region)
        top = []
        depth = {}
        for node in post:
            child_depths = [
                1 if id(c) in self._temp else depth[id(c)]
                for c in node.children()
            ]
            d = 1 + max(child_depths, default=0)
            if isinstance(node, _LEAF_NODES):
                depth[id(node)] = d
                continue
            if self.facts.constant(self._key(node)) is not None:
                # Proven constant: prints as a literal everywhere, so
                # sharing/depth never justify a temporary.
                depth[id(node)] = 1
                continue
            if counts[id(node)] >= 2 or d > DEPTH_CAP:
                expr = self._expr_body(node)
                name = f"_t{len(self._temp)}"
                self._temp[id(node)] = name
                region = region_of[id(node)]
                if region:
                    self._region_temps.setdefault(region, []).append(
                        (name, expr)
                    )
                else:
                    top.append((name, expr))
                d = 1
            depth[id(node)] = d
        return top

    # -- statements -----------------------------------------------------------
    def _pass1(self, body):
        """The ``while_done`` computation: only statements that can hold
        an active while, in source order."""
        items = []
        for stmt in body:
            if isinstance(stmt, ast.While):
                if self._live_while(stmt):
                    items.append(("while", self._expr(stmt.cond)))
            elif isinstance(stmt, ast.If) and self._has_live_while([stmt]):
                items.append(("if", [
                    (None if cond is None else self._expr(cond),
                     self._pass1(arm_body))
                    for cond, arm_body, _j in self._live_arms(stmt)
                ]))
        return items

    def _block(self, body, in_loop, region):
        """Pass 2 over ``body``: branches, loop-body cycles, and leaves —
        leaves outside every while gated on ``while_done`` (paper
        Section 3) unless the cycle is straight-line."""
        items = []
        pending = []

        def flush():
            if not pending:
                return
            if in_loop or self.straightline:
                items.extend(pending)
            else:
                items.append(("wd", list(pending)))
            pending.clear()

        for stmt in body:
            if isinstance(stmt, ast.If):
                live = self._live_arms(stmt)
                if not live:
                    continue
                flush()
                items.append(("if", [
                    (None if cond is None else self._expr(cond),
                     self._block(arm_body, in_loop,
                                 region + ((id(stmt), j),)))
                    for cond, arm_body, j in live
                ]))
            elif isinstance(stmt, ast.While):
                if not self._live_while(stmt):
                    continue
                flush()
                cond = self._expr(stmt.cond)
                items.append(("while", cond, self._block(
                    stmt.body, True, region + ((id(stmt), -1),),
                )))
            else:
                if not region and self.straightline:
                    self._mark_unconditional(stmt)
                pending.append(self._leaf(stmt))
        flush()
        return (self._region_temps.get(region, []) if region else [], items)

    def _mark_unconditional(self, stmt):
        """Record that this top-level leaf of a straight-line cycle
        writes every cycle, so its commit skips the no-write test. Sound
        regardless of other, conditional sites: the unconditional site
        (re)assigns the pending write every cycle, and statement-order
        last-write-wins is preserved by the pending write itself."""
        if isinstance(stmt, ast.VectorRegAssign):
            if self.vreg_sites[stmt.vreg] == 1:
                self._uncond_vregs.add(stmt.vreg)
        elif isinstance(stmt, ast.BramWrite):
            self._uncond_brams.add(stmt.bram)

    def _leaf(self, stmt):
        location = self._location[id(stmt)]
        if isinstance(stmt, ast.RegAssign):
            value = self._trunc(stmt.value, stmt.reg.width, "value_masks",
                                (location, "value"))
            # Snapshot reads: the write lands in place.
            self._elide("reg_sentinels")
            return ("set_reg", self.program.regs.index(stmt.reg), value)
        if isinstance(stmt, ast.VectorRegAssign):
            index = self._trunc(stmt.index, stmt.vreg.index_width,
                                "addr_masks", (location, "addr"))
            value = self._trunc(stmt.value, stmt.vreg.width, "value_masks",
                                (location, "value"))
            i = self.program.vregs.index(stmt.vreg)
            if self.vreg_sites[stmt.vreg] == 1:
                return ("set_vreg", i, index, value,
                        stmt.vreg in self._uncond_vregs)
            return ("push_vreg", i, index, value)
        if isinstance(stmt, ast.BramWrite):
            addr = self._trunc(stmt.addr, stmt.bram.addr_width, "addr_masks",
                               (location, "addr"))
            value = self._trunc(stmt.value, stmt.bram.width, "value_masks",
                                (location, "value"))
            return ("write_bram", self.program.brams.index(stmt.bram), addr,
                    value, stmt.bram in self._uncond_brams)
        if isinstance(stmt, ast.Emit):
            value = self._trunc(stmt.value, self.program.output_width,
                                "value_masks", (location, "value"))
            # Certified emit exclusivity: at most one emit fires per
            # cycle, so emits append directly.
            self._elide("direct_emits")
            return ("emit", value)
        raise _unsupported(self.program, stmt)

    # -- assembly -------------------------------------------------------------
    def cycle(self, phase):
        """Lower the virtual cycle of ``phase`` (0 token, 1 cleanup)."""
        self._begin(phase)
        program = self.program
        if self.straightline:
            self._elide("straightline")
        snapshots = [i for i, reg in enumerate(program.regs)
                     if reg in self._snap_regs]
        temps = self._hoist(self._collect_roots())
        pass1 = [] if self.straightline else self._pass1(program.body)
        body = self._block(program.body, False, ())[1]
        vregs = []
        for i, vreg in enumerate(program.vregs):
            sites = self.vreg_sites.get(vreg, 0)
            if sites:
                uncond = vreg in self._uncond_vregs
                vregs.append((i, sites, uncond))
                if uncond:
                    self._elide("uncond_commits")
        brams = []
        for i, bram in enumerate(program.brams):
            if bram in self.written_brams:
                uncond = bram in self._uncond_brams
                brams.append((i, uncond))
                if uncond:
                    self._elide("uncond_commits")
        return Cycle(self.straightline, snapshots, temps, pass1, body,
                     vregs, brams)


def _unsupported(program, node):
    return FleetSimulationError(
        f"program {program.name!r} is not compilable: unsupported node "
        f"{node!r}"
    )
