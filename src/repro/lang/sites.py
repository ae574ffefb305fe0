"""The sites of a Fleet program: one walk of its statements and guards.

The compiler, the restriction prover, the dependent-read check and the
lint engine all start from the same list: every statement, condition and
state access of the program, each with the condition under which it
fires. This is the first half of the paper's compilation algorithm
(Section 4): "For each register r, the compiler gathers all assignments
to it in the program, along with their conditions." A site's guard is:

* the conjunction of the enclosing ``if`` conditions (with earlier arms
  of the same ``if`` negated, so ``else if``/``else`` arms are mutually
  exclusive),
* plus the loop condition for statements inside a ``while`` body,
* plus ``while_done`` (:attr:`Site.needs_while_done`) for leaf statements
  outside every ``while`` — a ``while`` loop "is simply an if block that
  our control logic executes multiple times", and post-loop statements
  fire only once it completes.

Accesses inside ``if``/``while`` *conditions* are guarded by the path up
to (not including) that condition and never by ``while_done``: condition
logic computes on every virtual cycle, exactly as in hardware.

:attr:`UnitProgram.sites <repro.lang.ast.UnitProgram.sites>` walks a
program once, on first use, and keeps the :class:`ProgramSites` for as
long as the program lives. Every consumer reads the same list and
groups, and keeps what it derives (facts, intervals, evaluators) beside
the sites, never on them.
"""

from . import ast
from .ast import Frozen, _init

#: Site kinds with an address/index operand, for the bounds pass.
ADDRESSED_KINDS = ("bram-read", "bram-write", "vreg-read", "vreg-assign")

#: The site kind of each leaf statement type.
LEAF_KINDS = {
    ast.RegAssign: "reg-assign",
    ast.VectorRegAssign: "vreg-assign",
    ast.BramWrite: "bram-write",
    ast.Emit: "emit",
}


class Site(Frozen):
    """One point of the program: a leaf statement, an ``if``/``while``
    condition, an ``if`` arm, or a BRAM/vector-register access node.

    ``guard`` is the ``(condition, polarity)`` conjunction gating the
    site; ``loop`` the ``while``-condition site of the innermost
    ``while`` whose body holds it (``None`` outside every body);
    ``needs_while_done`` whether it also waits for every loop to finish
    (leaf statements and their accesses outside every ``while``);
    ``location`` a stable path such as ``body[2].arm[0].body[1]``, for
    reports only. ``stmt`` is the statement (leaf, ``if`` or ``while``)
    and ``node`` the condition or access node, where the kind has
    one."""

    __slots__ = ("kind", "stmt", "node", "guard", "loop",
                 "needs_while_done", "location")

    def __init__(self, kind, stmt, node, guard, loop,
                 needs_while_done, location):
        _init(self, "kind", kind)
        _init(self, "stmt", stmt)
        _init(self, "node", node)
        _init(self, "guard", guard)
        _init(self, "loop", loop)
        _init(self, "needs_while_done", needs_while_done)
        _init(self, "location", location)

    @property
    def in_loop(self):
        """Whether the site sits inside a ``while`` body."""
        return self.loop is not None

    @property
    def loop_guard(self):
        """A ``while``-condition site's loop guard: the loop is active
        when its enclosing conditions and its own condition hold."""
        return self.guard + ((self.node, True),)

    def address_operand(self):
        """(declaration, address expression, noun) for bounds checking,
        for the :data:`ADDRESSED_KINDS`."""
        if self.kind == "bram-read":
            return self.node.bram, self.node.addr, "read of BRAM"
        if self.kind == "bram-write":
            return self.stmt.bram, self.stmt.addr, "write to BRAM"
        if self.kind == "vreg-read":
            return self.node.vreg, self.node.index, \
                "read of vector register"
        if self.kind == "vreg-assign":
            return self.stmt.vreg, self.stmt.index, \
                "assignment to vector register"
        raise ValueError(f"site kind {self.kind!r} has no address")

    def __repr__(self):
        return f"Site({self.kind}, {self.location})"


class ProgramSites:
    """Every :class:`Site` of one program in source order, and the
    groupings its consumers read (each group in source order too):

    * ``loops`` — the ``while``-condition sites;
    * ``reads``/``writes`` — BRAM read and write sites per BRAM;
    * ``reg_assigns``/``vreg_assigns`` — assignment sites per register
      and vector register;
    * ``emits`` — the emit sites;
    * ``used_regs``/``used_vregs`` — the registers and vector registers
      any statement expression or condition reads;
    * ``reading_conds`` — ``id`` of every ``if``/``while`` condition
      that reads a BRAM.

    Shared read-only by every consumer of the program."""

    __slots__ = ("sites", "loops", "reads", "writes", "reg_assigns",
                 "vreg_assigns", "emits", "used_regs", "used_vregs",
                 "reading_conds")

    def __init__(self, program):
        self.sites = []
        self.loops = []
        self.reads = {}
        self.writes = {}
        self.reg_assigns = {}
        self.vreg_assigns = {}
        self.emits = []
        self.used_regs = set()
        self.used_vregs = set()
        self.reading_conds = set()
        self._block(program.body, (), None, "body")

    def _add(self, kind, stmt, node, guard, loop, nwd, location):
        site = Site(kind, stmt, node, guard, loop, nwd, location)
        self.sites.append(site)
        return site

    def _block(self, body, conds, loop, path):
        for i, stmt in enumerate(body):
            loc = f"{path}[{i}]"
            if isinstance(stmt, ast.If):
                negated = ()
                for j, (cond, arm_body) in enumerate(stmt.arms):
                    arm_guard = conds + negated
                    if cond is not None:
                        self._cond("if-cond", stmt, cond, arm_guard,
                                   loop, f"{loc}.cond[{j}]")
                        negated += ((cond, False),)
                        arm_guard += ((cond, True),)
                    arm_loc = f"{loc}.arm[{j}]"
                    self._add("arm", stmt, None, arm_guard, loop, False,
                              arm_loc)
                    self._block(arm_body, arm_guard, loop,
                                f"{arm_loc}.body")
            elif isinstance(stmt, ast.While):
                site = self._cond("while-cond", stmt, stmt.cond, conds,
                                  loop, f"{loc}.cond")
                self.loops.append(site)
                self._block(stmt.body, site.loop_guard, site, f"{loc}.body")
            else:
                self._leaf(stmt, conds, loop, loc)

    def _cond(self, kind, stmt, cond, guard, loop, location):
        site = self._add(kind, stmt, cond, guard, loop, False, location)
        if self._accesses(cond, guard, loop, False, location):
            self.reading_conds.add(id(cond))
        return site

    def _leaf(self, stmt, conds, loop, location):
        nwd = loop is None
        site = self._add(LEAF_KINDS[type(stmt)], stmt, None, conds, loop,
                         nwd, location)
        if isinstance(stmt, ast.RegAssign):
            self.reg_assigns.setdefault(stmt.reg, []).append(site)
        elif isinstance(stmt, ast.VectorRegAssign):
            self.vreg_assigns.setdefault(stmt.vreg, []).append(site)
        elif isinstance(stmt, ast.BramWrite):
            self.writes.setdefault(stmt.bram, []).append(site)
        else:
            self.emits.append(site)
        for expr in ast.statement_exprs(stmt):
            self._accesses(expr, conds, loop, nwd, location)

    def _accesses(self, expr, conds, loop, nwd, location):
        """Record the state reads and access sites inside one statement
        expression; returns whether it reads a BRAM."""
        reads_bram = False
        for node in ast.walk_expr(expr):
            if isinstance(node, ast.RegRead):
                self.used_regs.add(node.reg)
            elif isinstance(node, ast.VectorRegRead):
                self.used_vregs.add(node.vreg)
                self._add("vreg-read", None, node, conds, loop, nwd,
                          location)
            elif isinstance(node, ast.BramRead):
                reads_bram = True
                self.reads.setdefault(node.bram, []).append(self._add(
                    "bram-read", None, node, conds, loop, nwd, location))
        return reads_bram
