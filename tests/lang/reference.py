"""The guard rule as a walk of its own, for comparison with the shared
site list (:attr:`repro.lang.ast.UnitProgram.sites`).

This is the compiler's collection pass as it stood before every consumer
read one site list, with the enclosing loop tracked: it gathers every
assignment, write, emit, loop and BRAM read of a program together with
its guard and its innermost enclosing ``while``. ``test_sites.py``
requires the site list's groups to match it access for access.

A guard is the conjunction of the enclosing ``if`` conditions (earlier
arms of the same ``if`` negated), plus the loop condition inside a
``while`` body, plus ``while_done`` for leaf statements outside every
``while``. Reads inside ``if``/``while`` conditions are guarded by the
path up to that condition and never by ``while_done``.
"""

from repro.lang import ast


class Access:
    """One access: its guard terms, whether it also waits for
    ``while_done``, the innermost ``while`` statement whose body holds
    it (``None`` outside every body), and its payload expressions."""

    __slots__ = ("terms", "needs_while_done", "loop", "payload")

    def __init__(self, terms, needs_while_done, loop, payload=()):
        self.terms = tuple(terms)  # tuple of (Node, bool positive)
        self.needs_while_done = needs_while_done
        self.loop = loop
        self.payload = payload

    @property
    def in_loop(self):
        return self.loop is not None


class Collection:
    """Every access, grouped by state element."""

    def __init__(self):
        self.loops = []  # [Access] (loop active when its guard holds)
        self.reg_assigns = {}  # RegDecl -> [Access(payload=(value,))]
        self.vreg_assigns = {}  # VectorRegDecl -> [Access(payload=(i, v))]
        self.bram_writes = {}  # BramDecl -> [Access(payload=(addr, value))]
        self.bram_reads = {}  # BramDecl -> [Access(payload=(addr,))]
        self.emits = []  # [Access(payload=(value,))]


def collect(program):
    """Run the collection pass over a program."""
    collection = Collection()
    _walk(program.body, (), None, collection)
    return collection


def _walk(body, conds, loop, out):
    for stmt in body:
        if isinstance(stmt, ast.If):
            negated = []
            for cond, arm_body in stmt.arms:
                arm_conds = conds + tuple(negated)
                if cond is not None:
                    _record_reads(cond, arm_conds, False, loop, out)
                    _walk(arm_body, arm_conds + ((cond, True),), loop, out)
                    negated.append((cond, False))
                else:
                    _walk(arm_body, arm_conds, loop, out)
        elif isinstance(stmt, ast.While):
            _record_reads(stmt.cond, conds, False, loop, out)
            loop_conds = conds + ((stmt.cond, True),)
            out.loops.append(Access(loop_conds, False, loop))
            _walk(stmt.body, loop_conds, stmt, out)
        else:
            _record_leaf(stmt, conds, loop, out)


def _record_leaf(stmt, conds, loop, out):
    nwd = loop is None
    for expr in ast.statement_exprs(stmt):
        _record_reads(expr, conds, nwd, loop, out)
    if isinstance(stmt, ast.RegAssign):
        out.reg_assigns.setdefault(stmt.reg, []).append(
            Access(conds, nwd, loop, (stmt.value,)))
    elif isinstance(stmt, ast.VectorRegAssign):
        out.vreg_assigns.setdefault(stmt.vreg, []).append(
            Access(conds, nwd, loop, (stmt.index, stmt.value)))
    elif isinstance(stmt, ast.BramWrite):
        out.bram_writes.setdefault(stmt.bram, []).append(
            Access(conds, nwd, loop, (stmt.addr, stmt.value)))
    elif isinstance(stmt, ast.Emit):
        out.emits.append(Access(conds, nwd, loop, (stmt.value,)))
    else:  # pragma: no cover - the AST has no other leaf statements
        raise AssertionError(f"unexpected leaf {stmt!r}")


def _record_reads(expr, conds, nwd, loop, out):
    for node in ast.walk_expr(expr):
        if isinstance(node, ast.BramRead):
            out.bram_reads.setdefault(node.bram, []).append(
                Access(conds, nwd, loop, (node.addr,)))
