"""Per-site specialization facts: what the prover lets codegen delete.

A clean :class:`~repro.lint.certificate.RestrictionCertificate` has
always meant "the dynamic restriction checks can never fire"; this
module makes the *reason* portable. :class:`SpecializationFacts` records
the interval-domain evidence behind that verdict at the granularity a
code generator needs:

* **Global expression bounds** — for every expression node in the
  program, an interval that provably contains its value on *any* virtual
  cycle of *any* execution (the unrefined abstract evaluation over the
  register fixpoint). Sound at every occurrence of the node, including
  hoisted shared temporaries, so codegen may consult it wherever the
  node is rendered.
* **Per-site bounds** — for every leaf statement site (register/vector
  assignment, BRAM write, emit), the *guard-refined* interval of its
  value and address operands at that exact site. Tighter than the global
  bound (the site's condition chain and loop phase refine it), and sound
  precisely because each leaf statement renders exactly once in
  generated code.

What codegen does with a fact (see :mod:`repro.interp.lower`):

* a width-truncation mask ``value & mask(w)`` is **elided** when the
  operand's interval already fits ``w`` bits;
* a BRAM/vector-register address guard (the truncation AND that keeps a
  power-of-two access in range) is **dropped** when the address interval
  is proven inside the element count;
* a wrapping subtraction keeps its exact, mask-free form when the
  minuend provably dominates the subtrahend;
* a proven-constant expression folds to its literal.

Keys are **content-addressed**: :func:`expr_fact_key` hashes the
expression *structure* (declarations by name, children by their own
keys), so facts computed while linting one program object apply to any
structurally identical program — exactly the programs that share a
certificate (:func:`repro.lint.certificate_for`). An expression the
table does not know has no fact, and codegen keeps its guard.
"""

import hashlib

from ..lang import ast
from ..lang.types import mask

#: Site roles a leaf statement exposes to codegen.
ROLE_VALUE = "value"
ROLE_ADDR = "addr"


def expr_fact_key(node, memo=None):
    """Content-addressed structural key of an expression node.

    A hex digest over the node's shape: declarations are referenced by
    name (never object identity) and children by their own keys, so two
    structurally equal expressions — even across distinct program
    objects — receive the same key. Linear in the DAG via ``memo``
    (an ``id(node) -> key`` dict the caller may share across calls).
    """
    if memo is None:
        memo = {}
    cached = memo.get(id(node))
    if cached is not None:
        return cached
    if isinstance(node, ast.Const):
        d = ("const", node.value, node.width)
    elif isinstance(node, ast.InputToken):
        d = ("input", node.width)
    elif isinstance(node, ast.StreamFinished):
        d = ("sf",)
    elif isinstance(node, ast.RegRead):
        d = ("reg", node.reg.name, node.reg.width)
    elif isinstance(node, ast.WireRead):
        d = ("wire", expr_fact_key(node.wire.value, memo))
    elif isinstance(node, ast.VectorRegRead):
        d = ("vreg", node.vreg.name, node.vreg.elements,
             expr_fact_key(node.index, memo))
    elif isinstance(node, ast.BramRead):
        d = ("bram", node.bram.name, node.bram.elements,
             expr_fact_key(node.addr, memo))
    elif isinstance(node, ast.BinOp):
        d = ("bin", node.op, expr_fact_key(node.lhs, memo),
             expr_fact_key(node.rhs, memo))
    elif isinstance(node, ast.UnOp):
        d = ("un", node.op, expr_fact_key(node.operand, memo))
    elif isinstance(node, ast.Mux):
        d = ("mux", expr_fact_key(node.cond, memo),
             expr_fact_key(node.then, memo),
             expr_fact_key(node.els, memo))
    elif isinstance(node, ast.Slice):
        d = ("slice", node.hi, node.lo, expr_fact_key(node.operand, memo))
    elif isinstance(node, ast.Concat):
        d = ("cat",) + tuple(expr_fact_key(p, memo) for p in node.parts)
    else:
        raise TypeError(f"unkeyable node {node!r}")
    key = hashlib.sha256(repr(d).encode("utf-8")).hexdigest()[:20]
    memo[id(node)] = key
    return key


class SpecializationFacts:
    """The interval evidence a certificate carries for codegen.

    ``expr_bounds`` maps :func:`expr_fact_key` keys to global ``(lo,
    hi)`` bounds; ``site_bounds`` maps ``(location, role)`` — the lint
    engine's stable statement paths like ``body[2].arm[0].body[1]`` plus
    :data:`ROLE_VALUE`/:data:`ROLE_ADDR` — to guard-refined bounds.
    """

    __slots__ = ("expr_bounds", "site_bounds")

    def __init__(self, expr_bounds=None, site_bounds=None):
        self.expr_bounds = dict(expr_bounds or {})
        self.site_bounds = dict(site_bounds or {})

    # -- expression-level queries (sound at every occurrence) ---------------

    def interval(self, key):
        """Global ``(lo, hi)`` bound for the keyed expression, or
        ``None`` when unknown."""
        return self.expr_bounds.get(key)

    def fits(self, key, width):
        """Whether the keyed expression's value provably fits ``width``
        bits everywhere it occurs (its truncation mask is a no-op)."""
        bound = self.expr_bounds.get(key)
        return bound is not None and bound[1] <= mask(width)

    def constant(self, key):
        """The proven-constant value of the keyed expression, or
        ``None`` when it is not proven constant."""
        bound = self.expr_bounds.get(key)
        if bound is not None and bound[0] == bound[1]:
            return bound[0]
        return None

    def sub_exact(self, lhs_key, rhs_key):
        """Whether ``lhs - rhs`` provably never borrows (the minuend
        dominates the subtrahend), making the wrap mask a no-op."""
        lhs = self.expr_bounds.get(lhs_key)
        rhs = self.expr_bounds.get(rhs_key)
        return lhs is not None and rhs is not None and lhs[0] >= rhs[1]

    # -- site-level queries (sound at that statement only) ------------------

    def site_interval(self, location, role):
        return self.site_bounds.get((location, role))

    def site_fits(self, location, role, width):
        """Whether the operand in ``role`` at the leaf statement at
        ``location`` provably fits ``width`` bits under the site's guard
        chain and loop phase."""
        bound = self.site_bounds.get((location, role))
        return bound is not None and bound[1] <= mask(width)

    # -- bookkeeping ---------------------------------------------------------

    def counts(self):
        return {
            "expressions": len(self.expr_bounds),
            "sites": len(self.site_bounds),
        }

    def to_json(self):
        """Summary form for certificate serialization (the full tables
        are reproducible from the program; only the shape is reported)."""
        return self.counts()

    def __repr__(self):
        return (f"SpecializationFacts(expressions="
                f"{len(self.expr_bounds)}, sites={len(self.site_bounds)})")


def build_facts(analysis):
    """Derive :class:`SpecializationFacts` from a settled
    :class:`~repro.lint.engine.Analysis`.

    Global bounds come from an *unrefined* evaluation (no guard facts) of
    every expression node reachable from the program body — each bound
    holds on every cycle regardless of which branch executes, which is
    what makes it safe at shared/hoisted render points. Per-site bounds
    reuse the engine's guard-refined site evaluation; unreachable sites
    contribute nothing (their guarded code never runs, so the guarded
    rendering is kept — it is dead anyway).
    """
    from .engine import _Evaluator, _Unreachable

    program = analysis.program
    evaluator = _Evaluator(analysis, {})
    memo = {}
    expr_bounds = {}
    # One walk over every statement expression: a node shared by many
    # (wires, reused sub-expressions) has one key and one bound.
    stack = [root for stmt in ast.walk_statements(program.body)
             for root in ast.statement_exprs(stmt)]
    stack.reverse()
    seen_nodes = set()
    while stack:
        node = stack.pop()
        if id(node) in seen_nodes:
            continue
        seen_nodes.add(id(node))
        stack.extend(node.children())
        key = expr_fact_key(node, memo)
        interval = evaluator.eval(node)
        bound = (interval.lo, interval.hi)
        seen = expr_bounds.get(key)
        if seen is not None:
            # Structurally equal nodes should agree; join defends
            # against two same-named declarations ever diverging.
            bound = (min(seen[0], bound[0]), max(seen[1], bound[1]))
        expr_bounds[key] = bound

    site_bounds = {}

    def record(site, role, expr):
        try:
            interval = analysis.evaluate(site, expr)
        except _Unreachable:  # pragma: no cover - evaluate() catches
            interval = None
        if interval is not None:
            site_bounds[(site.location, role)] = (interval.lo, interval.hi)

    for site in analysis.sites:
        stmt = site.stmt
        if site.kind == "reg-assign":
            record(site, ROLE_VALUE, stmt.value)
        elif site.kind == "vreg-assign":
            record(site, ROLE_VALUE, stmt.value)
            record(site, ROLE_ADDR, stmt.index)
        elif site.kind == "bram-write":
            record(site, ROLE_VALUE, stmt.value)
            record(site, ROLE_ADDR, stmt.addr)
        elif site.kind == "emit":
            record(site, ROLE_VALUE, stmt.value)
    return SpecializationFacts(expr_bounds, site_bounds)


__all__ = [
    "ROLE_ADDR",
    "ROLE_VALUE",
    "SpecializationFacts",
    "build_facts",
    "expr_fact_key",
]
