"""Static proof of the Fleet language restrictions.

The paper checks its restrictions dynamically in the software simulator
and notes that "a static analyzer could also guarantee that certain
well-structured programs do not violate the restrictions" (Section 3).
This module is that analyzer: :func:`prove_program` attempts to prove,
for every pair of syntactic accesses that would conflict if they executed
in the same virtual cycle, that their guards are mutually exclusive.

Conflicts checked: two reads of one BRAM (at different addresses), two
writes of one BRAM, two emits, and two assignments to one register. A
pair is proven exclusive when any of these holds:

* **negation** — one guard contains a condition the other contains
  negated (the same condition *object*, as ``elif``/``otherwise`` arms
  produce);
* **interval separation** — both guards constrain the same (structurally
  equal) expression to disjoint value ranges, via ``==``, ``<``, ``<=``,
  ``>``, ``>=`` terms against constants, decomposed through ``and``/``or``
  with De Morgan's laws;
* **loop phase** — one access is inside a ``while`` body and the other
  outside every loop: loop-body statements run only on virtual cycles
  where some loop is active, post-loop statements only when none is;
* **same address** — two reads with structurally identical addresses
  need only one port.

The prover is sound but incomplete: a failed proof is reported, not an
error — exactly the paper's split, where the dynamic simulator remains
the authority. All six evaluation applications are proven clean (see the
test suite), so the dynamic checks can be disabled for them with
confidence.
"""

from . import ast
from .fold import const_value
from .pretty import pretty_expr, pretty_guard

_KIND_NOUN = {
    "read": "reads of BRAM",
    "write": "writes to BRAM",
    "emit": "emits to",
    "assign": "assignments to register",
}


class Conflict:
    """One unproven pair of potentially conflicting accesses."""

    def __init__(self, resource, kind, first, second):
        self.resource = resource
        self.kind = kind  # "read" | "write" | "emit" | "assign"
        self.first = first  # repro.lang.sites.Site
        self.second = second

    def render(self):
        """Human-readable description of the unproven pair (used by the
        lint CLI and ``python -m repro.report``)."""
        noun = _KIND_NOUN.get(self.kind, f"{self.kind} accesses to")
        lines = [f"unproven pair: two {noun} {self.resource!r} "
                 "may co-fire in one virtual cycle"]
        for site in (self.first, self.second):
            where = "in a while body" if site.in_loop else "post-loop"
            at = (f" at address {pretty_expr(site.node.addr)}"
                  if site.kind == "bram-read" else "")
            lines.append(f"  - {where}{at}, when {pretty_guard(site.guard)}")
        return "\n".join(lines)

    def __repr__(self):
        return f"Conflict({self.kind} of {self.resource!r})"


class ProofReport:
    """Outcome of :func:`prove_program`."""

    def __init__(self, conflicts):
        self.conflicts = conflicts

    @property
    def ok(self):
        return not self.conflicts

    def render(self):
        """Human-readable proof outcome (used by the lint CLI and
        ``python -m repro.report``)."""
        if self.ok:
            return ("restriction proof: OK — every potentially "
                    "conflicting access pair is proven mutually exclusive")
        lines = [f"restriction proof: {len(self.conflicts)} unproven "
                 "conflict pair(s); the dynamic checks stay on"]
        for conflict in self.conflicts:
            lines.append(conflict.render())
        return "\n".join(lines)

    def __repr__(self):
        return f"ProofReport(ok={self.ok}, conflicts={len(self.conflicts)})"


# ---------------------------------------------------------------------------
# Structural expression keys
# ---------------------------------------------------------------------------


class KeyTable:
    """Hash-consing structural keyer.

    Maps expression nodes to small interned integer keys such that two
    nodes receive the same key iff they are structurally equal: the same
    node types, operators, constants and declarations, all the way down.
    Descriptors reference child keys by their interned integers, so
    building and hashing stay linear in the DAG size — unlike nested
    tuple keys, whose *tree* size (and thus hash cost) is exponential
    for programs with heavily shared wires.

    One table defines one key space: integer keys are only comparable
    against keys from the same table.
    """

    __slots__ = ("_by_id", "_intern")

    def __init__(self):
        self._by_id = {}  # id(node) -> int
        self._intern = {}  # descriptor tuple -> int

    def key(self, node):
        cached = self._by_id.get(id(node))
        if cached is not None:
            return cached
        if isinstance(node, ast.Const):
            d = ("const", node.value, node.width)
        elif isinstance(node, ast.InputToken):
            d = ("input", node.width)
        elif isinstance(node, ast.StreamFinished):
            d = ("sf",)
        elif isinstance(node, ast.RegRead):
            d = ("reg", id(node.reg))
        elif isinstance(node, ast.WireRead):
            d = ("wire", self.key(node.wire.value))
        elif isinstance(node, ast.VectorRegRead):
            d = ("vreg", id(node.vreg), self.key(node.index))
        elif isinstance(node, ast.BramRead):
            d = ("bram", id(node.bram), self.key(node.addr))
        elif isinstance(node, ast.BinOp):
            d = ("bin", node.op, self.key(node.lhs), self.key(node.rhs))
        elif isinstance(node, ast.UnOp):
            d = ("un", node.op, self.key(node.operand))
        elif isinstance(node, ast.Mux):
            d = ("mux", self.key(node.cond), self.key(node.then),
                 self.key(node.els))
        elif isinstance(node, ast.Slice):
            d = ("slice", node.hi, node.lo, self.key(node.operand))
        elif isinstance(node, ast.Concat):
            d = ("cat",) + tuple(self.key(p) for p in node.parts)
        else:
            raise TypeError(f"unkeyable node {node!r}")
        interned = self._intern.get(d)
        if interned is None:
            interned = len(self._intern)
            self._intern[d] = interned
        self._by_id[id(node)] = interned
        return interned


# ---------------------------------------------------------------------------
# Guard facts: literal sets and interval constraints
# ---------------------------------------------------------------------------

_FLIP = {"lt": "ge", "le": "gt", "gt": "le", "ge": "lt",
         "eq": "ne", "ne": "eq"}
_SWAP = {"lt": "gt", "le": "ge", "gt": "lt", "ge": "le",
         "eq": "eq", "ne": "ne"}


class _Facts:
    """Conjunctive facts extracted from one guard."""

    def __init__(self):
        self.literals = {}  # id(cond node) -> polarity
        self.intervals = {}  # structural key -> [lo, hi]
        self.excluded = {}  # structural key -> set of excluded values
        self.contradictory = False

    def add_literal(self, node, polarity):
        seen = self.literals.get(id(node))
        if seen is not None and seen != polarity:
            self.contradictory = True
        self.literals[id(node)] = polarity

    def bound(self, key, lo=None, hi=None):
        interval = self.intervals.setdefault(key, [0, None])
        if lo is not None:
            interval[0] = max(interval[0], lo)
        if hi is not None:
            interval[1] = hi if interval[1] is None else min(
                interval[1], hi
            )
        if interval[1] is not None and interval[0] > interval[1]:
            self.contradictory = True

    def exclude(self, key, value):
        self.excluded.setdefault(key, set()).add(value)


def _as_comparison(node, memo):
    """Normalize ``expr OP const`` / ``const OP expr`` to
    ``(op, expr, value)`` or None. Either side may be any
    constant-foldable expression, not just a literal ``Const``
    (``memo`` is :func:`~repro.lang.fold.const_value`'s)."""
    if not isinstance(node, ast.BinOp) or node.op not in _SWAP:
        return None
    rhs_value = const_value(node.rhs, memo)
    if rhs_value is not None:
        return node.op, node.lhs, rhs_value
    lhs_value = const_value(node.lhs, memo)
    if lhs_value is not None:
        return _SWAP[node.op], node.rhs, lhs_value
    return None


def _add_term(facts, node, polarity, key_fn, memo):
    """Decompose a 1-bit condition term into facts."""
    folded = const_value(node, memo)
    if folded is not None:
        # A constant-folded condition either contributes nothing (it
        # agrees with its polarity) or makes the guard unsatisfiable.
        if bool(folded) != polarity:
            facts.contradictory = True
        return
    facts.add_literal(node, polarity)
    if isinstance(node, ast.WireRead):
        _add_term(facts, node.wire.value, polarity, key_fn, memo)
        return
    if isinstance(node, ast.UnOp) and node.op == "lnot":
        _add_term(facts, node.operand, not polarity, key_fn, memo)
        return
    if isinstance(node, ast.BinOp) and node.op == "and" and polarity:
        _add_term(facts, node.lhs, True, key_fn, memo)
        _add_term(facts, node.rhs, True, key_fn, memo)
        return
    if isinstance(node, ast.BinOp) and node.op == "or" and not polarity:
        _add_term(facts, node.lhs, False, key_fn, memo)
        _add_term(facts, node.rhs, False, key_fn, memo)
        return
    comparison = _as_comparison(node, memo)
    if comparison is None:
        return
    op, expr, value = comparison
    if not polarity:
        op = _FLIP[op]
    key = key_fn(expr)
    if op == "eq":
        facts.bound(key, lo=value, hi=value)
    elif op == "ne":
        facts.exclude(key, value)
    elif op == "lt":
        facts.bound(key, hi=value - 1)
    elif op == "le":
        facts.bound(key, hi=value)
    elif op == "gt":
        facts.bound(key, lo=value + 1)
    elif op == "ge":
        facts.bound(key, lo=value)


def guard_facts(terms, key_fn, memo=None):
    """Facts from a guard's ``(cond, polarity)`` terms. ``key_fn`` maps
    an expression to its structural key (a :class:`KeyTable`'s ``key``;
    facts are only comparable within one key space). ``memo`` is a
    constant-fold memo (:func:`~repro.lang.fold.const_value`) the caller
    keeps across calls; by default the terms share one."""
    facts = _Facts()
    if memo is None:
        memo = {}
    for cond, polarity in terms:
        _add_term(facts, cond, polarity, key_fn, memo)
    return facts


def _exclusive(site_a, a, site_b, b):
    """Can ``site_a`` and ``site_b``, whose guards have facts ``a`` and
    ``b``, ever co-fire?"""
    if a.contradictory or b.contradictory:
        return True  # an unsatisfiable guard never fires
    # Loop phase: a loop-body access vs a post-loop access.
    if site_a.in_loop != site_b.in_loop and (
        site_a.needs_while_done or site_b.needs_while_done
    ):
        return True
    # Literal negation.
    for node_id, polarity in a.literals.items():
        other = b.literals.get(node_id)
        if other is not None and other != polarity:
            return True
    # Interval separation / interval-vs-exclusion on a shared expression.
    for key, (lo_a, hi_a) in a.intervals.items():
        if key in b.intervals:
            lo_b, hi_b = b.intervals[key]
            if hi_a is not None and lo_b > hi_a:
                return True
            if hi_b is not None and lo_a > hi_b:
                return True
    # One guard's ``!=`` exclusions may blanket the other's interval:
    # e.g. ``x <= 1`` vs ``x != 0 && x != 1``. Bounded enumeration keeps
    # this linear in the (small) number of decomposed != terms.
    if _interval_excluded(a, b) or _interval_excluded(b, a):
        return True
    return False


#: Widest interval the !=-coverage check will enumerate.
_EXCLUSION_SPAN = 64


def _interval_excluded(bounded, excluding):
    """Whether some interval in ``bounded`` is entirely covered by the
    ``!=`` exclusions of ``excluding`` (so the pair can never co-fire)."""
    for key, (lo, hi) in bounded.intervals.items():
        excluded = excluding.excluded.get(key)
        if not excluded or hi is None or hi - lo > _EXCLUSION_SPAN:
            continue
        if all(value in excluded for value in range(lo, hi + 1)):
            return True
    return False


# ---------------------------------------------------------------------------
# Program-level proof
# ---------------------------------------------------------------------------


class PairProof:
    """Pairwise exclusivity over one program's sites, with every guard's
    facts in one structural key space: one :class:`KeyTable` and one
    constant-fold memo for the whole proof. The facts stay here, beside
    the shared sites."""

    def __init__(self):
        self.keys = KeyTable()
        self._folds = {}

    def unproven_pairs(self, sites, same_ok=None):
        """Every pair ``(first, second)`` of ``sites``, in order, that is
        not proven mutually exclusive. ``same_ok(i, j)`` exempts the pair
        of ``sites[i]`` and ``sites[j]``."""
        facts = [guard_facts(site.guard, self.keys.key, self._folds)
                 for site in sites]
        pairs = []
        for i in range(len(sites)):
            for j in range(i + 1, len(sites)):
                if same_ok and same_ok(i, j):
                    continue
                if not _exclusive(sites[i], facts[i], sites[j], facts[j]):
                    pairs.append((sites[i], sites[j]))
        return pairs


def prove_program(program):
    """Attempt to prove the per-virtual-cycle restrictions statically."""
    sites = program.sites
    proof = PairProof()
    conflicts = []

    def check(kind, resource_name, group, same_ok=None):
        for first, second in proof.unproven_pairs(group, same_ok):
            conflicts.append(Conflict(resource_name, kind, first, second))

    for bram, reads in sites.reads.items():
        addrs = [proof.keys.key(site.node.addr) for site in reads]
        check("read", bram.name, reads,
              same_ok=lambda i, j: addrs[i] == addrs[j])
    for bram, writes in sites.writes.items():
        check("write", bram.name, writes)
    check("emit", "<output>", sites.emits)
    for reg, assigns in sites.reg_assigns.items():
        check("assign", reg.name, assigns)
    return ProofReport(conflicts)


# Re-exported for introspection/tests.
__all__ = [
    "Conflict",
    "KeyTable",
    "PairProof",
    "ProofReport",
    "guard_facts",
    "prove_program",
]
