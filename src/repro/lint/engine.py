"""Abstract-interpretation dataflow engine over the Fleet AST.

:class:`Analysis` computes, for every register and vector register, an
interval that provably contains every value the element can hold on any
virtual cycle of any execution, and exposes a guard-refined abstract
evaluator for arbitrary expressions at specific program *sites*.

How it works:

* **Sites** — the program's shared site list
  (:attr:`UnitProgram.sites <repro.lang.ast.UnitProgram.sites>`, walked
  once per program) gives every statement, condition, and
  BRAM/vector-register access together with its guard chain (the
  ``(condition, polarity)`` conjunction gating it), loop membership, and
  a stable location path such as ``body[2].arm[0].body[1]``.
* **Guard refinement** — a site's guard terms are decomposed into
  interval facts exactly as the restriction prover does
  (:func:`repro.lang.prover.guard_facts`): comparisons against
  constant-foldable operands, ``&&``/``||``/``!`` via De Morgan, and
  ``!=`` exclusions. When the evaluator reaches an expression whose
  structural key carries a fact, the computed interval is met with it;
  an empty meet proves the site unreachable.
* **Loop-phase awareness** — a statement outside every ``while`` fires
  only on ``while_done`` virtual cycles, when every top-level ``while``
  condition is false; those negated conditions join the guard for such
  sites (the same phase split the prover uses for exclusivity).
* **Fixpoint** — register intervals start at their init values and grow
  by joining every (reachable) assignment's value interval, truncated to
  the declared width, until stable. Registers keep their value on cycles
  that do not assign them, so the join always includes the current
  interval. After :data:`MAX_SWEEPS` sweeps without convergence the
  still-changing elements are widened to their full width range — each
  widening round tops at least one element permanently, so termination
  is guaranteed in at most ``#elements`` rounds. A sweep re-evaluates
  only the sites whose reads changed since their last evaluation (see
  :meth:`Analysis._sweep`).

Each fact is computed once per program: one constant-fold memo serves
the whole analysis, and each site's guard refinements are decomposed
once (they depend on its guard terms alone).

Everything here is sound over-approximation: a concrete execution can
only produce values inside the computed intervals, and a site reported
unreachable can never fire. The passes in :mod:`repro.lint.passes` build
directly on these guarantees.
"""

from ..lang import ast
from ..lang.prover import KeyTable, guard_facts
from . import domain

#: Fixpoint sweeps before widening still-changing state elements to top.
MAX_SWEEPS = 6


class _Unreachable(Exception):
    """Raised inside the evaluator when a refinement meet is empty."""


class _Evaluator:
    """Guard-refined abstract evaluation of one site's expressions."""

    __slots__ = ("_analysis", "_refinements", "_memo")

    def __init__(self, analysis, refinements):
        self._analysis = analysis
        self._refinements = refinements  # structural key -> (lo, hi, excl)
        self._memo = {}

    def eval(self, node):
        cached = self._memo.get(id(node))
        if cached is not None:
            return cached
        interval = self._refine(node, self._transfer(node))
        self._memo[id(node)] = interval
        return interval

    def _refine(self, node, interval):
        if not self._refinements:
            return interval
        fact = self._refinements.get(self._analysis.key(node))
        if fact is None:
            return interval
        lo, hi, excluded = fact
        rlo = max(interval.lo, lo)
        rhi = interval.hi if hi is None else min(interval.hi, hi)
        # != exclusions can trim the edges of the refined range.
        while rlo <= rhi and rlo in excluded:
            rlo += 1
        while rhi >= rlo and rhi in excluded:
            rhi -= 1
        if rlo > rhi:
            raise _Unreachable
        return domain.Interval(rlo, rhi)

    def _transfer(self, node):
        if isinstance(node, ast.Const):
            return domain.const(node.value)
        if isinstance(node, ast.InputToken):
            return domain.top(node.width)
        if isinstance(node, ast.StreamFinished):
            return domain.Interval(0, 1)
        if isinstance(node, ast.RegRead):
            return self._analysis.reg_interval(node.reg)
        if isinstance(node, ast.VectorRegRead):
            return self._analysis.vreg_interval(node.vreg)
        if isinstance(node, ast.BramRead):
            # BRAM contents are not tracked (any address may hold any
            # stored value); the read is bounded only by the port width.
            return domain.top(node.width)
        if isinstance(node, ast.WireRead):
            return self.eval(node.wire.value)
        if isinstance(node, ast.BinOp):
            return domain.binop_interval(
                node.op, self.eval(node.lhs), self.eval(node.rhs),
                node.lhs.width, node.rhs.width,
            )
        if isinstance(node, ast.UnOp):
            return domain.unop_interval(
                node.op, self.eval(node.operand), node.operand.width
            )
        if isinstance(node, ast.Mux):
            cond = self.eval(node.cond)
            if cond.is_const:
                return self.eval(node.then if cond.lo else node.els)
            return domain.join(self.eval(node.then), self.eval(node.els))
        if isinstance(node, ast.Slice):
            return domain.slice_interval(
                self.eval(node.operand), node.hi, node.lo, node.width
            )
        if isinstance(node, ast.Concat):
            return domain.concat_interval(
                [(self.eval(p), p.width) for p in node.parts]
            )
        raise TypeError(f"unevaluable node {node!r}")


class Analysis:
    """Whole-program interval analysis (see the module docstring)."""

    def __init__(self, program):
        self.program = program
        #: The program's :class:`~repro.lang.sites.Site` list (shared,
        #: read-only).
        self.sites = program.sites.sites
        #: Conditions of top-level ``while`` loops: on ``while_done``
        #: cycles every one of them is false.
        self.top_while_conds = [
            loop.node for loop in program.sites.loops if not loop.guard
        ]
        self._keys = KeyTable()
        #: One constant-fold memo for every guard this analysis
        #: decomposes (:func:`~repro.lang.fold.const_value`).
        self._folds = {}
        #: ``id(site) -> (effective terms, refinements)``, computed once
        #: per site (see :meth:`_site_refinements`).
        self._refinements = {}
        self._reg = {id(r): domain.const(r.init) for r in program.regs}
        self._vreg = {id(v): domain.const(v.init) for v in program.vregs}
        self._settled = False
        self._site_evaluators = {}
        self._fixpoint()
        self._settled = True

    # -- public queries -----------------------------------------------------

    def key(self, node):
        """Interned structural key — a small integer, linear to compute
        and hash even for DAG-shaped expressions (the analysis-wide
        :class:`~repro.lang.prover.KeyTable` defines the key space,
        shared with the guard facts built in :meth:`_site_refinements`)."""
        return self._keys.key(node)

    def reg_interval(self, decl):
        return self._reg[id(decl)]

    def vreg_interval(self, decl):
        return self._vreg[id(decl)]

    def reachable(self, site):
        """False when the site's guard is proven unsatisfiable."""
        return self._evaluator(site) is not None

    def evaluate(self, site, expr):
        """Interval of ``expr`` at ``site`` under its guard refinements,
        or ``None`` when the site is unreachable."""
        return _evaluate(self._evaluator(site), expr)

    # -- guard-refined evaluators -------------------------------------------

    def _effective_terms(self, site):
        terms = site.guard
        if site.needs_while_done and self.top_while_conds:
            terms = terms + tuple(
                (cond, False) for cond in self.top_while_conds
            )
        return terms

    def _evaluator(self, site):
        """A cached evaluator for ``site``, or ``None`` when the site's
        guard is unsatisfiable. Caching is only valid once the fixpoint
        has settled; the fixpoint leaves each assignment site's last
        evaluator in the cache (see :meth:`_sweep`)."""
        if self._settled:
            cached = self._site_evaluators.get(id(site), _MISSING)
            if cached is not _MISSING:
                return cached
        terms, refinements = self._site_refinements(site)
        evaluator = (None if refinements is None
                     else self._checked_evaluator(terms, refinements))
        if self._settled:
            self._site_evaluators[id(site)] = evaluator
        return evaluator

    def _guard_facts(self, terms):
        """:func:`~repro.lang.prover.guard_facts` of a term conjunction
        in this analysis's key space, folding with its memo."""
        return guard_facts(terms, self._keys.key, self._folds)

    def _site_refinements(self, site):
        """``(effective terms, refinements)`` of ``site``; refinements
        are ``None`` when the guard's facts are contradictory.

        Computed once per site: the facts depend only on the guard
        terms, never on a register interval, so every fixpoint sweep
        and the settled evaluators share them."""
        cached = self._refinements.get(id(site))
        if cached is None:
            terms = self._effective_terms(site)
            facts = self._guard_facts(terms)
            cached = (terms, None if facts.contradictory
                      else refinement_table(facts))
            self._refinements[id(site)] = cached
        return cached

    def _checked_evaluator(self, terms, refinements):
        """An evaluator under ``refinements``, or ``None`` when a guard
        term's refined interval decides against its polarity, which
        proves the whole guard unsatisfiable."""
        evaluator = _Evaluator(self, refinements)
        try:
            for cond, polarity in terms:
                interval = evaluator.eval(cond)
                if interval.is_const and bool(interval.lo) != polarity:
                    return None
        except _Unreachable:
            return None
        return evaluator

    def _reads(self, site):
        """``id`` of every register and vector register that evaluating
        ``site``'s effective guard and value can read."""
        reads, seen = set(), set()
        stack = [cond for cond, _polarity in self._effective_terms(site)]
        stack.append(site.stmt.value)
        while stack:
            node = stack.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            if isinstance(node, ast.RegRead):
                reads.add(id(node.reg))
            elif isinstance(node, ast.VectorRegRead):
                reads.add(id(node.vreg))
            stack.extend(node.children())
        return tuple(reads)

    # -- fixpoint -----------------------------------------------------------

    def _fixpoint(self):
        assign_sites = [
            s for s in self.sites if s.kind in ("reg-assign", "vreg-assign")
        ]
        if not assign_sites:
            return
        # The worklist: a sweep skips a site none of whose reads changed
        # since its last evaluation (see _sweep). ``_changed_at`` holds
        # each element's tick of last change, ``evaluated_at`` each
        # site's tick of last evaluation (-1: not yet evaluated).
        work = [(site, self._reads(site)) for site in assign_sites]
        evaluated_at = [-1] * len(work)
        self._tick = 0
        self._changed_at = {}
        # Each widening round permanently tops at least one element, so
        # #elements rounds always suffice.
        for _round in range(len(self._reg) + len(self._vreg) + 1):
            still_changing = self._sweeps(work, evaluated_at)
            if not still_changing:
                return
            for decl in still_changing:
                store = (self._reg if id(decl) in self._reg
                         else self._vreg)
                store[id(decl)] = domain.top(decl.width)
                self._changed(decl)  # widening is a change
        # Unreachable: widening is monotone and bounded. Fall back to
        # topping everything rather than looping forever.
        self._site_evaluators.clear()
        for decl in list(self.program.regs):
            self._reg[id(decl)] = domain.top(decl.width)
        for decl in list(self.program.vregs):
            self._vreg[id(decl)] = domain.top(decl.width)

    def _changed(self, decl):
        self._tick += 1
        self._changed_at[id(decl)] = self._tick

    def _sweeps(self, work, evaluated_at):
        """Up to :data:`MAX_SWEEPS` join sweeps; returns the set of
        declarations still changing in the last sweep (empty once the
        fixpoint is reached)."""
        for _ in range(MAX_SWEEPS):
            changed = self._sweep(work, evaluated_at)
            if not changed:
                return changed
        return changed

    def _sweep(self, work, evaluated_at):
        """One join sweep over the assignment sites, in program order.

        A site whose reads are all unchanged since its last evaluation
        is skipped. That is exact: evaluation is a function of the
        intervals it reads, so the site would join the same interval
        into a store that only grows and already contains it.

        Each site's last evaluator is kept. Once a sweep changes
        nothing, none of them has seen a read change since it was
        built, so each is the site's settled evaluator."""
        changed = set()
        changed_at = self._changed_at
        for index, (site, reads) in enumerate(work):
            last = evaluated_at[index]
            if last >= 0 and all(changed_at.get(r, 0) <= last
                                 for r in reads):
                continue
            evaluated_at[index] = self._tick
            if site.kind == "reg-assign":
                decl, store = site.stmt.reg, self._reg
            else:
                decl, store = site.stmt.vreg, self._vreg
            evaluator = self._evaluator(site)
            self._site_evaluators[id(site)] = evaluator
            value = _evaluate(evaluator, site.stmt.value)
            if value is None:
                continue  # unreachable assignment contributes nothing
            new = domain.join(
                store[id(decl)],
                domain.truncate_interval(value, decl.width),
            )
            if new != store[id(decl)]:
                store[id(decl)] = new
                self._changed(decl)
                changed.add(decl)
        return changed


def _evaluate(evaluator, expr):
    """``expr``'s interval under a site's evaluator, or ``None`` when
    the site (``evaluator`` ``None``) or the expression is unreachable."""
    if evaluator is None:
        return None
    try:
        return evaluator.eval(expr)
    except _Unreachable:
        return None


def refinement_table(facts):
    """``structural key -> (lo, hi, excluded)`` from the facts of a
    satisfiable guard (``hi`` ``None``: no upper bound), as
    :class:`_Evaluator` meets them."""
    refinements = {}
    for key, (lo, hi) in facts.intervals.items():
        refinements[key] = (lo, hi, facts.excluded.get(key, ()))
    for key, excluded in facts.excluded.items():
        refinements.setdefault(key, (0, None, excluded))
    return refinements


class _Missing:
    __slots__ = ()


_MISSING = _Missing()
