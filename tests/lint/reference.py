"""The certification analysis without its memos.

The memoized analysis (``repro.lint.engine``, ``repro.lint.cost``,
``repro.lang.prover``) computes each fact once per program. The plain
algorithm here recomputes everything where it is used:

* every fixpoint sweep evaluates every assignment site;
* every evaluator decomposes its guard's facts from scratch;
* every constant fold starts from an empty memo;
* the cost analysis decides a condition each time it is asked.

:func:`plain` switches the lint pipeline to this algorithm for the
duration of a ``with`` block; ``tests/lint/test_memoized_analysis.py``
requires both to produce the same analysis, facts, costs and
certificates.
"""

from contextlib import ExitStack, contextmanager
from unittest import mock

from repro.lang import ast, prover
from repro.lang.fold import const_value
from repro.lang.prover import _FLIP, _SWAP, _Facts
from repro.lint import cost, domain, engine, passes


def _as_comparison(node):
    if not isinstance(node, ast.BinOp) or node.op not in _SWAP:
        return None
    rhs_value = const_value(node.rhs)
    if rhs_value is not None:
        return node.op, node.lhs, rhs_value
    lhs_value = const_value(node.lhs)
    if lhs_value is not None:
        return _SWAP[node.op], node.rhs, lhs_value
    return None


def _add_term(facts, node, polarity, key_fn):
    folded = const_value(node)
    if folded is not None:
        if bool(folded) != polarity:
            facts.contradictory = True
        return
    facts.add_literal(node, polarity)
    if isinstance(node, ast.WireRead):
        _add_term(facts, node.wire.value, polarity, key_fn)
        return
    if isinstance(node, ast.UnOp) and node.op == "lnot":
        _add_term(facts, node.operand, not polarity, key_fn)
        return
    if isinstance(node, ast.BinOp) and node.op == "and" and polarity:
        _add_term(facts, node.lhs, True, key_fn)
        _add_term(facts, node.rhs, True, key_fn)
        return
    if isinstance(node, ast.BinOp) and node.op == "or" and not polarity:
        _add_term(facts, node.lhs, False, key_fn)
        _add_term(facts, node.rhs, False, key_fn)
        return
    comparison = _as_comparison(node)
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
    """A guard's facts, each constant fold from an empty memo (``memo``
    is ignored). ``key_fn`` is the caller's structural keyer."""
    facts = _Facts()
    for cond, polarity in terms:
        _add_term(facts, cond, polarity, key_fn)
    return facts


class PlainAnalysis(engine.Analysis):
    """Sweeps every assignment site every time, and decomposes a site's
    guard facts for every evaluator it builds."""

    def _guard_facts(self, terms):
        return guard_facts(terms, self.key)

    def _site_refinements(self, site):
        terms = self._effective_terms(site)
        facts = self._guard_facts(terms)
        if facts.contradictory:
            return terms, None
        return terms, engine.refinement_table(facts)

    def _sweep(self, work, evaluated_at):
        changed = set()
        for site, _reads in work:
            if site.kind == "reg-assign":
                decl, store = site.stmt.reg, self._reg
            else:
                decl, store = site.stmt.vreg, self._vreg
            value = self.evaluate(site, site.stmt.value)
            if value is None:
                continue
            new = domain.join(
                store[id(decl)],
                domain.truncate_interval(value, decl.width),
            )
            if new != store[id(decl)]:
                store[id(decl)] = new
                changed.add(decl)
        return changed


@contextmanager
def plain():
    """Run the lint pipeline on the plain algorithm inside the block."""
    with ExitStack() as stack:
        for module, name, value in (
            (passes, "Analysis", PlainAnalysis),
            (prover, "guard_facts", guard_facts),
            (cost, "_truth", cost._decide),
        ):
            stack.enter_context(mock.patch.object(module, name, value))
        yield
