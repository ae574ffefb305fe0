"""Static cost & termination analysis over the interval engine.

:func:`build_cost` layers a *cost abstract interpretation* on a settled
:class:`~repro.lint.engine.Analysis` and produces :class:`CostFacts`:
certified bounds on how many virtual cycles and emitted tokens one input
token can cost, separately for the **token phase** (``stream_finished``
pinned to 0, arbitrary input) and the **cleanup phase** (``stream_finished``
pinned to 1, input pinned to the dummy 0 the engines feed), plus a
termination verdict for every ``while`` loop.

The cost model follows the simulator's virtual-cycle semantics exactly
(:mod:`repro.interp.simulator`): processing one token costs one
``while_done`` cycle plus one cycle per virtual cycle on which at least
one ``while`` is active, so

``vcycles_per_token  in  [1, 1 + sum(trip bound of each while)]``.

Loop trip bounds come from a **register state graph** refined by the
guard machinery the engine already has:

* A *state register* ``r`` is picked from the loop condition. Every
  reachable value ``v`` of ``r`` (under the loop-activity refinement)
  becomes one abstract state; pinning ``r == v`` through
  :func:`~repro.lang.prover.guard_facts` re-refines every site in the
  loop body, classifying each assignment to ``r`` as must-fire,
  may-fire, or dead at that state.
* Successor edges are the refined value sets of the firing assignments
  (``mux`` arms split on their condition rather than joined, so state
  machines keep exact transitions). A cycle through distinct states
  means no bound — the loop earns a ``NonterminationRisk``.
* A state that can repeat (no case provably leaves it) is bounded by a
  **lexicographic ranking function**: the undecided conditions at the
  state are case-split, and every non-exiting case must strictly step
  some *progress register* monotonically (no wrap, proven by the
  refined intervals) while lower-ranked registers do not regress. The
  consecutive-cycle bound is the product of the registers' step counts.
* A wrapping unit-step counter (a *ring*) is still bounded when some
  pinned counter value forces the loop to exit: the counter walks every
  residue, so ``2**width`` cycles reach the forced exit.

The total trip bound is the longest (state-weighted) path through the
resulting DAG from any entry state. Everything is a sound
over-approximation of the authoritative interpreter: a measured run
outside the certified interval is a miscompile or an analysis bug — the
differential harness (:mod:`repro.testing.differential`) checks exactly
that on every fuzzed program.
"""

from itertools import product as _iter_product

from ..lang import ast
from ..lang.pretty import pretty_expr
from ..lang.types import mask
from ..telemetry.metrics import counter as _tm_counter
from .engine import _MISSING, _Unreachable, refinement_table

#: Most abstract states one loop may enumerate (9-bit counters fit).
MAX_STATES = 600

#: Most undecided conditions case-split per state (2**N hypotheses).
MAX_CASE_CONDS = 5

#: Widest value set tracked per successor edge computation.
VALUE_CAP = 64

#: Cap on a single state's consecutive-cycle (ranking) bound.
MAX_SELF_BOUND = 1 << 16

#: Widest ring-counter scanned for a forced exit value.
MAX_RING_SCAN = 1 << 10

#: Comparison operators mined for forced-exit candidate values.
_CMP_OPS = frozenset({"eq", "ne", "lt", "le", "gt", "ge"})

#: Live telemetry (repro.telemetry; zero-cost unless FLEET_METRICS).
_BOUND_CHECKS = _tm_counter(
    "fleet_cost_bound_checks_total",
    "Measured runs checked against certified cost bounds, by outcome",
    ("result",),
)


# ---------------------------------------------------------------------------
# Result types
# ---------------------------------------------------------------------------


class LoopBound:
    """Trip bound for one ``while`` in one phase. ``trips`` is the
    maximum number of virtual cycles the loop can be active per token
    (``None`` = no provable bound)."""

    __slots__ = ("location", "cond", "trips", "states", "ranking",
                 "reason")

    def __init__(self, location, cond, trips, states=0, ranking=None,
                 reason=None):
        self.location = location
        self.cond = cond
        self.trips = trips
        self.states = states
        self.ranking = ranking
        self.reason = reason

    @property
    def bounded(self):
        return self.trips is not None

    def to_json(self):
        return {
            "location": self.location,
            "cond": self.cond,
            "trips": self.trips,
            "states": self.states,
            "ranking": self.ranking,
            "reason": self.reason,
        }

    @classmethod
    def from_json(cls, data):
        return cls(data["location"], data["cond"], data["trips"],
                   data.get("states", 0), data.get("ranking"),
                   data.get("reason"))

    def __repr__(self):
        bound = self.trips if self.bounded else "unbounded"
        return f"LoopBound({self.location}, trips={bound})"


class PhaseCost:
    """Per-token cost interval of one phase: ``vcycles``/``emits`` are
    ``(lo, hi)`` with ``hi=None`` meaning no finite bound."""

    __slots__ = ("vcycles", "emits", "loops")

    def __init__(self, vcycles, emits, loops=()):
        self.vcycles = tuple(vcycles)
        self.emits = tuple(emits)
        self.loops = list(loops)

    def to_json(self):
        return {
            "vcycles": list(self.vcycles),
            "emits": list(self.emits),
            "loops": [loop.to_json() for loop in self.loops],
        }

    @classmethod
    def from_json(cls, data):
        return cls(data["vcycles"], data["emits"],
                   [LoopBound.from_json(l) for l in data.get("loops", ())])

    def __repr__(self):
        return f"PhaseCost(vcycles={self.vcycles}, emits={self.emits})"


class CostFacts:
    """Certified per-token cost intervals and the termination verdict.

    Carried by :class:`~repro.lint.certificate.RestrictionCertificate`
    (field ``cost``) and consumed by the DSE latency model and the
    differential fuzzer's cost-soundness axis.
    """

    __slots__ = ("token", "cleanup")

    def __init__(self, token, cleanup):
        self.token = token
        self.cleanup = cleanup

    # -- verdicts ------------------------------------------------------------

    @property
    def terminates(self):
        """Every ``while`` provably decreases a ranking function in both
        phases — per-token cost has a finite certified upper bound."""
        return (self.token.vcycles[1] is not None
                and self.cleanup.vcycles[1] is not None)

    @property
    def unbounded_loops(self):
        """Loops with no provable trip bound, deduplicated across
        phases (location-keyed)."""
        seen = {}
        for phase in (self.token, self.cleanup):
            for loop in phase.loops:
                if not loop.bounded and loop.location not in seen:
                    seen[loop.location] = loop
        return list(seen.values())

    # -- run-time checks -----------------------------------------------------

    def check_token(self, vcycles, emits, *, cleanup=False):
        """Violation messages for one measured token (or cleanup) record
        against the certified intervals; empty when in bounds. Feeds the
        ``fleet_cost_bound_checks_total`` telemetry counter."""
        phase = self.cleanup if cleanup else self.token
        name = "cleanup" if cleanup else "token"
        violations = []
        lo, hi = phase.vcycles
        if vcycles < lo or (hi is not None and vcycles > hi):
            violations.append(
                f"{name} vcycles {vcycles} outside certified "
                f"[{lo}, {hi if hi is not None else 'inf'}]"
            )
        lo, hi = phase.emits
        if emits < lo or (hi is not None and emits > hi):
            violations.append(
                f"{name} emits {emits} outside certified "
                f"[{lo}, {hi if hi is not None else 'inf'}]"
            )
        _BOUND_CHECKS.inc(result="violation" if violations else "ok")
        return violations

    # -- serialization -------------------------------------------------------

    def to_json(self):
        return {
            "terminates": self.terminates,
            "token": self.token.to_json(),
            "cleanup": self.cleanup.to_json(),
        }

    @classmethod
    def from_json(cls, data):
        return cls(PhaseCost.from_json(data["token"]),
                   PhaseCost.from_json(data["cleanup"]))

    def render(self):
        def fmt(pair):
            lo, hi = pair
            return f"[{lo}, {hi if hi is not None else 'inf'}]"

        lines = [
            f"cost: vcycles/token {fmt(self.token.vcycles)}, "
            f"emits/token {fmt(self.token.emits)}, "
            f"cleanup vcycles {fmt(self.cleanup.vcycles)}, "
            f"cleanup emits {fmt(self.cleanup.emits)} — "
            + ("terminates" if self.terminates
               else "NO termination proof")
        ]
        for loop in self.token.loops:
            if loop.bounded:
                via = f" via {loop.ranking}" if loop.ranking else ""
                lines.append(
                    f"  while [{loop.location}] ({loop.cond}): "
                    f"<= {loop.trips} trips/token "
                    f"({loop.states} states{via})"
                )
            else:
                lines.append(
                    f"  while [{loop.location}] ({loop.cond}): "
                    f"UNBOUNDED — {loop.reason}"
                )
        return "\n".join(lines)

    def __repr__(self):
        return (f"CostFacts(vcycles/token={self.token.vcycles}, "
                f"terminates={self.terminates})")


# ---------------------------------------------------------------------------
# Refinement contexts (hypothesis-pinned evaluators)
# ---------------------------------------------------------------------------


def _keep(analysis, node):
    """Pin a synthetic AST node for the analysis's lifetime.

    The engine's :class:`~repro.lang.prover.KeyTable` memoizes
    structural keys by ``id(node)``. The cost analysis mints thousands
    of short-lived synthetic nodes (phase pins, state pins); if one is
    garbage-collected, CPython may hand its ``id`` to the next synthetic
    node, which would then silently inherit the dead node's key and the
    wrong refinement. Holding every synthetic node on the analysis
    object keeps the ids unique for as long as the key table lives.
    """
    keep = getattr(analysis, "_cost_synthetic_nodes", None)
    if keep is None:
        keep = []
        analysis._cost_synthetic_nodes = keep
    keep.append(node)
    return node


class _Ctx:
    """A guard-refined evaluator under one hypothesis (phase pin, loop
    activity, state pin, case assignment), plus the decomposed literal
    polarities for identity-based condition lookup and the memo of
    conditions :func:`_truth` has decided under it."""

    __slots__ = ("evaluator", "literals", "truths")

    def __init__(self, evaluator, literals):
        self.evaluator = evaluator
        self.literals = literals
        self.truths = {}


def _make_ctx(analysis, terms):
    """Build a :class:`_Ctx` for a term conjunction, or ``None`` when
    the hypothesis is contradictory (the engine's site evaluator, with
    the literal table kept)."""
    facts = analysis._guard_facts(terms)
    if facts.contradictory:
        return None
    evaluator = analysis._checked_evaluator(terms, refinement_table(facts))
    if evaluator is None:
        return None
    return _Ctx(evaluator, dict(facts.literals))


#: :func:`_truth`'s memo entry for a condition that raised.
_UNREACHABLE = object()


def _unwrap(node):
    while isinstance(node, ast.WireRead):
        node = node.wire.value
    return node


def _truth(ctx, cond):
    """True/False when the condition is decided under ``ctx`` (literal
    identity first, then interval evaluation), ``None`` when open.
    Raises :class:`_Unreachable` when the hypothesis cannot evaluate
    the condition at all.

    Decided once per condition and context: the answer is a function
    of the two, so ``ctx.truths`` remembers it, an unreachable one
    included."""
    truth = ctx.truths.get(id(cond), _MISSING)
    if truth is _MISSING:
        try:
            truth = _decide(ctx, cond)
        except _Unreachable:
            truth = _UNREACHABLE
        ctx.truths[id(cond)] = truth
    if truth is _UNREACHABLE:
        raise _Unreachable
    return truth


def _decide(ctx, cond):
    node, negate = cond, False
    while True:
        polarity = ctx.literals.get(id(node))
        if polarity is not None:
            return bool(polarity) ^ negate
        if isinstance(node, ast.WireRead):
            node = node.wire.value
            continue
        if isinstance(node, ast.UnOp) and node.op == "lnot":
            negate = not negate
            node = node.operand
            continue
        break
    interval = ctx.evaluator.eval(node)
    if interval.is_const:
        return bool(interval.lo) ^ negate
    return None


def _fire_status(ctx, site):
    """``"must"``/``"may"``/``"no"``: whether the site's guard chain is
    decided true, open, or decided false under ``ctx``."""
    status = "must"
    for cond, polarity in site.guard:
        try:
            truth = _truth(ctx, cond)
        except _Unreachable:
            return "no"
        if truth is None:
            status = "may"
        elif truth != polarity:
            return "no"
    return status


def _values(ctx, expr, width):
    """Small set of values ``expr`` (truncated to ``width``) can take
    under ``ctx``, splitting undecided muxes per arm; ``None`` when the
    set is wider than :data:`VALUE_CAP`."""
    node = _unwrap(expr)
    if isinstance(node, ast.Slice) and node.lo == 0:
        # Low slice = truncation: recurse so mux unions survive it.
        inner = _values(ctx, node.operand, node.hi + 1)
        if inner is None:
            return None
        m = mask(width)
        return {value & m for value in inner}
    if isinstance(node, ast.Mux):
        try:
            truth = _truth(ctx, node.cond)
        except _Unreachable:
            return set()
        if truth is True:
            return _values(ctx, node.then, width)
        if truth is False:
            return _values(ctx, node.els, width)
        then = _values(ctx, node.then, width)
        if then is None:
            return None
        els = _values(ctx, node.els, width)
        if els is None:
            return None
        union = then | els
        return None if len(union) > VALUE_CAP else union
    try:
        interval = ctx.evaluator.eval(node)
    except _Unreachable:
        return set()
    if interval.hi - interval.lo >= VALUE_CAP:
        return None
    m = mask(width)
    return {value & m for value in range(interval.lo, interval.hi + 1)}


# ---------------------------------------------------------------------------
# Step classification (ranking-function ingredients)
# ---------------------------------------------------------------------------


class _Step:
    """How one firing assignment moves a candidate progress register:
    ``kind`` in (stay, inc, dec, other); ``strict`` means a provable
    nonzero step with no wrap; ``ring`` marks an exact constant step
    that may wrap (usable only by the ring-counter rule); ``geom`` is a
    right-shift amount for geometric decreases (``reg := reg >> c``
    strictly shrinks at most ``width // c + 1`` times)."""

    __slots__ = ("kind", "strict", "step", "ring_step", "geom")

    def __init__(self, kind, strict=False, step=0, ring_step=None,
                 geom=None):
        self.kind = kind
        self.strict = strict
        self.step = step
        self.ring_step = ring_step
        self.geom = geom

    def benign(self, direction):
        """Monotone-compatible with ``direction`` (never regresses)."""
        return self.kind == "stay" or (self.kind == direction
                                       and self.ring_step is None)


_STAY = _Step("stay")
_OTHER = _Step("other")


def _reg_iv(ctx, reg):
    """Refined interval of ``reg`` under ``ctx`` (keyed synthetically)."""
    analysis = ctx.evaluator._analysis
    return ctx.evaluator.eval(_keep(analysis, ast.RegRead(reg)))


def _classify_step(ctx, expr, reg):
    """Classify ``reg := expr`` as a ranking step under ``ctx``."""
    node = _unwrap(expr)
    if (isinstance(node, ast.Slice) and node.lo == 0
            and node.hi + 1 >= reg.width):
        # Truncation to at least the register's width is the same
        # truncation the assignment itself performs: transparent.
        node = _unwrap(node.operand)
    if isinstance(node, ast.RegRead) and node.reg is reg:
        return _STAY
    if isinstance(node, ast.Const):
        # Constant reload: a strict step when the current refined range
        # provably lies entirely above/below the constant.
        try:
            reg_iv = _reg_iv(ctx, reg)
        except _Unreachable:
            return _OTHER
        if reg_iv.is_const and reg_iv.lo == node.value:
            return _STAY
        if node.value < reg_iv.lo:
            return _Step("dec", strict=True, step=reg_iv.lo - node.value)
        if node.value > reg_iv.hi:
            return _Step("inc", strict=True, step=node.value - reg_iv.hi)
        return _OTHER
    if isinstance(node, ast.Mux):
        try:
            truth = _truth(ctx, node.cond)
        except _Unreachable:
            return _OTHER
        if truth is True:
            return _classify_step(ctx, node.then, reg)
        if truth is False:
            return _classify_step(ctx, node.els, reg)
        then = _classify_step(ctx, node.then, reg)
        els = _classify_step(ctx, node.els, reg)
        return _merge_steps(then, els)
    if isinstance(node, ast.BinOp) and node.op == "shr":
        lhs, rhs = _unwrap(node.lhs), _unwrap(node.rhs)
        if (isinstance(lhs, ast.RegRead) and lhs.reg is reg
                and isinstance(rhs, ast.Const) and rhs.value >= 1):
            # reg := reg >> c: strictly decreasing while reg >= 1, and
            # the bit length shrinks by c per strict step.
            try:
                reg_interval = ctx.evaluator.eval(node.lhs)
            except _Unreachable:
                return _OTHER
            return _Step("dec", strict=reg_interval.lo >= 1, step=1,
                         geom=rhs.value)
        return _OTHER
    if isinstance(node, ast.BinOp) and node.op in ("add", "sub"):
        lhs, rhs = _unwrap(node.lhs), _unwrap(node.rhs)
        operand = None
        if isinstance(lhs, ast.RegRead) and lhs.reg is reg:
            operand = node.rhs
        elif (node.op == "add" and isinstance(rhs, ast.RegRead)
              and rhs.reg is reg):
            operand = node.lhs
        if operand is None:
            return _OTHER
        try:
            step = ctx.evaluator.eval(operand)
            whole = ctx.evaluator.eval(node)
            reg_iv = ctx.evaluator.eval(
                node.lhs if operand is node.rhs else node.rhs
            )
        except _Unreachable:
            return _OTHER
        if node.op == "add":
            if whole.hi <= mask(reg.width):
                return _Step("inc", strict=step.lo >= 1, step=step.lo)
            if step.is_const:
                # Exact constant step that may wrap: ring counter only.
                return _Step("inc", strict=False, step=step.lo,
                             ring_step=step.lo)
            return _OTHER
        # sub: exact only when the minuend provably dominates.
        if reg_iv.lo >= step.hi:
            return _Step("dec", strict=step.lo >= 1, step=step.lo)
        return _OTHER
    return _OTHER


def _merge_steps(a, b):
    """Join of two mux-arm step classifications (weakest common)."""
    if a.kind == "stay" and b.kind == "stay":
        return _STAY
    for kind in ("inc", "dec"):
        kinds = {a.kind, b.kind}
        if kinds <= {kind, "stay"} and a.ring_step is None \
                and b.ring_step is None:
            moving = [s for s in (a, b) if s.kind == kind]
            geoms = [s.geom for s in moving]
            # The merge is geometric only if every moving arm is (a
            # geometric step is also a valid linear step of >= 1, but
            # not vice versa).
            geom = min(geoms) if all(g is not None for g in geoms) \
                else None
            return _Step(kind, strict=(a.strict and b.strict
                                       and "stay" not in kinds),
                         step=min(s.step for s in moving),
                         geom=geom)
    return _OTHER


# ---------------------------------------------------------------------------
# Per-loop trip analysis
# ---------------------------------------------------------------------------


class _Case:
    """One hypothesis over the undecided conditions at a state:
    ``exits`` means the state register provably leaves its value."""

    __slots__ = ("ctx", "exits")

    def __init__(self, ctx, exits):
        self.ctx = ctx
        self.exits = exits


class _StateInfo:
    """Everything derived for one abstract state of one loop.
    ``values`` is a tuple parallel to the analyzer's state registers —
    a single value for plain state graphs, a pair when a helper
    register is tracked in product."""

    __slots__ = ("values", "ctx0", "live", "cases", "bound")

    def __init__(self, values, ctx0):
        self.values = values
        self.ctx0 = ctx0
        self.live = []
        self.cases = []
        self.bound = None


def _levels_from_steps(decl, steps, ctx):
    """Max number of strict steps ``decl`` can take: linear steps are
    bounded by the refined range over the minimum step, geometric
    (shift) steps by the bit width over the minimum shift; a mix is
    bounded by the sum (each step is one kind or the other)."""
    linear = [s.step for s in steps if s.geom is None]
    geometric = [s.geom for s in steps if s.geom is not None]
    total = 0
    if linear:
        try:
            interval = _reg_iv(ctx, decl)
        except _Unreachable:
            return 1
        total += (interval.hi - interval.lo) // max(min(linear), 1) + 1
    if geometric:
        total += decl.width // max(min(geometric), 1) + 1
    return max(total, 1)


class _LoopAnalyzer:
    """Trip-bound analysis of one ``while`` under one phase pin."""

    def __init__(self, analysis, while_site, phase_terms, assign_index):
        self.analysis = analysis
        self.site = while_site
        self.stmt = while_site.stmt
        self.cond = self.stmt.cond
        self.phase_terms = phase_terms
        self.assign_index = assign_index
        self.location = while_site.location[:-len(".cond")]
        # Loop-activity assumption: enclosing guard chain, the loop
        # condition itself, and the phase pin.
        self.assumption = (tuple(while_site.guard)
                           + ((self.cond, True),) + tuple(phase_terms))

    def run(self):
        cond_text = pretty_expr(self.cond)
        actx = _make_ctx(self.analysis, self.assumption)
        if actx is None:
            return LoopBound(self.location, cond_text, 0,
                             reason="loop never active in this phase")
        reason = "loop condition has no trackable state register"
        singles = self._state_candidates()
        for reg in singles:
            outcome = self._try_state_regs(actx, (reg,))
            if isinstance(outcome, LoopBound):
                return outcome
            reason = outcome
        # Product refinement: pair the state register with one small
        # helper register assigned in the body. Pinning both makes a
        # wrapping helper counter (e.g. a 3-bit item index that one
        # state resets and others bump) part of the concrete state
        # graph, where its wrap is an ordinary edge instead of an
        # abstract step the ranking rules must reject.
        for reg in singles:
            for helper in self._helper_candidates(reg):
                outcome = self._try_state_regs(actx, (reg, helper))
                if isinstance(outcome, LoopBound):
                    return outcome
        return LoopBound(self.location, cond_text, None, reason=reason)

    # -- state register selection -------------------------------------------

    def _state_candidates(self):
        seen, candidates = set(), []
        for node in ast.walk_expr(self.cond):
            if isinstance(node, ast.RegRead) and id(node.reg) not in seen:
                seen.add(id(node.reg))
                candidates.append(node.reg)
        candidates.sort(key=lambda reg: reg.width)
        return candidates

    def _helper_candidates(self, reg):
        seen, helpers = set(), []
        for site in self._body_assign_sites():
            decl = site.stmt.reg
            if decl is reg or id(decl) in seen:
                continue
            seen.add(id(decl))
            if decl.width <= 4 and self._loop_sites(decl) is not None:
                helpers.append(decl)
        helpers.sort(key=lambda decl: decl.width)
        return helpers[:3]

    def _in_body(self, site):
        loop = site.loop
        while loop is not None and loop is not self.site:
            loop = loop.loop
        return loop is not None

    def _loop_sites(self, reg):
        """All in-loop assignment sites to ``reg`` anywhere in the
        program, or ``None`` when some site lies outside this loop's
        body (the register can then change while the loop is inactive,
        invalidating the state-graph argument)."""
        sites = self.assign_index.get(id(reg), ())
        if any(not self._in_body(site) for site in sites):
            return None
        return list(sites)

    # -- state graph ---------------------------------------------------------

    def _try_state_regs(self, actx, regs):
        cond_text = pretty_expr(self.cond)
        sites_per = []
        for reg in regs:
            sites = self._loop_sites(reg)
            if sites is None:
                return (f"state register {reg.name!r} is assigned "
                        "outside the loop body")
            sites_per.append(sites)
        ranges, total = [], 1
        for reg in regs:
            try:
                interval = actx.evaluator.eval(
                    _keep(self.analysis, ast.RegRead(reg))
                )
            except _Unreachable:
                return LoopBound(self.location, cond_text, 0,
                                 reason="loop never active in this phase")
            total *= interval.hi - interval.lo + 1
            if total > MAX_STATES:
                return (f"state registers ({self._graph_label(regs)}) "
                        f"span {total}+ values (cap {MAX_STATES})")
            ranges.append(range(interval.lo, interval.hi + 1))
        infos = {}
        for values in _iter_product(*ranges):
            ctx = self._pin_ctx(regs, values)
            if ctx is not None:
                infos[values] = _StateInfo(values, ctx)
        if not infos:
            return LoopBound(self.location, cond_text, 0, states=0,
                             reason="loop never active in this phase")
        edges, rankings = {}, []
        for values, info in infos.items():
            self._state_cases(regs, sites_per, info)
            # Successor edges are computed per case and unioned: inside
            # one case the mux/guard conditions are decided, so the
            # per-register next values stay correlated (an arm that
            # moves two registers at once yields one edge, not the
            # cross product of both moves).
            succ = set()
            for case in info.cases:
                case_succ = self._successors(case.ctx, regs, sites_per,
                                             values)
                if case_succ is None:
                    succ = None
                    break
                succ |= case_succ
            if succ is None:
                if len(infos) > 1:
                    return (f"assignments to ({self._graph_label(regs)})"
                            " are too wide to track state transitions")
                succ = set()
            edges[values] = {u for u in succ
                             if u in infos and u != values}
            info.bound = self._state_bound(regs, sites_per, info,
                                           rankings)
            if info.bound is None:
                return (f"no ranking function proves progress at "
                        f"{self._state_label(regs, values)}")
        # Condense strongly connected components: singleton components
        # are weighted by their per-state bound, multi-state components
        # need a cross-state ranking (or the loop is unbounded).
        comps = _tarjan_sccs(infos, edges)
        comp_of = {}
        weights = []
        for index, comp in enumerate(comps):
            for values in comp:
                comp_of[values] = index
            if len(comp) == 1:
                weights.append(infos[comp[0]].bound)
                continue
            weight = self._scc_bound(comp, infos, regs, sites_per, actx,
                                     rankings)
            if weight is None:
                return (f"states {self._fmt_states(regs, comp)} of "
                        f"{self._graph_label(regs)} form a cycle with "
                        "no cross-state ranking")
            weights.append(weight)
        # Longest path over the condensation DAG. Tarjan emits
        # components in reverse topological order, so every successor
        # component is already scored.
        dp = [0] * len(comps)
        for index, comp in enumerate(comps):
            best = 0
            for values in comp:
                for succ in edges[values]:
                    target = comp_of[succ]
                    if target != index:
                        best = max(best, dp[target])
            dp[index] = weights[index] + best
        trips = max(dp)
        ranking = f"state graph over {self._graph_label(regs)}"
        if rankings:
            # Collapse per-state ranking entries by descriptor: 96
            # states ranked by [acc_bits-] read as one item, not 96.
            counts = {}
            for entry in rankings:
                head = entry.split(" at ", 1)[0]
                counts[head] = counts.get(head, 0) + 1
            ranking += "; ranking " + "; ".join(
                f"{head} (x{count})" if count > 1 else head
                for head, count in sorted(counts.items())
            )
        return LoopBound(self.location, cond_text, trips,
                         states=len(infos), ranking=ranking)

    @staticmethod
    def _graph_label(regs):
        return " x ".join(f"{reg.name!r}" for reg in regs)

    @staticmethod
    def _state_label(regs, values):
        return ", ".join(f"{reg.name} == {value}"
                         for reg, value in zip(regs, values))

    @staticmethod
    def _fmt_states(regs, comp):
        if len(regs) == 1:
            return str(sorted(values[0] for values in comp))
        return str(sorted(comp))

    def _pin_ctx(self, regs, values, extra=()):
        pins = tuple(
            (_keep(self.analysis,
                   ast.BinOp("eq", ast.RegRead(reg),
                             ast.Const(value, reg.width))), True)
            for reg, value in zip(regs, values)
        )
        return _make_ctx(self.analysis,
                         self.assumption + pins + tuple(extra))

    def _successors(self, ctx, regs, sites_per, values):
        per_reg = []
        for reg, sites, value in zip(regs, sites_per, values):
            nxt, any_must = set(), False
            for site in sites:
                status = _fire_status(ctx, site)
                if status == "no":
                    continue
                vals = _values(ctx, site.stmt.value, reg.width)
                if vals is None:
                    return None
                nxt |= vals
                if status == "must":
                    any_must = True
            if not any_must:
                # No assignment has to fire: the register may keep its
                # pinned value into the next cycle.
                nxt.add(value)
            if len(nxt) > VALUE_CAP:
                return None
            per_reg.append(nxt)
        # Cross product of the per-register next-value sets: ignores
        # correlations between the registers, which only adds edges —
        # a sound over-approximation of the transition relation.
        return set(_iter_product(*per_reg))

    # -- per-state consecutive-cycle bound ----------------------------------

    def _state_cases(self, regs, sites_per, info):
        """Populate ``info.live``/``info.cases`` by enumerating the
        undecided conditions at the state."""
        info.live = [site for site in self._body_assign_sites()
                     if _fire_status(info.ctx0, site) != "no"]
        case_conds = self._case_conds(info.ctx0, info.live)
        for bits in range(1 << len(case_conds)):
            terms = tuple(
                (cond, bool(bits >> i & 1))
                for i, cond in enumerate(case_conds)
            )
            ctx = self._pin_ctx(regs, info.values, terms)
            if ctx is None:
                continue
            info.cases.append(_Case(
                ctx, self._case_exits(ctx, regs, sites_per, info.values)
            ))

    def _body_assign_sites(self):
        sites = getattr(self, "_body_sites", None)
        if sites is None:
            sites = [
                site for site in self.analysis.sites
                if site.kind == "reg-assign" and self._in_body(site)
            ]
            self._body_sites = sites
        return sites

    def _state_bound(self, regs, sites_per, info, rankings):
        """Max consecutive active cycles pinned at ``info.values``, or
        ``None`` when no ranking function proves progress."""
        cases = [case.ctx for case in info.cases if not case.exits]
        if not cases:
            return 1
        return self._rank_cases(regs, sites_per, info.values, info.ctx0,
                                cases, info.live, rankings)

    def _case_conds(self, ctx0, live_sites):
        conds, seen = [], set()

        def want(cond):
            if id(cond) in seen or len(conds) >= MAX_CASE_CONDS:
                return
            seen.add(id(cond))
            try:
                if _truth(ctx0, cond) is None:
                    conds.append(cond)
            except _Unreachable:
                pass

        def muxes(expr):
            node = _unwrap(expr)
            if isinstance(node, ast.Slice) and node.lo == 0:
                node = _unwrap(node.operand)
            if isinstance(node, ast.Mux):
                want(node.cond)
                muxes(node.then)
                muxes(node.els)

        for site in live_sites:
            for cond, _pol in site.guard:
                want(cond)
            muxes(site.stmt.value)
        return conds

    def _case_exits(self, ctx, regs, sites_per, values):
        """Whether this case provably moves the state off ``values``:
        some state register has a firing assignment that excludes its
        pinned value and no assignment can restore it."""
        for reg, sites, value in zip(regs, sites_per, values):
            exits = can_stay = False
            for site in sites:
                status = _fire_status(ctx, site)
                if status == "no":
                    continue
                vals = _values(ctx, site.stmt.value, reg.width)
                if vals is None or value in vals:
                    can_stay = True
                elif status == "must":
                    exits = True
            if exits and not can_stay:
                return True
        return False

    def _rank_cases(self, regs, sites_per, values, ctx0, cases, live,
                    rankings):
        """Lexicographic ranking over candidate progress registers: every
        non-exit case must strictly step some level while lower levels
        stay monotone. Falls back to the ring-counter rule."""
        by_reg = {}
        for site in live:
            decl = site.stmt.reg
            if all(decl is not reg for reg in regs):
                by_reg.setdefault(id(decl), (decl, []))[1].append(site)
        candidates = []
        for decl, sites in by_reg.values():
            if self._loop_sites(decl) is None:
                continue
            candidates.append((decl, sites))
        candidates.sort(key=lambda item: item[0].width)
        candidates = candidates[:4]

        # moves[case_index][id(reg)] = list of (status, step) per site.
        moves = []
        for ctx in cases:
            per_reg = {}
            for decl, sites in candidates:
                entries = []
                for site in sites:
                    status = _fire_status(ctx, site)
                    if status == "no":
                        continue
                    entries.append(
                        (status, _classify_step(ctx, site.stmt.value,
                                                decl))
                    )
                per_reg[id(decl)] = entries
            moves.append(per_reg)

        def benign(case, decl, direction):
            return all(step.benign(direction)
                       for _status, step in moves[case][id(decl)])

        def strict(case, decl, direction):
            return any(
                status == "must" and step.strict
                and step.kind == direction
                for status, step in moves[case][id(decl)]
            ) and benign(case, decl, direction)

        def levels(decl, covered, direction):
            steps = [
                step
                for case in covered
                for status, step in moves[case][id(decl)]
                if status == "must" and step.strict
                and step.kind == direction
            ]
            return _levels_from_steps(decl, steps, ctx0)

        def search(remaining, available):
            if not remaining:
                return 1, []
            for index, (decl, _sites) in enumerate(available):
                for direction in ("inc", "dec"):
                    covered = {case for case in remaining
                               if strict(case, decl, direction)}
                    if not covered:
                        continue
                    if not all(benign(case, decl, direction)
                               for case in remaining - covered):
                        continue
                    rest = search(remaining - covered,
                                  available[:index]
                                  + available[index + 1:])
                    if rest is None:
                        continue
                    bound, used = rest
                    total = bound * levels(decl, covered, direction)
                    if total > MAX_SELF_BOUND:
                        continue
                    arrow = "+" if direction == "inc" else "-"
                    return total, [f"{decl.name}{arrow}"] + used
            return None

        found = search(set(range(len(cases))), candidates)
        if found is not None:
            bound, used = found
            label = ",".join(f"{reg.name}={v}"
                             for reg, v in zip(regs, values))
            rankings.append(f"[{', '.join(used)}] at {label}")
            return bound
        return self._ring_bound(regs, sites_per, values, cases, moves,
                                candidates, rankings)

    def _ring_bound(self, regs, sites_per, values, cases, moves,
                    candidates, rankings):
        """Wrapping unit-ish counter rule: if every non-exit case steps
        one register by the same exact odd constant (mod 2**w) and some
        pinned counter value forces an exit, the counter must reach that
        value within 2**w cycles."""
        for decl, _sites in candidates:
            if (1 << decl.width) > MAX_SELF_BOUND:
                continue
            steps = set()
            ok = True
            for case in range(len(cases)):
                entries = moves[case][id(decl)]
                musts = [step for status, step in entries
                         if status == "must"]
                if (len(entries) != 1 or len(musts) != 1
                        or musts[0].kind != "inc"):
                    ok = False
                    break
                step = musts[0]
                steps.add(step.ring_step if step.ring_step is not None
                          else (step.step if step.strict else None))
            if not ok or len(steps) != 1:
                continue
            step = steps.pop()
            if step is None or step % 2 == 0:
                continue
            if self._forced_exit_value(regs, sites_per, values, decl):
                label = ",".join(f"{reg.name}={v}"
                                 for reg, v in zip(regs, values))
                rankings.append(
                    f"[ring {decl.name} mod 2^{decl.width}] at {label}"
                )
                return 1 << decl.width
        return None

    # -- cross-state (SCC) ranking -------------------------------------------

    def _scc_bound(self, comp, infos, regs, sites_per, actx, rankings):
        """Total active-cycle bound for a multi-state strongly connected
        component, or ``None``.

        A component is bounded when some progress register ``p`` is
        monotone in one direction across *every* case of *every* state
        in the component, and the cases with no provable strict step
        form an acyclic transition graph inside the component. Then
        between two strict steps the system walks that DAG at most once,
        spending at most the per-state bound in each state, so the total
        is ``levels(p) * sum(per-state bounds)``.
        """
        inner = sum(infos[values].bound for values in comp)
        seen, decls = set(), []
        for values in comp:
            for site in infos[values].live:
                decl = site.stmt.reg
                if any(decl is reg for reg in regs) or id(decl) in seen:
                    continue
                seen.add(id(decl))
                if self._loop_sites(decl) is not None:
                    decls.append(decl)
        decls.sort(key=lambda decl: decl.width)
        for decl in decls[:4]:
            for direction in ("inc", "dec"):
                levels = self._scc_ranking_levels(
                    comp, infos, regs, sites_per, decl, direction, actx
                )
                if levels is None:
                    continue
                bound = levels * inner
                if bound > MAX_SELF_BOUND << 8:
                    continue
                arrow = "+" if direction == "inc" else "-"
                rankings.append(
                    f"[scc {decl.name}{arrow}] over "
                    f"{self._graph_label(regs)} states "
                    f"{self._fmt_states(regs, comp)}"
                )
                return bound
        return None

    def _scc_ranking_levels(self, comp, infos, regs, sites_per, decl,
                            direction, actx):
        """Levels of ``decl`` if it ranks the component, else ``None``."""
        compset = set(comp)
        p_sites = self._loop_sites(decl)
        nonprog = {values: set() for values in comp}
        strict_steps = []
        progressed = False
        for values in comp:
            for case in infos[values].cases:
                entries = []
                for site in p_sites:
                    status = _fire_status(case.ctx, site)
                    if status == "no":
                        continue
                    entries.append(
                        (status,
                         _classify_step(case.ctx, site.stmt.value, decl))
                    )
                if not all(step.benign(direction)
                           for _status, step in entries):
                    return None
                strict = [
                    step for status, step in entries
                    if status == "must" and step.strict
                    and step.kind == direction
                ]
                if strict:
                    strict_steps.extend(strict)
                    progressed = True
                    continue
                # Non-progress case: its internal transitions feed the
                # must-be-acyclic graph (self-stays are covered by the
                # per-state bound).
                succ = self._successors(case.ctx, regs, sites_per,
                                        values)
                if succ is None:
                    return None
                nonprog[values] |= (succ & compset) - {values}
        if not progressed:
            return None
        if _has_cycle(comp, nonprog):
            return None
        return _levels_from_steps(decl, strict_steps, actx)

    def _exit_value_candidates(self, counter):
        """Constants the loop compares ``counter`` against (plus their
        neighbors, for strict comparisons) — the only plausible forced-
        exit pins, so wide ring counters need no exhaustive scan."""
        exprs = [self.cond]
        for site in self._body_assign_sites():
            for cond, _polarity in site.guard:
                exprs.append(cond)
            exprs.append(site.stmt.value)
        found = set()
        top = mask(counter.width)
        for expr in exprs:
            for node in ast.walk_expr(expr):
                if not (isinstance(node, ast.BinOp)
                        and node.op in _CMP_OPS):
                    continue
                lhs, rhs = _unwrap(node.lhs), _unwrap(node.rhs)
                const = None
                if (isinstance(lhs, ast.RegRead) and lhs.reg is counter
                        and isinstance(rhs, ast.Const)):
                    const = rhs.value
                elif (isinstance(rhs, ast.RegRead)
                      and rhs.reg is counter
                      and isinstance(lhs, ast.Const)):
                    const = lhs.value
                if const is None:
                    continue
                for value in (const - 1, const, const + 1):
                    if 0 <= value <= top:
                        found.add(value)
        return sorted(found)

    def _forced_exit_value(self, regs, sites_per, values, counter):
        candidates = self._exit_value_candidates(counter)
        scan = (range(1 << counter.width)
                if (1 << counter.width) <= MAX_RING_SCAN else ())
        tried = set()
        for u in [*candidates, *scan]:
            if u in tried:
                continue
            tried.add(u)
            pin = (_keep(self.analysis,
                         ast.BinOp("eq", ast.RegRead(counter),
                                   ast.Const(u, counter.width))), True)
            ctx = self._pin_ctx(regs, values, (pin,))
            if ctx is None:
                continue
            if self._case_exits(ctx, regs, sites_per, values):
                return True
        return False


def _tarjan_sccs(nodes, edges):
    """Strongly connected components (iterative Tarjan), emitted in
    reverse topological order of the condensation."""
    index_of, low, on_stack = {}, {}, set()
    stack, comps = [], []
    counter = [0]

    for root in sorted(nodes):
        if root in index_of:
            continue
        work = [(root, iter(sorted(edges[root])))]
        index_of[root] = low[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, children = work[-1]
            advanced = False
            for child in children:
                if child not in index_of:
                    index_of[child] = low[child] = counter[0]
                    counter[0] += 1
                    stack.append(child)
                    on_stack.add(child)
                    work.append((child, iter(sorted(edges[child]))))
                    advanced = True
                    break
                if child in on_stack:
                    low[node] = min(low[node], index_of[child])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index_of[node]:
                comp = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    comp.append(member)
                    if member == node:
                        break
                comps.append(comp)
    return comps


def _has_cycle(nodes, edges):
    """Whether the directed graph has a cycle through distinct nodes
    (self-edges are the caller's concern and never present here)."""
    WHITE, GRAY, BLACK = 0, 1, 2
    color = dict.fromkeys(nodes, WHITE)
    for root in nodes:
        if color[root] != WHITE:
            continue
        stack = [(root, iter(sorted(edges[root])))]
        color[root] = GRAY
        while stack:
            node, children = stack[-1]
            advanced = False
            for child in children:
                if color[child] == GRAY:
                    return True
                if color[child] == WHITE:
                    color[child] = GRAY
                    stack.append((child, iter(sorted(edges[child]))))
                    advanced = True
                    break
            if not advanced:
                color[node] = BLACK
                stack.pop()
    return False


# ---------------------------------------------------------------------------
# Whole-program composition
# ---------------------------------------------------------------------------


def _phase_terms(analysis, finished):
    """Synthetic pin terms selecting one phase: ``stream_finished`` is
    a known constant, and the cleanup phase's input token is the dummy
    0 every engine feeds (:meth:`FleetSimulator.finish_stream`)."""
    program = analysis.program
    terms = [(_keep(analysis,
                    ast.BinOp("eq", ast.StreamFinished(),
                              ast.Const(finished, 1))), True)]
    if finished:
        terms.append((_keep(analysis, ast.BinOp(
            "eq", ast.InputToken(program.input_width),
            ast.Const(0, program.input_width))), True))
    return tuple(terms)


def _analyze_phase(analysis, finished):
    phase = _phase_terms(analysis, finished)
    assign_index = {}
    for site in analysis.sites:
        if site.kind == "reg-assign" and site.in_loop:
            assign_index.setdefault(id(site.stmt.reg), []).append(site)
    bounds = {
        site: _LoopAnalyzer(analysis, site, phase, assign_index).run()
        for site in analysis.sites if site.kind == "while-cond"
    }
    loops = list(bounds.values())
    vcycles_hi = 1
    for loop in loops:
        if loop.trips is None:
            vcycles_hi = None
            break
        vcycles_hi += loop.trips
    emits = _phase_emits(analysis, phase, bounds)
    return PhaseCost((1, vcycles_hi), emits, loops)


def _phase_emits(analysis, phase, bounds):
    """``(lo, hi)`` emits of one phase; ``bounds`` maps each
    ``while``-condition site to its :class:`LoopBound`."""
    # Decidedness must be judged under the *phase-only* refinement: the
    # per-site ctx below assumes the site's own guard, under which every
    # guard term is trivially true.
    phase_ctx = _make_ctx(analysis, phase)
    lo = hi = 0
    for site in analysis.sites:
        if site.kind != "emit":
            continue
        terms = analysis._effective_terms(site) + phase
        ctx = _make_ctx(analysis, terms)
        if ctx is None:
            continue
        if site.loop is not None:
            # Innermost enclosing while: the emit fires at most once
            # per active cycle of that loop.
            trips = bounds[site.loop].trips
            if trips is None:
                hi = None
                break
            hi += trips
        else:
            hi += 1
            definite = phase_ctx is not None
            if definite:
                for cond, polarity in terms:
                    try:
                        if _truth(phase_ctx, cond) is not polarity:
                            definite = False
                            break
                    except _Unreachable:
                        definite = False
                        break
            if definite:
                lo += 1
    return (lo, hi)


def build_cost(analysis):
    """Derive :class:`CostFacts` from a settled
    :class:`~repro.lint.engine.Analysis`."""
    return CostFacts(
        token=_analyze_phase(analysis, finished=0),
        cleanup=_analyze_phase(analysis, finished=1),
    )


__all__ = [
    "CostFacts",
    "LoopBound",
    "PhaseCost",
    "build_cost",
]
