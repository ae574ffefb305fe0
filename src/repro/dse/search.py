"""The search loop: seeded grid + successive-halving refinement.

Two phases, both deterministic in (app, device, seed, budget):

1. **Coarse grid** over memory layout (beats per burst), burst-register
   depth, and PU count, at a short simulation horizon. Stall
   attribution from :mod:`repro.obs` prunes provably unhelpful
   directions — when a layout's attribution shows zero
   ``no_burst_register`` stalls, deeper register files cannot raise
   throughput and only cost area, so they are skipped; a layout whose
   throughput already equals the replicas' theoretical rate is
   compute-bound, so longer bursts are skipped.
2. **Refinement** of the best third of the grid at a long horizon
   (successive halving: survivors earn simulation cycles), expanding
   the channel-count and serve-batch axes around the leaders to spread
   the Pareto frontier.

The winner is the highest-throughput feasible refined point whose
binding-resource area fraction does not exceed the hand-picked
baseline's — the search may spend the paper's area budget, not grow it.
"""

from ..obs.attribution import NO_BURST_REGISTER
from ..telemetry import counter, histogram
from .cache import EvalCache, cache_key
from .evaluate import PointEval, evaluate_point
from .pareto import pareto_frontier
from .space import (
    BURST_REGISTERS,
    CHANNEL_COUNTS,
    LAYOUT_BEATS,
    PU_FRACTIONS,
    SERVE_SLOTS,
    DesignPoint,
)

#: Simulation horizons (virtual cycles): coarse grid vs refinement,
#: quick mode vs full.
COARSE_CYCLES = {"quick": 1_500, "full": 2_500}
FINE_CYCLES = {"quick": 4_000, "full": 8_000}
#: Streams in the analytic latency workload.
LATENCY_STREAMS = 128
#: Relative slack for "throughput equals the theoretical rate".
_COMPUTE_BOUND_SLACK = 0.999

_POINTS_EVALUATED = counter(
    "fleet_dse_points_evaluated_total",
    "Design points evaluated fresh (cache misses) by the DSE search",
    ("app",),
)
_POINTS_PRUNED = counter(
    "fleet_dse_points_pruned_total",
    "Design points skipped by attribution-based pruning",
    ("app", "rule"),
)
_CACHE_HITS = counter(
    "fleet_dse_cache_hits_total",
    "DSE evaluation-cache hits",
    ("app",),
)
_EVAL_SECONDS = histogram(
    "fleet_dse_eval_seconds",
    "Wall-clock seconds per fresh design-point evaluation",
    ("app",),
)


class DseResult:
    """Everything one search produced."""

    def __init__(self, *, app, fingerprint, device, baseline, best,
                 frontier, evaluated, cache_hits, pruned, seed, budget,
                 budget_exhausted, mode):
        self.app = app
        self.fingerprint = fingerprint
        self.device = device
        self.baseline = baseline
        self.best = best
        self.frontier = frontier
        self.evaluated = evaluated
        self.cache_hits = cache_hits
        self.pruned = pruned
        self.seed = seed
        self.budget = budget
        self.budget_exhausted = budget_exhausted
        self.mode = mode

    @property
    def speedup(self):
        """Tuned throughput over the hand-picked baseline's."""
        return (
            self.best.gbps / self.baseline.gbps
            if self.baseline.gbps else 0.0
        )

    def __repr__(self):
        return (
            f"DseResult({self.app!r}, best={self.best.gbps:.2f} GB/s, "
            f"{self.speedup:.3f}x baseline, "
            f"|frontier|={len(self.frontier)})"
        )


class _Searcher:
    """One search run's mutable state."""

    def __init__(self, model, device, *, seed, budget, cache, mode):
        self.model = model
        self.device = device
        self.seed = seed
        self.budget = budget
        self.cache = cache
        self.mode = mode
        self.fingerprint = model.fingerprint()
        self.evaluated = 0
        self.cache_hits = 0
        self.pruned = 0
        self.budget_exhausted = False
        self.fine_evals = {}  # point.key() -> PointEval at fine horizon

    def evaluate(self, point, cycles, *, fine=False):
        """Evaluate through the cache; ``None`` once the budget is
        spent (fresh evaluations only — hits are free)."""
        key = cache_key(
            self.fingerprint, self.device, point,
            sim_cycles=cycles, seed=self.seed,
            latency_streams=LATENCY_STREAMS,
        )
        data = self.cache.get(key)
        if data is not None:
            self.cache_hits += 1
            _CACHE_HITS.inc(app=self.model.name)
            ev = PointEval.from_dict(point, data)
        else:
            if self.budget is not None and self.evaluated >= self.budget:
                self.budget_exhausted = True
                return None
            import time

            from ..telemetry import enabled

            start = time.perf_counter() if enabled() else None
            ev = evaluate_point(
                self.model, point, device=self.device,
                sim_cycles=cycles, seed=self.seed,
                latency_streams=LATENCY_STREAMS,
            )
            if start is not None:
                _EVAL_SECONDS.observe(
                    time.perf_counter() - start, app=self.model.name
                )
            self.cache.put(key, ev.as_dict())
            self.evaluated += 1
            _POINTS_EVALUATED.inc(app=self.model.name)
        if fine:
            self.fine_evals[point.key()] = ev
        return ev

    def prune(self, rule, n):
        if n > 0:
            self.pruned += n
            _POINTS_PRUNED.inc(n, app=self.model.name, rule=rule)

    # -- phase 1: coarse grid ---------------------------------------------
    def coarse_grid(self):
        cycles = COARSE_CYCLES[self.mode]
        evals = []
        for bi, beats in enumerate(LAYOUT_BEATS):
            layout_best = None
            for ri, r in enumerate(BURST_REGISTERS):
                point = DesignPoint(
                    burst_registers=r, layout_beats=beats,
                    channels=self.device.channels,
                )
                ev = self.evaluate(point, cycles)
                if ev is None:
                    return evals
                evals.append(ev)
                if layout_best is None or ev.gbps > layout_best.gbps:
                    layout_best = ev
                attr = ev.attribution or {}
                if not attr.get(NO_BURST_REGISTER, 0):
                    # No cycle was ever lost waiting for a burst
                    # register: deeper files are pure area.
                    self.prune(
                        "no_burst_register_stalls",
                        len(BURST_REGISTERS) - ri - 1,
                    )
                    break
            if layout_best is not None and (
                layout_best.gbps
                >= _COMPUTE_BOUND_SLACK * layout_best.theoretical_gbps
            ):
                # The PUs, not the memory system, bound this app:
                # longer bursts cannot add throughput.
                remaining = len(LAYOUT_BEATS) - bi - 1
                self.prune(
                    "compute_bound_layout",
                    remaining * len(BURST_REGISTERS),
                )
                break
        evals.extend(self.pu_sweep(evals, cycles))
        return evals

    def pu_sweep(self, grid, cycles):
        """Reduced-PU variants of the best grid layouts: memory-bound
        layouts keep their throughput at a fraction of the replicas
        (area for free); compute-bound ones scale down linearly, so
        only a single area-tradeoff sample survives the prune."""
        leaders = sorted(
            (ev for ev in grid if ev.feasible),
            key=lambda ev: (-ev.gbps, ev.point.key()),
        )[:2]
        out = []
        for leader in leaders:
            compute_bound = (
                leader.gbps
                >= _COMPUTE_BOUND_SLACK * leader.theoretical_gbps
            )
            fracs = [f for f in PU_FRACTIONS if f < 1.0]
            if compute_bound:
                self.prune("compute_bound_pus", len(fracs) - 1)
                fracs = [0.5]
            for frac in fracs:
                count = max(
                    leader.point.channels,
                    int(leader.max_pu_count * frac),
                )
                ev = self.evaluate(
                    leader.point.replace(pu_count=count), cycles
                )
                if ev is None:
                    return out
                out.append(ev)
        return out

    # -- phase 2: refinement ----------------------------------------------
    def refine(self, grid):
        cycles = FINE_CYCLES[self.mode]
        survivors = sorted(
            (ev for ev in grid if ev.feasible),
            key=lambda ev: (-ev.gbps, ev.point.key()),
        )
        keep = max(2, len(survivors) // 3)
        refined = []
        for ev in survivors[:keep]:
            fine = self.evaluate(ev.point, cycles, fine=True)
            if fine is None:
                return refined
            refined.append(fine)
        if not refined:
            return refined
        best = min(refined, key=lambda ev: (-ev.gbps, ev.point.key()))
        for ch in CHANNEL_COUNTS:
            if ch == best.point.channels or ch > self.device.channels:
                continue
            ev = self.evaluate(
                best.point.replace(channels=ch, pu_count=None),
                cycles, fine=True,
            )
            if ev is None:
                return refined
            refined.append(ev)
        for leader in refined[:2]:
            for slots in SERVE_SLOTS:
                if slots == leader.point.serve_slots:
                    continue
                ev = self.evaluate(
                    leader.point.replace(serve_slots=slots),
                    cycles, fine=True,
                )
                if ev is None:
                    return refined
                refined.append(ev)
        return refined

    def run(self):
        # The baseline goes first: it anchors the area budget the
        # winner must respect, and under an evaluation budget it must
        # land before the grid can spend the allowance.
        baseline = self.evaluate(
            DesignPoint.baseline(self.device),
            FINE_CYCLES[self.mode], fine=True,
        )
        if baseline is None:
            raise RuntimeError(
                f"budget={self.budget} is too small to evaluate even the "
                "baseline configuration (it needs at least 1)"
            )
        grid = self.coarse_grid()
        self.refine(grid)
        candidates = [
            ev for ev in self.fine_evals.values()
            if ev.feasible and ev.area_frac <= baseline.area_frac + 1e-9
        ]
        best = min(
            candidates or [baseline],
            key=lambda ev: (
                -ev.gbps, ev.area_frac, ev.p99_ms, ev.point.key()
            ),
        )
        frontier = pareto_frontier(self.fine_evals.values())
        return DseResult(
            app=self.model.name,
            fingerprint=self.fingerprint,
            device=self.device,
            baseline=baseline,
            best=best,
            frontier=frontier,
            evaluated=self.evaluated,
            cache_hits=self.cache_hits,
            pruned=self.pruned,
            seed=self.seed,
            budget=self.budget,
            budget_exhausted=self.budget_exhausted,
            mode=self.mode,
        )


def search(model, *, device, seed=0, budget=None, cache=None,
           quick=False):
    """Explore the design space for ``model``'s app on ``device``.

    Deterministic in its arguments: the same call returns the same
    :class:`DseResult` (and renders byte-identically) every time.
    ``budget`` caps fresh evaluations (cache hits are free); ``cache``
    defaults to a fresh in-memory :class:`EvalCache`.
    """
    searcher = _Searcher(
        model, device, seed=seed, budget=budget,
        cache=cache if cache is not None else EvalCache(),
        mode="quick" if quick else "full",
    )
    return searcher.run()
