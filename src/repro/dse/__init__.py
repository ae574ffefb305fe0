"""Automated design-space exploration over the Fleet system models.

The paper fixes one configuration by hand (1024-bit bursts, ``r = 16``
burst registers, four channels, maximal PU count — Sections 5 and 7.2).
This package searches that space instead: given an application and a
device, it explores PU count, burst-register depth, memory layout
(beats per burst), channel mapping, and serve batch size, evaluating
candidates with the same fast engines and event-driven memory
simulator the figures use, pruning with stall attribution from
:mod:`repro.obs`, and reporting a Pareto frontier over (throughput,
area, p99 latency).

Entry points:

* :func:`run_dse` / ``python -m repro.dse --app bloom_filter`` — one
  search, deterministic byte-identical report;
* :data:`repro.dse.tuned.TUNED` — the committed search output the
  serving runtime (:meth:`repro.serve.ServeConfig.from_dse`) and the
  tuned figure mode consume;
* :class:`EvalCache` — content-addressed evaluation store (a cache
  directory, ``--cache DIR`` on the command line, persists it across
  processes).

See ``docs/dse.md``.
"""

from .cache import MODEL_VERSION, EvalCache, cache_key
from .evaluate import AppModel, PointEval, evaluate_point
from .latency import (
    certified_p99_latency_ms,
    latency_samples_ms,
    p99_latency_ms,
)
from .pareto import dominates, pareto_frontier
from .report import format_dse_report, render_dse_json
from .search import DseResult, search
from .space import DesignPoint
from .tuned import TUNED, tuned_point, tuned_serve_slots


def run_dse(app, *, device=None, seed=0, budget=None, cache=None,
            quick=False):
    """Search the design space for catalog app ``app`` — the one-call
    form: builds the :class:`AppModel` from the benchmark catalog and
    runs :func:`search` on ``device`` (default: the Amazon F1)."""
    from ..bench.catalog import catalog
    from ..system import AMAZON_F1

    specs = catalog()
    if app not in specs:
        raise KeyError(
            f"unknown app {app!r}: choose from {', '.join(sorted(specs))}"
        )
    model = AppModel.from_spec(specs[app])
    return search(
        model, device=device or AMAZON_F1, seed=seed, budget=budget,
        cache=cache, quick=quick,
    )


__all__ = [
    "AppModel",
    "DesignPoint",
    "DseResult",
    "EvalCache",
    "MODEL_VERSION",
    "PointEval",
    "TUNED",
    "cache_key",
    "dominates",
    "evaluate_point",
    "format_dse_report",
    "certified_p99_latency_ms",
    "latency_samples_ms",
    "p99_latency_ms",
    "pareto_frontier",
    "render_dse_json",
    "run_dse",
    "search",
    "tuned_point",
    "tuned_serve_slots",
]
