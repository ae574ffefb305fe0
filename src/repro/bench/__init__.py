"""Workload generators, experiment harnesses, and paper-style reporting.

The re-exports below load on first use (a module ``__getattr__``):
importing one light submodule, as serving does with
:mod:`repro.bench.workloads`, does not load the harnesses and the ISA
baselines they run. ``catalog`` is not re-exported: it names both the
submodule and its function, so import it as ``from
repro.bench.catalog import catalog``.
"""

from importlib import import_module

#: re-exported name -> the submodule defining it
_EXPORTS = {
    "AppSpec": "catalog",
    "Figure7Row": "harness",
    "run_figure7": "harness",
    "run_figure9": "harness",
    "run_sec73_memory": "harness",
    "count_source_lines": "loc",
    "figure8_rows": "loc",
    "run_obs_overhead": "perf_regression",
    "run_perf_regression": "perf_regression",
    "format_dse_comparison": "dse_perf",
    "run_dse_comparison": "dse_perf",
    "format_serve_comparison": "serve_perf",
    "run_serve_comparison": "serve_perf",
    "PAPER_FIGURE7": "report",
    "PAPER_FIGURE8": "report",
    "PAPER_FIGURE9": "report",
    "format_figure7": "report",
    "format_figure8": "report",
    "format_figure9": "report",
    "format_figure9_attribution": "report",
    "format_perf": "report",
    "render_perf_json": "report",
}


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        )
    return getattr(import_module(f"{__name__}.{module}"), name)


__all__ = sorted(_EXPORTS)
