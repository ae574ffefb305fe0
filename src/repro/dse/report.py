"""Rendering search results — deterministically.

Reports carry no wall-clock timestamps and format every float at fixed
precision, so the same search renders byte-identically run after run
(the CLI's determinism contract; the selftest diffs two renders).
"""

import json

from ..obs.attribution import CATEGORIES


def _point_cell(ev):
    p = ev.point
    return (
        f"pus={ev.pu_count} r={p.burst_registers} "
        f"beats={p.layout_beats} ch={p.channels} slots={p.serve_slots}"
    )


def render_dse_json(result):
    """Plain-data form of a :class:`~repro.dse.search.DseResult`."""
    return {
        "app": result.app,
        "fingerprint": result.fingerprint,
        "device": result.device.as_dict(),
        "mode": result.mode,
        "seed": result.seed,
        "budget": result.budget,
        "budget_exhausted": result.budget_exhausted,
        "evaluated": result.evaluated,
        "cache_hits": result.cache_hits,
        "pruned": result.pruned,
        "baseline": result.baseline.as_dict(),
        "best": result.best.as_dict(),
        "speedup": result.speedup,
        "pareto": [ev.as_dict() for ev in result.frontier],
    }


def format_dse_report(result):
    """The human-readable search report, byte-identical per search."""
    lines = []
    lines.append(f"== DSE: {result.app} on {result.device.name} ==")
    lines.append(
        f"mode={result.mode} seed={result.seed} "
        f"evaluated={result.evaluated} cache_hits={result.cache_hits} "
        f"pruned={result.pruned}"
        + (" BUDGET EXHAUSTED" if result.budget_exhausted else "")
    )
    lines.append("")
    base, best = result.baseline, result.best
    lines.append(
        f"baseline  {base.gbps:8.2f} GB/s  area {base.area_frac:6.3f}  "
        f"p99 {base.p99_ms:8.3f} ms  [{_point_cell(base)}]"
    )
    lines.append(
        f"tuned     {best.gbps:8.2f} GB/s  area {best.area_frac:6.3f}  "
        f"p99 {best.p99_ms:8.3f} ms  [{_point_cell(best)}]"
    )
    if best.p99_certified_ms is not None:
        lines.append(
            f"certified worst-case p99 {best.p99_certified_ms:8.3f} ms "
            f"(static cost bounds; baseline "
            f"{base.p99_certified_ms:8.3f} ms)"
        )
    lines.append(f"speedup   {result.speedup:8.3f}x at equal-or-lower area")
    lines.append("")
    lines.append("Pareto frontier (throughput desc):")
    header = (
        f"  {'GB/s':>8}  {'area':>6}  {'p99 ms':>9}  configuration"
    )
    lines.append(header)
    for ev in result.frontier:
        lines.append(
            f"  {ev.gbps:8.2f}  {ev.area_frac:6.3f}  "
            f"{ev.p99_ms:9.3f}  {_point_cell(ev)}"
        )
    attr = best.attribution
    if attr:
        total = sum(attr.values())
        lines.append("")
        lines.append("tuned point's cycle attribution:")
        for category in CATEGORIES:
            n = attr.get(category, 0)
            if not n:
                continue
            pct = 100.0 * n / total if total else 0.0
            lines.append(f"  {category:<18}{pct:7.2f}%")
    return "\n".join(lines) + "\n"


def render_json_text(results):
    """Canonical JSON text for one or more results (the ``--json``
    output): sorted keys, stable separators, trailing newline."""
    payload = [render_dse_json(result) for result in results]
    if len(payload) == 1:
        payload = payload[0]
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"
