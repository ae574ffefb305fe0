"""Paper-style table formatting for the experiment harnesses."""

import json

#: The paper's Figure 7 values, for side-by-side reporting:
#: (PUs, Fleet GB/s, CPU GB/s, GPU GB/s, vs CPU ppw, vs GPU ppw).
PAPER_FIGURE7 = {
    "JSON Parsing": (512, 21.39, 6.11, 25.23, 42.03, 8.57),
    "Integer Coding": (192, 10.99, 2.11, 31.04, 78.19, 4.60),
    "Decision Tree": (384, 3.77, 2.01, 102.17, 23.77, 0.59),
    "Smith-Waterman": (384, 24.62, 0.68, 29.41, 444.67, 9.28),
    "Regex": (704, 27.24, 3.25, 73.59, 95.54, 4.18),
    "Bloom Filter": (320, 24.21, 12.03, 13.50, 22.43, 9.55),
}

#: Paper Figure 9 (GB/s).
PAPER_FIGURE9 = {
    "None": 0.98,
    "Async. Addr. Supply": 1.88,
    "Async. Addr. Supply & Burst Regs.": 27.24,
}

#: Paper Figure 8 (Fleet LoC, CUDA LoC).
PAPER_FIGURE8 = {
    "JSON Parsing": (201, 165),
    "Integer Coding": (315, 155),
    "Decision Tree": (74, 63),
    "Smith-Waterman": (55, 45),
    "Regex": (35, 65),
    "Bloom Filter": (100, 58),
}


def format_figure7(rows):
    """Render Figure 7 rows with the paper's numbers alongside."""
    header = (
        f"{'App':<16}{'PUs':>5}{'(pap)':>6} "
        f"{'Fleet':>7}{'(pap)':>7} {'CPU':>6}{'(pap)':>6} "
        f"{'GPU':>7}{'(pap)':>7} {'vsCPU':>8}{'(pap)':>8} "
        f"{'vsGPU':>7}{'(pap)':>7}"
    )
    lines = [header, "-" * len(header)]
    for row in rows:
        p = PAPER_FIGURE7[row.title]
        lines.append(
            f"{row.title:<16}{row.fleet.pu_count:>5}{p[0]:>6} "
            f"{row.fleet.gbps:>7.2f}{p[1]:>7.2f} "
            f"{row.cpu.gbps:>6.2f}{p[2]:>6.2f} "
            f"{row.gpu.gbps:>7.2f}{p[3]:>7.2f} "
            f"{row.fleet_vs_cpu_ppw:>7.1f}x{p[4]:>7.1f}x "
            f"{row.fleet_vs_gpu_ppw:>6.2f}x{p[5]:>6.2f}x"
        )
    return "\n".join(lines)


def format_figure9(results):
    """Render Figure 9 rows; accepts ``(label, gbps)`` pairs or the
    ``(label, gbps, attribution)`` triples of
    ``run_figure9(attribution=True)``."""
    lines = [f"{'Memory Controller Optimizations':<36}{'GB/s':>7}"
             f"{'(paper)':>9}",
             "-" * 52]
    for label, gbps, *_rest in results:
        lines.append(
            f"{label:<36}{gbps:>7.2f}{PAPER_FIGURE9[label]:>9.2f}"
        )
    return "\n".join(lines)


def format_figure9_attribution(results):
    """Render the cycle-attribution breakdown next to each Figure 9
    ablation point — the causal story behind the throughput deltas."""
    from ..obs.attribution import CATEGORIES

    lines = [f"{'category':<20}" + "".join(
        f"{label[:14]:>16}" for label, _, _ in results
    )]
    lines.append("-" * (20 + 16 * len(results)))
    totals = [sum(attr.values()) for _, _, attr in results]
    for category in CATEGORIES:
        if not any(attr.get(category) for _, _, attr in results):
            continue
        cells = []
        for (_, _, attr), total in zip(results, totals):
            share = 100.0 * attr.get(category, 0) / total if total else 0.0
            cells.append(f"{share:>15.1f}%")
        lines.append(f"{category:<20}" + "".join(cells))
    return "\n".join(lines)


def render_perf_json(results):
    """Serialize :func:`repro.bench.perf_regression.run_perf_regression`
    results for ``BENCH_PERF.json`` (stable key order, rounded floats)."""

    def fmt(value):
        if isinstance(value, float):
            return round(value, 4)
        if isinstance(value, dict):
            return {key: fmt(value[key]) for key in sorted(value)}
        if isinstance(value, list):
            return [fmt(item) for item in value]
        return value

    return json.dumps(fmt(results), indent=2, sort_keys=True) + "\n"


def format_perf(results):
    """Render perf-regression results as a table."""
    lines = [
        f"{'Benchmark':<28}{'baseline':>10}{'fast':>10}{'speedup':>9}"
        f"{'exact':>7}",
        "-" * 64,
    ]
    for bench in results["benchmarks"]:
        lines.append(
            f"{bench['name']:<28}"
            f"{bench['baseline']['seconds']:>9.3f}s"
            f"{bench['fast']['seconds']:>9.3f}s"
            f"{bench['speedup']:>8.1f}x"
            f"{'yes' if bench['match'] else 'NO':>7}"
        )
    agg = results["aggregate"]
    lines.append("-" * 64)
    lines.append(
        f"{'aggregate (total wall)':<28}"
        f"{agg['baseline_seconds']:>9.3f}s"
        f"{agg['fast_seconds']:>9.3f}s"
        f"{agg['speedup']:>8.1f}x"
        f"{'yes' if agg['all_match'] else 'NO':>7}"
    )
    overhead = results.get("obs_overhead")
    if overhead:
        # Columns read: obs-disabled time, obs-enabled time, enabled/
        # disabled ratio, and whether the disabled run stayed faster.
        lines.append(
            f"{'obs disabled vs enabled':<28}"
            f"{overhead['disabled_seconds']:>9.3f}s"
            f"{overhead['enabled_seconds']:>9.3f}s"
            f"{overhead['overhead_ratio']:>8.2f}x"
            f"{'yes' if overhead['disabled_faster'] else 'NO':>7}"
        )
    telemetry = results.get("telemetry_overhead")
    if telemetry:
        # Same serve workload with repro.telemetry disabled vs enabled;
        # "exact" = ratio under the ceiling AND reports byte-identical.
        lines.append(
            f"{'telemetry off vs on':<28}"
            f"{telemetry['disabled_seconds']:>9.3f}s"
            f"{telemetry['enabled_seconds']:>9.3f}s"
            f"{telemetry['overhead_ratio']:>8.2f}x"
            f"{'yes' if telemetry['pass'] else 'NO':>7}"
        )
    lint = results.get("lint_certified")
    if lint:
        # Guarded compiled Python vs the certified-specialized lowering
        # (certificate consumed at codegen time); "exact" means outputs
        # and traces matched and the unit actually certified.
        for case in lint["cases"]:
            ok = case["match"] and case["certified"]
            lines.append(
                f"{case['name']:<28}"
                f"{case['baseline']['seconds']:>9.3f}s"
                f"{case['fast']['seconds']:>9.3f}s"
                f"{case['speedup']:>8.2f}x"
                f"{'yes' if ok else 'NO':>7}"
            )
    native = results.get("native_engine")
    if native and "cases" in native:
        # Guarded compiled Python vs the batch engine's native C tier
        # at N=1 on the same certified units; "exact" = bit-identical
        # outputs and traces.
        for case in native["cases"]:
            if "skipped" in case:
                lines.append(
                    f"{case['name']:<28}skipped: {case['skipped']}"
                )
                continue
            lines.append(
                f"{case['name']:<28}"
                f"{case['baseline']['seconds']:>9.3f}s"
                f"{case['fast']['seconds']:>9.3f}s"
                f"{case['speedup']:>8.1f}x"
                f"{'yes' if case['match'] else 'NO':>7}"
            )
    batch = results.get("batch_engine")
    if batch and "cases" in batch:
        # N sequential compiled runs vs one SIMD batch at the Figure-7
        # fleet size; "exact" = bit-identical outputs and per-token
        # virtual-cycle traces for every lane.
        lines.append("-" * 64)
        for case in batch["cases"]:
            lines.append(
                f"{case['name']:<28}"
                f"{case['baseline']['seconds']:>9.3f}s"
                f"{case['fast']['seconds']:>9.3f}s"
                f"{case['speedup']:>8.1f}x"
                f"{'yes' if case['match'] else 'NO':>7}"
            )
        bagg = batch["aggregate"]
        lines.append(
            f"{'batch aggregate (' + str(batch['lanes']) + ' lanes)':<28}"
            f"{bagg['baseline_seconds']:>9.3f}s"
            f"{bagg['fast_seconds']:>9.3f}s"
            f"{bagg['speedup']:>8.1f}x"
            f"{'yes' if bagg['all_match'] else 'NO':>7}"
        )
    dse = results.get("dse")
    if dse:
        # Automated design-space search vs the hand-picked Figure-7
        # configuration, in modeled GB/s at equal-or-lower area.
        from .dse_perf import format_dse_comparison

        lines.append("")
        lines.append(format_dse_comparison(dse))
    serve = results.get("serve")
    if serve:
        # Serving-scheduler makespans are virtual cycles, not seconds;
        # "exact" here means both speedup floors held.
        from .serve_perf import format_serve_comparison

        lines.append("")
        lines.append(format_serve_comparison(serve))
    return "\n".join(lines)


def format_figure8(rows):
    lines = [
        f"{'App':<16}{'Fleet LoC':>10}{'(paper)':>9}"
        f"{'Baseline LoC':>14}{'(paper)':>9}",
        "-" * 58,
    ]
    for title, fleet_loc, isa_loc in rows:
        p = PAPER_FIGURE8[title]
        lines.append(
            f"{title:<16}{fleet_loc:>10}{p[0]:>9}{isa_loc:>14}{p[1]:>9}"
        )
    return "\n".join(lines)
