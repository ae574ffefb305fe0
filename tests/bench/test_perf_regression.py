"""The perf-regression harness: structure, exactness flags, and JSON
rendering (quick mode — CI smoke; the full run lives in benchmarks/)."""

import json

from repro.bench import format_perf, render_perf_json, run_perf_regression


def test_quick_run_structure_and_exactness():
    results = run_perf_regression(quick=True)
    assert results["quick"] is True
    names = [bench["name"] for bench in results["benchmarks"]]
    assert names == ["unit_sim/json_parsing", "unit_sim/integer_coding"]
    for bench in results["benchmarks"]:
        # Exactness is deterministic and must always hold; the timing
        # floor is only asserted by the full benchmark run.
        assert bench["match"], bench["name"]
        assert bench["baseline"]["seconds"] > 0
        assert bench["fast"]["seconds"] > 0
    agg = results["aggregate"]
    assert agg["all_match"]
    assert agg["all_certified"]
    assert agg["speedup"] > 0

    # Observability overhead section is present and well-formed; the
    # disabled-faster flag itself is only asserted by the full run
    # (quick-mode timings are too short to be stable).
    overhead = results["obs_overhead"]
    assert overhead["disabled_seconds"] > 0
    assert overhead["enabled_seconds"] > 0
    assert overhead["overhead_ratio"] > 0
    assert isinstance(overhead["disabled_faster"], bool)

    # Batch-engine section: exactness always holds; the 10x aggregate
    # floor is only asserted by the full benchmark run.
    batch = results["batch_engine"]
    if "cases" in batch:  # skipped when no C toolchain is available
        assert [c["name"] for c in batch["cases"]] == [
            f"batch_engine/{name}"
            for name in ("bloom_filter", "regex_match", "int_coding",
                         "smith_waterman")
        ]
        for case in batch["cases"]:
            assert case["match"], case["name"]
            assert case["backend"] == "cc"
            assert 0.0 <= case["occupancy"]["waste_fraction"] <= 1.0
        assert batch["aggregate"]["all_match"]

    rendered = render_perf_json(results)
    parsed = json.loads(rendered)
    assert parsed["aggregate"]["all_match"] is True

    table = format_perf(results)
    assert "unit_sim/json_parsing" in table
    assert "aggregate" in table
    if "cases" in batch:
        assert "batch_engine/bloom_filter" in table
        assert "batch aggregate" in table
