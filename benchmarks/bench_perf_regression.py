"""Perf-regression benchmark: slow vs fast simulation engines.

Times the interpreter against the certified compile-to-Python unit
engine (JSON parsing, integer coding) and stepped against event-driven memory
simulation (the Figure 9 sink-PU ablation points) in one run, checks
exactness, and writes ``BENCH_PERF.json`` at the repo root.

Run under pytest-benchmark with the rest of the suite, or standalone:

    PYTHONPATH=src python benchmarks/bench_perf_regression.py [--quick]
"""

import sys
from pathlib import Path

from repro.bench import format_perf, render_perf_json, run_perf_regression

REPO_ROOT = Path(__file__).resolve().parent.parent
OUTPUT = REPO_ROOT / "BENCH_PERF.json"


def write_report(results, path=OUTPUT):
    path.write_text(render_perf_json(results))
    return path


def test_perf_regression(once):
    results = once(run_perf_regression)
    print("\n" + format_perf(results))
    write_report(results)
    assert results["aggregate"]["all_match"], (
        "fast engines diverged from the oracles"
    )
    assert results["aggregate"]["all_certified"], (
        "a catalog unit lost its clean restriction certificate (or its "
        "compiled unit)"
    )
    assert results["aggregate"]["speedup"] >= 5.0, (
        f"aggregate speedup {results['aggregate']['speedup']:.1f}x "
        f"regressed below the 5x floor"
    )
    assert results["obs_overhead"]["disabled_faster"], (
        "observability-disabled simulation is not faster than the "
        "instrumented one — instrumentation cost leaked into the "
        "disabled path"
    )
    telemetry = results["telemetry_overhead"]
    assert telemetry["reports_identical"], (
        "serve reports diverged with telemetry enabled — metrics leaked "
        "into the deterministic report"
    )
    assert telemetry["pass"], (
        f"telemetry overhead {telemetry['overhead_ratio']:.2f}x exceeds "
        f"the {telemetry['ceiling']:.2f}x ceiling (or recorded nothing)"
    )
    dse = results["dse"]
    assert dse["all_within_area"], (
        "a DSE winner spent more modeled area than its hand-picked "
        "baseline — the search may not grow the area budget"
    )
    assert dse["aggregate"]["speedup"] >= dse["aggregate"]["floor"], (
        f"DSE tuned-over-baseline aggregate "
        f"{dse['aggregate']['speedup']:.3f}x is below the "
        f"{dse['aggregate']['floor']}x floor"
    )
    native = results["native_engine"]
    if "cases" in native:  # skipped (no toolchain) otherwise
        assert native["aggregate"]["all_match"], (
            "native C engine diverged from the certified compiled engine"
        )
        assert (native["aggregate"]["speedup"]
                >= native["aggregate"]["floor"]), (
            f"native-engine speedup "
            f"{native['aggregate']['speedup']:.1f}x is below the "
            f"{native['aggregate']['floor']}x floor"
        )
    batch = results["batch_engine"]
    if "cases" in batch:  # skipped (numpy unavailable) otherwise
        assert batch["aggregate"]["all_match"], (
            "SIMD batch engine diverged from sequential compiled runs"
        )
        assert batch["aggregate"]["speedup"] >= 10.0, (
            f"batch-engine aggregate speedup "
            f"{batch['aggregate']['speedup']:.1f}x is below the 10x "
            f"floor at the {batch['lanes']}-lane fleet size"
        )


def main(argv):
    unknown = [arg for arg in argv if arg != "--quick"]
    if unknown:
        print(f"unknown argument(s): {' '.join(unknown)}\n"
              f"usage: bench_perf_regression.py [--quick]")
        return 2
    quick = "--quick" in argv
    results = run_perf_regression(quick=quick)
    print(format_perf(results))
    path = write_report(results)
    print(f"\nwrote {path}")
    if not results["aggregate"]["all_match"]:
        print("ERROR: fast engines diverged from the oracles")
        return 1
    if not results["aggregate"]["all_certified"]:
        print("ERROR: a catalog unit lost its restriction certificate")
        return 1
    if not quick and results["aggregate"]["speedup"] < 5.0:
        print("ERROR: aggregate speedup below the 5x floor")
        return 1
    if not quick and not results["obs_overhead"]["disabled_faster"]:
        print("ERROR: obs-disabled run not faster than instrumented")
        return 1
    telemetry = results["telemetry_overhead"]
    if not telemetry["pass"]:
        print(f"ERROR: telemetry overhead "
              f"{telemetry['overhead_ratio']:.2f}x exceeds the "
              f"{telemetry['ceiling']:.2f}x ceiling, recorded nothing, "
              f"or changed the serve report")
        return 1
    dse = results["dse"]
    if not dse["pass"]:
        print(f"ERROR: DSE tuned-over-baseline aggregate "
              f"{dse['aggregate']['speedup']:.3f}x missed the "
              f"{dse['aggregate']['floor']}x floor, or a winner grew "
              f"its area budget")
        return 1
    native = results["native_engine"]
    if "cases" in native:
        if not native["aggregate"]["all_match"]:
            print("ERROR: native C engine diverged from the certified "
                  "compiled engine")
            return 1
        if not quick and (native["aggregate"]["speedup"]
                          < native["aggregate"]["floor"]):
            print(f"ERROR: native-engine speedup below the "
                  f"{native['aggregate']['floor']}x floor")
            return 1
    batch = results["batch_engine"]
    if "cases" in batch:
        if not batch["aggregate"]["all_match"]:
            print("ERROR: SIMD batch engine diverged from sequential "
                  "compiled runs")
            return 1
        if not quick and batch["aggregate"]["speedup"] < 10.0:
            print("ERROR: batch-engine aggregate speedup below the 10x "
                  "floor")
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
