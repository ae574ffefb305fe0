"""Serving-scheduler benchmark: FIFO vs skew-aware packing vs 2-device
sharding on a Zipf stream-length workload (see
:mod:`repro.bench.serve_perf`).

Asserts the CI floors — skew-aware packing >= 1.5x over FIFO, 2-device
sharding >= 1.8x over 1 device — and records the ``serve`` section of
``BENCH_PERF.json`` in place (the rest of the file is refreshed by
``bench_perf_regression.py``).

Run under pytest-benchmark with the rest of the suite, or standalone:

    PYTHONPATH=src python benchmarks/bench_serve_scheduler.py [--quick]
"""

import json
import sys
from pathlib import Path

from repro.bench import format_serve_comparison, run_serve_comparison
from repro.bench.report import render_perf_json
from repro.bench.serve_perf import PACKING_FLOOR, SHARDING_FLOOR

REPO_ROOT = Path(__file__).resolve().parent.parent
OUTPUT = REPO_ROOT / "BENCH_PERF.json"


def record_serve_section(serve, path=OUTPUT):
    """Merge the serve results into BENCH_PERF.json without touching
    the other harness sections."""
    results = json.loads(path.read_text()) if path.exists() else {}
    results["serve"] = serve
    path.write_text(render_perf_json(results))
    return path


def check_floors(serve):
    assert serve["packing_speedup"] >= PACKING_FLOOR, (
        f"skew-aware packing speedup "
        f"{serve['packing_speedup']:.2f}x regressed below the "
        f"{PACKING_FLOOR}x floor over FIFO"
    )
    assert serve["sharding_speedup"] >= SHARDING_FLOOR, (
        f"2-device sharding speedup "
        f"{serve['sharding_speedup']:.2f}x regressed below the "
        f"{SHARDING_FLOOR}x floor over 1 device"
    )
    assert serve["pass"]


def test_serve_scheduler(once):
    serve = once(run_serve_comparison)
    print("\n" + format_serve_comparison(serve))
    record_serve_section(serve)
    check_floors(serve)


def main(argv):
    unknown = [arg for arg in argv if arg != "--quick"]
    if unknown:
        print(f"unknown argument(s): {' '.join(unknown)}\n"
              f"usage: bench_serve_scheduler.py [--quick]")
        return 2
    quick = "--quick" in argv
    serve = run_serve_comparison(quick=quick)
    print(format_serve_comparison(serve))
    if not quick:
        path = record_serve_section(serve)
        print(f"\nwrote serve section to {path}")
    if not serve["pass"]:
        print("ERROR: serving speedup floors not met")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
