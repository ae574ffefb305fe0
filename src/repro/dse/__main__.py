"""``python -m repro.dse`` — run searches, print reports, self-check.

Examples::

    python -m repro.dse --app bloom_filter     # one search, text report
    python -m repro.dse --all-apps --json      # every catalog app, JSON
    python -m repro.dse --selftest             # determinism + invariants
    python -m repro.dse --all-apps --write-tuned  # regen tuned.py
"""

import argparse
import sys

from ..system import AMAZON_F1
from .cache import EvalCache
from .pareto import dominates
from .report import format_dse_report, render_json_text
from .search import search


def _parser():
    parser = argparse.ArgumentParser(
        prog="python -m repro.dse",
        description="Design-space exploration over the Fleet models.",
    )
    parser.add_argument("--app", help="catalog app key to search")
    parser.add_argument(
        "--all-apps", action="store_true",
        help="search every catalog app",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="short simulation horizons (CI mode)",
    )
    parser.add_argument(
        "--seed", type=int, default=0,
        help="search seed (default: 0)",
    )
    parser.add_argument(
        "--budget", type=int, default=None,
        help="max fresh evaluations per app, at least 1 "
             "(default: unlimited)",
    )
    parser.add_argument(
        "--cache", default=None, metavar="DIR",
        help="on-disk evaluation cache (default: in-process only)",
    )
    parser.add_argument(
        "--json", action="store_true", help="emit canonical JSON",
    )
    parser.add_argument(
        "--write-tuned", action="store_true",
        help="print src/repro/dse/tuned.py contents for the searched "
             "apps (use with --all-apps, full mode, seed 0)",
    )
    parser.add_argument(
        "--selftest", action="store_true",
        help="verify determinism, caching, and frontier invariants",
    )
    return parser


def _run_searches(args):
    from ..bench.catalog import catalog
    from .evaluate import AppModel

    cache = EvalCache(args.cache)
    specs = catalog()
    keys = sorted(specs) if args.all_apps else [args.app]
    results = []
    for key in keys:
        if key not in specs:
            raise SystemExit(
                f"unknown app {key!r}: choose from "
                f"{', '.join(sorted(specs))}"
            )
        model = AppModel.from_spec(specs[key])
        results.append(search(
            model, device=AMAZON_F1, seed=args.seed, budget=args.budget,
            cache=cache, quick=args.quick,
        ))
    return results


def _tuned_source(results):
    entries = []
    for result in results:
        best = result.best
        entries.append(
            f"    {result.app!r}: {{\n"
            f"        'point': {best.point.as_dict()!r},\n"
            f"        'gbps': {best.gbps!r},\n"
            f"        'baseline_gbps': {result.baseline.gbps!r},\n"
            f"        'area_frac': {best.area_frac!r},\n"
            f"        'baseline_area_frac': "
            f"{result.baseline.area_frac!r},\n"
            f"        'p99_ms': {best.p99_ms!r},\n"
            f"    }},"
        )
    body = "\n".join(entries)
    return f"TUNED = {{\n{body}\n}}\n"


def _selftest():
    failures = []

    def check(name, ok, detail=""):
        status = "ok" if ok else "FAIL"
        line = f"  {status:<6}{name}"
        if detail and not ok:
            line += f" — {detail}"
        print(line)
        if not ok:
            failures.append(name)

    print("repro.dse selftest")
    from ..bench.catalog import catalog
    from .evaluate import AppModel

    cache = EvalCache()
    model = AppModel.from_spec(catalog()["bloom_filter"])
    first = search(model, device=AMAZON_F1, seed=0, cache=cache,
                   quick=True)
    cold = search(model, device=AMAZON_F1, seed=0, cache=EvalCache(),
                  quick=True)
    check(
        "deterministic report",
        format_dse_report(first) == format_dse_report(cold),
        "two cold-cache searches rendered differently",
    )
    check(
        "deterministic json",
        render_json_text([first]) == render_json_text([cold]),
    )
    warm = search(model, device=AMAZON_F1, seed=0, cache=cache,
                  quick=True)
    check(
        "warm search all cache hits",
        warm.evaluated == 0 and warm.cache_hits > 0,
        f"evaluated={warm.evaluated} hits={warm.cache_hits}",
    )
    check(
        "warm search same conclusion",
        warm.best.as_dict() == first.best.as_dict()
        and [e.as_dict() for e in warm.frontier]
        == [e.as_dict() for e in first.frontier],
    )
    check("search evaluated points", first.evaluated > 0)
    check("pruning engaged", first.pruned > 0,
          "attribution pruning never fired")
    front = first.frontier
    check("frontier non-empty", bool(front))
    clean = all(
        not dominates(a, b)
        for a in front for b in front if a is not b
    )
    check("frontier is non-dominated", clean)
    check(
        "best is feasible",
        first.best.feasible,
    )
    check(
        "best within baseline area",
        first.best.area_frac <= first.baseline.area_frac + 1e-9,
        f"{first.best.area_frac:.4f} > {first.baseline.area_frac:.4f}",
    )
    check(
        "best at least baseline throughput",
        first.best.gbps >= first.baseline.gbps,
    )
    from .space import DesignPoint

    point = first.best.point
    check(
        "design point round-trips",
        DesignPoint(**point.as_dict()) == point,
    )
    if failures:
        print(f"selftest: {len(failures)} failure(s)")
        return 1
    print("selftest: all checks passed")
    return 0


def main(argv=None):
    parser = _parser()
    args = parser.parse_args(argv)
    if args.budget is not None and args.budget < 1:
        parser.error("--budget must be at least 1")
    if args.selftest:
        return _selftest()
    if not args.app and not args.all_apps:
        parser.error("one of --app, --all-apps, --selftest required")
    results = _run_searches(args)
    if args.write_tuned:
        sys.stdout.write(_tuned_source(results))
        return 0
    if args.json:
        sys.stdout.write(render_json_text(results))
        return 0
    for result in results:
        sys.stdout.write(format_dse_report(result))
        sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
