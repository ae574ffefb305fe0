"""Where the garbage collector's passes land in perfbench's ``serve_bulk``
rounds.

Runs ``--rounds`` in-process rounds of perfbench's ``serve_bulk``
workload (``perfbench/workloads.py``, imported and used unchanged) after
one warm-up round, and logs every collector pass with ``gc.callbacks``.
A pass counts in the phase during which it started:

* ``submit``: from a round's first ``FleetServer.submit`` until its
  ``drain()`` begins;
* ``drain``: inside ``drain()``, where perfbench's latency window ends;
* ``report``: inside ``report()``;
* ``between rounds``: everything else (``stop()``, building the next
  server, dealing the next round's jobs, the oracle checks).

A pass that starts in ``submit`` or ``drain`` lands inside the timed
window and in the round's latencies. For each generation and phase the
script prints the passes, their total and per-pass milliseconds and the
objects they collected, then the GC-tracked objects left after the last
round.

Usage, from the root of the repository::

    PYTHONHASHSEED=0 PYTHONPATH=src python benchmarks/gc_placement.py \\
        --rounds 60 --seed 1

(perfbench runs its processes with ``PYTHONHASHSEED=0`` too.)
"""

import argparse
import gc
import os
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PHASES = ("submit", "drain", "report", "between rounds")
WINDOW = ("submit", "drain")


class Placement:
    """The current phase, set by wrappers around the server's methods,
    and every collector pass as ``(generation, phase, ms, collected)``."""

    def __init__(self):
        self.phase = "between rounds"
        self.passes = []
        self._start = None

    def on_gc(self, stage, info):
        if stage == "start":
            self._start = (self.phase, time.perf_counter())
        elif self._start is not None:
            phase, began = self._start
            self._start = None
            self.passes.append((info["generation"], phase,
                                (time.perf_counter() - began) * 1e3,
                                info["collected"]))

    def wrap(self, server_class):
        """Wrap ``submit``, ``drain`` and ``report`` of ``server_class``
        so that each sets the phase. ``stop()`` drains too; that drain
        stays ``between rounds``."""
        placement = self
        submit, drain, report = (server_class.submit, server_class.drain,
                                 server_class.report)

        # Exact signatures: no argument tuple or dict per call, which
        # would add GC-tracked allocations of the logger's own.
        def timed_submit(server, app, streams, *, tenant="default"):
            if placement.phase == "between rounds":
                placement.phase = "submit"
            return submit(server, app, streams, tenant=tenant)

        def timed_drain(server):
            if placement.phase != "submit":
                return drain(server)
            placement.phase = "drain"
            try:
                return drain(server)
            finally:
                placement.phase = "between rounds"

        def timed_report(server):
            placement.phase = "report"
            try:
                return report(server)
            finally:
                placement.phase = "between rounds"

        server_class.submit = timed_submit
        server_class.drain = timed_drain
        server_class.report = timed_report


def table(passes):
    """Rows ``(generation, phase, passes, total ms, ms per pass,
    collected)``, generation by generation in phase order."""
    rows = []
    for generation in (0, 1, 2):
        for phase in PHASES:
            times = [ms for gen, where, ms, _ in passes
                     if gen == generation and where == phase]
            if not times:
                continue
            collected = sum(n for gen, where, _, n in passes
                            if gen == generation and where == phase)
            rows.append((generation, phase, len(times), sum(times),
                         sum(times) / len(times), collected))
    return rows


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rounds", type=int, default=60)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    sys.path[:0] = [os.path.join(ROOT, "perfbench"),
                    os.path.join(ROOT, "src")]
    from repro.serve import FleetServer
    from workloads import BulkWorkload

    workload = BulkWorkload()
    workload.setup()
    workload.prepare(args.seed)
    workload.run_round()  # warm-up, as perfbench runs one
    placement = Placement()
    placement.wrap(FleetServer)
    gc.callbacks.append(placement.on_gc)
    walls, failed = [], 0
    try:
        for _ in range(args.rounds):
            result = workload.run_round()
            walls.append(result.wall)
            failed += result.failed
    finally:
        gc.callbacks.remove(placement.on_gc)
    tracked = len(gc.get_objects())
    workload.close()

    print(f"gc placement: serve_bulk seed={args.seed}, {args.rounds} "
          f"rounds after one warm-up, round wall median "
          f"{statistics.median(walls) * 1e3:.1f} ms, {failed} failed jobs")
    print(f"  {'gen':<5}{'phase':<16}{'passes':>8}{'total ms':>11}"
          f"{'ms/pass':>10}{'collected':>11}")
    for generation, phase, count, total, each, collected in table(
            placement.passes):
        print(f"  {generation:<5}{phase:<16}{count:>8}{total:>11.1f}"
              f"{each:>10.2f}{collected:>11}")
    gen2 = [p for p in placement.passes if p[0] == 2]
    inside = sum(1 for p in gen2 if p[1] in WINDOW)
    print(f"  gen-2 passes in the timed window (submit to the end of "
          f"drain): {inside} of {len(gen2)}")
    print(f"  GC-tracked objects after the last round: {tracked}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
