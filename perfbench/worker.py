"""One benchmark process: set up a workload, say when it is ready, then
measure it and print the result.

Run by ``run.py``, which times set-up from process start to the
``READY`` line. With ``--setup-only`` the process exits once ready.
Untraced runs take host-speed samples before and after every round
(``hostspeed.py``) and report the end-to-end metrics with every time
scaled by a host-speed factor, and the wall-time metrics beside them. A
single-threaded workload runs pinned to one CPU. With
``--trace 1`` the layers are wrapped during set-up and during every
other round; the rounds in between run unwrapped, so one run gives both
the traced and the untraced wall per job.
"""

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys

import hostspeed
import layers
import tracer as tracing
from workloads import WORKLOADS

READY = "PERFBENCH-READY"
RESULT = "PERFBENCH-RESULT "
#: Rounds at least this long (serve_bulk, figures) get a host-speed
#: factor each; at ``hostspeed.SHARE`` their marks hold about ten samples
#: on each CPU.
PER_ROUND_MIN_S = 0.25


def digest(source):
    blob = json.dumps(source, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def versions():
    import cffi
    import numpy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "cffi": cffi.__version__,
    }


def end_to_end(rounds, scales=None):
    """The end-to-end metrics of ``rounds`` with each round's times
    multiplied by its factor in ``scales`` (wall time if None)."""
    from repro.serve.report import percentile  # nearest rank

    scales = scales or [1.0] * len(rounds)
    ops = sum(r.ops for r in rounds)
    wall = sum(r.wall * k for r, k in zip(rounds, scales))
    latencies = [t * k for r, k in zip(rounds, scales) for t in r.latencies]
    return {
        "jobs_per_s": ops / wall,
        "input_mb_per_s": sum(r.nbytes for r in rounds) / wall / 1e6,
        "latency_p50_ms": percentile(latencies, 50) * 1e3,
        "latency_p99_ms": percentile(latencies, 99) * 1e3,
    }, len(latencies)


def trace_metrics(tracer, setup_spans, rounds, traced_flags):
    traced = [r for r, on in zip(rounds, traced_flags) if on]
    plain = [r for r, on in zip(rounds, traced_flags) if not on]
    spans = tracer.take()
    names = tracing.by_name(spans)
    ops = sum(r.ops for r in traced)
    wall = sum(r.wall for r in traced)
    metrics = layers.setup_metrics(setup_spans, tracing.by_name(setup_spans))
    metrics.update(layers.run_metrics(names, ops, wall))
    share, gaps = tracing.coverage(
        spans, [w for r in traced for w in r.windows]
    )
    metrics["trace.coverage"] = share
    metrics["trace.overhead"] = (
        (wall / ops) / (sum(r.wall for r in plain) / sum(r.ops for r in plain))
    )
    table = sorted(
        ([name, calls, total, own]
         for name, (calls, total, own) in tracing.self_times(spans).items()),
        key=lambda row: -row[3],
    )
    return metrics, table, gaps, spans


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", default=None,
                        help="where a traced run writes its spans")
    args = parser.parse_args(argv)

    speed = hostspeed.HostSpeed()
    if WORKLOADS[args.workload].single_threaded:
        # The whole workload runs on one thread: on one CPU, whose host
        # speed the marks then sample, instead of whichever CPU the
        # scheduler picks for each stretch of it.
        speed.pin()
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        layers.install(tracer)
    workload = WORKLOADS[args.workload]()
    workload.setup()
    print(READY, flush=True)
    if args.setup_only:
        workload.close()
        return 0
    setup_spans = []
    if tracer is not None:
        setup_spans = tracer.take()
        tracer.uninstall()

    workload.prepare(args.seed)
    # One round before timing: caches fill and lazy set-up finishes
    # (the first figures round compiles what the oracle run did not).
    warmup = workload.run_round()
    rounds, traced_flags = [], []
    if tracer is None:
        speed.mark(hostspeed.FIRST_MARK_S)
    measured = 0.0
    while measured < args.seconds or len(rounds) < (2 if tracer else 1):
        traced = tracer is not None and len(rounds) % 2 == 1
        if traced:
            layers.install(tracer)
        try:
            rounds.append(workload.run_round())
        finally:
            if traced:
                tracer.uninstall()
        traced_flags.append(traced)
        measured += rounds[-1].wall
        if tracer is None:
            speed.mark(hostspeed.SHARE * rounds[-1].wall)
    engines = workload.engines()
    workload.close()

    result = {
        "ops": sum(r.ops for r in rounds) + warmup.ops,
        "failed": sum(r.failed for r in rounds) + warmup.failed,
        "rounds": len(rounds),
        "measured_s": measured,
        "round_walls": [r.wall for r in rounds],
        "digest": digest(workload.digest_source),
        "engines": engines,
        "versions": versions(),
        "fleet_env": {k: v for k, v in sorted(os.environ.items())
                      if k.startswith("FLEET_")},
    }
    if tracer is None:
        scales = speed.scales()
        # The run's reference-host time over its wall time.
        scale = (sum(r.wall * k for r, k in zip(rounds, scales))
                 / sum(r.wall for r in rounds))
        # A round's own factor, from the marks on either side of it,
        # follows the host through the run; but only a long round's marks
        # hold enough samples for it to be steady. Short rounds'
        # latencies get the run's factor. The rates come out the same
        # either way.
        if statistics.median(r.wall for r in rounds) >= PER_ROUND_MIN_S:
            factors = scales
        else:
            factors = [scale] * len(rounds)
        metrics, samples = end_to_end(rounds, factors)
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        )
        result["metrics"] = metrics
        result["wall_metrics"], _ = end_to_end(rounds)
        result["round_scales"] = scales
        result["speed_scale"] = scale
        result["latency_samples"] = samples
        result["figure_s"] = statistics.median(
            r.wall * k for r, k in zip(rounds, factors)
        ) if args.workload == "figures" else None
    else:
        metrics, table, gaps, spans = trace_metrics(
            tracer, setup_spans, rounds, traced_flags
        )
        result["metrics"] = metrics
        result["self_times"] = table
        result["gaps"] = gaps
        if args.spans:
            tracer.write(args.spans, setup_spans + spans)
    print(RESULT + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
