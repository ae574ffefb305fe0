"""``python -m repro.report`` — run an instrumented full-system
simulation and render its observability report.

Prints the human-readable cycle-attribution breakdown (and optionally
writes machine JSON and a Perfetto-loadable Chrome trace)::

    PYTHONPATH=src python -m repro.report --app identity --streams 8 \\
        --stream-bytes 4096 --json report.json --trace trace.json

``--selftest`` additionally validates every report/trace invariant and
runs the observability overhead guard (instrumentation must be pay-for-
what-you-use: the obs-disabled simulation must be measurably faster than
the instrumented one) — the CI smoke step runs this mode.

``--metrics`` runs the demo serve workload with live telemetry
(:mod:`repro.telemetry`) enabled and renders the metrics dashboard;
``--watch`` turns it into a refreshing terminal dashboard over repeated
workload rounds, ``--prometheus PATH`` writes the Prometheus text
exposition, and ``--metrics --selftest`` validates the zero-cost-when-
disabled contract, the exposition schema, and snapshot/delta semantics
(the CI step).

Serve and DSE reports are printed by ``python -m repro.serve`` and
``python -m repro.dse``; ``python -m repro.lint`` reports unproven
restriction conflicts. See ``docs/observability.md`` for the counter
taxonomy and how to read the breakdown.
"""

import argparse
import json
import sys
import time

from .apps import identity_unit, sink_unit
from .obs import Observation, build_report, format_report, validate_report
from .system import run_full_system

#: Units the CLI can run end-to-end on raw byte streams.
APPS = {
    "identity": identity_unit,
    "sink": sink_unit,
}


def make_streams(count, stream_bytes, seed=1234):
    """Deterministic pseudo-random byte streams (seeded LCG, no RNG
    dependency)."""
    streams = []
    state = seed & 0xFFFFFFFF
    for _ in range(count):
        data = bytearray()
        for _ in range(stream_bytes):
            state = (1103515245 * state + 12345) & 0xFFFFFFFF
            data.append((state >> 16) & 0xFF)
        streams.append(bytes(data))
    return streams


def run_instrumented(app="identity", streams=4, stream_bytes=2048,
                     channels=1, event_driven=True, trace=False,
                     seed=1234):
    """One observed full-system run; returns (result, observation)."""
    unit = APPS[app]()
    obs = Observation(trace=trace)
    result = run_full_system(
        unit, make_streams(streams, stream_bytes, seed=seed),
        channels=channels, event_driven=event_driven, obs=obs,
    )
    return result, obs


def _validate_trace(trace):
    """Schema checks for an exported Chrome trace object (also used by
    the test suite): required fields present, timestamps sorted."""
    events = trace["traceEvents"]
    assert events, "trace has no events"
    for event in events:
        for field in ("ph", "ts", "pid", "tid", "name"):
            assert field in event, f"trace event missing {field!r}: {event}"
    timed = [e["ts"] for e in events if e["ph"] != "M"]
    assert timed == sorted(timed), "trace timestamps are not sorted"
    spans = [e for e in events if e["ph"] == "X"]
    assert spans, "trace has no complete spans"
    for span in spans:
        assert span["dur"] >= 0, f"negative span duration: {span}"
    return trace


def _selftest(args):
    """Instrumented smoke run + invariant validation + overhead guard."""
    result, obs = run_instrumented(
        app=args.app, streams=args.streams, stream_bytes=args.stream_bytes,
        channels=args.channels, trace=True, seed=args.seed,
    )
    report = validate_report(build_report(obs))
    _validate_trace(obs.tracer.to_chrome(obs.frequency_hz))
    # Differential: the stepped engine must attribute identically.
    stepped_result, stepped_obs = run_instrumented(
        app=args.app, streams=args.streams, stream_bytes=args.stream_bytes,
        channels=args.channels, event_driven=False, seed=args.seed,
    )
    assert stepped_result.cycles == result.cycles
    for fast, slow in zip(obs.channels, stepped_obs.channels):
        assert fast.attribution == slow.attribution, (
            "stepped vs event-driven attribution diverged"
        )
    print("selftest: report + trace invariants OK "
          f"({result.cycles} cycles, "
          f"{len(obs.tracer.events)} trace events)")

    # Overhead guard: with observability disabled the simulation must be
    # faster than instrumented — i.e. instrumentation is genuinely
    # conditional, not always-on.
    from .memory import MemoryConfig, SinkPu, simulate_channels

    def timed_sim(observation):
        start = time.perf_counter()
        simulate_channels(
            MemoryConfig(),
            lambda i: [SinkPu(1 << 14) for _ in range(128)],
            channels=1, fixed_cycles=12_000, obs=observation,
        )
        return time.perf_counter() - start

    timed_sim(None)  # warm up
    disabled = min(timed_sim(None) for _ in range(3))
    enabled = min(timed_sim(Observation()) for _ in range(3))
    print(f"selftest: obs disabled {disabled * 1e3:.1f} ms, "
          f"enabled {enabled * 1e3:.1f} ms "
          f"(overhead {enabled / disabled:.2f}x)")
    assert disabled < enabled, (
        "observability-disabled run is not faster than instrumented — "
        "instrumentation cost leaked into the disabled path"
    )
    return report


def _metrics_demo_round(jobs=12, seed=1234):
    """One demo serve round feeding the process-wide registry (the
    workload ``--metrics`` observes)."""
    from .serve.__main__ import run_demo

    report, server = run_demo(jobs=jobs, seed=seed)
    server.stop()
    return report


def _metrics_selftest():
    """CI contract for the telemetry stack: disabled runs record
    nothing, enabled runs produce a schema-valid Prometheus exposition
    and a coherent dashboard, and delta(snapshot2, snapshot1) matches
    the second round's activity."""
    from .telemetry import metrics
    from .telemetry.dashboard import render_dashboard
    from .telemetry.prometheus import render_prometheus, validate_prometheus

    # 1. Zero-cost when disabled: a full serve round must not record.
    with metrics.enabled_scope(False):
        metrics.reset()
        _metrics_demo_round()
        empty = metrics.snapshot()
    recorded = sum(len(f["samples"]) for f in empty.values())
    assert recorded == 0, (
        f"telemetry disabled but {recorded} samples recorded — the "
        "disabled path is not zero-cost"
    )
    print("metrics selftest: disabled run recorded nothing")

    # 2. Enabled: expected families populate, exposition validates.
    # Engines are built once per program structure and process, and the
    # round above built them: start cold again, so this round compiles.
    from .lint.certificate import _ARTIFACTS

    _ARTIFACTS.clear()
    with metrics.enabled_scope():
        metrics.reset()
        _metrics_demo_round()
        first = metrics.snapshot()
        _metrics_demo_round()
        second = metrics.snapshot()
    # Serve builds only the engine it runs: the app's kernel where one
    # can be built, compiled Python otherwise.
    from .interp import kernel_unavailable

    compiles = ("fleet_batch_compiles_total" if kernel_unavailable() is None
                else "fleet_interp_compiles_total")
    for name in (
        "fleet_serve_jobs_submitted_total",
        "fleet_serve_batches_executed_total",
        "fleet_serve_stream_vcycles",
        compiles,
        "fleet_serve_app_cache_lookups_total",
    ):
        family = first.get(name)
        assert family and family["samples"], (
            f"expected metric {name} not recorded by the demo workload"
        )
    text = render_prometheus(second)
    validate_prometheus(text)
    print(f"metrics selftest: exposition OK "
          f"({len(text.splitlines())} lines, "
          f"{len(second)} families)")

    # 3. Delta semantics: the second round's job count must equal the
    # counter delta (both rounds are the same deterministic workload).
    change = metrics.delta(second, first)
    jobs_first = sum(
        s["value"]
        for s in first["fleet_serve_jobs_submitted_total"]["samples"]
    )
    jobs_delta = sum(
        s["value"]
        for s in change["fleet_serve_jobs_submitted_total"]["samples"]
    )
    assert jobs_delta == jobs_first, (
        f"delta jobs {jobs_delta} != one round's jobs {jobs_first}"
    )
    validate_prometheus(render_prometheus(change))
    dashboard = render_dashboard(second)
    assert "jobs accepted" in dashboard and "stream vcycles" in dashboard
    print("metrics selftest: snapshot/delta + dashboard OK")
    return 0


def _metrics_section(args):
    """The ``--metrics`` mode: demo workload + dashboard (or ``--watch``
    live refresh / ``--prometheus`` exposition / ``--selftest``)."""
    from .telemetry import metrics
    from .telemetry.dashboard import render_dashboard
    from .telemetry.prometheus import render_prometheus, validate_prometheus

    if args.selftest:
        return _metrics_selftest()

    with metrics.enabled_scope():
        metrics.reset()
        if args.watch:
            previous = metrics.snapshot()
            frame = 0
            try:
                while args.frames <= 0 or frame < args.frames:
                    _metrics_demo_round(seed=args.seed + frame)
                    current = metrics.snapshot()
                    view = metrics.delta(current, previous)
                    previous = current
                    frame += 1
                    sys.stdout.write("\x1b[2J\x1b[H")
                    print(render_dashboard(
                        view,
                        title=f"fleet telemetry — frame {frame} "
                              f"(delta per round)",
                    ))
                    sys.stdout.flush()
                    if args.frames <= 0 or frame < args.frames:
                        time.sleep(args.interval)
            except KeyboardInterrupt:
                pass
            return 0
        _metrics_demo_round(seed=args.seed)
        snap = metrics.snapshot()
    print(render_dashboard(snap))
    if args.prometheus:
        text = render_prometheus(snap)
        validate_prometheus(text)
        if args.prometheus == "-":
            print()
            print(text, end="")
        else:
            with open(args.prometheus, "w") as fh:
                fh.write(text)
            print(f"\nwrote Prometheus exposition to {args.prometheus}")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m repro.report",
        description="Run an instrumented full-system simulation and "
                    "print its cycle-attribution report.",
    )
    parser.add_argument("--app", choices=sorted(APPS), default="identity")
    parser.add_argument("--streams", type=int, default=4,
                        help="number of streams / processing units")
    parser.add_argument("--stream-bytes", type=int, default=2048)
    parser.add_argument("--channels", type=int, default=1)
    parser.add_argument("--seed", type=int, default=1234)
    parser.add_argument("--engine", choices=("event", "stepped"),
                        default="event")
    parser.add_argument("--json", metavar="PATH",
                        help="write the machine-readable report JSON "
                             "('-' for stdout)")
    parser.add_argument("--trace", metavar="PATH",
                        help="write a Chrome trace-event file "
                             "(open in https://ui.perfetto.dev)")
    parser.add_argument("--selftest", action="store_true",
                        help="validate report/trace invariants and the "
                             "zero-overhead-when-disabled guard (CI)")
    parser.add_argument("--metrics", action="store_true",
                        help="run the demo serve workload with live "
                             "telemetry enabled and render the metrics "
                             "dashboard (combine with --watch, "
                             "--prometheus, or --selftest)")
    parser.add_argument("--watch", action="store_true",
                        help="with --metrics: refresh the dashboard "
                             "live over repeated workload rounds")
    parser.add_argument("--frames", type=int, default=0,
                        help="with --watch: stop after N frames "
                             "(0 = until interrupted)")
    parser.add_argument("--interval", type=float, default=1.0,
                        help="with --watch: seconds between frames")
    parser.add_argument("--prometheus", metavar="PATH",
                        help="with --metrics: write the Prometheus text "
                             "exposition ('-' for stdout)")
    args = parser.parse_args(argv)

    if args.metrics:
        return _metrics_section(args)
    if args.selftest:
        _selftest(args)
        return 0

    result, obs = run_instrumented(
        app=args.app, streams=args.streams,
        stream_bytes=args.stream_bytes, channels=args.channels,
        event_driven=args.engine == "event", trace=bool(args.trace),
        seed=args.seed,
    )
    report = build_report(obs)
    print(f"{args.app}: {len(result.outputs)} streams x "
          f"{args.stream_bytes} bytes on {args.channels} channel(s), "
          f"{result.cycles} cycles\n")
    print(format_report(report))
    if args.json:
        if args.json == "-":
            print(json.dumps(report, indent=2, sort_keys=True))
        else:
            with open(args.json, "w") as fh:
                json.dump(report, fh, indent=2, sort_keys=True)
                fh.write("\n")
            print(f"\nwrote report JSON to {args.json}")
    if args.trace:
        obs.write_trace(args.trace)
        print(f"wrote Chrome trace to {args.trace} "
              f"(open in https://ui.perfetto.dev)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
