"""``python -m repro.serve`` — run a deterministic demo workload through
the serving runtime and print its utilization/latency report.

::

    PYTHONPATH=src python -m repro.serve --devices 2 --packer skew \\
        --jobs 24 --seed 1234 --json report.json --trace trace.json

``--selftest`` runs the CI contract: the demo workload twice (asserting
byte-identical reports — the determinism guarantee), report invariants,
both packers (skew must not lose to FIFO on the skewed demo), the demo
jobs as a closed loop whose client runs its own batches, and the
serving edge cases (empty job, overload shedding, cancellation,
unknown app).
"""

import argparse
import json
import sys

from .errors import ServerOverloaded, UnknownApp
from .report import format_serve_report, validate_serve_report
from .server import FleetServer, ServeConfig
from .workload import demo_jobs, demo_weights


def demo_slos():
    """The demo workload's service-level objectives (``--slo``)."""
    from ..telemetry.slo import SLO

    return (
        SLO.latency("p99-latency", percentile=99,
                    target_vcycles=200_000),
        SLO.error_rate("job-errors", max_rate=0.01),
    )


def run_demo(*, devices=2, pu_slots=8, packer="skew", jobs=24, seed=1234,
             window_streams=32, memory_sim=False, app="identity",
             hi=3000, slos=()):
    """One deterministic demo serve run; returns (report, server)."""
    config = ServeConfig(
        devices=devices, pu_slots=pu_slots, packer=packer,
        window_streams=window_streams, tenant_weights=demo_weights(),
        memory_sim=memory_sim, slos=slos,
    )
    server = FleetServer(config=config)
    server.start()
    futures = [
        server.submit(job_app, streams, tenant=tenant)
        for job_app, tenant, streams in demo_jobs(
            seed, jobs=jobs, app=app, hi=hi
        )
    ]
    server.drain()
    for future in futures:
        future.result(timeout=60)
    report = server.report()
    return report, server


def _closed_loop(args, *, start):
    """The demo jobs as a closed loop: submit one, ``flush()``, wait
    with ``result()`` and no timeout, repeat. Without ``start`` the
    device workers never run, so every batch runs on this thread."""
    config = ServeConfig(
        devices=args.devices, pu_slots=args.slots, packer=args.packer,
        tenant_weights=demo_weights(),
    )
    server = FleetServer(config=config)
    if start:
        server.start()
    for job_app, tenant, streams in demo_jobs(args.seed, jobs=args.jobs):
        future = server.submit(job_app, streams, tenant=tenant)
        server.flush()
        future.result()
    server.drain()
    report = server.report()
    server.stop()
    return report


def _report_json(report):
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def _selftest(args):
    # 1. Determinism: two identical runs must render byte-identically.
    first, server = run_demo(
        devices=args.devices, pu_slots=args.slots, packer=args.packer,
        jobs=args.jobs, seed=args.seed,
    )
    server.stop()
    second, server2 = run_demo(
        devices=args.devices, pu_slots=args.slots, packer=args.packer,
        jobs=args.jobs, seed=args.seed,
    )
    server2.stop()
    assert _report_json(first) == _report_json(second), (
        "two serve runs of the same seeded workload diverged — the "
        "determinism contract is broken"
    )
    validate_serve_report(first)
    print(f"selftest: determinism + report invariants OK "
          f"({first['totals']['jobs']} jobs, "
          f"{first['totals']['batches']} batches, "
          f"makespan {first['totals']['makespan']})")

    # 2. Packing: on the skewed demo the LPT packer must not lose to
    # the naive FIFO baseline.
    fifo, server3 = run_demo(
        devices=1, pu_slots=args.slots, packer="fifo",
        jobs=args.jobs, seed=args.seed,
    )
    server3.stop()
    skew, server4 = run_demo(
        devices=1, pu_slots=args.slots, packer="skew",
        jobs=args.jobs, seed=args.seed,
    )
    server4.stop()
    assert skew["totals"]["makespan"] <= fifo["totals"]["makespan"], (
        "skew-aware packing lost to FIFO on the skewed demo workload"
    )
    print(f"selftest: packing OK (fifo {fifo['totals']['makespan']} -> "
          f"skew {skew['totals']['makespan']} vcycles)")

    # 3. Tracing: every job must carry a complete submit -> done span
    # chain, and the structured log must satisfy the chain invariants.
    from ..telemetry.tracing import validate_trace_log
    from .report import build_trace, build_trace_log

    events = validate_trace_log(build_trace_log(server2))
    traces = {e["trace"] for e in events}
    assert len(traces) == second["totals"]["jobs"], (
        "trace log does not cover every job"
    )
    chrome = build_trace(server2).to_chrome()
    job_events = [
        e for e in chrome["traceEvents"]
        if e["ph"] in ("X", "i") and e["args"].get("trace")
    ]
    per_trace = {}
    for event in job_events:
        per_trace.setdefault(event["args"]["trace"], set()).add(
            event["name"].split()[0]
        )
    assert len(per_trace) == second["totals"]["jobs"]
    for trace_id, hops in per_trace.items():
        assert {"submit", "queue", "done"} <= hops, (
            f"trace {trace_id}: incomplete span chain {sorted(hops)}"
        )
    print(f"selftest: tracing OK ({len(events)} log events, "
          f"{len(traces)} complete job chains)")

    # 4. SLOs: the demo objectives evaluate and render.
    slo_report, server_slo = run_demo(
        devices=args.devices, pu_slots=args.slots, packer=args.packer,
        jobs=args.jobs, seed=args.seed, slos=demo_slos(),
    )
    server_slo.stop()
    assert len(slo_report["slo"]) == len(demo_slos())
    validate_serve_report(slo_report)
    baseline = dict(slo_report)
    baseline.pop("slo")
    baseline["config"] = {
        k: v for k, v in baseline["config"].items() if k != "slos"
    }
    assert _report_json(baseline) == _report_json(first), (
        "attaching SLOs changed the rest of the report"
    )
    print(f"selftest: SLOs OK ({len(slo_report['slo'])} objectives, "
          f"all met: "
          f"{all(row['met'] for row in slo_report['slo'])})")

    # 5. Closed loop: a client waiting with result() and no timeout runs
    # its job's queued batches itself, racing the workers or alone.
    raced = _closed_loop(args, start=True)
    alone = _closed_loop(args, start=False)
    assert _report_json(raced) == _report_json(alone), (
        "a closed loop's report depends on which thread ran its batches"
    )
    validate_serve_report(raced)
    print(f"selftest: closed loop OK ({raced['totals']['jobs']} jobs, "
          f"{raced['totals']['batches']} batches, the same report with "
          f"and without workers)")

    # 6. Edge cases: empty job, overload shedding, cancellation,
    # unknown app.
    config = ServeConfig(
        devices=1, pu_slots=4, window_streams=1_000_000,
        max_pending_streams=4,
    )
    with FleetServer(config=config) as server5:
        empty = server5.submit("identity", [])
        assert empty.result(timeout=10).outputs == []
        held = server5.submit("identity", [b"abcd"] * 4)
        try:
            server5.submit("identity", [b"x"])
        except ServerOverloaded as error:
            assert error.pending_streams == 4
        else:
            raise AssertionError("overload was not shed")
        cancelled = held.cancel()
        assert cancelled and held.cancelled()
        try:
            server5.submit("nope", [b"x"])
        except UnknownApp:
            pass
        else:
            raise AssertionError("unknown app was accepted")
        server5.drain()
        validate_serve_report(server5.report())
    print("selftest: edge cases OK (empty job, load shed, cancel, "
          "unknown app)")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Serve a deterministic demo workload on simulated "
                    "Fleet devices and print the run report.",
    )
    parser.add_argument("--devices", type=int, default=2)
    parser.add_argument("--slots", type=int, default=8,
                        help="PU slots per device")
    parser.add_argument("--packer", choices=("skew", "fifo"),
                        default="skew")
    parser.add_argument("--jobs", type=int, default=24)
    parser.add_argument("--seed", type=int, default=1234)
    parser.add_argument("--app", choices=("identity", "sink"),
                        default="identity")
    parser.add_argument("--memory-sim", action="store_true",
                        help="run batches through the cycle-level "
                             "memory system (real per-batch cycle "
                             "attribution; slower)")
    parser.add_argument("--json", metavar="PATH",
                        help="write the serve report JSON ('-' for "
                             "stdout)")
    parser.add_argument("--trace", metavar="PATH",
                        help="write a Perfetto-loadable Chrome trace")
    parser.add_argument("--trace-log", metavar="PATH",
                        help="write the per-job span chains as "
                             "structured JSON log lines")
    parser.add_argument("--slo", action="store_true",
                        help="attach the demo service-level objectives "
                             "and report compliance/burn rate")
    parser.add_argument("--selftest", action="store_true",
                        help="determinism + invariants + tracing + SLOs "
                             "+ edge cases (CI)")
    args = parser.parse_args(argv)

    if args.selftest:
        return _selftest(args)

    report, server = run_demo(
        devices=args.devices, pu_slots=args.slots, packer=args.packer,
        jobs=args.jobs, seed=args.seed, memory_sim=args.memory_sim,
        app=args.app, slos=demo_slos() if args.slo else (),
    )
    print(format_serve_report(report))
    if args.json:
        if args.json == "-":
            print(_report_json(report), end="")
        else:
            with open(args.json, "w") as fh:
                fh.write(_report_json(report))
            print(f"\nwrote serve report JSON to {args.json}")
    if args.trace:
        server.write_trace(args.trace)
        print(f"wrote Chrome trace to {args.trace} "
              f"(open in https://ui.perfetto.dev)")
    if args.trace_log:
        server.write_trace_log(args.trace_log)
        print(f"wrote span-chain log lines to {args.trace_log}")
    server.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main())
