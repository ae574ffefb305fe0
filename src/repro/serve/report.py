"""Serve run reports: deterministic reconstruction, rendering,
validation, and Perfetto trace export.

The report is rebuilt *after* the run from scheduling decisions and
measured virtual cycles — the threads that run batches (device workers,
or clients waiting on their jobs) never write report state — so two
runs of the same workload render byte-identically. Timeline rule:
every job arrives at virtual time 0; each device executes its batches
back-to-back in dispatch order; batch ``k`` starts when batch ``k-1``
ends, a job's queue wait runs to its first batch's start, and its
latency to its last batch's end. All times are virtual cycles.
"""

from ..obs.tracer import TraceRecorder
from ..telemetry.slo import evaluate_slos, format_slo_section
from .job import CANCELLED, DONE, FAILED

#: Bumped when the serve report layout changes incompatibly.
SERVE_REPORT_SCHEMA = "repro.serve.report/v1"

#: Percentiles the latency/queue-wait sections report.
PERCENTILES = (50, 95, 99)


def percentile(values, pct):
    """Nearest-rank percentile of ``values`` (any order); 0 when
    empty."""
    if not values:
        return 0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))  # ceil
    return ordered[rank - 1]


def _distribution(values):
    out = {f"p{p}": percentile(values, p) for p in PERCENTILES}
    out["mean"] = (
        round(sum(values) / len(values), 3) if values else 0.0
    )
    out["max"] = max(values) if values else 0
    out["n"] = len(values)
    return out


def _timeline(server):
    """Per-device [(batch, start, end), ...] in dispatch order."""
    timelines = []
    for device in server.devices:
        clock = 0
        rows = []
        for batch in server._batches:
            if batch.device_index != device.index:
                continue
            start = clock
            clock = start + batch.makespan
            batch.start_vtime = start
            rows.append((batch, start, clock))
        timelines.append(rows)
    return timelines


def _slot_rows(batch):
    """Per-slot accounting in the observability layer's
    :meth:`~repro.obs.observe.PuStats.as_dict` vocabulary, over the
    batch's final makespan (the memory system's when ``memory_sim`` is
    on): ``busy_cycles`` is the slot's stream occupancy,
    ``starved_cycles`` the tail it idles waiting for the batch's longest
    stream. A batch that raised has none."""
    if batch.error is not None:
        return []
    makespan = batch.makespan
    return [
        {
            "bytes_in": len(entry.stream),
            "bytes_out": len(entry.outputs or ()),
            "bursts": 0 if entry.skipped else 1,
            "busy_cycles": entry.vcycles,
            "starved_cycles": makespan - entry.vcycles,
            "deferred_bursts": 0,
            "utilization": round(entry.vcycles / makespan, 4)
            if makespan else 0.0,
        }
        for entry in batch.entries
    ]


def build_serve_report(server):
    """The structured serve run report (plain JSON-serializable)."""
    timelines = _timeline(server)
    batch_span = {}
    for rows in timelines:
        for batch, start, end in rows:
            batch_span[batch.batch_id] = (start, end)

    jobs = []
    latencies, waits, device_times = [], [], []
    tenant_vcycles = {}
    for job in server._jobs:
        row = server._job_fragment(job)
        spans = [batch_span[b] for b in job.batch_ids if b in batch_span]
        if job.status == DONE and spans:
            first = min(start for start, _ in spans)
            last = max(end for _, end in spans)
            row["queue_wait"] = float(first)
            row["latency"] = float(last)
            latencies.append(row["latency"])
            waits.append(row["queue_wait"])
            device_times.append(row["device_vcycles"])
        elif job.status == DONE:  # empty job: served without a device
            row["queue_wait"] = 0.0
            row["latency"] = 0.0
        tenant_vcycles[job.tenant] = (
            tenant_vcycles.get(job.tenant, 0) + sum(job.vcycles)
        )
        jobs.append(row)

    total_vcycles = sum(tenant_vcycles.values())
    tenants = {}
    for name, state in server.wfq.snapshot().items():
        executed = tenant_vcycles.get(name, 0)
        tenants[name] = {
            "weight": state.weight,
            "jobs": state.jobs,
            "streams": state.streams,
            "device_vcycles": executed,
            "share": round(executed / total_vcycles, 4)
            if total_vcycles else 0.0,
        }

    devices = []
    for device, rows in zip(server.devices, timelines):
        clock = rows[-1][2] if rows else 0
        busy = sum(batch.busy_vcycles for batch, _, _ in rows)
        capacity = sum(
            batch.slots * batch.makespan for batch, _, _ in rows
        )
        devices.append({
            "index": device.index,
            "batches": len(rows),
            "clock": clock,
            "busy_vcycles": busy,
            "slot_utilization": round(busy / capacity, 4)
            if capacity else 0.0,
        })

    batches = []
    for rows in timelines:
        for batch, start, end in rows:
            row = {
                "batch_id": batch.batch_id,
                "app": batch.app,
                "device": batch.device_index,
                "streams": len(batch.entries),
                "slots": batch.slots,
                "start": start,
                "end": end,
                "makespan": batch.makespan,
                "busy_vcycles": batch.busy_vcycles,
                "predicted_makespan": round(batch.predicted_makespan, 3),
                "pus": _slot_rows(batch),
            }
            if batch.attribution is not None:
                row["attribution"] = dict(batch.attribution)
            if batch.batch_stats is not None:
                row["batch_engine"] = batch.batch_stats.as_dict()
            if batch.error is not None:
                row["error"] = batch.error
            batches.append(row)
    batches.sort(key=lambda row: row["batch_id"])
    statuses = {}
    for job in server._jobs:
        statuses[job.status] = statuses.get(job.status, 0) + 1

    report = {
        "schema": SERVE_REPORT_SCHEMA,
        "config": server.config.as_dict(),
        "totals": {
            "jobs": len(server._jobs),
            "statuses": dict(sorted(statuses.items())),
            "streams": sum(len(j.streams) for j in server._jobs),
            "stream_bytes": sum(j.stream_bytes for j in server._jobs),
            "batches": len(server._batches),
            "device_vcycles": total_vcycles,
            "makespan": max(
                (d["clock"] for d in devices), default=0
            ),
        },
        "latency": _distribution(latencies),
        "queue_wait": _distribution(waits),
        "device_time": _distribution(device_times),
        "tenants": tenants,
        "devices": devices,
        "batches": batches,
        "jobs": jobs,
        "cache": server.cache.stats(),
    }
    # SLO section only when objectives are configured, so legacy runs
    # stay byte-identical.
    if server.config.slos:
        report["slo"] = evaluate_slos(server.config.slos, jobs)
    return report


def format_serve_report(report):
    """Render a serve report dict as the human-readable summary
    ``python -m repro.serve`` prints."""
    totals = report["totals"]
    config = report["config"]
    lines = [
        f"serve run: {totals['jobs']} jobs, {totals['streams']} streams "
        f"({totals['stream_bytes']} bytes) in {totals['batches']} "
        f"batches on {config['devices']} device(s), "
        f"packer={config['packer']}",
        f"  statuses: " + ", ".join(
            f"{name}={count}"
            for name, count in totals["statuses"].items()
        ),
        f"  makespan {totals['makespan']} vcycles, "
        f"{totals['device_vcycles']} device vcycles executed",
        "",
        f"{'  section':<16}{'p50':>10}{'p95':>10}{'p99':>10}"
        f"{'mean':>12}{'max':>10}",
        "  " + "-" * 56,
    ]
    for key, title in (("latency", "latency"),
                       ("queue_wait", "queue wait"),
                       ("device_time", "device time")):
        dist = report[key]
        lines.append(
            f"  {title:<14}{dist['p50']:>10}{dist['p95']:>10}"
            f"{dist['p99']:>10}{dist['mean']:>12}{dist['max']:>10}"
        )
    lines.append("")
    lines.append(
        f"{'  tenant':<16}{'weight':>8}{'jobs':>7}{'streams':>9}"
        f"{'vcycles':>12}{'share':>8}"
    )
    lines.append("  " + "-" * 58)
    for name, row in report["tenants"].items():
        lines.append(
            f"  {name:<14}{row['weight']:>8.1f}{row['jobs']:>7}"
            f"{row['streams']:>9}{row['device_vcycles']:>12}"
            f"{row['share']:>7.1%}"
        )
    lines.append("")
    for device in report["devices"]:
        lines.append(
            f"  device {device['index']}: {device['batches']} batches, "
            f"clock {device['clock']} vcycles, "
            f"slot utilization {device['slot_utilization']:.1%}"
        )
    cache = report["cache"]
    lines.append(
        f"  app cache: {cache['hits']} hits / {cache['misses']} misses, "
        f"compiled: {', '.join(cache['compiled']) or '(none)'}"
    )
    engines = cache.get("engines") or {}
    if engines:
        matrix = ", ".join(
            f"{name}={engine}" for name, engine in engines.items()
        )
        lines.append(f"  engines: {matrix}")
    simd = [b for b in report["batches"] if "batch_engine" in b]
    if simd:
        busy = sum(b["batch_engine"]["busy_lane_cycles"] for b in simd)
        slots = sum(
            b["batch_engine"]["lanes"] * b["batch_engine"]["cycles"]
            for b in simd
        )
        waste = 1.0 - busy / slots if slots else 0.0
        mean_lanes = (
            sum(b["batch_engine"]["mean_active_lanes"] for b in simd)
            / len(simd)
        )
        lines.append(
            f"  batch engine: {len(simd)}/{len(report['batches'])} "
            f"batches SIMD, mean {mean_lanes:.1f} replicas/vcycle, "
            f"ragged-tail waste {waste:.1%}"
        )
    if "slo" in report:
        lines.append("")
        lines.append(format_slo_section(report["slo"]))
    return "\n".join(lines)


def validate_serve_report(report):
    """Assert the report's internal invariants (CLI selftest + tests);
    returns the report."""
    for device in report["devices"]:
        rows = [b for b in report["batches"]
                if b["device"] == device["index"]]
        if sum(b["makespan"] for b in rows) != device["clock"]:
            raise AssertionError(
                f"device {device['index']}: batch makespans do not sum "
                f"to the device clock"
            )
        if not 0.0 <= device["slot_utilization"] <= 1.0:
            raise AssertionError("slot utilization out of [0, 1]")
    for batch in report["batches"]:
        if batch["streams"] > batch["slots"]:
            raise AssertionError(
                f"batch {batch['batch_id']} overfills its PU slots"
            )
        if batch["end"] - batch["start"] != batch["makespan"]:
            raise AssertionError("batch span does not match makespan")
        if batch["busy_vcycles"] > batch["slots"] * batch["makespan"]:
            raise AssertionError("batch busier than slot capacity")
        if "batch_engine" in batch:
            stats = batch["batch_engine"]
            if not 0 <= stats["lanes"] <= batch["streams"]:
                raise AssertionError(
                    "batch-engine lane count exceeds batch streams"
                )
            if not 0.0 <= stats["waste_fraction"] <= 1.0:
                raise AssertionError(
                    "batch-engine waste fraction out of [0, 1]"
                )
            if stats["busy_lane_cycles"] > (
                stats["lanes"] * stats["cycles"]
            ):
                raise AssertionError(
                    "batch-engine busier than lane capacity"
                )
    dist = report["latency"]
    if not dist["p50"] <= dist["p95"] <= dist["p99"] <= dist["max"]:
        raise AssertionError("latency percentiles are not monotone")
    done = [j for j in report["jobs"] if j["status"] == DONE]
    if dist["n"] != sum(1 for j in done if j["batches"]):
        raise AssertionError("latency population != batched done jobs")
    for job in report["jobs"]:
        if job["status"] not in (DONE, CANCELLED, FAILED, "pending",
                                 "running"):
            raise AssertionError(f"bad job status {job['status']!r}")
    shares = sum(t["share"] for t in report["tenants"].values())
    if report["totals"]["device_vcycles"] and not (
        0.99 <= shares <= 1.01
    ):
        raise AssertionError("tenant shares do not sum to 1")
    for slo in report.get("slo", ()):
        if not 0.0 <= slo["compliance"] <= 1.0:
            raise AssertionError(
                f"SLO {slo['name']}: compliance out of [0, 1]"
            )
        if slo["good"] > slo["population"]:
            raise AssertionError(
                f"SLO {slo['name']}: good exceeds population"
            )
        if slo["burn_rate"] < 0.0:
            raise AssertionError(
                f"SLO {slo['name']}: negative burn rate"
            )
        if slo["met"] != (slo["compliance"] >= slo["objective"]):
            raise AssertionError(
                f"SLO {slo['name']}: met flag contradicts compliance"
            )
    return report


def _job_chain(job, batch_span):
    """One job's deterministic span chain as ``(queue_span_id,
    [(hop, span_id, parent_id, start, end, extras), ...])`` — the shared
    skeleton both trace exporters render. ``batch_span`` maps batch_id
    -> (start, end, device_index)."""
    ctx = job.trace
    spans = [
        (batch_id, *batch_span[batch_id])
        for batch_id in sorted(set(job.batch_ids))
        if batch_id in batch_span
    ]
    # Every job arrives at 0.0; a job that never ran ends there too.
    first = min((s for _, s, _, _ in spans), default=0.0)
    last = max((e for _, _, e, _ in spans), default=0.0)
    queue_span = ctx.child("queue")
    chain = [
        ("submit", ctx.root_span_id, None, 0.0, 0.0, {
            "app": job.app, "tenant": job.tenant,
            "streams": len(job.streams),
        }),
        ("queue", queue_span, ctx.root_span_id, 0.0, first, {}),
    ]
    for batch_id, start, end, device in spans:
        chain.append((
            "batch", ctx.child("batch", batch_id), queue_span,
            start, end, {"batch": batch_id, "device": device},
        ))
    chain.append((
        "done", ctx.child("done"), ctx.root_span_id,
        last, last, {"status": job.status},
    ))
    return queue_span, chain


def build_trace(server):
    """A :class:`~repro.obs.tracer.TraceRecorder` for the run: one
    process per device shard (one thread per PU slot, one complete span
    per executed stream), plus a ``jobs`` process with one thread per
    job carrying its submit → queue → batch → done span chain. Every
    span's ``args`` carry the deterministic trace/span ids
    (:mod:`repro.telemetry.tracing`), so the chain survives the Perfetto
    round trip. Timestamps are virtual cycles."""
    tracer = TraceRecorder()
    timelines = _timeline(server)
    batch_span = {}
    for rows in timelines:
        for batch, start, end in rows:
            batch_span[batch.batch_id] = (start, end, batch.device_index)
    for device, rows in zip(server.devices, timelines):
        tracer.process_name(device.index, f"device {device.index}")
        max_slots = max((batch.slots for batch, _, _ in rows), default=0)
        for slot in range(max_slots):
            tracer.thread_name(device.index, slot, f"slot {slot}")
        for batch, start, _end in rows:
            for slot, entry in enumerate(batch.entries):
                if entry.skipped:
                    continue
                ctx = entry.job.trace
                tracer.complete(
                    f"{batch.app} j{entry.job.job_id}"
                    f"s{entry.stream_index}",
                    start, start + entry.vcycles,
                    pid=device.index, tid=slot,
                    args={
                        "job": entry.job.job_id,
                        "tenant": entry.job.tenant,
                        "batch": batch.batch_id,
                        "bytes": len(entry.stream),
                        "trace": ctx.trace_id,
                        "span": ctx.child(
                            "stream", batch.batch_id, entry.stream_index
                        ),
                        "parent": ctx.child("batch", batch.batch_id),
                    },
                )
    jobs_pid = len(server.devices)
    tracer.process_name(jobs_pid, "jobs")
    for job in server._jobs:
        tracer.thread_name(jobs_pid, job.job_id, f"job {job.job_id}")
        _queue_span, chain = _job_chain(job, batch_span)
        for hop, span, parent, start, end, extras in chain:
            args = {"trace": job.trace.trace_id, "span": span}
            if parent is not None:
                args["parent"] = parent
            args.update(extras)
            name = f"{hop} j{job.job_id}"
            if start == end:
                tracer.instant(
                    name, start, pid=jobs_pid, tid=job.job_id, args=args
                )
            else:
                tracer.complete(
                    name, start, end, pid=jobs_pid, tid=job.job_id,
                    args=args,
                )
    return tracer


def build_trace_log(server):
    """The run's span chains as structured log events (list of dicts;
    render with :func:`repro.telemetry.tracing.render_log_lines`).

    One ``submit`` → ``queue`` → ``batch``* → ``stream``* → ``done``
    chain per job, in (timestamp, job, hop-rank) order so every event's
    parent appears earlier in the list; satisfies
    :func:`repro.telemetry.tracing.validate_trace_log`."""
    timelines = _timeline(server)
    batch_span = {}
    for rows in timelines:
        for batch, start, end in rows:
            batch_span[batch.batch_id] = (start, end, batch.device_index)
    rank = {"submit": 0, "queue": 1, "batch": 2, "stream": 3, "done": 4}
    events = []
    for job in server._jobs:
        _queue_span, chain = _job_chain(job, batch_span)
        for hop, span, parent, start, end, extras in chain:
            event = {
                "ts": start,
                "event": hop,
                "trace": job.trace.trace_id,
                "span": span,
                "job": job.job_id,
            }
            if parent is not None:
                event["parent"] = parent
            if end != start:
                event["end"] = end
            event.update(extras)
            events.append(event)
    for rows in timelines:
        for batch, start, _end in rows:
            for entry in batch.entries:
                if entry.skipped:
                    continue
                ctx = entry.job.trace
                events.append({
                    "ts": start,
                    "event": "stream",
                    "trace": ctx.trace_id,
                    "span": ctx.child(
                        "stream", batch.batch_id, entry.stream_index
                    ),
                    "parent": ctx.child("batch", batch.batch_id),
                    "job": entry.job.job_id,
                    "batch": batch.batch_id,
                    "stream": entry.stream_index,
                    "end": start + entry.vcycles,
                    "vcycles": entry.vcycles,
                })
    events.sort(
        key=lambda e: (e["ts"], e["job"], rank[e["event"]],
                       e.get("batch", -1), e.get("stream", -1))
    )
    return events
