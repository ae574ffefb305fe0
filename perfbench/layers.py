"""The layers the traced run times, and the per-layer metrics.

:func:`install` wraps each layer's public entry points with a
:class:`~tracer.Tracer`. Functions are wrapped where their callers look
them up at call time: in the caller's module for names imported at
module load (``repro.serve.cache.program_fingerprint``), in the defining
module for names looked up inside it (``repro.interp.compile.
compile_program``), and on the class for methods.

:data:`TARGETS` records, for every per-layer metric, the end-to-end
metric and workload it should move, so later changes can cite them.
"""

import bisect

#: per-layer metric -> (unit, end-to-end target, workload, meaning)
TARGETS = {
    "serve.submit_us": (
        "us", "latency_p50_ms", "serve_interactive",
        "mean host time per FleetServer.submit call"),
    "serve.window_us": (
        "us", "latency_p50_ms", "serve_interactive",
        "mean host time per scheduling window in WFQ order, cost "
        "predict, pack and place_batch"),
    "serve.cost_predict_calls": (
        "count/op", "latency_p50_ms", "serve_interactive",
        "CostModel.predict calls per job"),
    "serve.report_s": (
        "s", "input_mb_per_s", "serve_bulk",
        "mean host time per FleetServer.report call"),
    "cache.lookups": (
        "count/op", "jobs_per_s", "serve_interactive",
        "CompiledAppCache.entry lookups per job"),
    "cache.lookup_us": (
        "us", "jobs_per_s", "serve_interactive",
        "mean host time per CompiledAppCache.entry hit"),
    "cache.compile_s": (
        "s", "setup_s", "serve workloads",
        "set-up time in the first CompiledAppCache.entry of each app"),
    "device.busy_frac": (
        "ratio", "latency_p99_ms", "serve_interactive",
        "share of measured wall the device thread spends in "
        "DeviceWorker.execute"),
    "device.queue_wait_ms": (
        "ms", "latency_p99_ms", "serve_interactive",
        "mean host time from DeviceWorker.enqueue to execute start"),
    "device.slot_fill": (
        "ratio", "input_mb_per_s", "serve_bulk",
        "mean live streams / PU slots over executed batches"),
    "interp.batch_calls": (
        "count/op", "input_mb_per_s", "serve_bulk",
        "run_batch_streams calls per job"),
    "interp.batch_s": (
        "s/op", "input_mb_per_s", "serve_bulk",
        "host time in run_batch_streams per job"),
    "interp.batch_ns_per_lane_cycle": (
        "ns", "input_mb_per_s", "serve_bulk",
        "run_batch_streams time per lane x virtual-cycle slot"),
    "interp.batch_useful_frac": (
        "ratio", "input_mb_per_s", "serve_bulk",
        "1 - BatchStats.waste_fraction over all batch calls"),
    "interp.stream_s": (
        "s/op", "jobs_per_s", "serve_interactive",
        "host time in FleetRuntime.run_traced per job"),
    "interp.stream_ns_per_vcycle": (
        "ns", "jobs_per_s", "serve_interactive",
        "FleetRuntime.run_traced time per virtual cycle"),
    "interp.compile_program_s": (
        "s", "setup_s", "serve workloads",
        "set-up time in compile_program"),
    "interp.compile_cc_s": (
        "s", "setup_s", "serve workloads",
        "set-up time in compile_cc"),
    "interp.compile_batch_s": (
        "s", "setup_s", "serve workloads",
        "set-up time in compile_batch"),
    "interp.native_build_cold_s": (
        "s", "setup_s", "serve workloads",
        "serve set-up time with an empty native build cache minus with "
        "a warm one"),
    "lint.certify_s": (
        "s", "setup_s", "serve workloads",
        "set-up time in certify_program"),
    "lint.fingerprint_calls": (
        "count/op", "jobs_per_s", "serve_interactive",
        "program_fingerprint revalidations per job"),
    "lint.fingerprint_us": (
        "us", "jobs_per_s", "serve_interactive",
        "mean host time per program_fingerprint revalidation"),
    "memory.ns_per_cycle": (
        "ns", "latency_p50_ms", "figures",
        "ChannelSystem.run/run_for time per simulated memory cycle"),
    "memory.channel_s": (
        "s/op", "latency_p50_ms", "figures",
        "host time in ChannelSystem.run/run_for per figure"),
    "system.profile_s": (
        "s/op", "latency_p50_ms", "figures",
        "host time in profile_unit per figure"),
    "compiler.compile_unit_s": (
        "s/op", "latency_p50_ms", "figures",
        "host time in compile_unit per figure"),
    "baselines.gpu_s": (
        "s/op", "latency_p50_ms", "figures",
        "host time in evaluate_gpu_app per figure"),
    "baselines.cpu_s": (
        "s/op", "latency_p50_ms", "figures",
        "host time in evaluate_cpu_app per figure"),
    "trace.coverage": (
        "ratio", "-", "every workload",
        "share of the end-to-end windows covered by the union of layer "
        "spans across threads"),
    "trace.overhead": (
        "ratio", "-", "every workload",
        "traced wall per job / untraced wall per job"),
}


def _batch_info(args, result):
    stats = result.stats
    return (stats.lanes * stats.cycles, stats.busy_lane_cycles)


def _execute_job(args, result):
    return sorted({entry.job.job_id for entry in args[1].entries})


def _execute_info(args, result):
    batch = args[1]
    return (batch.batch_id, len(batch.entries), batch.slots)


def install(tracer):
    """Wrap every layer's entry points with ``tracer``."""
    # import_module, not ``import a.b as b``: packages re-export
    # functions under their submodules' names (repro.bench.catalog).
    from importlib import import_module

    def module(name):
        return import_module("repro." + name)

    catalog = module("bench.catalog")
    harness = module("bench.harness")
    interp_batch = module("interp.batch")
    interp_cc = module("interp.cc")
    interp_compile = module("interp.compile")
    certificate = module("lint.certificate")
    channel = module("memory.channel")
    cache = module("serve.cache")
    cost = module("serve.cost")
    device = module("serve.device")
    packing = module("serve.packing")
    scheduler = module("serve.scheduler")
    server = module("serve.server")
    runtime = module("system.runtime")
    system_sim = module("system.system_sim")

    wrap = tracer.wrap
    # repro.serve
    wrap(server.FleetServer, "submit", "serve.submit",
         job=lambda args, result: result.job_id)
    wrap(server.FleetServer, "report", "serve.report")
    wrap(scheduler.WeightedFairQueue, "order", "serve.wfq_order")
    wrap(cost.CostModel, "predict", "serve.cost_predict")
    wrap(packing.SkewAwarePacker, "pack", "serve.pack")
    wrap(server, "place_batch", "serve.place_batch")
    # repro.serve.device
    wrap(device.DeviceWorker, "enqueue", "device.enqueue",
         info=lambda args, result: args[1].batch_id)
    wrap(device.DeviceWorker, "execute", "device.execute",
         job=_execute_job, info=_execute_info)
    # repro.serve.cache and repro.lint
    wrap(cache.CompiledAppCache, "entry", "cache.entry",
         info=lambda args, result: args[1])
    wrap(cache, "program_fingerprint", "lint.fingerprint")
    wrap(certificate, "certify_program", "lint.certify")
    # repro.interp
    wrap(interp_compile, "compile_program", "interp.compile_program")
    wrap(interp_cc, "compile_cc", "interp.compile_cc")
    wrap(interp_batch, "compile_batch", "interp.compile_batch")
    wrap(interp_batch, "run_batch_streams", "interp.batch",
         info=_batch_info)
    wrap(runtime.FleetRuntime, "run_traced", "interp.stream",
         info=lambda args, result: sum(v for _, v in result))
    # repro.system / repro.memory / repro.compiler
    for method in ("run", "run_for"):
        wrap(channel.ChannelSystem, method, "memory.channel",
             info=lambda args, result: result.cycles)
    wrap(harness, "evaluate_fleet_app", "system.evaluate_fleet_app")
    wrap(system_sim, "compile_unit", "compiler.compile_unit")
    wrap(system_sim, "profile_unit", "system.profile")
    # repro.baselines and the figure inputs
    wrap(harness, "evaluate_cpu_app", "baselines.cpu")
    wrap(harness, "evaluate_gpu_app", "baselines.gpu")
    wrap(catalog.AppSpec, "stream_pairs", "bench.inputs")
    wrap(catalog.AppSpec, "gpu_warp_pairs", "bench.inputs")


def _mean(values):
    return sum(values) / len(values) if values else 0.0


def _total(spans):
    return sum(s.duration for s in spans)


def setup_metrics(spans, names):
    """Per-layer set-up metrics from the spans recorded during set-up."""
    seen = set()
    first_lookups = []
    for span in sorted(names.get("cache.entry", []), key=lambda s: s.start):
        if span.info not in seen:
            seen.add(span.info)
            first_lookups.append(span)
    return {
        "cache.compile_s": _total(first_lookups),
        "interp.compile_program_s": _total(
            names.get("interp.compile_program", [])),
        "interp.compile_cc_s": _total(names.get("interp.compile_cc", [])),
        "interp.compile_batch_s": _total(
            names.get("interp.compile_batch", [])),
        "lint.certify_s": _total(names.get("lint.certify", [])),
    }


def run_metrics(names, ops, wall):
    """Per-layer metrics of the traced rounds: ``ops`` jobs (or
    figures) completed in ``wall`` seconds of end-to-end windows."""
    def get(name):
        return names.get(name, [])

    def per_op(value):
        return value / ops if ops else 0.0

    window_parts = ("serve.wfq_order", "serve.cost_predict", "serve.pack",
                    "serve.place_batch")
    windows = len(get("serve.wfq_order"))
    # Batch ids restart with every server, so a batch's enqueue is the
    # last one of its id before it executes.
    enqueued = {}
    for span in get("device.enqueue"):
        enqueued.setdefault(span.info, []).append(span.start)
    for starts in enqueued.values():
        starts.sort()
    executes = get("device.execute")
    waits = []
    for span in executes:
        starts = enqueued.get(span.info[0], [])
        i = bisect.bisect_right(starts, span.start)
        if i:
            waits.append(span.start - starts[i - 1])
    batch = get("interp.batch")
    slot_cycles = sum(s.info[0] for s in batch)
    busy_cycles = sum(s.info[1] for s in batch)
    stream = get("interp.stream")
    vcycles = sum(s.info for s in stream)
    channel = get("memory.channel")
    mem_cycles = sum(s.info for s in channel)
    return {
        "serve.submit_us": _mean([s.duration for s in get("serve.submit")])
        * 1e6,
        "serve.window_us": (
            sum(_total(get(n)) for n in window_parts) / windows * 1e6
            if windows else 0.0),
        "serve.cost_predict_calls": per_op(len(get("serve.cost_predict"))),
        "serve.report_s": _mean([s.duration for s in get("serve.report")]),
        "cache.lookups": per_op(len(get("cache.entry"))),
        "cache.lookup_us": _mean([s.duration for s in get("cache.entry")])
        * 1e6,
        "device.busy_frac": _total(executes) / wall if wall else 0.0,
        "device.queue_wait_ms": _mean(waits) * 1e3,
        "device.slot_fill": _mean([s.info[1] / s.info[2] for s in executes
                                   if s.info[2]]),
        "interp.batch_calls": per_op(len(batch)),
        "interp.batch_s": per_op(_total(batch)),
        "interp.batch_ns_per_lane_cycle": (
            _total(batch) / slot_cycles * 1e9 if slot_cycles else 0.0),
        "interp.batch_useful_frac": (
            busy_cycles / slot_cycles if slot_cycles else 0.0),
        "interp.stream_s": per_op(_total(stream)),
        "interp.stream_ns_per_vcycle": (
            _total(stream) / vcycles * 1e9 if vcycles else 0.0),
        "lint.fingerprint_calls": per_op(len(get("lint.fingerprint"))),
        "lint.fingerprint_us": _mean(
            [s.duration for s in get("lint.fingerprint")]) * 1e6,
        "memory.ns_per_cycle": (
            _total(channel) / mem_cycles * 1e9 if mem_cycles else 0.0),
        "memory.channel_s": per_op(_total(channel)),
        "system.profile_s": per_op(_total(get("system.profile"))),
        "compiler.compile_unit_s": per_op(
            _total(get("compiler.compile_unit"))),
        "baselines.gpu_s": per_op(_total(get("baselines.gpu"))),
        "baselines.cpu_s": per_op(_total(get("baselines.cpu"))),
    }
