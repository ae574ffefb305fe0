"""Performance-regression harness for the unit-simulation fast path.

Times the *same work* under the slow, authoritative engine and the fast
engine in one process: the JSON-parsing and integer-coding units over
their catalog workloads, interpreter (``engine="interp"``) versus the
certified compile-to-Python engine (``engine="compiled-certified"``);
outputs and per-token virtual-cycle traces are compared for exactness,
and ``all_certified`` records that both units still certify.

``run_perf_regression`` returns a plain dict (see
:func:`repro.bench.report.render_perf_json` for the JSON form written to
``BENCH_PERF.json``); the ``aggregate.speedup`` entry is total baseline
seconds over total fast seconds — end-to-end wall clock, not a mean of
ratios — and is the number the CI smoke check watches.

The results also carry an ``obs_overhead`` section
(:func:`run_obs_overhead`): the same memory simulation timed with
observability (:mod:`repro.obs`) disabled and enabled, guarding that the
disabled path never inherits instrumentation cost — a
``telemetry_overhead`` section (:func:`run_telemetry_overhead`): the
same serve workload with live telemetry (:mod:`repro.telemetry`)
disabled and enabled, guarding the <= 5% overhead ceiling and that
reports stay byte-identical — a ``serve`` section (:func:`repro.bench.serve_perf.run_serve_comparison`): the
serving scheduler's FIFO-vs-skew-packing and 1-vs-2-device makespans on
a Zipf stream-length workload, with their CI speedup floors — a
``dse`` section (:func:`repro.bench.dse_perf.run_dse_comparison`): the
automated design-space search's winners versus the paper's hand-picked
Figure-7 configurations, guarding that tuned aggregate throughput stays
at least :data:`~repro.bench.dse_perf.DSE_SPEEDUP_FLOOR` above the
baselines at equal-or-lower modeled area — and a ``native_engine``
section (:func:`run_native_engine`): certified compiled Python versus
the native C tier of the batch engine at N=1, with its own
:data:`NATIVE_ENGINE_FLOOR` and a graceful toolchain-absent skip.
"""

import time

from ..interp import make_simulator, try_specialize
from ..memory import MemoryConfig, SinkPu, simulate_channels
from ..obs import Observation
from .catalog import catalog
from .dse_perf import run_dse_comparison
from .serve_perf import run_serve_comparison

#: Unit-simulation cases: (catalog key, stream-pair sizes, repetitions).
UNIT_CASES = [
    ("json_parsing", dict(small=1_200, large=12_000), 2),
    ("integer_coding", dict(small=1_200, large=8_000), 1),
]


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


def _run_unit_case(key, sizes, reps, quick):
    spec = catalog()[key]
    if quick:
        sizes = dict(small=600, large=2_400)
        reps = 1
    streams = [large for _, large in spec.stream_pairs(**sizes)]
    if quick:
        streams = streams[:1]

    def run(engine):
        signatures = []
        for _ in range(reps):
            for stream in streams:
                sim = make_simulator(spec.unit(), engine=engine)
                sim.run(stream)
                signatures.append(
                    (tuple(sim.outputs), tuple(sim.trace.vcycles_per_token))
                )
        return signatures

    # Losing a certificate would silently drop every per-stream path of
    # the app to the interpreter; the bench asserts it never happens.
    certified = try_specialize(spec.unit()) is not None
    base_seconds, base_sig = _timed(lambda: run("interp"))
    fast_seconds, fast_sig = _timed(lambda: run("compiled-certified"))
    return {
        "name": f"unit_sim/{key}",
        "kind": "unit_sim",
        "certified": certified,
        "baseline": {"engine": "interp", "seconds": base_seconds},
        "fast": {"engine": "compiled-certified", "seconds": fast_seconds},
        "speedup": base_seconds / fast_seconds if fast_seconds else 0.0,
        "match": base_sig == fast_sig,
    }


def run_obs_overhead(quick=False, pus=128, stream_bytes=1 << 16,
                     rounds=3):
    """Guard that observability (:mod:`repro.obs`) is pay-for-what-you-
    use: time the same memory simulation with observation disabled and
    enabled. The disabled run must stay faster — if
    instrumentation cost ever leaks into the uninstrumented path, the
    ``disabled_faster`` flag (asserted by the bench and CI) trips."""
    config = MemoryConfig()
    fixed_cycles = 6_000 if quick else 20_000

    def run(obs):
        simulate_channels(
            config,
            lambda i: [SinkPu(stream_bytes) for _ in range(pus)],
            channels=1, fixed_cycles=fixed_cycles, obs=obs,
        )

    run(None)  # warm up
    disabled = min(_timed(lambda: run(None))[0] for _ in range(rounds))
    enabled = min(
        _timed(lambda: run(Observation()))[0] for _ in range(rounds)
    )
    return {
        "disabled_seconds": disabled,
        "enabled_seconds": enabled,
        "overhead_ratio": enabled / disabled if disabled else 0.0,
        "disabled_faster": disabled < enabled,
    }


#: CI ceiling on serve CPU time with telemetry enabled vs disabled.
TELEMETRY_OVERHEAD_CEILING = 1.05


def run_telemetry_overhead(quick=False, rounds=5, seed=20260809,
                           slots=8):
    """Guard that live telemetry (:mod:`repro.telemetry`) is cheap
    enough to leave on: time the same seeded Zipf serve workload with
    telemetry disabled and enabled. The bench asserts
    ``overhead_ratio`` stays at or below
    :data:`TELEMETRY_OVERHEAD_CEILING`, that the enabled run actually
    recorded samples, and that the two runs' reports stayed
    byte-identical (metrics must never feed reports).

    A 5% bound sits at the noise floor of wall-clock timing on a
    threaded workload, so the measurement is built for robustness
    rather than speed: process CPU time (``time.process_time`` sums
    compute across threads and ignores condition-variable waits, which
    is where scheduler jitter lands), the cyclic GC parked during each
    timed run (collector pauses otherwise dominate the delta), and
    disabled/enabled runs interleaved in adjacent pairs — alternating
    which side of the pair runs first — with the *median* per-pair
    ratio reported (adjacent pairs cancel machine drift, alternation
    cancels within-pair ordering bias, the median sheds one-off
    outliers). Quick mode uses a
    looser ceiling — its workload is too short for a stable 5% bound —
    while the committed full-mode ``BENCH_PERF.json`` number holds the
    real one."""
    import gc
    import json as _json
    import random
    import statistics

    from ..serve import FleetServer, ServeConfig
    from ..serve.workload import make_streams, zipf_lengths
    from ..telemetry import metrics

    n, lo, hi = (120, 32, 1_200) if quick else (1_200, 256, 6_000)
    rnd = random.Random(seed)
    streams = make_streams(
        rnd, zipf_lengths(rnd, n, alpha=1.2, lo=lo, hi=hi)
    )

    def run():
        config = ServeConfig(
            devices=1, pu_slots=slots, packer="skew",
            window_streams=64, max_pending_streams=1 << 30,
        )
        with FleetServer(config=config) as server:
            # Four streams per job — the serving model's natural shape
            # (one request carries many records).
            for index in range(0, len(streams), 4):
                server.submit(
                    "identity", streams[index:index + 4],
                    tenant=f"tenant{(index // 4) % 4}",
                )
            server.drain()
            return _json.dumps(server.report(), sort_keys=True)

    def timed():
        gc.collect()
        gc.disable()
        try:
            start = time.process_time()
            report = run()
            return time.process_time() - start, report
        finally:
            gc.enable()

    # Warm both paths (imports, compiled-app cache, allocator pools).
    with metrics.enabled_scope(False):
        run()
    with metrics.enabled_scope():
        metrics.reset()
        run()
        metrics.reset()
    pair_ratios = []
    disabled_runs = []
    enabled_runs = []
    samples = 0

    def timed_disabled():
        with metrics.enabled_scope(False):
            disabled_runs.append(timed())

    def timed_enabled():
        nonlocal samples
        with metrics.enabled_scope():
            metrics.reset()
            enabled_runs.append(timed())
            samples = sum(
                len(f["samples"]) for f in metrics.snapshot().values()
            )
            metrics.reset()

    for index in range(rounds):
        if index % 2:
            timed_enabled()
            timed_disabled()
        else:
            timed_disabled()
            timed_enabled()
        pair_ratios.append(
            enabled_runs[-1][0] / disabled_runs[-1][0]
            if disabled_runs[-1][0] else 0.0
        )
    disabled = min(seconds for seconds, _ in disabled_runs)
    enabled = min(seconds for seconds, _ in enabled_runs)
    ratio = statistics.median(pair_ratios) if pair_ratios else 0.0
    identical = disabled_runs[-1][1] == enabled_runs[-1][1]
    ceiling = 1.25 if quick else TELEMETRY_OVERHEAD_CEILING
    return {
        "workload": {
            "streams": n, "min_bytes": lo, "max_bytes": hi,
            "seed": seed, "rounds": rounds,
        },
        "disabled_seconds": disabled,
        "enabled_seconds": enabled,
        "overhead_ratio": ratio,
        "pair_ratios": pair_ratios,
        "ceiling": ceiling,
        "samples_recorded": samples,
        "reports_identical": identical,
        "pass": ratio <= ceiling and identical and samples > 0,
    }


#: CI floor on the native-engine aggregate speedup (the batch engine's
#: certified C kernel at N=1 over certified compiled Python).
NATIVE_ENGINE_FLOOR = 3.0


def run_native_engine(quick=False, reps=None):
    """The batch engine's C kernel at N=1 — one stream per
    :func:`~repro.interp.batch.run_batch_streams` call, the way serving
    runs a batch of one — versus the certified compiled-Python engine on
    the same catalog units (both print one lowering), outputs and
    per-token virtual-cycle traces compared for exactness.

    Returns ``{"skipped": reason}`` when no C toolchain is available
    (or ``FLEET_NATIVE=off``); otherwise the aggregate speedup must
    clear :data:`NATIVE_ENGINE_FLOOR`."""
    from ..interp.batch import (
        cc_available, compile_batch, run_batch_streams,
    )
    from ..interp.compile import CompiledSimulator, compile_program
    from ..lang.errors import FleetSimulationError

    if not cc_available():
        return {"skipped": "no C toolchain (or FLEET_NATIVE=off)"}

    sizes = (dict(small=400, large=1_600) if quick
             else dict(small=800, large=6_000))
    reps = reps if reps is not None else (1 if quick else 3)
    cases = []
    for key in ("json_parsing", "integer_coding"):
        spec = catalog()[key]
        program = spec.unit()
        try:
            native = compile_batch(program)
        except FleetSimulationError as exc:
            cases.append({
                "name": f"native_engine/{key}",
                "kind": "native_engine",
                "skipped": str(exc),
            })
            continue
        compiled = compile_program(program)
        streams = [large for _, large in spec.stream_pairs(**sizes)]
        if quick:
            streams = streams[:1]

        def run(signature, streams=streams):
            return [signature(stream) for stream in streams]

        def py_signature(stream, program=program, unit=compiled):
            sim = CompiledSimulator(program, unit)
            sim.run(stream)
            return tuple(sim.outputs), tuple(sim.trace.vcycles_per_token)

        def cc_signature(stream, program=program, unit=native):
            result = run_batch_streams(program, [stream], unit=unit,
                                       traces=True)
            return (tuple(result.outputs[0]),
                    tuple(result.traces[0].vcycles_per_token))

        run(cc_signature)  # warm (first call may hit the on-disk build cache)
        run(py_signature)
        base_seconds, base_sig = min(
            (_timed(lambda: run(py_signature)) for _ in range(reps)),
            key=lambda pair: pair[0],
        )
        fast_seconds, fast_sig = min(
            (_timed(lambda: run(cc_signature)) for _ in range(reps)),
            key=lambda pair: pair[0],
        )
        cases.append({
            "name": f"native_engine/{key}",
            "kind": "native_engine",
            "baseline": {"engine": "compiled-certified",
                         "seconds": base_seconds},
            "fast": {"engine": "batch-cc(N=1)", "seconds": fast_seconds},
            "speedup": base_seconds / fast_seconds if fast_seconds else 0.0,
            "match": base_sig == fast_sig,
        })
    timed = [c for c in cases if "skipped" not in c]
    base_total = sum(c["baseline"]["seconds"] for c in timed)
    fast_total = sum(c["fast"]["seconds"] for c in timed)
    return {
        "cases": cases,
        "aggregate": {
            "baseline_seconds": base_total,
            "fast_seconds": fast_total,
            "speedup": base_total / fast_total if fast_total else 0.0,
            "floor": NATIVE_ENGINE_FLOOR,
            "all_match": all(c["match"] for c in timed),
        },
    }


#: Batch-engine cases: app name -> (unit builder kwargs-free callable,
#: per-token alphabet sampler). Chosen to span state shapes: BRAM-heavy
#: (bloom), register/DFA (regex), vector-register queues (int_coding),
#: deep compare-select chains (smith_waterman).
BATCH_ENGINE_APPS = (
    "bloom_filter", "regex_match", "int_coding", "smith_waterman",
)

#: Figure-7 fleet size the batch-engine comparison runs at.
BATCH_FLEET_LANES = 192


def run_batch_engine(quick=False, lanes=None, tokens=None):
    """The batch kernel versus N sequential certified compiled runs.

    Executes a ragged ``lanes``-replica fleet (two lanes deliberately
    shortened, one empty) of each app and compares against per-stream
    :class:`~repro.interp.CompiledSimulator` runs: ``match`` requires
    bit-identical outputs *and* per-token virtual-cycle traces for every
    lane. The aggregate speedup — total sequential seconds over total
    batch seconds at the 192-PU Figure-7 fleet size — is the number the
    benchmark floor watches (>= 10x).

    Returns ``{"skipped": reason}`` when no C toolchain is available
    (or ``FLEET_NATIVE=off``).
    """
    import random

    from .. import apps as apps_mod
    from ..interp.batch import (
        cc_available, compile_batch, run_batch_streams,
    )
    from ..interp.compile import CompiledSimulator, compile_program

    if not cc_available():
        return {"skipped": "no C toolchain (or FLEET_NATIVE=off)"}

    builders = {
        "bloom_filter": (apps_mod.bloom_filter_unit,
                         lambda rng: rng.randrange(256)),
        "regex_match": (apps_mod.regex_match_unit,
                        lambda rng: rng.choice(b"ab.@x \nuser@host.com")),
        "int_coding": (apps_mod.int_coding_unit,
                       lambda rng: rng.randrange(256)),
        "smith_waterman": (apps_mod.smith_waterman_unit,
                           lambda rng: rng.randrange(4)),
    }
    lanes = lanes if lanes is not None else (32 if quick else
                                             BATCH_FLEET_LANES)
    tokens = tokens if tokens is not None else (96 if quick else 256)
    rng = random.Random(0xF1EE7)
    cases = []
    for name in BATCH_ENGINE_APPS:
        build, sample = builders[name]
        program = build()
        unit = compile_batch(program)
        compiled_unit = compile_program(program)
        streams = [
            [sample(rng) for _ in range(tokens)] for _ in range(lanes)
        ]
        # Ragged coverage: a short lane and an empty lane in every run.
        streams[0] = streams[0][: tokens // 2]
        streams[1] = []

        def run_sequential(program=program, unit=compiled_unit,
                           streams=streams):
            signatures = []
            for stream in streams:
                sim = CompiledSimulator(program, unit)
                sim.run(stream)
                signatures.append(
                    (tuple(sim.outputs),
                     tuple(sim.trace.vcycles_per_token))
                )
            return signatures

        def run_batched(program=program, unit=unit, streams=streams):
            # Read the traces inside the timed region, as the sequential
            # side builds them: a batch builds them on first read.
            result = run_batch_streams(program, streams, unit=unit,
                                       traces=True)
            return result, [
                (tuple(outs), tuple(trace.vcycles_per_token))
                for outs, trace in zip(result.outputs, result.traces)
            ]

        run_batched()  # warm the kernel (first call may hit disk cache)
        base_seconds, base_sig = _timed(run_sequential)
        fast_seconds, (result, fast_sig) = _timed(run_batched)
        cases.append({
            "name": f"batch_engine/{name}",
            "kind": "batch_engine",
            "backend": "cc",
            "baseline": {"engine": f"compiled-certified x{lanes}",
                         "seconds": base_seconds},
            "fast": {"engine": "batch", "seconds": fast_seconds},
            "speedup": base_seconds / fast_seconds if fast_seconds
            else 0.0,
            "match": base_sig == fast_sig,
            "occupancy": result.stats.as_dict(),
        })
    base_total = sum(c["baseline"]["seconds"] for c in cases)
    fast_total = sum(c["fast"]["seconds"] for c in cases)
    return {
        "lanes": lanes,
        "tokens": tokens,
        "cases": cases,
        "aggregate": {
            "baseline_seconds": base_total,
            "fast_seconds": fast_total,
            "speedup": base_total / fast_total if fast_total else 0.0,
            "all_match": all(c["match"] for c in cases),
        },
    }


def run_perf_regression(quick=False):
    """Run every case; returns the results dict (see module docstring)."""
    benchmarks = []
    for key, sizes, reps in UNIT_CASES:
        benchmarks.append(_run_unit_case(key, sizes, reps, quick))
    base_total = sum(b["baseline"]["seconds"] for b in benchmarks)
    fast_total = sum(b["fast"]["seconds"] for b in benchmarks)
    return {
        "quick": quick,
        "benchmarks": benchmarks,
        "aggregate": {
            "baseline_seconds": base_total,
            "fast_seconds": fast_total,
            "speedup": base_total / fast_total if fast_total else 0.0,
            "all_match": all(b["match"] for b in benchmarks),
            "all_certified": all(b["certified"] for b in benchmarks),
        },
        "obs_overhead": run_obs_overhead(quick),
        "telemetry_overhead": run_telemetry_overhead(quick),
        "serve": run_serve_comparison(quick),
        "dse": run_dse_comparison(quick),
        "native_engine": run_native_engine(quick),
        "batch_engine": run_batch_engine(quick),
    }
