"""Full-system Fleet performance estimation (paper Section 7.2).

Pipeline for one application, mirroring how the paper's numbers arise:

1. compile the processing unit and estimate its area → how many PUs fill
   the FPGA (Figure 7's "# PUs" column);
2. profile the unit on sample streams with the functional simulator →
   virtual cycles per token and output bytes per input byte (the compiler
   guarantees one virtual cycle per real cycle, Section 4, so this *is*
   the PU's hardware timing);
3. run the cycle-level memory-system simulation with that many behavioral
   PUs per channel → sustained GB/s across the four channels;
4. apply the power model → performance per watt, with and without the
   paper's constant 12.5 W DRAM adder.
"""

from ..compiler import compile_unit
from ..interp import make_simulator
from ..memory import MemoryConfig, RatePu, simulate_channels
from .area import (
    estimate_controllers,
    estimate_module,
    fit_processing_units,
    pu_overhead,
)
from .device import AMAZON_F1
from .power import fpga_package_watts, perf_per_watt


class UnitProfile:
    """Functional-simulator measurements of one unit on one stream."""

    def __init__(self, vcycles_per_token, output_ratio, tokens_in,
                 tokens_out):
        self.vcycles_per_token = vcycles_per_token
        self.output_ratio = output_ratio  # output bytes per input byte
        self.tokens_in = tokens_in
        self.tokens_out = tokens_out

    def __repr__(self):
        return (
            f"UnitProfile(vcpt={self.vcycles_per_token:.3f}, "
            f"out_ratio={self.output_ratio:.3f})"
        )


def serving_pu_slots(unit, *, device=AMAZON_F1, config=None, cap=64):
    """How many PU slots one *serving* device exposes for ``unit``.

    The area model says how many replicas fill the FPGA
    (:func:`fit_processing_units`); the serving runtime
    (:mod:`repro.serve`) sizes its batches from that count, capped by
    default at 64 slots so pure-Python batch simulation stays tractable
    (a real deployment would drop the cap and use the full replica
    count)."""
    config = config or MemoryConfig(frequency_hz=device.frequency_hz)
    module = compile_unit(unit)
    area = estimate_module(module)
    slots = fit_processing_units(area, device, config)
    return max(1, min(slots, cap) if cap else slots)


def profile_unit(unit, stream):
    """Run ``unit`` over ``stream`` on the engine
    :func:`~repro.interp.make_simulator` chooses, and summarize."""
    sim = make_simulator(unit)
    sim.run(stream)
    trace = sim.trace
    in_bytes = trace.tokens_in * unit.input_width / 8
    out_bytes = trace.tokens_out * unit.output_width / 8
    return UnitProfile(
        trace.mean_vcycles_per_token,
        out_bytes / in_bytes if in_bytes else 0.0,
        trace.tokens_in,
        trace.tokens_out,
    )


def profile_unit_marginal(unit, small_stream, large_stream):
    """Marginal profile between two stream sizes with the same header,
    amortizing table/model-loading virtual cycles (a 1 MB/PU production
    stream amortizes its header; small simulation samples must too)."""
    small = profile_unit(unit, small_stream)
    large = profile_unit(unit, large_stream)
    d_tokens = large.tokens_in - small.tokens_in
    if d_tokens <= 0:
        raise ValueError("large stream must be longer than small stream")
    small_v = small.vcycles_per_token * small.tokens_in
    large_v = large.vcycles_per_token * large.tokens_in
    vcpt = (large_v - small_v) / d_tokens
    d_out = large.tokens_out - small.tokens_out
    ratio = (d_out * unit.output_width) / (d_tokens * unit.input_width)
    return UnitProfile(vcpt, ratio, d_tokens, d_out)


class FleetAppResult:
    """Everything Figure 7 reports for the Fleet column."""

    def __init__(self, name, pu_count, gbps, theoretical_gbps,
                 package_watts, profile, area, attribution=None):
        self.name = name
        self.pu_count = pu_count
        self.gbps = gbps
        self.theoretical_gbps = theoretical_gbps
        self.package_watts = package_watts
        self.profile = profile
        self.area = area
        #: cycle-attribution dict of the memory-system run (only when
        #: the evaluation was observed; see :mod:`repro.obs`)
        self.attribution = attribution

    @property
    def perf_per_watt(self):
        return perf_per_watt(self.gbps, self.package_watts, False)

    @property
    def perf_per_watt_dram(self):
        return perf_per_watt(self.gbps, self.package_watts, True)

    def __repr__(self):
        return (
            f"FleetAppResult({self.name!r}, pus={self.pu_count}, "
            f"{self.gbps:.2f} GB/s, {self.perf_per_watt:.2f} GB/s/W)"
        )


def evaluate_fleet_app(name, unit, sample_streams=None, *, device=AMAZON_F1,
                       config=None, sim_cycles=30_000, pu_count=None,
                       sample_pairs=None, profile_unit_override=None,
                       event_driven=True, profile_cache=None,
                       profile_cache_key=None, obs=None, channels=None,
                       area=None, fit_controllers=False):
    """Estimate a Fleet application's full-system throughput and power.

    ``sample_streams`` is a list of token streams; profiles are averaged
    (the paper averages integer coding over five input ranges). Pass
    ``sample_pairs`` — (small, large) stream tuples — instead to profile
    marginally, amortizing stream-header costs. Apps whose production
    configuration is too large to profile directly may pass a functionally
    scaled-down ``profile_unit_override`` with identical steady-state
    rates (area still comes from ``unit``).

    ``event_driven`` selects the memory-simulation engine (results are
    identical; see :class:`~repro.memory.ChannelSystem`). ``obs`` (a
    :class:`repro.obs.Observation`) instruments the memory-system
    simulation with cycle attribution and per-PU accounting — the
    counters that explain *why* the app lands at its throughput (see
    ``docs/observability.md``). The functional
    profiling step is the dominant cost when streams are large; callers
    evaluating the same app repeatedly (the benchmark harness) may pass a
    dict as ``profile_cache`` plus a hashable ``profile_cache_key``
    identifying (app, workload parameters, seed) to reuse profiles.

    ``channels`` overrides how many of the device's memory channels the
    design spreads its PUs over (default: all of them — the paper's
    layout); ``area`` supplies a precomputed unit
    :class:`~repro.system.area.AreaEstimate`, skipping the per-call
    compile (the DSE search evaluates one unit at many design points);
    ``fit_controllers`` budgets the *configuration's* controller area
    when fitting the PU count (:func:`estimate_controllers`) instead of
    the device's fixed default fraction — pass it whenever ``config``
    departs from the paper's, so deep-burst layouts pay for their
    register storage. This is the single evaluation path the Figure-7
    harness and :mod:`repro.dse` share.
    """
    config = config or MemoryConfig(frequency_hz=device.frequency_hz)
    if channels is None:
        channels = device.channels
    if area is None:
        module = compile_unit(unit)
        area = estimate_module(module)
    if pu_count is None:
        controller_area = (
            estimate_controllers(config) if fit_controllers else None
        )
        pu_count = fit_processing_units(
            area, device, config, controller_area=controller_area
        )

    profiled = profile_unit_override or unit
    profiles = None
    if profile_cache is not None and profile_cache_key is not None:
        profiles = profile_cache.get(profile_cache_key)
    if profiles is None:
        if sample_pairs is not None:
            profiles = [
                profile_unit_marginal(profiled, small, large)
                for small, large in sample_pairs
            ]
        else:
            profiles = [
                profile_unit(profiled, stream) for stream in sample_streams
            ]
        if profile_cache is not None and profile_cache_key is not None:
            profile_cache[profile_cache_key] = profiles
    vcpt = sum(p.vcycles_per_token for p in profiles) / len(profiles)
    out_ratio = sum(p.output_ratio for p in profiles) / len(profiles)

    token_bytes = max(1, unit.input_width // 8)
    per_channel = max(1, pu_count // channels)

    def make_pus(_channel):
        return [
            RatePu(
                1 << 30,
                vcycles_per_token=vcpt,
                token_bytes=token_bytes,
                output_ratio=out_ratio,
            )
            for _ in range(per_channel)
        ]

    stats = simulate_channels(
        config, make_pus, channels=1, fixed_cycles=sim_cycles,
        event_driven=event_driven, obs=obs,
    )
    gbps = channels * stats.input_gbps
    theoretical = (
        pu_count * token_bytes / vcpt * device.frequency_hz / 1e9
        if vcpt else 0.0
    )
    gbps = min(gbps, theoretical) if vcpt else gbps

    overhead = pu_overhead(config)
    package = fpga_package_watts(
        pu_count * (area.luts + overhead.luts),
        pu_count * (area.ffs + overhead.ffs),
        pu_count * (area.bram36 + overhead.bram36),
    )
    return FleetAppResult(
        name, pu_count, gbps, theoretical, package,
        profiles[0], area,
        attribution=stats.attribution,
    )
