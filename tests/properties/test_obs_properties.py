"""Property-based tests (hypothesis) for the observability layer.

The two load-bearing invariants, over random memory configurations and
processing-unit mixes:

* every channel cycle lands in exactly one attribution category, so the
  categories sum to the total cycle count;
* the channel runner, which jumps across idle stretches, observes
  bit-identically to pure stepping (``tests/memory/reference.py``):
  attribution, histograms, per-PU stats — skipped windows are
  attributed exactly as stepping would have;

plus non-perturbation: attaching an observation never changes what the
simulation computes.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.memory import EchoPu, MemoryConfig, RatePu, SinkPu, \
    simulate_channels
from repro.obs import Observation

from ..memory.reference import stepping

slow = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: Random memory-controller configurations spanning every ablation the
#: classifier distinguishes (register counts, addressing modes, refresh
#: duty cycles, turnaround penalties, DRAM latencies).
configs = st.fixed_dictionaries({
    "burst_registers": st.sampled_from([1, 2, 4, 16]),
    "async_addressing": st.booleans(),
    "input_blocking": st.booleans(),
    "refresh_interval": st.sampled_from([64, 128, 200]),
    "refresh_cycles": st.sampled_from([0, 4, 8]),
    "turnaround_cycles": st.sampled_from([0, 2, 6]),
    "dram_latency": st.sampled_from([5, 30]),
    "beats_per_burst": st.sampled_from([1, 2, 4]),
})

#: PU behavior mixes: instant sinks, echoing units (exercises the write
#: path), and compute-bound units slower than their drain.
pu_kinds = st.lists(
    st.sampled_from(["sink", "echo", "rate_fast", "rate_slow"]),
    min_size=1, max_size=6,
)


def _make_pus(kinds, stream_bytes):
    pus = []
    for kind in kinds:
        if kind == "sink":
            pus.append(SinkPu(stream_bytes))
        elif kind == "echo":
            pus.append(EchoPu(stream_bytes))
        elif kind == "rate_fast":
            pus.append(RatePu(stream_bytes, vcycles_per_token=1,
                              token_bytes=4, output_ratio=0.5))
        else:
            pus.append(RatePu(stream_bytes, vcycles_per_token=3,
                              token_bytes=4))
    return pus


def _observed(config, kinds, stream_bytes, cycles):
    obs = Observation()
    stats = simulate_channels(
        config, lambda i: _make_pus(kinds, stream_bytes),
        channels=1, fixed_cycles=cycles, obs=obs,
    )
    return stats, obs.channels[0]


@slow
@given(
    configs,
    pu_kinds,
    st.sampled_from([512, 1 << 12]),
    st.sampled_from([700, 1_500]),
)
def test_attribution_sums_and_engines_agree(cfg, kinds, stream_bytes,
                                            cycles):
    config = MemoryConfig().replace(**cfg)
    fast_stats, fast = _observed(config, kinds, stream_bytes, cycles)
    with stepping():
        slow_stats, slow_ = _observed(config, kinds, stream_bytes, cycles)

    # Conservation: every cycle classified exactly once, in both engines.
    assert sum(fast.attribution.cycles.values()) == fast_stats.cycles
    assert sum(slow_.attribution.cycles.values()) == slow_stats.cycles
    assert fast.reg_occupancy.total == fast_stats.cycles

    # The engines simulate the same machine...
    assert fast_stats.cycles == slow_stats.cycles
    assert fast_stats.bytes_in == slow_stats.bytes_in
    assert fast_stats.bytes_out == slow_stats.bytes_out
    # ...and observe it identically, category by category.
    assert fast.attribution == slow_.attribution
    assert fast.reg_occupancy == slow_.reg_occupancy
    assert fast.addr_lead == slow_.addr_lead
    assert fast.read_bursts.value == slow_.read_bursts.value
    assert fast.write_bursts.value == slow_.write_bursts.value
    assert fast.pu_stats == slow_.pu_stats


@slow
@given(configs, pu_kinds)
def test_observation_does_not_perturb_simulation(cfg, kinds):
    config = MemoryConfig().replace(**cfg)
    observed = simulate_channels(
        config, lambda i: _make_pus(kinds, 1 << 11),
        channels=1, fixed_cycles=900, obs=Observation(),
    )
    bare = simulate_channels(
        config, lambda i: _make_pus(kinds, 1 << 11),
        channels=1, fixed_cycles=900,
    )
    assert (observed.cycles, observed.bytes_in, observed.bytes_out) == \
        (bare.cycles, bare.bytes_in, bare.bytes_out)


@slow
@given(configs, pu_kinds)
def test_run_to_completion_attribution_sums(cfg, kinds):
    # The run() path (drain-until-done) must conserve cycles too — it
    # finalizes through the same helper as run_for().
    config = MemoryConfig().replace(**cfg)
    obs = Observation()
    stats = simulate_channels(
        config, lambda i: _make_pus(kinds, 768),
        channels=1, max_cycles=50_000, obs=obs,
    )
    chan = obs.channels[0]
    assert sum(chan.attribution.cycles.values()) == stats.cycles
    assert chan.reg_occupancy.total == stats.cycles
    assert sum(s.bytes_in for s in chan.pu_stats) == stats.bytes_in
