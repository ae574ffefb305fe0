"""Cycle attribution: closed-form refresh counting, the classifier's
category signatures, stall sub-classification, and ChannelStats wiring."""

import pytest

from repro.memory import (
    ChannelSystem,
    MemoryConfig,
    RatePu,
    SinkPu,
    simulate_channels,
)
from repro.obs import ChannelAttribution, Observation, refresh_cycles_between
from repro.obs.attribution import (
    CATEGORIES,
    DATA_BEAT_IN,
    DATA_BEAT_OUT,
    IDLE,
    NO_BURST_REGISTER,
    PU_BACKPRESSURE,
    REFRESH,
    summarize_attribution,
)


def _observed_run(config, make_pus, *, fixed_cycles=4_000):
    obs = Observation()
    stats = simulate_channels(
        config, make_pus, channels=1, fixed_cycles=fixed_cycles, obs=obs,
    )
    return stats, obs.channels[0]


# ---------------------------------------------------------------------------
# refresh_cycles_between
# ---------------------------------------------------------------------------


def test_refresh_closed_form_matches_brute_force():
    for interval, rc in [(128, 8), (7, 3), (10, 10), (5, 1)]:
        for start in range(0, 40):
            for end in range(start, start + 40):
                expected = sum(
                    1 for c in range(start, end) if c % interval < rc
                )
                assert refresh_cycles_between(
                    start, end, interval, rc
                ) == expected, (interval, rc, start, end)


def test_refresh_closed_form_edges():
    assert refresh_cycles_between(10, 10, 128, 8) == 0
    assert refresh_cycles_between(20, 10, 128, 8) == 0
    assert refresh_cycles_between(0, 100, 0, 8) == 0
    assert refresh_cycles_between(0, 100, 128, 0) == 0
    # A window fully inside one refresh burst.
    assert refresh_cycles_between(2, 5, 128, 8) == 3


# ---------------------------------------------------------------------------
# ChannelAttribution basics
# ---------------------------------------------------------------------------


def test_attribution_record_total_and_percentages():
    attr = ChannelAttribution()
    assert attr.total == 0
    assert attr.percentages() == {c: 0.0 for c in CATEGORIES}
    attr.record(DATA_BEAT_IN, 3)
    attr.record(IDLE)
    assert attr.total == 4
    assert attr.as_dict()[DATA_BEAT_IN] == 3
    assert attr.percentages()[DATA_BEAT_IN] == 75.0
    assert "data_beat_in" in repr(attr)

    other = ChannelAttribution()
    other.record(DATA_BEAT_IN, 3)
    other.record(IDLE)
    assert attr == other
    other.record(IDLE)
    assert attr != other


def test_summarize_attribution_skips_empty_categories():
    text = summarize_attribution({DATA_BEAT_IN: 75, IDLE: 25, REFRESH: 0})
    assert "data_beat_in" in text
    assert "75.00%" in text
    assert "refresh" not in text


# ---------------------------------------------------------------------------
# Classifier signatures: each ablation's bottleneck dominates
# ---------------------------------------------------------------------------


def test_sum_equals_total_cycles():
    stats, chan = _observed_run(
        MemoryConfig(), lambda i: [SinkPu(1 << 14) for _ in range(32)]
    )
    assert sum(chan.attribution.cycles.values()) == stats.cycles
    assert chan.reg_occupancy.total == stats.cycles


def test_sync_addressing_shows_up_as_idle():
    stats, chan = _observed_run(
        MemoryConfig().replace(burst_registers=1, async_addressing=False),
        lambda i: [SinkPu(1 << 14) for _ in range(32)],
    )
    attr = chan.attribution.cycles
    assert max(attr, key=attr.get) == IDLE
    # The DRAM access latency gap: well over half of all cycles.
    assert attr[IDLE] > stats.cycles // 2


def test_single_register_shows_up_as_no_burst_register():
    _, chan = _observed_run(
        MemoryConfig().replace(burst_registers=1),
        lambda i: [SinkPu(1 << 14) for _ in range(32)],
    )
    attr = chan.attribution.cycles
    assert max(attr, key=attr.get) == NO_BURST_REGISTER
    assert attr[PU_BACKPRESSURE] == 0  # sinks never defer a drain


def test_full_controller_shows_up_as_data_beats():
    _, chan = _observed_run(
        MemoryConfig(), lambda i: [SinkPu(1 << 14) for _ in range(32)]
    )
    attr = chan.attribution.cycles
    assert max(attr, key=attr.get) == DATA_BEAT_IN


def test_slow_pus_show_up_as_backpressure():
    # Slow consumers (compute 3x the drain time) behind enough burst
    # registers: drains are deferred by busy PU buffers, so the consumer
    # stall must classify as backpressure, not as a register shortage.
    _, chan = _observed_run(
        MemoryConfig().replace(burst_registers=4),
        lambda i: [
            RatePu(1 << 14, vcycles_per_token=3, token_bytes=4)
            for _ in range(8)
        ],
        fixed_cycles=6_000,
    )
    attr = chan.attribution.cycles
    assert attr[PU_BACKPRESSURE] > 0
    assert attr[PU_BACKPRESSURE] > attr[NO_BURST_REGISTER]
    deferred = sum(s.deferred_bursts for s in chan.pu_stats)
    assert deferred > 0


def test_refresh_cycles_attributed():
    config = MemoryConfig()
    stats, chan = _observed_run(
        config, lambda i: [SinkPu(1 << 14) for _ in range(32)]
    )
    attr = chan.attribution.cycles
    expected = refresh_cycles_between(
        0, stats.cycles, config.refresh_interval, config.refresh_cycles
    )
    # Refresh windows always idle the bus, so the attribution must count
    # exactly the configured duty cycle.
    assert attr[REFRESH] == expected


def test_output_path_attributes_write_beats():
    from repro.memory import EchoPu

    _, chan = _observed_run(
        MemoryConfig(), lambda i: [EchoPu(1 << 13) for _ in range(16)]
    )
    attr = chan.attribution.cycles
    assert attr[DATA_BEAT_OUT] > 0
    assert chan.write_bursts.value > 0


# ---------------------------------------------------------------------------
# ChannelStats integration
# ---------------------------------------------------------------------------


def test_channel_stats_carries_attribution():
    obs = Observation()
    system = ChannelSystem(
        MemoryConfig(), [SinkPu(1 << 12) for _ in range(8)], obs=obs
    )
    stats = system.run_for(2_000)
    assert stats.attribution is not None
    assert sum(stats.attribution.values()) == stats.cycles
    assert "top=" in repr(stats)
    summary = stats.summary()
    assert "cycles" in summary
    assert DATA_BEAT_IN in summary


def test_channel_stats_without_obs_unchanged():
    system = ChannelSystem(MemoryConfig(), [SinkPu(1 << 12)])
    stats = system.run_for(1_000)
    assert stats.attribution is None
    assert "top=" not in repr(stats)
    assert stats.summary()  # still renders without a breakdown


def test_per_pu_accounting_conserves_bytes():
    stats, chan = _observed_run(
        MemoryConfig(), lambda i: [SinkPu(1 << 12) for _ in range(8)]
    )
    assert sum(s.bytes_in for s in chan.pu_stats) == stats.bytes_in
    total_bursts = sum(s.bursts for s in chan.pu_stats)
    assert total_bursts == chan.read_bursts.value
    for pu_stats in chan.pu_stats:
        assert 0.0 <= pu_stats.utilization(stats.cycles) <= 1.0


def test_addr_lead_positive_with_async_addressing():
    _, chan = _observed_run(
        MemoryConfig(), lambda i: [SinkPu(1 << 12) for _ in range(8)]
    )
    # Every burst's last beat arrives at least dram_latency after its
    # address was submitted.
    assert chan.addr_lead.total > 0
    assert min(chan.addr_lead.buckets) >= MemoryConfig().dram_latency


def test_attribution_rejects_unknown_category():
    attr = ChannelAttribution()
    with pytest.raises(KeyError):
        attr.record("not_a_category")
