"""Event-driven fast-forwarding must be cycle-exact: every scenario is
run twice — pure stepping and event-driven — and the complete observable
state is compared, not just aggregate throughput."""

import pytest

from repro.apps import identity_unit
from repro.lang.errors import FleetSimulationError
from repro.memory import (
    ChannelSystem,
    EchoPu,
    MemoryConfig,
    RatePu,
    SinkPu,
    simulate_channels,
)
from repro.system import run_full_system

BASE = MemoryConfig()


def snapshot(system):
    ic = system.input_controller
    oc = system.output_controller
    dram = system.dram
    return {
        "cycle": system.cycle,
        "dram_cycle": dram.cycle,
        "read_beats": dram.read_beats,
        "write_beats": dram.write_beats,
        "busy_cycles": dram.busy_cycles,
        "bytes_delivered": ic.bytes_delivered,
        "bytes_accepted": oc.bytes_accepted,
        "input_rr": ic._rr,
        "output_rr": oc._rr,
        "register_free_at": tuple(r.free_at for r in ic._registers),
        "pu_free_at": tuple(pu.free_at for pu in system.pus),
        "pu_output_taken": tuple(pu.output_taken for pu in system.pus),
        "bytes_written": tuple(oc.bytes_written),
        "output_registers": tuple(
            (r.busy_until, r.fill_end, r.tag, r.pushed, r.submit_cycle)
            for r in oc._registers
        ),
        "drained": system.drained(),
    }


def run_both(config, make_pus, *, fixed_cycles=None, max_cycles=300_000):
    snaps = []
    for event_driven in (False, True):
        system = ChannelSystem(
            config, make_pus(), event_driven=event_driven
        )
        if fixed_cycles is not None:
            system.run_for(fixed_cycles)
        else:
            system.run(max_cycles=max_cycles)
        snaps.append(snapshot(system))
    return snaps


SCENARIOS = {
    # Figure 9's three ablation points with the sink PU (fixed horizon).
    "fig9_none": (
        BASE.replace(burst_registers=1, async_addressing=False),
        lambda: [SinkPu(1 << 14) for _ in range(64)], 8_000,
    ),
    "fig9_async": (
        BASE.replace(burst_registers=1),
        lambda: [SinkPu(1 << 14) for _ in range(64)], 8_000,
    ),
    "fig9_full": (
        BASE,
        lambda: [SinkPu(1 << 14) for _ in range(64)], 8_000,
    ),
    # Output path engaged, run to drain.
    "echo": (
        BASE,
        lambda: [EchoPu(2048) for _ in range(32)], None,
    ),
    "echo_sync": (
        BASE.replace(burst_registers=1, async_addressing=False),
        lambda: [EchoPu(1024) for _ in range(16)], None,
    ),
    # Heterogeneous rates: the round-robin walk matters.
    "rate_mix": (
        BASE,
        lambda: [
            RatePu(2048, vcycles_per_token=1 + i % 5,
                   output_ratio=0.25 * (i % 3))
            for i in range(32)
        ], None,
    ),
    # Blocking ablations: the parked round-robin pointer matters.
    "blocking_out": (
        BASE.replace(output_blocking=True),
        lambda: [
            RatePu(1024, vcycles_per_token=1,
                   output_ratio=(1.0 if i % 7 == 0 else 0.05))
            for i in range(32)
        ], None,
    ),
    "blocking_in": (
        BASE.replace(input_blocking=True),
        lambda: [
            RatePu(1024, vcycles_per_token=(8 if i == 0 else 1))
            for i in range(32)
        ], None,
    ),
    # Slow consumers: long idle gaps, the fast path's best case.
    "long_drain": (
        BASE,
        lambda: [
            RatePu(1024, vcycles_per_token=60, output_ratio=0.1)
            for _ in range(8)
        ], None,
    ),
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_event_driven_cycle_exact(name):
    config, make_pus, fixed = SCENARIOS[name]
    stepped, event = run_both(config, make_pus, fixed_cycles=fixed)
    assert stepped == event


def test_event_driven_run_to_drain_completes():
    system = ChannelSystem(
        BASE, [RatePu(1024, vcycles_per_token=60) for _ in range(8)]
    )
    stats = system.run()
    assert system.drained()
    assert stats.bytes_in == 8 * 1024


@pytest.mark.parametrize("event_driven", [False, True])
def test_simulate_channels_raises_when_a_channel_does_not_drain(
    event_driven,
):
    with pytest.raises(FleetSimulationError,
                       match="channel 0 did not drain within 1000 cycles"):
        simulate_channels(
            BASE, lambda i: [SinkPu(1 << 20) for _ in range(4)],
            channels=1, max_cycles=1000, event_driven=event_driven,
        )
    # A fixed-length run stops at its horizon by design.
    stats = simulate_channels(
        BASE, lambda i: [SinkPu(1 << 20) for _ in range(4)], channels=1,
        fixed_cycles=1000, event_driven=event_driven,
    )
    assert stats.cycles == 1000


def test_full_system_event_driven_matches_stepped():
    unit = identity_unit()
    streams = [bytes(range(64)) * 4, b"fleet" * 50, b"\x00" * 96]
    results = [
        run_full_system(unit, streams, event_driven=event_driven)
        for event_driven in (False, True)
    ]
    stepped, event = results
    assert stepped.cycles == event.cycles
    assert stepped.outputs == event.outputs
    assert stepped.output_bytes == event.output_bytes
    # And the run round-trips the data through simulated DRAM intact.
    for stream, region in zip(streams, event.output_bytes):
        assert region == stream
