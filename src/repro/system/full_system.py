"""End-to-end full-system execution: the paper's Section 2 flow in one
simulation.

``run_full_system`` packs the user's streams into (simulated) FPGA DRAM,
instantiates one functional processing unit per stream behind the
Section 5 memory controllers, cycle-steps the channel until everything
drains, and reads the per-PU output regions back — producing bit-exact
results *and* an honest cycle count from a single run. This is the
integration point the test suite uses to show that the memory system and
the processing units compose correctly (no lost, duplicated, or
reordered bytes under real backpressure).
"""

from ..envcfg import env_path
from ..lang.errors import FleetSimulationError
from ..memory import ChannelSystem, MemoryConfig
from ..memory.functional_pu import FunctionalPu
from .runtime import pack_streams


class FullSystemResult:
    """Outputs and timing of one full-system run."""

    def __init__(self, outputs, output_bytes, cycles, observation=None):
        #: per-stream output token lists (from the units themselves)
        self.outputs = outputs
        #: per-stream output regions as read back from DRAM
        self.output_bytes = output_bytes
        self.cycles = cycles
        #: the :class:`repro.obs.Observation` of the run, or ``None``
        self.observation = observation

    def __repr__(self):
        return (
            f"FullSystemResult({len(self.outputs)} streams, "
            f"{self.cycles} cycles)"
        )


def run_full_system(unit, streams, *, header=b"", config=None,
                    max_cycles=5_000_000, out_region_bytes=None,
                    channels=1, obs=None):
    """Process ``streams`` on ``channels`` simulated channels of
    replicated ``unit`` PUs; returns a :class:`FullSystemResult`.

    ``header`` is prepended to every stream (field tables, models, ...).
    The streams are divided round-robin among independent channels (the
    paper's F1 layout — no cross-channel coordination) and results are
    reassembled in stream order; the cycle count is the slowest
    channel's. ``out_region_bytes`` sizes each PU's output region; the
    default is generous: four times the channel's longest stream
    (header included) plus 4 KiB.

    ``obs`` (a :class:`repro.obs.Observation`) instruments the run with
    cycle attribution, per-PU accounting, and — with ``trace=True`` —
    Chrome trace events. When ``obs`` is omitted and the ``FLEET_TRACE``
    environment variable names a path, a tracing observation is created
    automatically and the trace is written there; either way the
    observation is returned on ``result.observation``.
    """
    if not streams:
        raise FleetSimulationError("no streams to process")
    if channels < 1:
        raise FleetSimulationError(
            f"channels must be at least 1, not {channels}"
        )
    config = config or MemoryConfig()
    env_trace_path = None
    if obs is None:
        env_trace_path = env_path("FLEET_TRACE")
        if env_trace_path:
            from ..obs import Observation
            obs = Observation(trace=True)
    outputs = [None] * len(streams)
    output_bytes = [None] * len(streams)
    cycles = 0
    for channel in range(min(channels, len(streams))):
        indices = range(channel, len(streams), channels)
        tokens, regions, channel_cycles = _run_channel(
            unit, indices, [bytes(header) + bytes(streams[i])
                            for i in indices],
            config, max_cycles, out_region_bytes, obs,
        )
        for index, stream_tokens, region in zip(indices, tokens, regions):
            outputs[index] = stream_tokens
            output_bytes[index] = region
        cycles = max(cycles, channel_cycles)
    if env_trace_path:
        obs.write_trace(env_trace_path)
    return FullSystemResult(outputs, output_bytes, cycles, observation=obs)


def _run_channel(unit, indices, streams, config, max_cycles,
                 out_region_bytes, obs):
    """Run ``streams`` (the input streams ``indices``, headers included)
    on one channel; returns their output tokens, their output regions
    read back from DRAM, and the channel's cycle count."""
    buffer, offsets, lengths = pack_streams(streams)
    region = out_region_bytes or (max(lengths) * 4 + 4096)
    data = bytearray(buffer)
    out_bases = []
    for _ in streams:
        pad = (-len(data)) % 64
        data += b"\0" * pad
        out_bases.append(len(data))
        data += b"\0" * region

    pus = [FunctionalPu(unit, length) for length in lengths]
    system = ChannelSystem(
        config, pus, data=data, stream_bases=offsets, out_bases=out_bases,
        obs=obs,
    )
    stats = system.run(max_cycles=max_cycles)
    if not system.drained():
        raise FleetSimulationError(
            f"full-system run did not drain within {max_cycles} cycles"
        )

    output_bytes = []
    for index, base, written in zip(
        indices, out_bases, system.output_controller.bytes_written
    ):
        if written > region:
            raise FleetSimulationError(
                f"stream {index} overflowed its output region"
            )
        output_bytes.append(bytes(data[base:base + written]))
    return [pu.output_tokens for pu in pus], output_bytes, stats.cycles
