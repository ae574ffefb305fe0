"""A processing-unit model that *computes*: the functional simulator
wired into the memory-system simulation.

Where :class:`~repro.memory.pu_model.RatePu` replays measured rates, a
:class:`FunctionalPu` runs the actual Fleet program on the bytes the
input controller delivers and hands its real output bytes to the output
controller — so one simulation produces both bit-exact results *and*
cycle timing, with the PU's latency taken from its own virtual-cycle
counts (the compiler's one-virtual-cycle-per-cycle guarantee).
"""

from ..interp import make_simulator
from ..lang.errors import FleetSimulationError
from .pu_model import BasePu


class FunctionalPu(BasePu):
    """Runs one unit on one stream inside the channel simulation."""

    def __init__(self, unit, stream_bytes):
        super().__init__(stream_bytes)
        if unit.input_width != 8:
            raise FleetSimulationError(
                "FunctionalPu feeds 8-bit tokens (byte-stream units)"
            )
        self.unit = unit
        self.sim = make_simulator(unit)
        self._finished_run = False
        if stream_bytes == 0:
            # A zero-byte stream never triggers a burst, but its
            # stream_finished cleanup cycle still runs — units that
            # flush an accumulator on end-of-stream emit here. Without
            # this, empty streams silently dropped that output (found by
            # the runtime edge-case tests).
            out_tokens = self.sim.finish_stream()
            self._finished_run = True
            done = self.sim.trace.vcycles_per_token[-1]
            out_bytes = self._tokens_to_bytes(out_tokens)
            self.free_at = done
            self._emit(done, len(out_bytes), bytes(out_bytes))

    def _consume(self, drain_start, drain_end, nbytes, payload):
        if payload is None:
            raise FleetSimulationError(
                "FunctionalPu needs a data-carrying channel (construct "
                "the ChannelSystem with a DRAM bytearray)"
            )
        vcycles = 0
        out_tokens = []
        for token in payload[:nbytes]:
            out_tokens.extend(self.sim.process_token(token))
            vcycles += self.sim.trace.vcycles_per_token[-1]
        if self.input_delivered >= self.stream_bytes:
            out_tokens.extend(self.sim.finish_stream())
            vcycles += self.sim.trace.vcycles_per_token[-1]
            self._finished_run = True
        done = max(drain_start + vcycles, drain_end)
        out_bytes = self._tokens_to_bytes(out_tokens)
        self._emit(done, len(out_bytes), bytes(out_bytes))
        return done

    def _tokens_to_bytes(self, tokens):
        width = self.unit.output_width
        out = bytearray()
        for token in tokens:
            out += int(token).to_bytes((width + 7) // 8, "little")
        return out

    @property
    def output_tokens(self):
        """All output tokens the unit has produced so far."""
        return self.sim.outputs
