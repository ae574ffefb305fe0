"""Behavioral processing-unit models for the memory-system simulation.

The Fleet compiler guarantees one virtual cycle per real cycle absent IO
stalls (Section 4), so a PU's timing is fully determined by its stream's
virtual-cycle profile — which the functional simulator measures. These
models replay that profile against the memory system:

* :class:`SinkPu` — consumes instantly, no output (the paper's Figure 9 /
  Section 7.3 input-controller experiments);
* :class:`EchoPu` — consumes instantly, produces output bytes equal to its
  input (the Section 7.3 input+output experiment; with real data it echoes
  the received bytes, so integrity tests can round-trip through DRAM);
* :class:`RatePu` — consumes at ``vcycles_per_token`` per token and emits
  ``output_ratio`` output bytes per input byte (Figure 7 applications,
  parameters taken from functional-simulator traces).

Timing model: a burst drains from a burst register into the PU's
single-burst input buffer through a ``w``-bit port (``drain_cycles``); the
PU consumes during the drain, so a burst completes at
``max(drain_start + compute_cycles, drain_end)``; the buffer (and hence
the PU) is ready for its next drain at that completion time. Output bytes
are credited at completion and drained symmetrically by the output
controller.
"""


class BasePu:
    """Common bookkeeping: input cursor, output queue, timestamps."""

    def __init__(self, stream_bytes):
        self.stream_bytes = stream_bytes
        self.input_delivered = 0  # bytes handed to the PU so far
        self.free_at = 0  # cycle when the input buffer is next empty
        self.received = bytearray()  # real data (when carried)
        # Output side: (available_at_cycle, bytes, payload-or-None) chunks,
        # appended in nondecreasing availability order (completion times
        # never go backwards), none available later than ``free_at``.
        # The output controller's index relies on both.
        self.output_chunks = []
        self.output_taken = 0

    # -- input side ------------------------------------------------------------
    @property
    def input_remaining(self):
        return self.stream_bytes - self.input_delivered

    def deliver_burst(self, drain_start, drain_end, nbytes, payload=None):
        """Account for a burst drained into this PU's buffer."""
        if payload is not None:
            self.received += payload[:nbytes]
        self.input_delivered += nbytes
        done = self._consume(drain_start, drain_end, nbytes, payload)
        self.free_at = done
        return done

    def _consume(self, drain_start, drain_end, nbytes, payload):
        raise NotImplementedError

    # -- output side -------------------------------------------------------------
    def output_available(self, now):
        """Bytes sitting in the output buffer at ``now``."""
        total = 0
        for at, nbytes, _ in self.output_chunks:
            if at > now:
                break
            total += nbytes
        return total

    def take_output(self, now, nbytes):
        """Remove ``nbytes`` from the output buffer; returns the payload
        bytes when data is carried (else ``None``)."""
        payload = bytearray()
        carried = False
        need = nbytes
        while need:
            at, avail, chunk = self.output_chunks[0]
            assert at <= now, "taking output that is not yet available"
            take = min(avail, need)
            if chunk is not None:
                carried = True
                payload += chunk[:take]
                chunk = chunk[take:]
            if take == avail:
                self.output_chunks.pop(0)
            else:
                self.output_chunks[0] = (at, avail - take, chunk)
            need -= take
        self.output_taken += nbytes
        return bytes(payload) if carried else None

    @property
    def input_finished(self):
        return self.input_remaining == 0

    def output_finished(self, now):
        """No more output will ever appear (stream consumed and processing
        caught up)."""
        return self.input_finished and self.free_at <= now

    def _emit(self, at, nbytes, payload=None):
        if nbytes:
            self.output_chunks.append((at, nbytes, payload))


class SinkPu(BasePu):
    """Drops every token instantly (isolates input-path performance)."""

    def _consume(self, drain_start, drain_end, nbytes, payload):
        return drain_end


class EchoPu(BasePu):
    """Consumes instantly and re-emits everything it receives."""

    def _consume(self, drain_start, drain_end, nbytes, payload):
        self._emit(drain_end, nbytes, payload)
        return drain_end


class RatePu(BasePu):
    """Consumes at a fixed virtual-cycle cost per token and produces
    ``output_ratio`` output bytes per input byte (fractions accumulate)."""

    def __init__(self, stream_bytes, *, vcycles_per_token, token_bytes=1,
                 output_ratio=0.0):
        super().__init__(stream_bytes)
        self.vcycles_per_token = vcycles_per_token
        self.token_bytes = token_bytes
        self.output_ratio = output_ratio
        self._out_accum = 0.0

    def _consume(self, drain_start, drain_end, nbytes, payload):
        tokens = nbytes / self.token_bytes
        compute = int(round(tokens * self.vcycles_per_token))
        done = max(drain_start + compute, drain_end)
        self._out_accum += nbytes * self.output_ratio
        whole = int(self._out_accum)
        self._out_accum -= whole
        self._emit(done, whole)
        return done
