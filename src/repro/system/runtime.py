"""The Fleet software runtime (paper Section 2).

The user splits a large input into many smaller streams (fast splitters
like a vectorized newline finder exist for record-oriented data), the
runtime packs them into one contiguous buffer, the hardware processes each
stream on its own PU, and per-PU output regions are collected afterwards.

This module provides the splitters, the buffer packing, and a functional
execution path: every PU's stream runs through the software simulator, so
``FleetRuntime.run`` returns bit-exact outputs. Timing comes from
:mod:`repro.system.system_sim`; correctness comes from here — mirroring
the paper's own split between its software simulator and its performance
measurements.
"""

from ..interp import make_simulator
from ..lang.errors import FleetSimulationError


def split_on_newlines(data, n_streams):
    """Split record-oriented data at record boundaries into roughly equal
    streams (the paper's JSON splitter: records are newline-separated, so
    a fast newline finder on the CPU suffices)."""
    data = bytes(data)
    if n_streams <= 1 or not data:
        return [data]
    target = max(1, len(data) // n_streams)
    streams = []
    start = 0
    for _ in range(n_streams - 1):
        cut = data.find(b"\n", min(start + target, len(data)) - 1)
        if cut < 0:
            break
        streams.append(data[start:cut + 1])
        start = cut + 1
    streams.append(data[start:])
    return [s for s in streams if s]


def split_arbitrary(data, n_streams, overlap=0):
    """Split at arbitrary points, optionally with trailing overlap so
    boundary-straddling matches can be reconstructed (the paper's string
    search strategy: a little extra CPU work at the seams)."""
    data = bytes(data)
    if n_streams <= 1 or not data:
        return [data]
    size = (len(data) + n_streams - 1) // n_streams
    streams = []
    for i in range(n_streams):
        lo = i * size
        hi = min(len(data), lo + size + overlap)
        if lo < len(data):
            streams.append(data[lo:hi])
    return streams


def pack_streams(streams, alignment=64):
    """Pack streams into one contiguous buffer (the host-side layout the
    runtime DMAs to FPGA DRAM). Returns ``(buffer, offsets, lengths)``."""
    buffer = bytearray()
    offsets, lengths = [], []
    for stream in streams:
        pad = (-len(buffer)) % alignment
        buffer += b"\0" * pad
        offsets.append(len(buffer))
        lengths.append(len(stream))
        buffer += bytes(stream)
    return bytes(buffer), offsets, lengths


class FleetRuntime:
    """Runs one replicated Fleet design over many streams."""

    def __init__(self, unit, *, header=b""):
        """``header`` is prepended to every stream — Fleet applications
        that configure themselves from the stream head (JSON field tables,
        decision-tree models, Smith-Waterman targets) need the same header
        on every PU's stream. Each stream runs on a fresh
        :func:`repro.interp.make_simulator`.
        """
        self.unit = unit
        self.header = bytes(header)

    def run(self, streams):
        """Process each stream on its own (simulated) processing unit.

        Returns the list of per-PU output token lists, in stream order —
        the contents of the per-PU output regions after the design drains.
        """
        return [outputs for outputs, _ in self.run_traced(streams)]

    def run_traced(self, streams):
        """Like :meth:`run`, but returns ``(outputs, vcycles)`` per
        stream, where ``vcycles`` is the stream's total virtual-cycle
        count — its device occupancy in cycles under the compiler's
        one-virtual-cycle-per-cycle guarantee. The serving runtime's
        batch accounting is built on this."""
        if not streams:
            raise FleetSimulationError("no streams to process")
        results = []
        for stream in streams:
            sim = make_simulator(self.unit)
            tokens = list(self.header) + list(bytes(stream))
            outputs = sim.run(tokens)
            results.append((outputs, sim.trace.total_vcycles))
        return results

    def run_concatenated(self, streams):
        """Convenience: the outputs concatenated in stream order (how the
        host reads back the packed output buffer)."""
        out = []
        for chunk in self.run(streams):
            out.extend(chunk)
        return out
