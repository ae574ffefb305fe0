"""Host-speed reference for the end-to-end metrics.

On a shared host the same code runs up to half again faster or slower
for minutes at a time as neighbours come and go, which swamps changes in
the program, and a neighbour can switch the host between a fast and a
slow state every few seconds. Each benchmark process therefore times a
fixed piece of plain Python for a short while before and after each
round of work, and reports its times as the times they would have been
on a host where the piece takes ``REFERENCE_S``. The piece does
arithmetic and updates a dict that stays the same size: a sample that
allocated memory would also time the state of the program's heap, not
only the host. A change to the program moves the scaled times as it
moves the wall times; a change in host speed moves the samples too and
cancels out. The wall times are printed and saved beside the scaled
ones.
"""

import os
import statistics
import time

#: Nominal sample time: about the median sample on a quiet 2-vCPU Xeon.
REFERENCE_S = 0.0045
#: Time spent on samples after a round, as a share of the round.
SHARE = 0.2
#: Time spent on samples before the first round.
FIRST_MARK_S = 0.05


def _sample():
    start = time.perf_counter()
    table = dict.fromkeys(range(1024), 0)
    total = 0
    for i in range(30_000):
        total += (i * i) % 7
        table[i & 1023] += total & 255
    return time.perf_counter() - start


def _on_cpu(cpu, seconds):
    """Median of samples taken for about ``seconds`` (at least one) by
    the calling thread, pinned to ``cpu`` unless that is None."""
    if cpu is not None:
        allowed = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {cpu})  # the calling thread only
    try:
        samples = []
        while sum(samples) < seconds or not samples:
            samples.append(_sample())
        return statistics.median(samples)
    finally:
        if cpu is not None:
            os.sched_setaffinity(0, allowed)


class HostSpeed:
    """Reference samples taken between the rounds of one measurement.

    The program's threads run on any of the process's CPUs, and a
    neighbour may slow one of them and not another, so each mark times
    the piece on every CPU in turn and averages them. A process pinned
    to one CPU (``pin``) samples that CPU only."""

    def __init__(self):
        if hasattr(os, "sched_getaffinity"):
            self.cpus = sorted(os.sched_getaffinity(0))
        else:
            self.cpus = [None]
        self.marks = []

    def pin(self):
        """Pin the calling process to the first of its CPUs, on which
        every later mark samples."""
        if self.cpus != [None]:
            os.sched_setaffinity(0, self.cpus[:1])
            self.cpus = self.cpus[:1]

    def mark(self, seconds):
        """Record the host's speed now, from about ``seconds`` of
        samples."""
        self.marks.append(statistics.mean(
            _on_cpu(cpu, seconds / len(self.cpus)) for cpu in self.cpus))

    def scales(self):
        """Factor from wall time to reference-host time for the work
        between each pair of consecutive marks."""
        return [REFERENCE_S / ((before + after) / 2)
                for before, after in zip(self.marks, self.marks[1:])]
