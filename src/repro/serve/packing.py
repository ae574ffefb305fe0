"""Batch packers: turning a window of streams into device batches.

The Fleet device model (paper Section 2) loads one stream per PU slot
and runs the batch to completion — **a batch finishes when its longest
stream does**, so its makespan is the *maximum* stream cost in the
batch, and every shorter stream's slot idles for the difference. On
skewed stream-length distributions that idle time dominates.

Two policies:

* :class:`FifoPacker` — the naive runtime baseline: streams in arrival
  order, chunked ``slots`` at a time. Heavy streams land in random
  batches, so nearly every batch pays a heavy-tail maximum.
* :class:`SkewAwarePacker` — longest-processing-time-first: sort the
  window's streams by *predicted* virtual-cycle cost, descending, then
  chunk. Each batch is cost-homogeneous, so the sum of per-batch maxima
  collapses toward ``total/slots`` — the makespan win the serve
  benchmark (``benchmarks/bench_serve_scheduler.py``) quantifies.

Both packers are pure functions of (entries, slots): no randomness, no
clock, ties broken by submission order — the determinism contract
depends on this.
"""


class BatchEntry:
    """One stream's slot in a batch."""

    __slots__ = ("job", "stream_index", "stream", "predicted_cost",
                 "vcycles", "outputs", "skipped")

    def __init__(self, job, stream_index, stream, predicted_cost):
        self.job = job
        self.stream_index = stream_index
        self.stream = stream
        self.predicted_cost = predicted_cost
        self.vcycles = 0  # measured on the device
        self.outputs = None
        self.skipped = False


class Batch:
    """Up to ``slots`` streams that run concurrently on one device, one
    stream per PU slot (entry order == slot index)."""

    __slots__ = ("batch_id", "app", "entries", "slots", "device_index",
                 "makespan", "start_vtime", "attribution", "batch_stats",
                 "error")

    def __init__(self, batch_id, app, entries, slots=None):
        self.batch_id = batch_id
        self.app = app
        self.entries = entries
        self.slots = slots if slots is not None else len(entries)
        self.device_index = None
        self.makespan = 0  # measured: max entry vcycles
        self.start_vtime = 0.0
        self.attribution = None  # filled when memory_sim is on
        self.batch_stats = None  # SIMD-engine BatchStats when batched
        self.error = None  # "<Type>: <message>" when the batch raised

    @property
    def predicted_makespan(self):
        return max(
            (e.predicted_cost for e in self.entries), default=0.0
        )

    @property
    def busy_vcycles(self):
        """Sum of per-slot measured occupancy (<= slots * makespan)."""
        return sum(e.vcycles for e in self.entries)

    def __repr__(self):
        return (
            f"Batch({self.batch_id}, app={self.app!r}, "
            f"{len(self.entries)} streams)"
        )


def _chunk(entries, slots):
    return [
        entries[lo:lo + slots] for lo in range(0, len(entries), slots)
    ]


class FifoPacker:
    """Arrival order, ``slots`` streams per batch (the naive baseline)."""

    name = "fifo"

    def pack(self, entries, slots):
        return _chunk(entries, slots)


class SkewAwarePacker:
    """Longest-predicted-cost-first across PU slots (LPT).

    Sorting is by ``(-predicted_cost, job_id, stream_index)``: the
    submission-order tail keeps equal-cost workloads deterministic *and*
    FIFO-fair.
    """

    name = "skew"

    def pack(self, entries, slots):
        ordered = sorted(
            entries,
            key=lambda e: (-e.predicted_cost, e.job.job_id,
                           e.stream_index),
        )
        return _chunk(ordered, slots)


PACKERS = {"fifo": FifoPacker, "skew": SkewAwarePacker}


def make_packer(name):
    try:
        return PACKERS[name]()
    except KeyError:
        raise ValueError(
            f"unknown packer {name!r}; choose from {sorted(PACKERS)}"
        ) from None
