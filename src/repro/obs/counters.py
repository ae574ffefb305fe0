"""Counters and histograms for the observability layer.

Deliberately tiny: a counter is an integer with a name, a histogram is a
sparse ``bucket -> count`` mapping. Everything the simulators record is
built from these two primitives so reports and tests can treat all
metrics uniformly (:meth:`Registry.as_dict`).

Histograms support weighted recording (``record(bucket, n)``) because the
channel runner attributes whole skipped idle windows in one call; the
differential tests require the resulting histograms to be identical to
per-cycle sampling.
"""


class Counter:
    """A named monotonically increasing integer."""

    __slots__ = ("name", "value")

    def __init__(self, name):
        self.name = name
        self.value = 0

    def add(self, n=1):
        self.value += n

    def __repr__(self):
        return f"Counter({self.name!r}, {self.value})"


class Histogram:
    """A named sparse histogram over integer buckets."""

    __slots__ = ("name", "buckets")

    def __init__(self, name):
        self.name = name
        self.buckets = {}

    def record(self, bucket, n=1):
        buckets = self.buckets
        buckets[bucket] = buckets.get(bucket, 0) + n

    @property
    def total(self):
        """Total observations across every bucket."""
        return sum(self.buckets.values())

    @property
    def mean(self):
        """Observation-weighted mean bucket value (0.0 when empty)."""
        total = self.total
        if not total:
            return 0.0
        return sum(b * n for b, n in self.buckets.items()) / total

    @property
    def max(self):
        return max(self.buckets) if self.buckets else 0

    def as_dict(self):
        """Bucket -> count with string keys in ascending bucket order
        (JSON object keys must be strings)."""
        return {str(b): self.buckets[b] for b in sorted(self.buckets)}

    def __eq__(self, other):
        if isinstance(other, Histogram):
            return self.buckets == other.buckets
        return NotImplemented

    def __repr__(self):
        return (
            f"Histogram({self.name!r}, n={self.total}, "
            f"mean={self.mean:.2f})"
        )


class Registry:
    """A flat namespace of counters and histograms."""

    def __init__(self):
        self._counters = {}
        self._histograms = {}

    def counter(self, name):
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = Counter(name)
        return counter

    def histogram(self, name):
        hist = self._histograms.get(name)
        if hist is None:
            hist = self._histograms[name] = Histogram(name)
        return hist

    def as_dict(self):
        out = {name: c.value for name, c in sorted(self._counters.items())}
        for name, hist in sorted(self._histograms.items()):
            out[name] = hist.as_dict()
        return out
