"""Process-wide metrics: thread-safe counters, gauges, and log-bucketed
mergeable histograms with snapshot/delta semantics.

Design rules (these are what the ``telemetry_overhead`` perf guard and
the serve determinism contract lean on):

* **Zero-cost when disabled.** Every recording call
  (:meth:`Counter.inc`, :meth:`Gauge.set`, :meth:`Histogram.observe`)
  first checks :func:`enabled` and returns immediately when telemetry is
  off — no lock, no allocation. Instrument sites that need extra work to
  *produce* a value (e.g. a ``perf_counter`` pair around a compile)
  guard on :func:`enabled` themselves.
* **Metrics never feed reports.** Serve run reports are deterministic
  reconstructions; metrics are live operational counters. Nothing in
  :mod:`repro.serve.report` reads the registry, so reports are
  byte-identical with telemetry on or off.
* **Histograms are mergeable.** Buckets are fixed powers of two shared
  by every histogram, so merging is bucket-wise addition and a merged
  histogram is indistinguishable from one that recorded all the
  observations itself (a hypothesis property in
  ``tests/telemetry/test_metrics.py`` pins this).

Enable with ``FLEET_METRICS=1`` in the environment or
:func:`enable` / :func:`enabled.force` programmatically; render with
:func:`repro.telemetry.render_prometheus` or ``python -m repro.report
--metrics``.
"""

import bisect
import threading
import time

from ..envcfg import env_flag

#: Shared histogram bucket upper bounds: 0, powers of two from 2^-20
#: (sub-microsecond timings) to 2^30 (gigacycle latencies), then +Inf.
#: Fixed and global so any two histograms merge bucket-for-bucket.
BUCKET_BOUNDS = tuple(
    [0.0] + [2.0 ** e for e in range(-20, 31)]
)

_KINDS = ("counter", "gauge", "histogram")


class _State:
    """Global enablement: ``on`` is an explicit force (enable()/disable())
    or else the validated ``FLEET_METRICS`` flag, read on the first
    :func:`enabled` call and again after :func:`use_env`; ``None`` until
    one of them sets it, so the per-record check is one attribute read."""

    __slots__ = ("on",)

    def __init__(self):
        self.on = None


_STATE = _State()


def enabled():
    """Whether telemetry recording is on (see :class:`_State`). An
    invalid ``FLEET_METRICS`` raises
    :class:`~repro.lang.errors.FleetConfigError` on every call until it
    is fixed and :func:`use_env` is called."""
    on = _STATE.on
    if on is None:
        on = _STATE.on = env_flag("FLEET_METRICS")
    return on


def enable():
    """Force telemetry on for this process (overrides the environment)."""
    _STATE.on = True


def disable():
    """Force telemetry off for this process."""
    _STATE.on = False


def use_env():
    """Drop any :func:`enable`/:func:`disable` force and read
    ``FLEET_METRICS`` again on the next :func:`enabled` call."""
    _STATE.on = None


class enabled_scope:
    """Context manager forcing telemetry on (or off) within a block —
    the test suite's way of instrumenting one run without leaking."""

    def __init__(self, on=True):
        self._on = on
        self._prev = None

    def __enter__(self):
        self._prev = _STATE.on
        _STATE.on = self._on
        return self

    def __exit__(self, *exc):
        _STATE.on = self._prev
        return False


class _Child:
    """One labeled time series of a metric family."""

    __slots__ = ("value", "count", "sum", "buckets", "lock")

    def __init__(self, kind):
        self.lock = threading.Lock()
        if kind == "histogram":
            self.count = 0
            self.sum = 0.0
            self.buckets = [0] * (len(BUCKET_BOUNDS) + 1)  # + overflow
        else:
            self.value = 0.0


class _Family:
    """A named metric with zero or more labeled children."""

    __slots__ = ("name", "help", "kind", "labelnames", "_children",
                 "_lock", "_nolabel")

    def __init__(self, name, help, kind, labelnames):
        self.name = name
        self.help = help
        self.kind = kind
        self.labelnames = tuple(labelnames or ())
        self._children = {}
        self._lock = threading.Lock()
        self._nolabel = None  # cached () child (created on first record)

    def _child(self, labels):
        # Recording is the hot path (the telemetry_overhead bench holds
        # it under 5% of a serve run), so the common shapes — no labels,
        # one label — skip the generic tuple build.
        names = self.labelnames
        if not names:
            child = self._nolabel
            if child is not None:
                return child
            key = ()
        elif len(names) == 1:
            key = (str(labels[names[0]]),)
        else:
            key = tuple(str(labels[n]) for n in names)
        child = self._children.get(key)
        if child is None:
            with self._lock:
                child = self._children.get(key)
                if child is None:
                    child = self._children[key] = _Child(self.kind)
                if not names:
                    self._nolabel = child
        return child

    def samples(self):
        """[(label_values, child), ...] sorted by label values."""
        with self._lock:
            return sorted(self._children.items())


class Counter(_Family):
    """Monotonically increasing count (events, bytes, cycles)."""

    def __init__(self, name, help, labelnames=()):
        super().__init__(name, help, "counter", labelnames)

    def inc(self, amount=1, **labels):
        if not enabled():
            return
        child = self._child(labels)
        with child.lock:
            child.value += amount


class Gauge(_Family):
    """A value that goes up and down (queue depth, occupancy)."""

    def __init__(self, name, help, labelnames=()):
        super().__init__(name, help, "gauge", labelnames)

    def set(self, value, **labels):
        if not enabled():
            return
        child = self._child(labels)
        with child.lock:
            child.value = value

    def add(self, amount, **labels):
        if not enabled():
            return
        child = self._child(labels)
        with child.lock:
            child.value += amount


class Histogram(_Family):
    """Log-bucketed distribution; see :data:`BUCKET_BOUNDS`."""

    def __init__(self, name, help, labelnames=()):
        super().__init__(name, help, "histogram", labelnames)

    def observe(self, value, **labels):
        if not enabled():
            return
        child = self._child(labels)
        index = bisect.bisect_left(BUCKET_BOUNDS, value)
        with child.lock:
            child.count += 1
            child.sum += value
            child.buckets[index] += 1

    def observe_many(self, values, **labels):
        """Observe a whole sequence under one child resolve and one
        lock acquisition — the batched form device workers use for
        per-stream values."""
        if not values or not enabled():
            return
        child = self._child(labels)
        bounds = BUCKET_BOUNDS
        with child.lock:
            buckets = child.buckets
            for value in values:
                child.count += 1
                child.sum += value
                buckets[bisect.bisect_left(bounds, value)] += 1

    def time(self, **labels):
        """Context manager observing the elapsed wall-clock seconds."""
        return _Timer(self, labels)


class _Timer:
    __slots__ = ("_hist", "_labels", "_start")

    def __init__(self, hist, labels):
        self._hist = hist
        self._labels = labels

    def __enter__(self):
        self._start = time.perf_counter() if enabled() else None
        return self

    def __exit__(self, *exc):
        if self._start is not None:
            self._hist.observe(
                time.perf_counter() - self._start, **self._labels
            )
        return False


class MetricsRegistry:
    """Thread-safe name -> metric-family registry.

    One process-wide instance (:data:`REGISTRY`) backs the module-level
    :func:`counter`/:func:`gauge`/:func:`histogram` constructors;
    instrument sites create their families at import time and the same
    name always resolves to the same family (a kind or label mismatch on
    re-registration raises — two call sites disagreeing about a metric
    is a bug, not a race to win).
    """

    def __init__(self):
        self._families = {}
        self._lock = threading.Lock()

    def _register(self, cls, name, help, labelnames):
        with self._lock:
            family = self._families.get(name)
            if family is not None:
                if not isinstance(family, cls) or (
                    family.labelnames != tuple(labelnames or ())
                ):
                    raise ValueError(
                        f"metric {name!r} re-registered with a different "
                        f"kind or label set"
                    )
                return family
            family = self._families[name] = cls(name, help, labelnames)
            return family

    def counter(self, name, help, labelnames=()):
        return self._register(Counter, name, help, labelnames)

    def gauge(self, name, help, labelnames=()):
        return self._register(Gauge, name, help, labelnames)

    def histogram(self, name, help, labelnames=()):
        return self._register(Histogram, name, help, labelnames)

    def families(self):
        with self._lock:
            return [self._families[n] for n in sorted(self._families)]

    def reset(self):
        """Zero every child of every family (families stay registered —
        instrument sites hold references to them)."""
        with self._lock:
            families = list(self._families.values())
        for family in families:
            with family._lock:
                family._children.clear()
                family._nolabel = None

    # -- snapshots -----------------------------------------------------------
    def snapshot(self):
        """A plain-data, point-in-time copy of every metric::

            {name: {"type": ..., "help": ..., "labelnames": [...],
                    "samples": [{"labels": {...}, ...value...}]}}

        Counter/gauge samples carry ``"value"``; histogram samples carry
        ``"count"``, ``"sum"``, and cumulative ``"buckets"``
        ``[[le, count], ...]`` ending with ``["+Inf", count]``.
        """
        out = {}
        for family in self.families():
            samples = []
            for values, child in family.samples():
                labels = dict(zip(family.labelnames, values))
                with child.lock:
                    if family.kind == "histogram":
                        cumulative, running = [], 0
                        for bound, n in zip(BUCKET_BOUNDS, child.buckets):
                            running += n
                            cumulative.append([bound, running])
                        cumulative.append(
                            ["+Inf", running + child.buckets[-1]]
                        )
                        samples.append({
                            "labels": labels,
                            "count": child.count,
                            "sum": child.sum,
                            "buckets": cumulative,
                        })
                    else:
                        samples.append(
                            {"labels": labels, "value": child.value}
                        )
            out[family.name] = {
                "type": family.kind,
                "help": family.help,
                "labelnames": list(family.labelnames),
                "samples": samples,
            }
        return out


def delta(current, previous):
    """The change between two :meth:`MetricsRegistry.snapshot` dicts:
    counters and histograms subtract sample-wise (new series keep their
    full value), gauges keep the current reading. The result is itself a
    valid snapshot — render or inspect it like any other."""
    out = {}
    for name, family in current.items():
        prev = previous.get(name)
        prev_samples = {}
        if prev is not None:
            for sample in prev["samples"]:
                key = tuple(sorted(sample["labels"].items()))
                prev_samples[key] = sample
        samples = []
        for sample in family["samples"]:
            key = tuple(sorted(sample["labels"].items()))
            before = prev_samples.get(key)
            if family["type"] == "gauge" or before is None:
                samples.append(dict(sample))
            elif family["type"] == "counter":
                samples.append({
                    "labels": dict(sample["labels"]),
                    "value": sample["value"] - before["value"],
                })
            else:  # histogram
                buckets = [
                    [le, n - bn]
                    for (le, n), (_ble, bn) in zip(
                        sample["buckets"], before["buckets"]
                    )
                ]
                samples.append({
                    "labels": dict(sample["labels"]),
                    "count": sample["count"] - before["count"],
                    "sum": sample["sum"] - before["sum"],
                    "buckets": buckets,
                })
        out[name] = {
            "type": family["type"],
            "help": family["help"],
            "labelnames": list(family["labelnames"]),
            "samples": samples,
        }
    return out


def histogram_percentile(sample, pct):
    """Nearest-rank percentile estimate from a histogram snapshot
    sample's cumulative buckets: the upper bound of the bucket holding
    the rank (``0`` for an empty histogram). The estimate depends only
    on bucket counts, so merged and unmerged histograms agree exactly."""
    count = sample["count"]
    if not count:
        return 0.0
    rank = max(1, -(-count * pct // 100))  # ceil
    for bound, cumulative in sample["buckets"]:
        if cumulative >= rank:
            return bound if bound != "+Inf" else float("inf")
    return float("inf")


def merge_histogram_samples(samples):
    """Merge histogram snapshot samples (bucket-wise addition) into one
    sample with empty labels — the cross-device / cross-process roll-up
    primitive."""
    merged = {
        "labels": {},
        "count": 0,
        "sum": 0.0,
        "buckets": [
            [bound, 0] for bound in list(BUCKET_BOUNDS) + ["+Inf"]
        ],
    }
    for sample in samples:
        merged["count"] += sample["count"]
        merged["sum"] += sample["sum"]
        for slot, (_le, n) in zip(merged["buckets"], sample["buckets"]):
            slot[1] += n
    return merged


#: The process-wide registry every instrument site shares.
REGISTRY = MetricsRegistry()


def counter(name, help, labelnames=()):
    """Register (or fetch) a :class:`Counter` on :data:`REGISTRY`."""
    return REGISTRY.counter(name, help, labelnames)


def gauge(name, help, labelnames=()):
    """Register (or fetch) a :class:`Gauge` on :data:`REGISTRY`."""
    return REGISTRY.gauge(name, help, labelnames)


def histogram(name, help, labelnames=()):
    """Register (or fetch) a :class:`Histogram` on :data:`REGISTRY`."""
    return REGISTRY.histogram(name, help, labelnames)


def snapshot():
    """:meth:`MetricsRegistry.snapshot` of :data:`REGISTRY`."""
    return REGISTRY.snapshot()


def reset():
    """:meth:`MetricsRegistry.reset` of :data:`REGISTRY`."""
    REGISTRY.reset()


__all__ = [
    "BUCKET_BOUNDS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "REGISTRY",
    "counter",
    "delta",
    "disable",
    "enable",
    "enabled",
    "enabled_scope",
    "gauge",
    "histogram",
    "histogram_percentile",
    "merge_histogram_samples",
    "reset",
    "snapshot",
    "use_env",
]
