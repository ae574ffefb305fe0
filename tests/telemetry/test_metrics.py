"""Unit tests for the process-wide metrics registry
(:mod:`repro.telemetry.metrics`): counters, gauges, log-bucketed
histograms, snapshot/delta semantics, enablement, and the hypothesis
property that merged histograms are indistinguishable from one that
recorded every observation itself.

Every test records into a private :class:`MetricsRegistry` where it
can, and wraps any use of the module-level constructors in
``enabled_scope`` + ``reset`` so nothing leaks into other tests.
"""

import threading

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.telemetry import metrics
from repro.telemetry.metrics import (
    BUCKET_BOUNDS,
    MetricsRegistry,
    delta,
    enabled_scope,
    histogram_percentile,
    merge_histogram_samples,
)


@pytest.fixture
def registry():
    return MetricsRegistry()


def _only_sample(snap, name):
    samples = snap[name]["samples"]
    assert len(samples) == 1
    return samples[0]


# -- enablement ---------------------------------------------------------------

def test_disabled_records_nothing(registry):
    with enabled_scope(False):
        counter = registry.counter("t_c_total", "help")
        counter.inc()
        registry.gauge("t_g", "help").set(5)
        registry.histogram("t_h", "help").observe(1.0)
        snap = registry.snapshot()
    # No child is even created: zero samples, zero allocation.
    assert all(not fam["samples"] for fam in snap.values())


def test_enabled_scope_restores_previous_force():
    metrics.enable()
    try:
        with enabled_scope(False):
            assert not metrics.enabled()
        assert metrics.enabled()
    finally:
        metrics.use_env()


def test_fleet_metrics_env_flag(monkeypatch):
    # FLEET_METRICS is read once, on first use and after use_env().
    monkeypatch.setenv("FLEET_METRICS", "1")
    metrics.use_env()
    assert metrics.enabled()
    monkeypatch.setenv("FLEET_METRICS", "0")
    assert metrics.enabled()
    metrics.use_env()
    assert not metrics.enabled()
    monkeypatch.delenv("FLEET_METRICS")
    metrics.use_env()
    assert not metrics.enabled()


def test_fleet_metrics_env_invalid_raises(monkeypatch):
    from repro.envcfg import FleetConfigError

    metrics.use_env()
    monkeypatch.setenv("FLEET_METRICS", "maybe")
    with pytest.raises(FleetConfigError):
        metrics.enabled()
    monkeypatch.delenv("FLEET_METRICS")


# -- counters / gauges --------------------------------------------------------

def test_counter_inc_and_labels(registry):
    with enabled_scope():
        counter = registry.counter("t_jobs_total", "help", ("tenant",))
        counter.inc(tenant="a")
        counter.inc(2, tenant="a")
        counter.inc(tenant="b")
        snap = registry.snapshot()
    samples = {
        s["labels"]["tenant"]: s["value"]
        for s in snap["t_jobs_total"]["samples"]
    }
    assert samples == {"a": 3, "b": 1}


def test_gauge_set_and_add(registry):
    with enabled_scope():
        gauge = registry.gauge("t_depth", "help")
        gauge.set(7)
        gauge.add(-2)
        snap = registry.snapshot()
    assert _only_sample(snap, "t_depth")["value"] == 5


def test_reregistration_same_family(registry):
    first = registry.counter("t_same_total", "help", ("x",))
    again = registry.counter("t_same_total", "other help", ("x",))
    assert first is again


def test_reregistration_mismatch_raises(registry):
    registry.counter("t_kind_total", "help")
    with pytest.raises(ValueError):
        registry.gauge("t_kind_total", "help")
    registry.counter("t_labels_total", "help", ("a",))
    with pytest.raises(ValueError):
        registry.counter("t_labels_total", "help", ("b",))


def test_reset_clears_values_but_keeps_families(registry):
    with enabled_scope():
        counter = registry.counter("t_reset_total", "help")
        counter.inc(5)
        registry.reset()
        assert not registry.snapshot()["t_reset_total"]["samples"]
        # The held reference must keep recording into the registry —
        # this is the stale-cached-child regression test.
        counter.inc(2)
        snap = registry.snapshot()
    assert _only_sample(snap, "t_reset_total")["value"] == 2


def test_counter_thread_safety(registry):
    with enabled_scope():
        counter = registry.counter("t_race_total", "help")

        def spin():
            for _ in range(1_000):
                counter.inc()

        threads = [threading.Thread(target=spin) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        snap = registry.snapshot()
    assert _only_sample(snap, "t_race_total")["value"] == 4_000


# -- histograms ---------------------------------------------------------------

def test_histogram_observe_and_buckets(registry):
    with enabled_scope():
        hist = registry.histogram("t_lat", "help")
        hist.observe(0.0)
        hist.observe(3.0)   # lands in the le=4 bucket
        hist.observe(4.0)   # exact bound lands in its own bucket
        hist.observe(2.0 ** 40)  # beyond the top bound: overflow
        snap = registry.snapshot()
    sample = _only_sample(snap, "t_lat")
    assert sample["count"] == 4
    assert sample["sum"] == 0.0 + 3.0 + 4.0 + 2.0 ** 40
    cumulative = dict(
        (le, count) for le, count in sample["buckets"]
    )
    assert cumulative[0.0] == 1
    assert cumulative[2.0] == 1
    assert cumulative[4.0] == 3
    assert cumulative["+Inf"] == 4
    # Cumulative counts never decrease.
    counts = [count for _le, count in sample["buckets"]]
    assert counts == sorted(counts)


def test_observe_many_matches_observe(registry):
    values = [0.5, 1.0, 17.0, 300.0, 2.0 ** 35]
    with enabled_scope():
        one = registry.histogram("t_one", "help")
        many = registry.histogram("t_many", "help")
        for value in values:
            one.observe(value)
        many.observe_many(values)
        snap = registry.snapshot()
    a = _only_sample(snap, "t_one")
    b = _only_sample(snap, "t_many")
    assert (a["count"], a["sum"], a["buckets"]) == (
        b["count"], b["sum"], b["buckets"]
    )


def test_histogram_percentile_empty_and_basic(registry):
    with enabled_scope():
        hist = registry.histogram("t_pct", "help")
        sample = {"count": 0, "buckets": []}
        assert histogram_percentile(sample, 99) == 0.0
        hist.observe_many([1.0] * 99 + [1000.0])
        sample = _only_sample(registry.snapshot(), "t_pct")
    assert histogram_percentile(sample, 50) == 1.0
    # p100 crosses into the bucket holding the 1000.0 outlier.
    assert histogram_percentile(sample, 100) == 1024.0


# -- merge property -----------------------------------------------------------

_VALUES = st.lists(
    st.floats(
        min_value=0.0, max_value=2.0 ** 34,
        allow_nan=False, allow_infinity=False,
    ),
    max_size=50,
)


@given(shards=st.lists(_VALUES, min_size=1, max_size=5))
def test_merged_histogram_equals_unmerged(shards):
    """Bucket-wise merging N per-shard histograms is indistinguishable
    from one histogram that observed every value itself — the roll-up
    primitive the dashboard and cross-device aggregation rely on."""
    registry = MetricsRegistry()
    with enabled_scope():
        whole = registry.histogram("t_whole", "help")
        sharded = registry.histogram("t_shard", "help", ("shard",))
        for index, values in enumerate(shards):
            whole.observe_many(values)
            sharded.observe_many(values, shard=str(index))
        snap = registry.snapshot()
    merged = merge_histogram_samples(
        snap["t_shard"]["samples"]
    )
    if not snap["t_whole"]["samples"]:
        # Every shard was empty: observe_many([]) records nothing.
        assert merged["count"] == 0
        return
    expected = _only_sample(snap, "t_whole")
    assert merged["count"] == expected["count"]
    assert merged["buckets"] == expected["buckets"]
    assert merged["sum"] == pytest.approx(expected["sum"])
    for pct in (50, 90, 99, 100):
        assert histogram_percentile(merged, pct) == (
            histogram_percentile(expected, pct)
        )


# -- snapshot / delta ---------------------------------------------------------

def test_delta_counters_and_gauges(registry):
    with enabled_scope():
        counter = registry.counter("t_d_total", "help")
        gauge = registry.gauge("t_d_depth", "help")
        counter.inc(3)
        gauge.set(10)
        before = registry.snapshot()
        counter.inc(4)
        gauge.set(2)
        after = registry.snapshot()
    diff = delta(after, before)
    assert _only_sample(diff, "t_d_total")["value"] == 4
    # Gauges keep the current reading, not a difference.
    assert _only_sample(diff, "t_d_depth")["value"] == 2


def test_delta_histogram_and_new_series(registry):
    with enabled_scope():
        hist = registry.histogram("t_d_lat", "help", ("app",))
        hist.observe(1.0, app="a")
        before = registry.snapshot()
        hist.observe(1.0, app="a")
        hist.observe(2.0, app="b")  # new series after `before`
        after = registry.snapshot()
    diff = delta(after, before)
    by_app = {
        s["labels"]["app"]: s for s in diff["t_d_lat"]["samples"]
    }
    assert by_app["a"]["count"] == 1
    assert by_app["b"]["count"] == 1  # new series keeps full value
    assert BUCKET_BOUNDS[0] == 0.0  # shared bounds stay anchored
