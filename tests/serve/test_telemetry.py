"""Serving-runtime telemetry integration: byte-identical reports with
telemetry on or off, complete end-to-end span chains in both trace
exports, ``FLEET_TRACE`` auto-export, SLO report sections, and
``FLEET_METRICS`` validation."""

import json

import pytest

from repro.serve import build_trace, build_trace_log
from repro.serve.__main__ import demo_slos, run_demo
from repro.telemetry import SLO, metrics
from repro.telemetry.tracing import (
    mint_trace_id,
    parse_log_lines,
    render_log_lines,
    validate_trace_log,
)


def _demo(**kwargs):
    report, server = run_demo(jobs=8, seed=99, **kwargs)
    server.stop()
    return report, server


# -- reports never read metrics ----------------------------------------------

def test_reports_byte_identical_with_telemetry():
    with metrics.enabled_scope(False):
        off, _ = _demo()
    with metrics.enabled_scope():
        metrics.reset()
        on, _ = _demo()
        snap = metrics.snapshot()
        metrics.reset()
    assert json.dumps(off, sort_keys=True) == (
        json.dumps(on, sort_keys=True)
    )
    # ...and the enabled run really recorded into the live registry.
    submitted = snap["fleet_serve_jobs_submitted_total"]["samples"]
    assert sum(s["value"] for s in submitted) == 8


def test_metrics_match_report_totals():
    with metrics.enabled_scope():
        metrics.reset()
        report, _ = _demo()
        snap = metrics.snapshot()
        metrics.reset()
    batches = snap["fleet_serve_batches_executed_total"]["samples"]
    assert sum(s["value"] for s in batches) == len(report["batches"])
    streams = snap["fleet_serve_stream_vcycles"]["samples"]
    assert sum(s["count"] for s in streams) == report["totals"]["streams"]


# -- tracing ------------------------------------------------------------------

def test_every_job_has_complete_span_chain():
    _report, server = run_demo(jobs=8, seed=99)
    events = build_trace_log(server)
    server.stop()
    validate_trace_log(events)
    by_trace = {}
    for event in events:
        by_trace.setdefault(event["trace"], set()).add(event["event"])
    assert len(by_trace) == 8
    for hops in by_trace.values():
        assert {"submit", "queue", "batch", "done"} <= hops


def test_trace_ids_deterministic():
    _report, server = run_demo(jobs=4, seed=7)
    events = build_trace_log(server)
    server.stop()
    _report2, server2 = run_demo(jobs=4, seed=7)
    events2 = build_trace_log(server2)
    server2.stop()
    assert events == events2
    submits = [e for e in events if e["event"] == "submit"]
    assert submits[0]["trace"] == mint_trace_id(
        submits[0]["job"], submits[0]["app"], submits[0]["tenant"]
    )


def test_job_trace_ids_are_minted_on_first_read(tmp_path, monkeypatch):
    # Submitting, serving and reporting never read a job's trace IDs;
    # the trace export mints them, once per job.
    from repro.telemetry.tracing import SpanContext

    minted = []
    real = SpanContext.for_job.__func__

    def counting(cls, job_id, app, tenant):
        minted.append(job_id)
        return real(cls, job_id, app, tenant)

    monkeypatch.setattr(SpanContext, "for_job", classmethod(counting))
    report, server = run_demo(jobs=6, seed=7)
    assert minted == []
    server.write_trace(str(tmp_path / "serve.trace.json"))
    assert sorted(minted) == [job["job_id"] for job in report["jobs"]]
    events = build_trace_log(server)
    server.stop()
    assert len(minted) == 6
    submit = next(e for e in events if e["event"] == "submit")
    assert submit["trace"] == mint_trace_id(
        submit["job"], submit["app"], submit["tenant"]
    )


def test_log_lines_round_trip():
    _report, server = run_demo(jobs=4, seed=7)
    events = build_trace_log(server)
    server.stop()
    assert parse_log_lines(render_log_lines(events)) == events


def test_perfetto_trace_carries_job_spans():
    _report, server = run_demo(jobs=4, seed=7)
    trace = build_trace(server).to_chrome()
    server.stop()
    job_events = [
        e for e in trace["traceEvents"]
        if e.get("args", {}).get("trace")
    ]
    traces = {e["args"]["trace"] for e in job_events}
    assert len(traces) == 4
    for trace_id in traces:
        hops = {
            e["name"].split()[0] for e in job_events
            if e["args"]["trace"] == trace_id
        }
        assert {"submit", "queue", "done"} <= hops


def test_fleet_trace_auto_export(tmp_path, monkeypatch):
    path = tmp_path / "serve.trace.json"
    monkeypatch.setenv("FLEET_TRACE", str(path))
    _report, server = run_demo(jobs=4, seed=7)
    server.stop()
    trace = json.loads(path.read_text())
    assert any(
        e.get("args", {}).get("trace") for e in trace["traceEvents"]
    )


def test_write_trace_log_file(tmp_path):
    _report, server = run_demo(jobs=4, seed=7)
    path = tmp_path / "trace.jsonl"
    server.write_trace_log(path)
    server.stop()
    events = parse_log_lines(path.read_text())
    validate_trace_log(events)
    assert len({e["trace"] for e in events}) == 4


# -- SLOs ---------------------------------------------------------------------

def test_slo_section_present_only_when_configured():
    plain, _ = _demo()
    assert "slo" not in plain
    assert "slos" not in plain["config"]
    with_slos, _ = _demo(slos=demo_slos())
    section = with_slos["slo"]
    assert [row["name"] for row in section] == [
        "p99-latency", "job-errors"
    ]
    for row in section:
        assert 0.0 <= row["compliance"] <= 1.0
        assert row["burn_rate"] >= 0.0
    # Stripping the SLO extras recovers the plain report byte-for-byte.
    stripped = dict(with_slos)
    stripped.pop("slo")
    stripped["config"] = {
        k: v for k, v in stripped["config"].items() if k != "slos"
    }
    assert json.dumps(stripped, sort_keys=True) == (
        json.dumps(plain, sort_keys=True)
    )


def test_slo_burn_rate_math():
    slo = SLO.latency("lat", percentile=90, target_vcycles=100)
    rows = [
        {"status": "done", "latency": 50},
        {"status": "done", "latency": 50},
        {"status": "done", "latency": 50},
        {"status": "done", "latency": 500},
    ]
    from repro.telemetry.slo import evaluate_slos

    (result,) = evaluate_slos([slo], rows)
    assert result["population"] == 4
    assert result["good"] == 3
    assert result["compliance"] == 0.75
    # bad fraction 0.25 against a 0.10 budget: burning 2.5x too fast.
    assert result["burn_rate"] == 2.5
    assert not result["met"]


def test_slo_constructor_validation():
    with pytest.raises(ValueError):
        SLO.latency("bad", target_vcycles=0)
    with pytest.raises(ValueError):
        SLO.error_rate("bad", max_rate=0.0)
    with pytest.raises(ValueError):
        SLO("bad", "throughput", 0.5, None)


# -- FLEET_METRICS validation -------------------------------------------------

def test_fleet_metrics_bad_value_raises(monkeypatch):
    from repro.envcfg import FleetConfigError

    metrics.use_env()
    monkeypatch.setenv("FLEET_METRICS", "banana")
    with pytest.raises(FleetConfigError):
        metrics.enabled()
    monkeypatch.delenv("FLEET_METRICS")
