"""End-to-end `FleetServer` behavior: results, reports, fair shares,
the asyncio bridge, memory-system attribution, and trace export."""

import asyncio
import json

import pytest

from repro.serve import (
    FleetServer,
    ServeConfig,
    ServeError,
    build_serve_report,
    format_serve_report,
    gather_async,
    validate_serve_report,
)
from repro.serve.job import DONE
from repro.system import serving_pu_slots


def _streams(lengths, fill=0x41):
    return [bytes([fill + i % 7]) * length
            for i, length in enumerate(lengths)]


def _served(config=None, jobs=((("identity", "default",
                                 (64, 8, 200, 16)),))):
    server = FleetServer(config=config or ServeConfig(
        devices=2, pu_slots=4, window_streams=8,
    ))
    server.start()
    futures = [
        server.submit(app, _streams(lengths), tenant=tenant)
        for app, tenant, lengths in jobs
    ]
    server.drain()
    return server, [f.result(timeout=30) for f in futures]


# ---------------------------------------------------------------------------
# Results + report structure
# ---------------------------------------------------------------------------


def test_identity_outputs_round_trip_in_stream_order():
    server, results = _served()
    (result,) = results
    assert [bytes(out) for out in result.outputs] == _streams(
        (64, 8, 200, 16)
    )
    assert result.report["status"] == DONE
    assert result.report["device_vcycles"] == sum(
        length + 1 for length in (64, 8, 200, 16)
    )
    server.stop()


def test_report_validates_and_renders():
    server, _ = _served(jobs=[
        ("identity", "gold", (100, 5)),
        ("sink", "silver", (40, 40, 40)),
        ("identity", "gold", (7,)),
    ])
    report = validate_serve_report(server.report())
    assert report["totals"]["jobs"] == 3
    assert report["totals"]["streams"] == 6
    assert set(report["tenants"]) == {"gold", "silver"}
    assert {b["app"] for b in report["batches"]} == {"identity", "sink"}
    rendered = format_serve_report(report)
    assert "serve run: 3 jobs, 6 streams" in rendered
    assert "tenant" in rendered and "gold" in rendered
    json.dumps(report)  # must be plain JSON-serializable data
    server.stop()


def test_report_requires_drained_server():
    config = ServeConfig(devices=1, pu_slots=4, window_streams=1_000_000)
    with FleetServer(config=config) as server:
        server.submit("identity", _streams((8, 8)))
        with pytest.raises(ServeError, match="drain"):
            server.report()
        server.drain()
        validate_serve_report(server.report())


def test_batches_spread_across_devices():
    server, _ = _served(jobs=[
        ("identity", "default", (50,) * 4) for _ in range(4)
    ])
    report = server.report()
    used = {b["device"] for b in report["batches"]}
    assert used == {0, 1}
    # Equal-cost batches on 2 devices: greedy placement balances 2/2.
    per_device = [d["batches"] for d in report["devices"]]
    assert per_device == [2, 2]
    server.stop()


def test_job_fragment_in_future_matches_report():
    server, results = _served(jobs=[("identity", "default", (30, 3))])
    report = server.report()
    (job_row,) = report["jobs"]
    frag = results[0].report
    for key in ("job_id", "app", "tenant", "status", "streams",
                "device_vcycles", "batches"):
        assert job_row[key] == frag[key]
    server.stop()


# ---------------------------------------------------------------------------
# Area-model slot sizing
# ---------------------------------------------------------------------------


def test_area_model_slots_when_pu_slots_is_none():
    config = ServeConfig(devices=1, pu_slots=None, window_streams=4)
    with FleetServer(config=config) as server:
        server.submit("identity", _streams((8, 8, 8, 8)))
        server.drain()
        report = server.report()
    expected = serving_pu_slots(server.cache.entry("identity").program)
    assert all(b["slots"] == expected for b in report["batches"])


# ---------------------------------------------------------------------------
# Asyncio bridge
# ---------------------------------------------------------------------------


def test_async_result_bridge():
    config = ServeConfig(devices=1, pu_slots=4, window_streams=4)
    with FleetServer(config=config) as server:
        futures = [
            server.submit("identity", _streams((16,)))
            for _ in range(3)
        ]
        server.flush()

        async def collect():
            single = await futures[0].result_async(timeout=30)
            rest = await gather_async(*futures[1:], timeout=30)
            return [single, *rest]

        results = asyncio.run(collect())
    assert [r.job_id for r in results] == [0, 1, 2]
    assert all(bytes(r.outputs[0]) == _streams((16,))[0] for r in results)


# ---------------------------------------------------------------------------
# memory_sim mode
# ---------------------------------------------------------------------------


def test_memory_sim_attaches_cycle_attribution():
    config = ServeConfig(devices=1, pu_slots=4, window_streams=4,
                         memory_sim=True)
    with FleetServer(config=config) as server:
        future = server.submit("identity", _streams((48, 12)))
        server.drain()
        outputs = future.result(timeout=60).outputs
        report = validate_serve_report(server.report())
    assert [bytes(out) for out in outputs] == _streams((48, 12))
    for batch in report["batches"]:
        attribution = batch["attribution"]
        assert sum(attribution.values()) > 0
        # Memory-system cycles dominate functional vcycles: the batch
        # makespan now includes DRAM/controller time.
        assert batch["makespan"] >= max(
            pu["busy_cycles"] for pu in batch["pus"]
        )


def test_memory_sim_reruns_the_cached_program():
    # Attribution re-runs each batch on the cache entry's program; it
    # never rebuilds the unit from the app's factory.
    from repro.apps import identity_unit
    from repro.serve import ServedApp

    calls = []

    def factory():
        calls.append(1)
        return identity_unit()

    config = ServeConfig(devices=1, pu_slots=4, window_streams=4,
                         memory_sim=True)
    apps = {"identity": ServedApp("identity", factory)}
    with FleetServer(apps, config) as server:
        for _ in range(2):
            server.submit("identity", _streams((8, 8, 8, 8)))
        server.drain()
        report = validate_serve_report(server.report())
    assert len(report["batches"]) == 2
    assert all(batch["attribution"] for batch in report["batches"])
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# Trace export
# ---------------------------------------------------------------------------


def test_trace_export_one_span_per_stream(tmp_path):
    server, _ = _served(jobs=[
        ("identity", "gold", (32, 8, 8)),
        ("identity", "silver", (16, 16)),
    ])
    path = tmp_path / "serve_trace.json"
    server.write_trace(str(path))
    trace = json.loads(path.read_text())
    # pid namespace is device shards, plus one "jobs" process carrying
    # the per-job submit -> queue -> batch -> done span chains.
    metas = [e for e in trace["traceEvents"] if e["ph"] == "M"]
    names = {e["args"]["name"] for e in metas
             if e["name"] == "process_name"}
    assert names == {"device 0", "device 1", "jobs"}
    device_pids = {
        e["pid"] for e in metas
        if e["name"] == "process_name"
        and e["args"]["name"].startswith("device ")
    }
    spans = [
        e for e in trace["traceEvents"]
        if e["ph"] == "X" and e["pid"] in device_pids
    ]
    assert len(spans) == 5
    assert {e["args"]["tenant"] for e in spans} == {"gold", "silver"}
    for span in spans:
        assert span["dur"] > 0
    server.stop()


def test_build_serve_report_is_pure_reconstruction():
    server, _ = _served(jobs=[("identity", "default", (20, 4, 4))])
    first = build_serve_report(server)
    second = build_serve_report(server)
    assert first == second
    server.stop()
