"""The serving runtime's batch path: identical results to the
per-stream loop, occupancy stats in the report, and the config switch."""

import pytest

from repro.serve import (
    FleetServer,
    ServeConfig,
    format_serve_report,
    validate_serve_report,
)

def _streams(lengths, fill=0x41):
    return [bytes([fill + i % 7]) * length
            for i, length in enumerate(lengths)]


def _run(batch_engine):
    server = FleetServer(config=ServeConfig(
        devices=1, pu_slots=4, window_streams=8,
        batch_engine=batch_engine,
    ))
    server.start()
    future = server.submit("identity", _streams((64, 8, 0, 200, 16)))
    server.drain()
    result = future.result(timeout=30)
    report = validate_serve_report(server.report())
    server.stop()
    return result, report


def test_simd_path_matches_per_stream_loop():
    # Without a kernel both runs are per stream, and still agree.
    simd_result, simd_report = _run(batch_engine=True)
    loop_result, loop_report = _run(batch_engine=False)
    assert simd_result.outputs == loop_result.outputs
    assert [j["device_vcycles"] for j in simd_report["jobs"]] == \
        [j["device_vcycles"] for j in loop_report["jobs"]]
    assert simd_report["totals"]["makespan"] == \
        loop_report["totals"]["makespan"]


@pytest.mark.needs_kernel
def test_simd_batches_carry_occupancy_stats():
    _, report = _run(batch_engine=True)
    assert report["config"]["batch_engine"] is True
    simd = [b for b in report["batches"] if "batch_engine" in b]
    assert simd, "no batch ran on the SIMD path"
    for row in simd:
        stats = row["batch_engine"]
        assert 0 < stats["lanes"] <= row["streams"]
        assert 0.0 <= stats["waste_fraction"] <= 1.0
    assert "identity" in report["cache"]["batched"]
    assert "batch engine:" in format_serve_report(report)


def test_batch_engine_off_runs_per_stream():
    _, report = _run(batch_engine=False)
    assert report["config"]["batch_engine"] is False
    assert not any("batch_engine" in b for b in report["batches"])
