"""Serving edge cases: empty jobs, batch-spanning jobs, cooperative
cancellation, admission control, lifecycle errors, and the determinism
contract."""

import json

import pytest

from repro.serve import (
    FleetServer,
    JobCancelled,
    ServeConfig,
    ServerClosed,
    ServerOverloaded,
    UnknownApp,
    validate_serve_report,
)
from repro.serve.__main__ import run_demo
from repro.serve.job import CANCELLED, DONE, FAILED


def _streams(lengths):
    return [bytes([0x61 + i % 5]) * length
            for i, length in enumerate(lengths)]


# ---------------------------------------------------------------------------
# Degenerate jobs
# ---------------------------------------------------------------------------


def test_empty_job_completes_immediately():
    with FleetServer(config=ServeConfig(devices=1)) as server:
        future = server.submit("identity", [])
        assert future.done()
        result = future.result(timeout=5)
        assert result.outputs == []
        assert result.report["status"] == DONE
        server.drain()
        report = validate_serve_report(server.report())
    (job,) = report["jobs"]
    assert job["latency"] == 0.0 and job["batches"] == []


def test_single_stream_job():
    config = ServeConfig(devices=2, pu_slots=4, window_streams=1)
    with FleetServer(config=config) as server:
        result = server.submit("identity", _streams((33,))).result(
            timeout=30
        )
        server.drain()
        report = validate_serve_report(server.report())
    assert bytes(result.outputs[0]) == _streams((33,))[0]
    assert report["totals"]["batches"] == 1
    (batch,) = report["batches"]
    assert batch["streams"] == 1 and batch["slots"] == 4


def test_job_with_more_streams_than_slots_spans_batches():
    lengths = tuple(range(20, 30))  # 10 streams, 4 slots -> 3 batches
    config = ServeConfig(devices=1, pu_slots=4, window_streams=4)
    with FleetServer(config=config) as server:
        result = server.submit("identity", _streams(lengths)).result(
            timeout=30
        )
        server.drain()
        report = validate_serve_report(server.report())
    # Outputs come back in submission stream order even though the
    # packer reordered the streams across batches.
    assert [bytes(out) for out in result.outputs] == _streams(lengths)
    assert report["totals"]["batches"] == 3
    assert len(result.report["batches"]) == 3


# ---------------------------------------------------------------------------
# Cancellation
# ---------------------------------------------------------------------------


def test_cancel_before_scheduling_skips_all_streams():
    config = ServeConfig(devices=1, window_streams=1_000_000)
    with FleetServer(config=config) as server:
        future = server.submit("identity", _streams((64, 64)))
        assert future.cancel()
        assert future.cancelled()
        server.drain()
        with pytest.raises(JobCancelled):
            future.result(timeout=5)
        report = validate_serve_report(server.report())
    assert report["totals"]["statuses"] == {CANCELLED: 1}
    assert report["totals"]["batches"] == 0


def test_cancel_mid_job_keeps_executed_streams():
    # Deterministic mid-run cancellation: schedule a 6-stream job into
    # three 2-slot batches, execute the first batch on this thread (the
    # device worker is never started), cancel, then run the rest.
    config = ServeConfig(devices=1, pu_slots=2,
                         window_streams=1_000_000)
    server = FleetServer(config=config)
    lengths = (100, 90, 80, 10, 9, 8)  # skew order == this order
    future = server.submit("identity", _streams(lengths))
    server.flush()
    device = server.devices[0]
    assert len(device.queue) == 3
    device.execute(device.queue.pop(0))
    assert future.cancel()  # mid-job: one batch already executed
    while device.queue:
        device.execute(device.queue.pop(0))
    with pytest.raises(JobCancelled):
        future.result(timeout=5)
    job = server._jobs[0]
    # The first batch's streams (the two heaviest) stayed executed;
    # the cancelled remainder was skipped, not run.
    assert [bytes(out) for out in job.outputs[:2]] == _streams(lengths)[:2]
    assert job.outputs[2:] == [[], [], [], []]
    assert job.vcycles[2:] == [0, 0, 0, 0]
    report = validate_serve_report(server.report())
    skipped = sum(
        1 for batch in report["batches"] for pu in batch["pus"]
        if pu["bursts"] == 0
    )
    assert skipped == 4
    server.stop()  # workers never started; nothing to join


def _cancel_inside_engine_call(monkeypatch, future, inside=None):
    """Make the next engine call (the kernel, or the per-stream runtime
    where no kernel can be built) first cancel ``future`` and run
    ``inside``; returns the list of ``cancel()`` results."""
    import repro.interp.batch as batch_mod
    from repro.system.runtime import FleetRuntime

    answers = []

    def wrap(real):
        def call(*args, **kwargs):
            if not answers:
                answers.append(future.cancel())
                if inside is not None:
                    inside()
            return real(*args, **kwargs)
        return call

    monkeypatch.setattr(batch_mod, "run_batch_streams",
                        wrap(batch_mod.run_batch_streams))
    monkeypatch.setattr(FleetRuntime, "run_traced",
                        wrap(FleetRuntime.run_traced))
    return answers


def test_cancel_inside_the_last_batch_returns_false(monkeypatch):
    # Both streams have passed their batch's cancellation check when the
    # engine runs them, so the job can no longer be cancelled: cancel()
    # says so, and the job completes with both streams.
    config = ServeConfig(devices=1, pu_slots=2, window_streams=1_000_000)
    server = FleetServer(config=config)
    future = server.submit("identity", _streams((12, 7)))
    server.flush()  # calibrates before the engine is wrapped
    answers = _cancel_inside_engine_call(monkeypatch, future)
    device = server.devices[0]
    device.execute(device.queue.pop(0))
    assert answers == [False]
    assert not future.cancelled()
    result = future.result(timeout=5)
    assert [bytes(out) for out in result.outputs] == _streams((12, 7))
    assert result.report["status"] == DONE


def test_cancel_between_devices_finishes_cancelled(monkeypatch):
    # Batch 0 (device 0) has passed its check when the job is cancelled;
    # batch 1 (device 1) then skips its streams before batch 0's
    # complete. The job must end cancelled, as cancel() promised, not
    # done with two empty outputs.
    config = ServeConfig(devices=2, pu_slots=2, window_streams=1_000_000)
    server = FleetServer(config=config)
    lengths = (100, 90, 20, 10)
    future = server.submit("identity", _streams(lengths))
    server.flush()
    first, second = (device.queue.pop(0) for device in server.devices)
    answers = _cancel_inside_engine_call(
        monkeypatch, future, lambda: server.devices[1].execute(second))
    server.devices[0].execute(first)
    assert answers == [True]
    assert future.cancelled()
    with pytest.raises(JobCancelled):
        future.result(timeout=5)
    job = server._jobs[0]
    assert job.status == CANCELLED
    assert [bytes(out) for out in job.outputs[:2]] == _streams(lengths)[:2]
    assert job.outputs[2:] == [[], []]


def test_cancel_after_completion_returns_false():
    with FleetServer(config=ServeConfig(devices=1)) as server:
        future = server.submit("identity", _streams((8,)))
        server.drain()
        future.result(timeout=30)
        assert not future.cancel()
        assert not future.cancelled()


# ---------------------------------------------------------------------------
# Failures
# ---------------------------------------------------------------------------


def test_failed_batch_fails_its_jobs_and_the_server_recovers(monkeypatch):
    # Today a failing batch fails every job in it, whichever tenant
    # submitted it; the worker then serves the next batch, and the
    # report names the failed batch's error.
    import repro.interp.batch as batch_mod
    from repro.system.runtime import FleetRuntime

    class Planted(RuntimeError):
        pass

    def broken(*args, **kwargs):
        raise Planted("planted engine failure")

    config = ServeConfig(devices=1, pu_slots=4, window_streams=1_000_000)
    with FleetServer(config=config) as server:
        # Calibrate before planting: only the batch may fail.
        server.cost_model.coefficients("identity")
        with monkeypatch.context() as patch:
            # Identity's batch runs on the kernel when one can be built
            # here, else stream by stream: break both paths.
            patch.setattr(batch_mod, "run_batch_streams", broken)
            patch.setattr(FleetRuntime, "run_traced", broken)
            failed = [
                server.submit("identity", _streams((8, 5)), tenant=tenant)
                for tenant in ("gold", "bronze")
            ]
            server.drain()
        for future in failed:
            with pytest.raises(Planted, match="planted engine failure"):
                future.result(timeout=5)
        retry = server.submit("identity", _streams((8,)))
        server.drain()
        assert [bytes(out) for out in retry.result(timeout=30).outputs] \
            == _streams((8,))
        report = validate_serve_report(server.report())
    assert report["totals"]["jobs"] == 3
    assert report["totals"]["statuses"] == {DONE: 1, FAILED: 2}
    first, last = report["batches"]
    assert first["error"] == "Planted: planted engine failure"
    assert first["makespan"] == first["busy_vcycles"] == 0
    assert first["pus"] == []
    assert "error" not in last
    assert len(last["pus"]) == 1
    assert report["totals"]["batches"] == len(report["batches"]) == 2
    assert report["totals"]["device_vcycles"] == last["busy_vcycles"] == 9


def test_batch_failing_mid_stream_keeps_its_report_consistent(monkeypatch):
    # Per stream (no kernel): the first stream runs, the second raises.
    # The batch's makespan covers the stream that ran, and its row names
    # the error.
    from repro.system.runtime import FleetRuntime

    monkeypatch.setenv("FLEET_NATIVE", "off")
    real = FleetRuntime.run_traced
    calls = []

    def second_fails(self, streams):
        calls.append(1)
        if len(calls) == 2:
            raise RuntimeError("planted mid-batch failure")
        return real(self, streams)

    config = ServeConfig(devices=1, pu_slots=4, window_streams=1_000_000)
    with FleetServer(config=config) as server:
        server.cost_model.coefficients("identity")
        monkeypatch.setattr(FleetRuntime, "run_traced", second_fails)
        future = server.submit("identity", _streams((8, 8, 8)))
        server.drain()
        with pytest.raises(RuntimeError, match="planted mid-batch"):
            future.result(timeout=5)
        report = validate_serve_report(server.report())
    assert len(calls) == 2
    row, = report["batches"]
    assert row["error"] == "RuntimeError: planted mid-batch failure"
    assert row["pus"] == []
    # Identity: 8 tokens plus the cleanup cycle.
    assert row["makespan"] == row["busy_vcycles"] == 9
    assert report["devices"][0]["clock"] == 9
    assert report["totals"]["device_vcycles"] == 9
    assert report["totals"]["statuses"] == {FAILED: 1}


# ---------------------------------------------------------------------------
# Admission control + lifecycle
# ---------------------------------------------------------------------------


def test_overload_sheds_typed_error_and_recovers():
    config = ServeConfig(devices=1, pu_slots=4,
                         window_streams=1_000_000, max_pending_streams=6)
    with FleetServer(config=config) as server:
        held = server.submit("identity", _streams((8,) * 6))
        with pytest.raises(ServerOverloaded) as excinfo:
            server.submit("identity", _streams((8,)))
        error = excinfo.value
        assert error.pending_streams == 6
        assert error.limit == 6
        assert error.job_streams == 1
        server.drain()  # frees the queue
        retry = server.submit("identity", _streams((8,)))
        server.drain()
        assert held.result(timeout=30).report["status"] == DONE
        assert retry.result(timeout=30).report["status"] == DONE


def test_submit_after_stop_raises_server_closed():
    server = FleetServer(config=ServeConfig(devices=1))
    server.start()
    server.stop()
    with pytest.raises(ServerClosed):
        server.submit("identity", _streams((8,)))


@pytest.mark.parametrize("streams,message", [
    (b"hi", "not one bytes"),
    (bytearray(b"hi"), "not one bytearray"),
    ([3], "stream 0 is int"),
    ([b"ok", "text"], "stream 1 is str"),
    ([b"ok", [1, 2]], "stream 1 is list"),
], ids=["bare-bytes", "bare-bytearray", "int", "str", "list-of-ints"])
def test_submit_rejects_streams_that_are_not_bytes(streams, message):
    # bytes(3) is three zero bytes and a bare b"hi" iterates as ints:
    # both used to run as zero-filled streams.
    with FleetServer(config=ServeConfig(devices=1)) as server:
        with pytest.raises(TypeError, match=message):
            server.submit("identity", streams)
        server.drain()
        assert server.report()["totals"]["jobs"] == 0
        accepted = server.submit(
            "identity", (b"ab", bytearray(b"cd"), memoryview(b"ef")))
        server.drain()
        assert [bytes(out) for out in accepted.result(timeout=30).outputs] \
            == [b"ab", b"cd", b"ef"]


def test_unknown_app_lists_registered_names():
    with FleetServer(config=ServeConfig(devices=1)) as server:
        with pytest.raises(UnknownApp, match="identity"):
            server.submit("nope", _streams((8,)))


# ---------------------------------------------------------------------------
# Determinism contract
# ---------------------------------------------------------------------------


def test_same_seed_produces_byte_identical_reports():
    def run():
        report, server = run_demo(jobs=8, seed=77, devices=2,
                                  window_streams=16)
        server.stop()
        return json.dumps(report, indent=2, sort_keys=True)

    first, second = run(), run()
    assert first == second


def test_different_seeds_produce_different_schedules():
    def batches(seed):
        report, server = run_demo(jobs=8, seed=seed, devices=2,
                                  window_streams=16)
        server.stop()
        return report["batches"]

    assert batches(77) != batches(78)
