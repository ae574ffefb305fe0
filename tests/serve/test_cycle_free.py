"""Finished work leaves no reference cycles.

Once a server is stopped, its object graph has no cycles: a device
drops its server when its thread is joined, and a job drops its future
when it resolves, fails or is cancelled. Reference counting then frees
the server, its devices and every dropped future as soon as the last
reference goes, without the cyclic garbage collector. Each test runs
with the collector disabled, so anything left in a cycle stays alive and
fails the test.

Building and fingerprinting the served apps' programs leaves no cyclic
garbage either.
"""

import gc
import weakref

import pytest

from repro.lint.certificate import program_fingerprint
from repro.serve import (
    FleetServer,
    JobCancelled,
    ServeConfig,
    catalog_apps,
    validate_serve_report,
)
from repro.serve.job import CANCELLED, DONE, FAILED, Job
from repro.serve.server import default_apps


@pytest.fixture
def gc_disabled():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


class Planted(RuntimeError):
    pass


def _plant_sink_failure(patch):
    """Make every run of the sink app raise :class:`Planted`, on the
    kernel and per stream. The error passes through
    ``DeviceWorker.execute``, whose frame holds the server."""
    import repro.interp.batch as batch_mod
    from repro.system.runtime import FleetRuntime

    run_batch_streams = batch_mod.run_batch_streams
    run_traced = FleetRuntime.run_traced

    def batch(program, lanes, **kwargs):
        if program.name == "sink":
            raise Planted("planted sink failure")
        return run_batch_streams(program, lanes, **kwargs)

    def per_stream(runtime, streams):
        if runtime.unit.name == "sink":
            raise Planted("planted sink failure")
        return run_traced(runtime, streams)

    patch.setattr(batch_mod, "run_batch_streams", batch)
    patch.setattr(FleetRuntime, "run_traced", per_stream)


def _cancel_after_first_check(patch, job_id):
    """Cancel job ``job_id`` right after the first of its batches passes
    its cancellation check; returns the list of ``cancel()`` results.
    With each stream its own batch and three streams on at most two
    devices, a later batch of the job is still unchecked then, so the
    job is cancelled mid-run."""
    check = Job.pass_check
    answers = []

    def pass_check(job, count):
        passed = check(job, count)
        if job.job_id == job_id and passed and not answers:
            answers.append(job.future.cancel())
        return passed

    patch.setattr(Job, "pass_check", pass_check)
    return answers


@pytest.mark.parametrize("devices, memory_sim",
                         [(1, False), (2, False), (2, True)])
def test_stopped_server_and_its_futures_are_freed_without_gc(
        devices, memory_sim, monkeypatch, gc_disabled):
    # One job of each kind on started devices. Every wait that raises
    # runs in this frame, which drops its references below: a client
    # frame that a raised error's traceback keeps is the client's own.
    config = ServeConfig(devices=devices, pu_slots=1,
                         window_streams=1_000_000, memory_sim=memory_sim)
    server = FleetServer(default_apps(), config=config)
    for app in ("identity", "sink"):
        # Calibrate before planting: only the sink batch may fail.
        server.cost_model.coefficients(app)
    futures = {
        "empty": server.submit("identity", []),
        "cancelled before scheduling": server.submit("identity", [b"ab"]),
        "cancelled mid-run": server.submit("identity", [b"cdefgh"] * 3),
        "failing batch": server.submit("sink", [b"ijk"]),
        "untimed result()": server.submit("identity", [b"lmnop"]),
        "done": server.submit("identity", [b"qr", b"stu"]),
    }
    assert futures["cancelled before scheduling"].cancel()
    with monkeypatch.context() as patch:
        _plant_sink_failure(patch)
        answers = _cancel_after_first_check(
            patch, futures["cancelled mid-run"].job_id)
        server.flush()
        # Before start(), a client waiting with no timeout runs its
        # job's queued batches on this thread; the first wait raises
        # from a frame that saw the server.
        with pytest.raises(JobCancelled):
            futures["cancelled mid-run"].result()
        waited = futures["untimed result()"].result()
        server.start()
        server.drain()
    assert answers == [True]
    assert bytes(waited.outputs[0]) == b"lmnop"
    report = validate_serve_report(server.report())
    server.stop()
    assert [job["status"] for job in report["jobs"]] == [
        DONE, CANCELLED, CANCELLED, FAILED, DONE, DONE]
    mid_run = server._jobs[2].outputs
    assert [] in mid_run and any(mid_run)
    with pytest.raises(JobCancelled):
        futures["cancelled before scheduling"].result(timeout=0)
    with pytest.raises(Planted, match="planted sink failure"):
        futures["failing batch"].result(timeout=0)
    assert futures["done"].result(timeout=0).report["status"] == DONE

    server_ref = weakref.ref(server)
    device_refs = [weakref.ref(device) for device in server.devices]
    del server
    # A held future keeps its job, not its server.
    assert server_ref() is None
    assert [future.job_id for future in futures.values()] == list(range(6))
    assert all(future.done() for future in futures.values())
    assert futures["cancelled mid-run"].cancelled()
    assert not futures["failing batch"].cancel()

    future_refs = {kind: weakref.ref(future)
                   for kind, future in futures.items()}
    del futures
    alive = [kind for kind, ref in future_refs.items() if ref() is not None]
    assert alive == []
    assert all(ref() is None for ref in device_refs)


def test_building_and_fingerprinting_served_apps_leaves_no_garbage(
        gc_disabled):
    apps = {**default_apps(), **catalog_apps()}
    fingerprints = [program_fingerprint(app.unit_factory())
                    for app in apps.values()]
    assert len(set(fingerprints)) == len(apps) == 8
    assert gc.collect() == 0
