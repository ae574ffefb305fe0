"""A device worker runs all its queued batches of one kernel app in one
kernel call, and each batch completes from its slice of the results.

Each test queues batches on a server whose worker has not started, so
the worker's first wake-up takes them all. The reference is the same
queue on a worker that does not group, so each batch makes its own
kernel call: batches stay the unit of cancellation, completion and
reporting, so both must give the same results and the same report,
trace and trace log byte for byte.
"""

import json
import random
import sys
import threading
import time

import pytest

from repro.bench import workloads as wl
from repro.interp import make_simulator
from repro.lang import UnitBuilder
from repro.serve import (
    FleetServer,
    JobCancelled,
    ServeConfig,
    ServedApp,
    catalog_apps,
)
from repro.serve.device import DeviceWorker
from repro.serve.job import CANCELLED, DONE, FAILED
from repro.serve.report import build_trace, build_trace_log
from repro.serve.server import default_apps
from repro.telemetry.tracing import render_log_lines

from ..interp.test_kernel_boundary import _Counting

pytestmark = pytest.mark.needs_kernel


def _spin_unit():
    # Emits its input; after 0xFF, a 0xFE token spins until the loop
    # limit.
    b = UnitBuilder("spin_fe_ff", input_width=8, output_width=8)
    prev = b.reg("prev", width=8, init=0)
    r = b.reg("r", width=8, init=0)
    with b.while_((prev == 0xFF) & (b.input == 0xFE) & (r < 200)):
        r.set(r & 0)
    prev.set(b.input)
    b.emit(b.input)
    return b.finish()


APPS = {**default_apps(), **catalog_apps(),
        "spin": ServedApp("spin", _spin_unit)}


def _payload(app, rnd, nbytes):
    if app == "json_parsing":
        return wl.json_records(rnd, nbytes)
    if app == "integer_coding":
        return bytes(wl.integer_stream(rnd, nbytes, 15))
    if app == "regex":
        return bytes(wl.email_text(rnd, nbytes, email_every=64))
    return bytes(rnd.randrange(0xF0) for _ in range(nbytes))


def _jobs(apps, count, seed):
    rnd = random.Random(seed)
    tenants = ("gold", "silver", "bronze")
    return [
        (apps[i % len(apps)], tenants[i % len(tenants)],
         [_payload(apps[i % len(apps)], rnd, rnd.randrange(8, 400))
          for _ in range(rnd.randrange(1, 4))])
        for i in range(count)
    ]


def _queued(jobs, *, pu_slots=2, window_streams=1_000_000):
    """A server with ``jobs`` submitted and scheduled into its one
    device's queue; its worker is not started."""
    config = ServeConfig(devices=1, pu_slots=pu_slots,
                         window_streams=window_streams,
                         tenant_weights={"gold": 4, "silver": 2})
    server = FleetServer(APPS, config=config)
    futures = [server.submit(app, streams, tenant=tenant)
               for app, tenant, streams in jobs]
    server.flush()
    return server, futures


MODES = ("grouped", "one at a time")


def _run(server, monkeypatch, mode):
    """Start the worker and drain: its first wake-up takes the whole
    queue. One at a time, the worker does not group."""
    with monkeypatch.context() as patch:
        if mode == "one at a time":
            patch.setattr(DeviceWorker, "_run_groups",
                          lambda self, batches: None)
        server.start()
        server.drain()


def _outcomes(futures):
    outcomes = []
    for future in futures:
        try:
            outcomes.append(future.result(timeout=60).outputs)
        except Exception as error:
            outcomes.append(f"{type(error).__name__}: {error}")
    return outcomes


def _artifacts(server):
    """The run's report JSON, Perfetto trace and trace log."""
    return (
        json.dumps(server.report(), indent=1, sort_keys=True),
        json.dumps(build_trace(server).to_chrome(), sort_keys=True),
        render_log_lines(build_trace_log(server)),
    )


def _count_kernel_calls(monkeypatch, server, app):
    calls = []
    unit = server.cache.built(app).batch_unit
    monkeypatch.setattr(unit.cc, "lib", _Counting(unit.cc.lib, calls))
    return calls


def test_one_kernel_call_runs_every_queued_batch_of_an_app(monkeypatch):
    # Catches a worker that still calls the kernel once per batch, a
    # slice taken at the wrong offset (another batch's lanes), and
    # BatchStats built over the whole group instead of the batch.
    jobs = _jobs(["json_parsing"], 12, seed=1)
    runs = {}
    for mode in MODES:
        server, futures = _queued(jobs)
        batches = len(server.devices[0].queue)
        calls = _count_kernel_calls(monkeypatch, server, "json_parsing")
        _run(server, monkeypatch, mode)
        runs[mode] = (
            len(calls), _outcomes(futures),
            [b.batch_stats.lane_vcycles for b in server._batches],
            _artifacts(server),
        )
        server.stop()
    assert batches >= 5
    assert runs["grouped"][0] == 1
    assert runs["one at a time"][0] == batches
    assert runs["grouped"][1:] == runs["one at a time"][1:]
    outcomes = runs["grouped"][1]
    assert all(isinstance(outputs, list) for outputs in outcomes)


def test_multi_app_queue_reports_as_if_run_batch_by_batch(monkeypatch):
    # Catches a worker whose group pass counts a cache lookup per group
    # (cache hits then depend on how a wake-up's batches group), and
    # any report, trace or log byte that depends on grouping. Windows
    # of 8 streams interleave the apps' batches in the queue, and
    # decision_tree (no kernel) runs per stream between them.
    apps = ["json_parsing", "integer_coding", "regex", "identity",
            "decision_tree"]
    jobs = _jobs(apps, 15, seed=2)
    runs = {}
    for mode in MODES:
        server, futures = _queued(jobs, window_streams=8)
        order = [batch.app for batch in server.devices[0].queue]
        calls = _count_kernel_calls(monkeypatch, server, "regex")
        _run(server, monkeypatch, mode)
        runs[mode] = (len(calls), _outcomes(futures), _artifacts(server))
        server.stop()
    regex = [i for i, app in enumerate(order) if app == "regex"]
    assert len(regex) >= 2 and regex[-1] - regex[0] >= len(regex)
    assert runs["grouped"][0] == 1
    assert runs["one at a time"][0] == len(regex)
    assert runs["grouped"][1] == runs["one at a time"][1]
    grouped, alone = runs["grouped"][2], runs["one at a time"][2]
    assert grouped[0] == alone[0]  # report JSON, cache totals included
    assert grouped[1] == alone[1]  # Perfetto trace
    assert grouped[2] == alone[2]  # trace log
    report = json.loads(grouped[0])
    assert report["totals"]["statuses"] == {DONE: len(jobs)}
    # One counted lookup per batch; the cost model's first lookup of
    # each app is its miss.
    assert report["cache"]["hits"] == len(report["batches"])
    assert report["cache"]["misses"] == len(apps)


def test_a_lane_that_raises_fails_only_its_own_batch(monkeypatch):
    # Catches a worker that fails the whole group when the group call
    # raises, or hands out slices of a call that raised.
    rnd = random.Random(3)
    streams = [bytes(rnd.randrange(0xF0) for _ in range(rnd.randrange(
        8, 200))) for _ in range(8)]
    streams[5] = streams[5][:4] + b"\xff\xfe" + streams[5][4:]
    tenants = ("gold", "silver", "bronze", "iron")
    jobs = [("spin", tenants[i % 4], [stream])
            for i, stream in enumerate(streams)]
    runs = {}
    for mode in MODES:
        server, futures = _queued(jobs)
        queue = list(server.devices[0].queue)
        calls = _count_kernel_calls(monkeypatch, server, "spin")
        _run(server, monkeypatch, mode)
        runs[mode] = (len(calls), _outcomes(futures), _artifacts(server),
                      [job.status for job in server._jobs])
        server.stop()
    assert len(queue) == 4
    # The group call raised, then each batch made its own call.
    assert runs["grouped"][0] == len(queue) + 1
    assert runs["one at a time"][0] == len(queue)
    assert runs["grouped"][1:] == runs["one at a time"][1:]
    failing, = [batch for batch in queue
                if any(e.job.job_id == 5 for e in batch.entries)]
    failed_jobs = {e.job.job_id for e in failing.entries}
    assert len(failed_jobs) == 2
    error = ("FleetLoopLimitError: while loop did not terminate within "
             "1000000 virtual cycles")
    statuses = runs["grouped"][3]
    for job_id, outcome in enumerate(runs["grouped"][1]):
        if job_id in failed_jobs:
            assert statuses[job_id] == FAILED
            assert outcome == error
        else:
            assert statuses[job_id] == DONE
            assert outcome == [make_simulator(_spin_unit()).run(
                list(streams[job_id]))]
    report = json.loads(runs["grouped"][2][0])
    row, = [row for row in report["batches"]
            if row["batch_id"] == failing.batch_id]
    assert row["error"] == error
    assert row["makespan"] == row["busy_vcycles"] == 0
    assert row["pus"] == []
    assert "batch_engine" not in row
    others = [row for row in report["batches"] if "error" not in row]
    assert len(others) == 3 and all(len(row["pus"]) == 2 for row in others)


def test_a_job_cancelled_after_the_group_call_is_skipped(monkeypatch):
    # Catches a worker that completes a stream from its slice without
    # the batch's cancellation check, and one that counts a cancelled
    # job's stream in Job.remaining both when grouping and when its
    # batch skips it. Job 0 is cancelled after the group call, between
    # its two batches; job 2 before it.
    lengths = (100, 90, 80, 70)  # job 0: batches 0 and 1 of 2 slots
    jobs = [("identity", "gold", [b"x" * n for n in lengths]),
            ("identity", "silver", [b"y" * 50, b"z" * 40]),  # batch 2
            ("identity", "bronze", [b"w" * 30, b"v" * 20])]  # batch 3
    runs = {}
    for mode in MODES:
        server, futures = _queued(jobs)
        device = server.devices[0]
        calls = _count_kernel_calls(monkeypatch, server, "identity")
        batches, device.queue = device.queue, []
        assert [[e.job.job_id for e in b.entries] for b in batches] \
            == [[0, 0], [0, 0], [1, 1], [2, 2]]
        assert futures[2].cancel()
        if mode == "grouped":
            device._run_groups(batches)
            assert len(calls) == 1
        cancelled = server._jobs[0], server._jobs[2]
        device.execute(batches[0])
        assert [job.remaining for job in cancelled] == [2, 2]
        assert futures[0].cancel()
        for batch in batches[1:]:
            device.execute(batch)
        assert device._ran == {}
        for job, future in zip(cancelled, futures[::2]):
            assert job.remaining == 0
            assert job.status == CANCELLED
            with pytest.raises(JobCancelled):
                future.result(timeout=5)
        assert cancelled[0].outputs \
            == [list(b"x" * 100), list(b"x" * 90), [], []]
        assert cancelled[0].vcycles == [101, 91, 0, 0]
        assert cancelled[1].outputs == [[], []]
        for batch in (batches[1], batches[3]):
            assert [e.skipped for e in batch.entries] == [True, True]
        assert futures[1].result(timeout=5).outputs \
            == [list(b"y" * 50), list(b"z" * 40)]
        runs[mode] = (len(calls), _artifacts(server))
        server.stop()
    assert runs["grouped"][0] == 1
    assert runs["one at a time"][0] == 2  # the cancelled batches run none
    assert runs["grouped"][1] == runs["one at a time"][1]


def _in_thread(target, *args):
    thread = threading.Thread(target=target, args=args, daemon=True)
    thread.start()
    return thread


def test_drains_racing_submits_all_return():
    # drain() is woken only when the last dispatched batch completes.
    # Catches a wake-up that compares against a stale dispatch count
    # (a drain that hangs, or returns with batches still running) while
    # other clients keep dispatching windows. Every drain runs on a
    # daemon thread, so a hang fails the test instead of the run.
    config = ServeConfig(devices=2, pu_slots=2, window_streams=4)
    server = FleetServer(APPS, config=config).start()
    jobs = _jobs(["identity", "regex", "json_parsing"], 120, seed=5)
    futures = [[] for _ in range(4)]
    drained = []

    def client(index):
        for n, (app, tenant, streams) in enumerate(jobs[index::4]):
            futures[index].append(
                server.submit(app, streams, tenant=tenant))
            if n % 5 == 4:
                server.drain()
                drained.append(all(f.done() for f in futures[index]))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        clients = [_in_thread(client, i) for i in range(4)]
        deadline = time.monotonic() + 60
        for thread in clients:
            thread.join(timeout=max(0.0, deadline - time.monotonic()))
        assert not any(thread.is_alive() for thread in clients)
    finally:
        sys.setswitchinterval(interval)
    last = _in_thread(server.drain)
    last.join(timeout=60)
    assert not last.is_alive()
    assert drained and all(drained)
    assert all(f.result(timeout=5) for fs in futures for f in fs)
    report = server.report()
    server.stop()
    assert report["totals"]["statuses"] == {DONE: len(jobs)}
