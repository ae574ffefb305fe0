"""A client blocked in ``JobFuture.result()`` with no timeout runs its
own job's queued batches, when no other thread is running the device
that holds them.

Most tests use a server whose workers never started, so the only thread
that can run a batch is the one waiting: a waiter that only waits then
hangs. Every untimed ``result()`` therefore runs on a daemon thread
under a deadline, so a bug fails the test instead of hanging the run.
"""

import json
import sys
import threading
import time

import pytest

from repro.serve import (
    FleetServer,
    ServeConfig,
    catalog_apps,
    validate_serve_report,
)
from repro.serve.device import DeviceWorker
from repro.serve.job import DONE, FAILED
from repro.serve.report import build_trace, build_trace_log
from repro.serve.server import default_apps
from repro.system.runtime import FleetRuntime
from repro.telemetry.tracing import render_log_lines

APPS = {**default_apps(), **catalog_apps()}

DEADLINE = 60.0


def _on_daemon(target):
    """Run ``target()`` on a daemon thread and wait at most
    :data:`DEADLINE` seconds; returns ``(value, error, thread)``."""
    box = {}

    def call():
        try:
            box["value"] = target()
        except BaseException as error:  # handed back to the test
            box["error"] = error

    thread = threading.Thread(target=call, daemon=True)
    thread.start()
    thread.join(DEADLINE)
    assert not thread.is_alive(), "an untimed wait did not return"
    return box.get("value"), box.get("error"), thread


def _result(future):
    """``future.result()`` with no timeout, on a daemon thread: the
    result and the thread, or raises what ``result()`` raised."""
    value, error, thread = _on_daemon(future.result)
    if error is not None:
        raise error
    return value, thread


def _record_runs(monkeypatch):
    """Wrap ``DeviceWorker.execute``; returns the ``(batch_id, thread)``
    list it appends to."""
    runs = []
    real = DeviceWorker.execute

    def execute(self, batch):
        runs.append((batch.batch_id, threading.current_thread()))
        return real(self, batch)

    monkeypatch.setattr(DeviceWorker, "execute", execute)
    return runs


def _expected(server, app, streams):
    """Each stream's outputs from a fresh per-stream runtime."""
    served = server.cache.app(app)
    runtime = FleetRuntime(served.unit_factory(), header=served.header)
    return [runtime.run_traced([stream])[0][0] for stream in streams]


def _stream(app, index, length):
    if app == "json_parsing":
        return (b'{"k%d": [%d, "v"]} ' % (index, index)) * (length // 16)
    return bytes((31 * index + 7 * i) % 0xF0 for i in range(length))


#: A closed loop's jobs: (app, tenant, streams), mixing kernel apps and
#: decision_tree (no kernel, header replayed per stream).
LOOP_APPS = ("identity", "json_parsing", "regex", "integer_coding",
             "decision_tree")
LOOP = [
    (LOOP_APPS[i % len(LOOP_APPS)], ("gold", "silver")[i % 2],
     [_stream(LOOP_APPS[i % len(LOOP_APPS)], i * 3 + k, 24 + 11 * k)
      for k in range(1 + i % 3)])
    for i in range(10)
]


def _server(devices=1, **config):
    config.setdefault("window_streams", 1_000_000)
    return FleetServer(APPS, config=ServeConfig(
        devices=devices, pu_slots=2, tenant_weights={"gold": 2},
        **config))


def _closed_loop(server, wait):
    """Submit, flush and ``wait(future)`` each job of :data:`LOOP` in
    turn; returns the results."""
    results = []
    for app, tenant, streams in LOOP:
        future = server.submit(app, streams, tenant=tenant)
        server.flush()
        results.append(wait(future))
    return results


def _artifacts(server):
    """The run's report JSON (``cache`` totals included), Perfetto trace
    and trace log."""
    return (
        json.dumps(validate_serve_report(server.report()), indent=1,
                   sort_keys=True),
        json.dumps(build_trace(server).to_chrome(), sort_keys=True),
        render_log_lines(build_trace_log(server)),
    )


def test_closed_loop_runs_every_batch_on_the_waiting_thread(monkeypatch):
    # Catches a waiter that only waits: with no worker started, nothing
    # else can run the batches, so result() would hang.
    runs = _record_runs(monkeypatch)
    server = _server(devices=2)
    results, error, thread = _on_daemon(
        lambda: _closed_loop(server, lambda future: future.result()))
    assert error is None
    assert {run_thread for _, run_thread in runs} == {thread}
    assert sorted(batch_id for batch_id, _ in runs) \
        == list(range(len(server._batches)))
    for (app, _, streams), result in zip(LOOP, results):
        assert result.outputs == _expected(server, app, streams)
    assert not any(device.queue or device.running
                   for device in server.devices)


def test_a_waiter_runs_only_the_prefix_through_its_last_batch(monkeypatch):
    # Catches a waiter that takes the whole queue (or stops short of its
    # own last batch). Three windows queue jobs 0, 1 and 2 in turn.
    runs = _record_runs(monkeypatch)
    server = _server()
    device = server.devices[0]
    futures = []
    for index in range(3):
        futures.append(server.submit(
            "identity", [_stream("identity", index, 40 + n)
                         for n in range(3)]))
        server.flush()
    queued = list(device.queue)
    owners = [{e.job.job_id for e in batch.entries} for batch in queued]
    assert owners == [{0}, {0}, {1}, {1}, {2}, {2}]
    _result(futures[0])
    assert [batch_id for batch_id, _ in runs] == [0, 1]
    assert device.queue == queued[2:]
    assert not futures[1].done() and not futures[2].done()
    # The prefix through job 2's last batch includes job 1's batches.
    _result(futures[2])
    assert [batch_id for batch_id, _ in runs] == [0, 1, 2, 3, 4, 5]
    assert futures[1].done() and device.queue == []


def test_a_waiter_runs_nothing_while_the_worker_runs_the_device(
        monkeypatch):
    # Catches two runners on one device: the worker is held inside job
    # 0's batch while job 1's waiter looks at the queue; job 1's batch
    # must wait for the worker, which runs it after job 0's.
    real_execute = DeviceWorker.execute
    held, release = threading.Event(), threading.Event()

    def execute(self, batch):
        if batch.batch_id == 0:
            held.set()
            assert release.wait(DEADLINE)
        return real_execute(self, batch)

    monkeypatch.setattr(DeviceWorker, "execute", execute)
    runs = _record_runs(monkeypatch)  # records, then holds batch 0
    real_run_through = DeviceWorker.run_through
    looked = threading.Event()

    def run_through(self, last):
        real_run_through(self, last)
        looked.set()

    monkeypatch.setattr(DeviceWorker, "run_through", run_through)
    server = _server().start()
    first = server.submit("identity", [b"first" * 9])
    server.flush()
    assert held.wait(DEADLINE)
    second = server.submit("identity", [b"second" * 7])
    server.flush()
    waiter = threading.Thread(target=second.result, daemon=True)
    waiter.start()
    assert looked.wait(DEADLINE)
    assert [batch_id for batch_id, _ in runs] == [0]
    assert server.devices[0].running
    release.set()
    waiter.join(DEADLINE)
    assert not waiter.is_alive()
    worker = server.devices[0]._thread
    assert runs == [(0, worker), (1, worker)]
    assert [bytes(out) for out in second.result(timeout=5).outputs] \
        == [b"second" * 7]
    assert first.result(timeout=5).outputs == [list(b"first" * 9)]
    server.stop()


def test_a_timed_wait_runs_nothing(monkeypatch):
    # Catches helping past a deadline: result(timeout=...) must return
    # by it, so it never runs device work.
    runs = _record_runs(monkeypatch)
    server = _server()
    future = server.submit("identity", [b"timed" * 5])
    server.flush()
    queued = list(server.devices[0].queue)
    with pytest.raises(TimeoutError):
        future.result(timeout=0.05)
    assert runs == []
    assert server.devices[0].queue == queued
    assert not server.devices[0].running


class Planted(RuntimeError):
    pass


class Interrupt(BaseException):
    pass


def test_a_failed_or_interrupted_waiter_run_leaves_the_device_usable(
        monkeypatch):
    # Catches a device that stays owned after a run that raised, and one
    # that loses the batches an interrupted waiter had taken.
    real_execute = DeviceWorker.execute

    def execute(self, batch):
        streams = [e.stream for e in batch.entries]
        if b"planted" in streams:
            raise Planted("planted engine failure")
        if b"interrupt" in streams:
            raise Interrupt()
        return real_execute(self, batch)

    monkeypatch.setattr(DeviceWorker, "execute", execute)
    server = _server()
    device = server.devices[0]
    # A raising batch fails only its own jobs (here both of its jobs),
    # and the next job is still served.
    failing = [server.submit("identity", [stream])
               for stream in (b"planted", b"co-batched")]
    server.flush()
    served = server.submit("identity", [b"next"])
    server.flush()
    with pytest.raises(Planted):
        _result(failing[0])
    assert not device.running and len(device.queue) == 1
    with pytest.raises(Planted):
        failing[1].result(timeout=5)
    assert _result(served)[0].outputs == [list(b"next")]
    # An interrupt escaping the run fails the batch it escaped from and
    # puts the rest back for the worker.
    futures = []
    for stream in (b"before", b"interrupt", b"after"):
        futures.append(server.submit("identity", [stream]))
        server.flush()
    taken = list(device.queue)
    with pytest.raises(Interrupt):
        _result(futures[2])
    assert futures[0].result(timeout=5).outputs == [list(b"before")]
    with pytest.raises(Interrupt):
        futures[1].result(timeout=5)
    assert device.queue == taken[2:] and not device.running
    assert device._ran == {}
    server.start()
    _, error, _ = _on_daemon(server.drain)
    assert error is None
    assert futures[2].result(timeout=5).outputs == [list(b"after")]
    report = validate_serve_report(server.report())
    server.stop()
    assert report["totals"]["statuses"] == {DONE: 3, FAILED: 3}


@pytest.mark.parametrize("devices", [1, 2])
def test_who_runs_a_batch_leaves_no_trace_in_the_report(devices):
    # Catches report, trace or log state that depends on which thread
    # ran a batch: the same closed loop, awaited by a waiter alone (no
    # worker), by a waiter racing the workers, and by timed waits only
    # (the workers run everything), gives byte-identical artifacts.
    runs = {}
    for mode in ("waiter alone", "waiter and workers", "workers"):
        server = _server(devices)
        if mode != "waiter alone":
            server.start()
        if mode == "workers":
            _closed_loop(server, lambda future: future.result(timeout=60))
        else:
            _, error, _ = _on_daemon(lambda: _closed_loop(
                server, lambda future: future.result()))
            assert error is None
        server.drain()
        runs[mode] = _artifacts(server)
        server.stop()
    assert runs["waiter alone"] == runs["waiter and workers"] \
        == runs["workers"]
    report = json.loads(runs["workers"][0])
    assert report["totals"]["statuses"] == {DONE: len(LOOP)}
    assert report["cache"]["hits"] == len(report["batches"])


def test_waiters_racing_workers_on_two_devices_get_correct_outputs():
    # Catches ownership races: four clients, each waiting on its jobs
    # with result(), against two started devices under a short switch
    # interval. Jobs of up to five streams span batches on both devices.
    server = _server(devices=2, window_streams=6).start()
    apps = ("identity", "regex", "json_parsing", "integer_coding")
    jobs = [
        [(apps[(c + n) % len(apps)],
          [_stream(apps[(c + n) % len(apps)], 100 * c + 10 * n + k,
                   20 + 13 * k) for k in range(1 + (c + n) % 5)])
         for n in range(12)]
        for c in range(4)
    ]
    expected = [[_expected(server, app, streams) for app, streams in job]
                for job in jobs]
    outcomes = [[] for _ in jobs]

    def client(index):
        for n, (app, streams) in enumerate(jobs[index]):
            future = server.submit(app, streams)
            outcomes[index].append(future)
            if n % 3 == 2:
                continue  # a full window or a later flush schedules it
            server.flush()
            if n % 3 == 0:
                future.result()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        clients = [threading.Thread(target=client, args=(c,), daemon=True)
                   for c in range(len(jobs))]
        for thread in clients:
            thread.start()
        deadline = time.monotonic() + DEADLINE
        for thread in clients:
            thread.join(max(0.0, deadline - time.monotonic()))
        assert not any(thread.is_alive() for thread in clients)
    finally:
        sys.setswitchinterval(interval)
    _, error, _ = _on_daemon(server.drain)
    assert error is None
    got = [[future.result(timeout=5).outputs for future in futures]
           for futures in outcomes]
    assert got == expected
    report = validate_serve_report(server.report())
    server.stop()
    assert report["totals"]["statuses"] == {DONE: 48}
    assert not any(device.queue or device.running
                   for device in server.devices)
