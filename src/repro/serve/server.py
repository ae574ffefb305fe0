"""`FleetServer` — the multi-device, batched, asynchronous serving
runtime.

Lifecycle of a job::

    server = FleetServer(config=ServeConfig(devices=2, pu_slots=8))
    server.start()
    future = server.submit("identity", streams, tenant="gold")
    server.flush()                    # or let the window fill
    result = future.result()          # or: await future.result_async()
    server.drain()
    report = server.report()
    server.stop()

**Windows.** Submission appends the job to the current *window*; when
the window reaches ``window_streams`` streams (a count trigger, fired on
the submitting thread) or :meth:`flush`/:meth:`drain` is called, the
window is scheduled: jobs are ordered by per-tenant weighted-fair
queuing, their streams grouped by app, packed into device batches by the
configured packer, and each batch placed on the least-loaded device
shard. Count triggers — never timers — decide window boundaries, so
batch composition is a pure function of the submission sequence.

**Determinism.** Everything the report contains is derived from
(submission sequence, config, measured virtual cycles); the threads
that run batches (device workers, or clients waiting in ``result()``)
only *discover* values that are already determined. Two runs of
the same workload produce byte-identical reports — `python -m
repro.serve --selftest` asserts exactly this.
"""

import threading

from ..envcfg import env_path
from ..telemetry.metrics import counter as _tm_counter
from ..telemetry.metrics import gauge as _tm_gauge
from ..telemetry.metrics import histogram as _tm_histogram
from ..telemetry.slo import SLO
from .cache import CompiledAppCache, ServedApp
from .cost import CostModel
from .errors import ServeError, ServerClosed, ServerOverloaded, UnknownApp
from .device import DeviceWorker
from .job import DONE, Job, JobResult
from .packing import Batch, BatchEntry, make_packer
from .scheduler import WeightedFairQueue, place_batch

#: Live telemetry (repro.telemetry; zero-cost unless FLEET_METRICS).
#: Metrics observe the run — they never feed reports, which stay a pure
#: function of (submission sequence, config, measured virtual cycles).
_JOBS_SUBMITTED = _tm_counter(
    "fleet_serve_jobs_submitted_total",
    "Jobs admitted by the serving runtime, by tenant",
    ("tenant",),
)
_JOBS_REJECTED = _tm_counter(
    "fleet_serve_jobs_rejected_total",
    "Jobs rejected at submission, by reason",
    ("reason",),
)
_QUEUE_DEPTH = _tm_gauge(
    "fleet_serve_queue_depth",
    "Streams admitted but not yet packed into device batches",
)
_WINDOWS_SCHEDULED = _tm_counter(
    "fleet_serve_windows_scheduled_total",
    "Scheduling windows closed and packed into batches",
)
_BATCHES_SCHEDULED = _tm_counter(
    "fleet_serve_batches_scheduled_total",
    "Batches placed on a device shard, by device",
    ("device",),
)
_JOB_DEVICE_VCYCLES = _tm_histogram(
    "fleet_serve_job_device_vcycles",
    "Total device virtual cycles per completed job",
)


def default_apps():
    """The apps a bare server registers: the paper's identity unit and
    the token-dropping sink."""
    from ..apps import identity_unit, sink_unit

    return {
        "identity": ServedApp("identity", identity_unit),
        "sink": ServedApp("sink", sink_unit),
    }


class ServeConfig:
    """Serving-runtime knobs (see ``docs/serving.md``)."""

    def __init__(self, *, devices=2, pu_slots=8, packer="skew",
                 window_streams=64, max_pending_streams=4096,
                 tenant_weights=None, memory_sim=False, slos=(),
                 app_slots=None):
        #: number of independent device shards
        self.devices = devices
        #: PU slots per device; ``None`` sizes each app's batches from
        #: the area model (:func:`repro.system.serving_pu_slots`)
        self.pu_slots = pu_slots
        #: ``"skew"`` (LPT) or ``"fifo"`` (naive baseline)
        self.packer = packer
        #: streams per scheduling window (count trigger)
        self.window_streams = window_streams
        #: admission-control bound on unscheduled streams
        self.max_pending_streams = max_pending_streams
        #: tenant -> WFQ weight (missing tenants get weight 1)
        self.tenant_weights = dict(tenant_weights or {})
        #: run every batch through the cycle-level memory system for
        #: real per-batch cycle attribution (slower)
        self.memory_sim = memory_sim
        #: service-level objectives evaluated over the deterministic
        #: report (:class:`repro.telemetry.slo.SLO` instances or their
        #: ``as_dict()`` forms); empty = no SLO section in reports
        self.slos = tuple(
            s if isinstance(s, SLO) else SLO.from_dict(s)
            for s in (slos or ())
        )
        #: app name -> PU slots, consulted before ``pu_slots`` — the
        #: hook :meth:`from_dse` fills with the committed search output
        #: so each app batches at its tuned size
        self.app_slots = dict(app_slots or {})

    @classmethod
    def from_dse(cls, apps=None, **overrides):
        """A config whose per-app batch sizes come from the committed
        :mod:`repro.dse` search output (:data:`repro.dse.tuned.TUNED`).

        ``apps`` restricts which tuned apps are wired (default: all of
        them); every other keyword passes through to the constructor.
        Apps without a tuned entry fall back to ``pu_slots`` exactly as
        before, and serve outputs stay bit-identical run to run — the
        tuning changes batch shapes, not the determinism contract.
        """
        from ..dse.tuned import TUNED, tuned_serve_slots

        keys = sorted(TUNED) if apps is None else list(apps)
        slots = {}
        for key in keys:
            tuned = tuned_serve_slots(key)
            if tuned is not None:
                slots[key] = tuned
        overrides.setdefault("app_slots", slots)
        return cls(**overrides)

    def as_dict(self):
        out = {
            "devices": self.devices,
            "pu_slots": self.pu_slots,
            "packer": self.packer,
            "window_streams": self.window_streams,
            "max_pending_streams": self.max_pending_streams,
            "tenant_weights": dict(sorted(self.tenant_weights.items())),
            "memory_sim": self.memory_sim,
        }
        # Only when configured, so reports without SLOs are byte-for-
        # byte identical to reports from before SLOs existed.
        if self.slos:
            out["slos"] = [slo.as_dict() for slo in self.slos]
        # Same contract for per-app tuned slots.
        if self.app_slots:
            out["app_slots"] = dict(sorted(self.app_slots.items()))
        return out


#: The stream types ``FleetServer.submit`` accepts.
_BYTES_LIKE = (bytes, bytearray, memoryview)


def _byte_streams(streams):
    """``streams`` as a list of ``bytes``. Each must be bytes-like and
    ``streams`` itself must not be: ``bytes(3)`` is three zero bytes,
    and a bare byte string iterates as ints."""
    if isinstance(streams, _BYTES_LIKE):
        raise TypeError("streams must be a list of byte strings, not one "
                        f"{type(streams).__name__}")
    streams = list(streams)
    for index, stream in enumerate(streams):
        if not isinstance(stream, _BYTES_LIKE):
            raise TypeError(f"stream {index} is {type(stream).__name__}, "
                            "not bytes, bytearray or memoryview")
    return [bytes(s) for s in streams]


class FleetServer:
    """See the module docstring."""

    def __init__(self, apps=None, config=None):
        self.config = config or ServeConfig()
        self.cache = CompiledAppCache(apps or default_apps())
        self.cost_model = CostModel(self.cache)
        self.packer = make_packer(self.config.packer)
        self.wfq = WeightedFairQueue(self.config.tenant_weights)
        self.devices = [
            DeviceWorker(i, self) for i in range(self.config.devices)
        ]
        self._lock = threading.Lock()
        self._done_cond = threading.Condition(self._lock)
        self._jobs = []  # every admitted job, submission order
        self._window = []  # jobs awaiting scheduling
        self._pending_streams = 0
        self._batches = []  # every batch, scheduling order
        self._dispatched = 0
        self._completed = 0
        self._started = False
        self._closed = False

    # -- lifecycle -----------------------------------------------------------
    def start(self):
        if not self._started:
            self._started = True
            for device in self.devices:
                device.start()
        return self

    def stop(self):
        """Drain outstanding work, then stop the device threads.

        When the ``FLEET_TRACE`` environment variable names a path, the
        run's Perfetto trace is written there after the drain — the same
        auto-enable contract :func:`repro.system.run_full_system` honors
        for single-run traces.
        """
        if not self._started or self._closed:
            self._closed = True
            return
        self.drain()
        trace_path = env_path("FLEET_TRACE")
        if trace_path:
            self.write_trace(trace_path)
        self._closed = True
        for device in self.devices:
            device.stop()

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc):
        self.stop()
        return False

    # -- submission ----------------------------------------------------------
    def submit(self, app, streams, *, tenant="default"):
        """Submit one job; returns its :class:`~repro.serve.job.JobFuture`.

        ``streams`` is a list of byte strings. Raises
        :class:`~repro.serve.errors.UnknownApp`,
        :class:`~repro.serve.errors.ServerOverloaded` (admission
        control), :class:`~repro.serve.errors.ServerClosed`, or
        :class:`TypeError` when ``streams`` is not such a list.
        """
        if app not in self.cache:
            _JOBS_REJECTED.inc(reason="unknown_app")
            raise UnknownApp(app, self.cache.app_names())
        streams = _byte_streams(streams)
        with self._lock:
            if self._closed:
                _JOBS_REJECTED.inc(reason="closed")
                raise ServerClosed("server is stopped")
            job_id = len(self._jobs)
            if streams and (
                self._pending_streams + len(streams)
                > self.config.max_pending_streams
            ):
                _JOBS_REJECTED.inc(reason="overloaded")
                raise ServerOverloaded(
                    self._pending_streams,
                    self.config.max_pending_streams, len(streams),
                )
            job = Job(job_id, app, tenant, streams, self)
            self._jobs.append(job)
            _JOBS_SUBMITTED.inc(tenant=tenant)
            tenant_state = self.wfq.tenant(tenant)
            tenant_state.jobs += 1
            tenant_state.streams += len(streams)
            if not streams:
                # Empty job: nothing to schedule; complete immediately.
                job.status = DONE
                job.future._resolve(
                    JobResult(job_id, [], self._job_fragment(job))
                )
                return job.future
            self._window.append(job)
            self._pending_streams += len(streams)
            _QUEUE_DEPTH.set(self._pending_streams)
            if self._pending_streams >= self.config.window_streams:
                self._schedule_window_locked()
        return job.future

    def flush(self):
        """Schedule the current (possibly partial) window now."""
        with self._lock:
            self._schedule_window_locked()

    def drain(self):
        """Flush, then block until every dispatched batch has executed."""
        with self._lock:
            self._schedule_window_locked()
            while self._completed < self._dispatched:
                self._done_cond.wait()

    # -- scheduling (all under self._lock) -----------------------------------
    def _slots_for(self, app_name):
        tuned = self.config.app_slots.get(app_name)
        if tuned is not None:
            return tuned
        if self.config.pu_slots is not None:
            return self.config.pu_slots
        entry = self.cache.entry(app_name)
        with entry.lock:
            if entry.pu_slots is None:
                from ..system import serving_pu_slots

                entry.pu_slots = serving_pu_slots(entry.program)
        return entry.pu_slots

    def _schedule_window_locked(self):
        window, self._window = self._window, []
        if not window:
            return
        _WINDOWS_SCHEDULED.inc()
        live = []
        for job in window:
            if job.cancelled:
                self._pending_streams -= len(job.streams)
                job.finish_cancelled()
            else:
                live.append(job)
        costs = {
            job.job_id: [
                self.cost_model.predict(job.app, stream)
                for stream in job.streams
            ]
            for job in live
        }
        ordered = self.wfq.order(
            live, lambda job: sum(costs[job.job_id])
        )
        # Streams grouped by app in WFQ order (a batch replicates one
        # unit, so batches are per-app); apps scheduled in order of
        # first appearance, which is itself deterministic.
        by_app = {}
        for job in ordered:
            entries = by_app.setdefault(job.app, [])
            for index, stream in enumerate(job.streams):
                entries.append(BatchEntry(
                    job, index, stream, costs[job.job_id][index]
                ))
        device_loads = [d.scheduled_load for d in self.devices]
        for app_name, entries in by_app.items():
            slots = self._slots_for(app_name)
            for packed in self.packer.pack(entries, slots):
                batch = Batch(
                    len(self._batches), app_name, packed, slots=slots
                )
                self._batches.append(batch)
                for entry in packed:
                    entry.job.batch_ids.append(batch.batch_id)
                index = place_batch(batch, device_loads)
                self.devices[index].scheduled_load = device_loads[index]
                self._pending_streams -= len(packed)
                self._dispatched += 1
                _BATCHES_SCHEDULED.inc(device=str(index))
                self.devices[index].enqueue(batch)
        _QUEUE_DEPTH.set(self._pending_streams)

    # -- device callbacks ----------------------------------------------------
    def _run_queued(self, job):
        """Run ``job``'s queued batches on the calling thread, a client
        waiting in :meth:`JobFuture.result` with no timeout: on each
        device holding one, the queue up to and including the job's last
        batch there (:meth:`DeviceWorker.run_through`)."""
        with self._lock:  # the job's batches are placed in one pass
            lasts = {}
            for batch_id in job.batch_ids:  # ascending
                lasts[self._batches[batch_id].device_index] = batch_id
        for index, last in lasts.items():
            self.devices[index].run_through(last)

    def _batch_done(self):
        with self._lock:
            self._completed += 1
            # Only drain() waits, and only for the last dispatched batch.
            if self._completed == self._dispatched:
                self._done_cond.notify_all()

    def _job_done(self, job):
        _JOB_DEVICE_VCYCLES.observe(sum(job.vcycles))
        job.future._resolve(
            JobResult(job.job_id, job.outputs, self._job_fragment(job))
        )

    # -- reporting -----------------------------------------------------------
    def _job_fragment(self, job):
        return {
            "job_id": job.job_id,
            "app": job.app,
            "tenant": job.tenant,
            "status": job.status,
            "streams": len(job.streams),
            "stream_bytes": job.stream_bytes,
            "device_vcycles": sum(job.vcycles),
            "batches": sorted(set(job.batch_ids)),
        }

    def report(self):
        """The deterministic serve run report (call after :meth:`drain`).

        Plain JSON-serializable data; render with
        :func:`repro.serve.report.format_serve_report`.
        """
        from .report import build_serve_report

        with self._lock:
            if self._completed < self._dispatched or self._window:
                raise ServeError(
                    "report() requires a drained server — call drain() "
                    "first"
                )
            return build_serve_report(self)

    def write_trace(self, path):
        """Write a Perfetto-loadable Chrome trace of the run: one
        process per device shard, one thread per PU slot, one span per
        stream, plus a ``jobs`` process carrying every job's
        submit → queue → batch → done span chain with propagated
        trace/span ids. Built from the deterministic reconstruction (not
        from the threads that ran batches), so the file is byte-stable.
        Returns ``path``."""
        from .report import build_trace

        return build_trace(self).write(path)

    def write_trace_log(self, path):
        """Write the run's span chains as structured JSON log lines
        (one event per line; see :mod:`repro.telemetry.tracing`).
        Deterministic for a deterministic workload. Returns ``path``."""
        from ..telemetry.tracing import render_log_lines
        from .report import build_trace_log

        with open(path, "w", encoding="utf-8") as handle:
            handle.write(render_log_lines(build_trace_log(self)))
        return path
