"""Devices: one batch queue per simulated Fleet device, and the worker
thread that drains it.

Each device owns an independent device instance and its own batch queue
— the multi-device shard layer is N of these side by side with no
shared mutable simulation state (each stream gets fresh simulator state,
and each device keeps its own observability collectors, mirroring the
one-collector-per-device rule in :mod:`repro.obs`).

Two execution modes:

* **functional** (default): a batch's streams run on the app's batch
  kernel when it has one, else stream by stream through
  :class:`~repro.system.runtime.FleetRuntime`; the stream's measured
  virtual cycles are its device occupancy (the compiler's
  one-virtual-cycle-per-cycle guarantee), and the batch makespan is the
  longest stream's.
* **memory_sim**: the batch additionally runs through the Section 5
  cycle-level memory system (:func:`repro.system.run_full_system`) with
  a per-batch :class:`repro.obs.Observation`, so the batch report
  carries real cycle attribution (refresh, bus turnaround, PU
  backpressure, ...) and the makespan is the memory system's cycle
  count.

Who runs a batch: the device's worker thread, which takes the whole
queue at each wake-up, or a client blocked in ``JobFuture.result()``
with no timeout, which takes the queue up to and including the last
batch holding one of its job's streams and leaves the rest to the
worker. One thread at a time runs a device (``DeviceWorker.running``,
under ``_cond``), so batches run in queue order and the group slices
and buffered telemetry have one writer. Both run what they took through
:meth:`DeviceWorker._run`.

The live lanes of all taken batches of one kernel app run as one kernel
call, in queue order, and each batch is handed its slice of the outputs
and per-lane totals. Batches stay the unit of everything else:
:meth:`DeviceWorker.execute` still runs once per batch, in queue order,
and does the batch's cancellation check, completion, metrics and memory
attribution, so the report, the traces and the cache's hit/miss totals
depend neither on how the taken batches grouped nor on which thread ran
them. A batch alone in its group, or any batch of a group whose call
raised, makes its own kernel call there, so only the batch whose lane
raised fails.

Cancellation is cooperative and checked once per batch, per job
(:meth:`~repro.serve.job.Job.pass_check`): ``execute`` skips the
streams of every job cancelled by then. A stream the group call already
ran is skipped too, and its results are dropped; a batch that has
started is never torn down.

A batch that raises fails every job in it; the runner records the error
on the batch and serves the next one.

The measured clock (cumulative batch makespans, rebuilt by the report)
is virtual — wall-clock never enters scheduling or reports.
"""

import threading

from ..system.runtime import FleetRuntime
from ..telemetry.metrics import counter as _tm_counter
from ..telemetry.metrics import enabled as _tm_enabled
from ..telemetry.metrics import histogram as _tm_histogram

#: Live telemetry (repro.telemetry; zero-cost unless FLEET_METRICS).
#: Values observed here are the same measured virtual cycles the report
#: reconstructs — metrics are a live view, never a report input.
_BATCHES_EXECUTED = _tm_counter(
    "fleet_serve_batches_executed_total",
    "Batches executed, by device shard",
    ("device",),
)
_DEVICE_BUSY = _tm_counter(
    "fleet_serve_device_busy_vcycles_total",
    "Sum of per-stream virtual cycles executed, by device shard",
    ("device",),
)
_DEVICE_SPAN = _tm_counter(
    "fleet_serve_device_makespan_vcycles_total",
    "Cumulative batch makespans (device clock advance), by device shard",
    ("device",),
)
_TENANT_VCYCLES = _tm_counter(
    "fleet_serve_tenant_device_vcycles_total",
    "Device virtual cycles consumed, by tenant (live WFQ share view)",
    ("tenant",),
)
_STREAM_VCYCLES = _tm_histogram(
    "fleet_serve_stream_vcycles",
    "Per-stream measured virtual cycles",
)
_BATCH_MAKESPAN = _tm_histogram(
    "fleet_serve_batch_makespan_vcycles",
    "Per-batch makespan in virtual cycles",
)
_SLOT_OCCUPANCY = _tm_histogram(
    "fleet_serve_batch_slot_occupancy",
    "Fraction of a batch's PU slots holding a stream",
)
_TAIL_WASTE = _tm_histogram(
    "fleet_serve_batch_tail_waste_fraction",
    "SIMD ragged-tail waste fraction per batch (idle lane-cycles)",
)

#: Batches a device accumulates locally before flushing into the
#: registry. Per-batch registry writes are what the telemetry_overhead
#: guard pays for, so devices buffer in plain Python (no locks) and
#: flush every N batches, whenever their queue idles, and at stop —
#: the registry lags sustained load by at most this many batches.
FLUSH_BATCHES = 16


class _PendingMetrics:
    """A device's locally buffered telemetry between registry flushes —
    plain Python, no locks (only the thread running the device touches
    it, until the worker is joined)."""

    __slots__ = ("batches", "makespan_sum", "busy_sum", "makespans",
                 "occupancies", "wastes", "vcycles", "by_tenant")

    def __init__(self):
        self.batches = 0
        self.makespan_sum = 0
        self.busy_sum = 0
        self.makespans = []
        self.occupancies = []
        self.wastes = []
        self.vcycles = []
        self.by_tenant = {}


class DeviceWorker:
    """One simulated device: a batch queue plus the thread draining it."""

    def __init__(self, index, server):
        self.index = index
        self.server = server
        self.queue = []
        self.scheduled_load = 0.0  # predicted, charged at placement
        # True while a thread (the worker or a waiting client) runs
        # batches taken from the queue; guarded by _cond
        self.running = False
        self._pending = _PendingMetrics()
        # batch id -> {entry: (outputs, vcycles)} from a group call,
        # until the batch's execute() takes it
        self._ran = {}
        self._cond = threading.Condition()
        self._stop = False
        self._thread = threading.Thread(
            target=self._loop, name=f"fleet-serve-device-{index}",
            daemon=True,
        )

    # -- lifecycle -----------------------------------------------------------
    def start(self):
        self._thread.start()

    def stop(self):
        with self._cond:
            self._stop = True
            self._cond.notify()
        self._thread.join()
        self._flush_metrics()

    def enqueue(self, batch):
        with self._cond:
            self.queue.append(batch)
            self._cond.notify()

    def _loop(self):
        while True:
            with self._cond:
                while self.running or not (self.queue or self._stop):
                    self._cond.wait()
                if not self.queue:  # stopped
                    return
                batches, self.queue = self.queue, []
                self.running = True
            self._run(batches)

    def run_through(self, last):
        """Run, on the calling thread, the queued batches up to and
        including batch id ``last``; the batches after it stay queued
        for the worker. Does nothing while another thread runs the
        device: the worker takes them at its next wake-up.
        """
        with self._cond:
            if self.running:
                return
            queue = self.queue
            count = 0
            # Queue order is batch id order: batches are enqueued as
            # they are scheduled, and _run puts back only a prefix.
            while count < len(queue) and queue[count].batch_id <= last:
                count += 1
            if not count:
                return
            batches, self.queue = queue[:count], queue[count:]
            self.running = True
        self._run(batches)

    def _run(self, batches):
        """Run ``batches``, which the calling thread took from the front
        of the queue when it set ``running``, then give up the device.

        A batch that raises an ``Exception`` fails its own jobs, and the
        next batch runs. Anything else (an interrupt on a client's
        thread) fails the batch it escaped from, whose completions may
        have begun, puts the batches after it back at the front of the
        queue for the worker, and propagates.
        """
        started = 0
        try:
            if len(batches) > 1:  # a lone batch makes its own call
                self._run_groups(batches)
            for batch in batches:
                started += 1
                try:
                    self.execute(batch)
                except Exception as error:  # fail its jobs, keep going
                    self._fail(batch, error)
                except BaseException as error:
                    self._fail(batch, error)
                    raise
        finally:
            with self._cond:
                self.running = False
                if started < len(batches):
                    for batch in batches[started:]:
                        self._ran.pop(batch.batch_id, None)
                    self.queue[:0] = batches[started:]
                if self.queue or self._stop:
                    self._cond.notify()
                elif self._pending.batches:
                    # About to idle: surface buffered telemetry now so
                    # the live registry is current between bursts.
                    self._flush_metrics()

    def _fail(self, batch, error):
        """Fail every job of ``batch``, which raised ``error``. Streams
        that ran before the error occupied the device: the makespan
        covers them, and the report row names the error."""
        self._ran.pop(batch.batch_id, None)
        batch.error = f"{type(error).__name__}: {error}"
        batch.makespan = max((e.vcycles for e in batch.entries), default=0)
        for entry in batch.entries:
            entry.job.fail(error)
        self.server._batch_done()

    def _run_groups(self, batches):
        """Run the live lanes of each kernel app's ``batches`` as one
        kernel call, in queue order, and keep each batch's slice for its
        :meth:`execute`. A batch alone in its group is left to make its
        own call. If a group call raises, no slice is kept, so each of
        its batches makes its own call and only the one whose lane
        raised fails."""
        from ..interp.batch import run_batch_streams

        cache = self.server.cache
        groups = {}
        for batch in batches:
            # Not a counted lookup: execute() counts one per batch.
            entry_obj = cache.built(batch.app)
            if entry_obj is None or entry_obj.batch_unit is None:
                continue
            live = [e for e in batch.entries if not e.job.cancelled]
            if live:
                groups.setdefault(batch.app, (entry_obj, []))[1].append(
                    (batch, live))
        for app_name, (entry_obj, members) in groups.items():
            if len(members) < 2:
                continue
            header = cache.app(app_name).header
            try:
                result = run_batch_streams(
                    entry_obj.program,
                    [header + e.stream for _, live in members
                     for e in live],
                    unit=entry_obj.batch_unit,
                )
            except Exception:
                # Not lost: the failing batch's own call raises it
                # again, and execute()'s caller records it on that batch.
                continue
            lanes = iter(zip(result.outputs, result.vcycles))
            for batch, live in members:
                self._ran[batch.batch_id] = {
                    entry: next(lanes) for entry in live
                }

    # -- execution -----------------------------------------------------------
    def execute(self, batch):
        server = self.server
        ran = self._ran.pop(batch.batch_id, None)
        app = server.cache.app(batch.app)
        entry_obj = server.cache.entry(batch.app)
        # The cancellation check, once per job: its stream count in the
        # batch, then whether they passed.
        jobs = {}
        for entry in batch.entries:
            job = entry.job
            jobs[job] = jobs.get(job, 0) + 1
        cancelled = [job for job, count in jobs.items()
                     if not job.pass_check(count)]
        live = batch.entries
        if cancelled:
            live = []
            for entry in batch.entries:
                if entry.job in cancelled:
                    entry.skipped = True
                    entry.job.stream_skipped(entry.stream_index)
                else:
                    live.append(entry)
        if entry_obj.batch_unit is not None and live:
            # Batch path: the live streams' results come from the group
            # call, or from one ragged batch on the app's batch kernel
            # (bit-identical outputs and per-stream virtual-cycle
            # counts). Cancellation was checked once above, so its
            # granularity is per batch here.
            self._execute_batched(batch, app, entry_obj, live, ran)
        elif live:
            # Per-stream path: the app has no batch kernel (uncertified,
            # wider than 64 bits, or no C toolchain here).
            runtime = FleetRuntime(entry_obj.program, header=app.header)
            for entry in live:
                (outputs, vcycles), = runtime.run_traced([entry.stream])
                entry.outputs = outputs
                entry.vcycles = vcycles
                if entry.job.stream_done(
                    entry.stream_index, outputs, vcycles
                ):
                    server._job_done(entry.job)
        batch.makespan = max(
            (e.vcycles for e in batch.entries), default=0
        )
        if server.config.memory_sim and not all(
            e.skipped for e in batch.entries
        ):
            self._attribute_memory(batch, app, entry_obj.program)
        if _tm_enabled():
            self._record_metrics(batch)
        server._batch_done()

    def _execute_batched(self, batch, app, entry_obj, live, ran):
        """Complete the ``live`` entries from the kernel: from ``ran``,
        the group call's ``{entry: (outputs, vcycles)}`` for this batch,
        or else from one ragged batch of their own.

        Each lane is the app header and the stream as one byte string;
        each stream's vcycles are the kernel's per-lane totals. Attaches
        the live lanes' :class:`~repro.interp.batch.BatchStats` (replicas
        active per virtual cycle, ragged-tail waste fraction) to the
        batch for the observability report.
        """
        from ..interp.batch import BatchStats, run_batch_streams

        if ran is None:
            result = run_batch_streams(
                entry_obj.program, [app.header + e.stream for e in live],
                unit=entry_obj.batch_unit,
            )
            batch.batch_stats = result.stats
            lanes = zip(result.outputs, result.vcycles)
        else:
            lanes = [ran[entry] for entry in live]
            batch.batch_stats = BatchStats([vc for _, vc in lanes])
        for entry, (outputs, vcycles) in zip(live, lanes):
            entry.outputs = outputs
            entry.vcycles = vcycles
            if entry.job.stream_done(entry.stream_index, outputs, vcycles):
                self.server._job_done(entry.job)

    def _record_metrics(self, batch):
        """Buffer the executed batch's telemetry locally (only called
        when telemetry is enabled); registry writes happen in
        :meth:`_flush_metrics` every :data:`FLUSH_BATCHES` batches, on
        queue idle, and at stop. Per-batch registry operations are what
        the ``telemetry_overhead`` perf guard pays for — buffering in
        plain Python keeps the hot path lock-free."""
        pending = self._pending
        pending.batches += 1
        pending.makespan_sum += batch.makespan
        pending.makespans.append(batch.makespan)
        if batch.slots:
            pending.occupancies.append(len(batch.entries) / batch.slots)
        if batch.batch_stats is not None:
            pending.wastes.append(batch.batch_stats.waste_fraction)
        by_tenant = pending.by_tenant
        for entry in batch.entries:
            if entry.skipped:
                continue
            pending.vcycles.append(entry.vcycles)
            pending.busy_sum += entry.vcycles
            tenant = entry.job.tenant
            by_tenant[tenant] = by_tenant.get(tenant, 0) + entry.vcycles
        if pending.batches >= FLUSH_BATCHES:
            self._flush_metrics()

    def _flush_metrics(self):
        """Drain the local buffer into the process-wide registry."""
        pending = self._pending
        if not pending.batches:
            return
        self._pending = _PendingMetrics()
        device = str(self.index)
        _BATCHES_EXECUTED.inc(pending.batches, device=device)
        _DEVICE_SPAN.inc(pending.makespan_sum, device=device)
        _BATCH_MAKESPAN.observe_many(pending.makespans)
        _SLOT_OCCUPANCY.observe_many(pending.occupancies)
        _TAIL_WASTE.observe_many(pending.wastes)
        if pending.vcycles:
            _DEVICE_BUSY.inc(pending.busy_sum, device=device)
            _STREAM_VCYCLES.observe_many(pending.vcycles)
            for tenant, total in pending.by_tenant.items():
                _TENANT_VCYCLES.inc(total, tenant=tenant)

    def _attribute_memory(self, batch, app, program):
        """Re-run the batch of ``app``'s cached ``program`` through the
        cycle-level memory system with a fresh per-batch observation;
        attach its aggregate attribution and replace the makespan with
        the memory system's cycle count (the batch's real device
        occupancy once DRAM timing, bus turnaround, and controller
        contention are modeled)."""
        from ..obs import Observation
        from ..system import run_full_system

        live = [e for e in batch.entries if not e.skipped]
        obs = Observation()
        result = run_full_system(
            program, [bytes(e.stream) for e in live],
            header=app.header, obs=obs,
        )
        # Differential guard: the memory-system path must reproduce the
        # functional outputs bit-exactly.
        for entry, outputs in zip(live, result.outputs):
            if outputs != entry.outputs:
                raise AssertionError(
                    f"memory-system outputs diverged for job "
                    f"{entry.job.job_id} stream {entry.stream_index}"
                )
        batch.attribution = obs.report()["aggregate"]["attribution"]
        batch.makespan = result.cycles
