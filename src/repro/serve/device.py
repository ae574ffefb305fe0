"""Device workers: one thread per simulated Fleet device.

Each worker owns an independent device instance and drains its own batch
queue — the multi-device shard layer is N of these side by side with no
shared mutable simulation state (each batch gets fresh per-stream
simulators from the compiled-app cache, and each worker keeps its own
observability collectors, mirroring the one-collector-per-device rule in
:mod:`repro.obs`).

Two execution modes:

* **functional** (default): a batch runs as one ragged batch on the
  app's batch kernel when it has one, else stream by stream on the
  cached per-stream simulator; the stream's measured virtual cycles are
  its device occupancy (the compiler's one-virtual-cycle-per-cycle
  guarantee), and the batch makespan is the longest stream's.
* **memory_sim**: the batch additionally runs through the Section 5
  cycle-level memory system (:func:`repro.system.run_full_system`) with
  a per-batch :class:`repro.obs.Observation`, so the batch report
  carries real cycle attribution (refresh, bus turnaround, PU
  backpressure, ...) and the makespan is the memory system's cycle
  count.

Cancellation is cooperative: the worker re-checks ``job.cancelled``
before each stream, so a mid-batch cancel skips the job's remaining
streams but never tears down another job's work.

The worker's measured clock (cumulative batch makespans) is virtual —
wall-clock never enters scheduling or reports.
"""

import threading

from ..obs.observe import PuStats
from ..system.runtime import FleetRuntime
from ..telemetry.metrics import counter as _tm_counter
from ..telemetry.metrics import enabled as _tm_enabled
from ..telemetry.metrics import histogram as _tm_histogram
from .job import PENDING, RUNNING

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

#: Batches a worker accumulates locally before flushing into the
#: registry. Per-batch registry writes are what the telemetry_overhead
#: guard pays for, so workers buffer in plain Python (no locks) and
#: flush every N batches, whenever their queue idles, and at stop —
#: the registry lags sustained load by at most this many batches.
FLUSH_BATCHES = 16


class _PendingMetrics:
    """A worker's locally buffered telemetry between registry flushes —
    plain Python, no locks (only the owning worker thread touches it
    until the worker is joined)."""

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
        self.executed = []  # batches, in execution order
        self.clock = 0  # measured virtual cycles
        self.scheduled_load = 0.0  # predicted, charged at placement
        self.batches_run = 0
        self._pending = _PendingMetrics()
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
                if not self.queue and self._pending.batches:
                    # About to idle: surface buffered telemetry now so
                    # the live registry is current between bursts.
                    self._flush_metrics()
                while not self.queue and not self._stop:
                    self._cond.wait()
                if not self.queue and self._stop:
                    return
                batch = self.queue.pop(0)
            try:
                self.execute(batch)
            except Exception as error:  # fail the batch's jobs, keep going
                for entry in batch.entries:
                    entry.job.fail(error)
                self.server._batch_done(batch)

    # -- execution -----------------------------------------------------------
    def execute(self, batch):
        server = self.server
        app = server.cache.app(batch.app)
        entry_obj = server.cache.entry(batch.app)
        live = []
        for entry in batch.entries:
            job = entry.job
            if job.cancelled:  # cooperative mid-batch cancellation
                entry.skipped = True
                job.stream_skipped(entry.stream_index)
                continue
            if job.status == PENDING:
                job.status = RUNNING
            live.append(entry)
        if entry_obj.batch_unit is not None and live:
            # Batch path: the whole slot group runs as one ragged batch
            # on the app's batch kernel (bit-identical outputs and
            # per-stream virtual-cycle counts). Cancellation was checked
            # once above, so its granularity coarsens from per-stream to
            # per-batch here — the price of lockstep execution.
            self._execute_batched(batch, app, entry_obj, live)
        elif live:
            # Per-stream path: the app has no batch kernel (uncertified,
            # wider than 64 bits, or no C toolchain here).
            runtime = FleetRuntime(
                entry_obj.program, header=app.header,
                simulator_factory=lambda: server.cache.simulator(batch.app),
            )
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
        batch.pu_stats = self._slot_stats(batch)
        self.clock += batch.makespan
        self.batches_run += 1
        self.executed.append(batch)
        if _tm_enabled():
            self._record_metrics(batch)
        server._batch_done(batch)

    def _execute_batched(self, batch, app, entry_obj, live):
        """Run ``live`` entries as one ragged batch on the batch kernel.

        Attaches the engine's :class:`~repro.interp.batch.BatchStats`
        (replicas active per virtual cycle, ragged-tail waste fraction)
        to the batch for the observability report.
        """
        from ..interp.batch import run_batch_streams

        header = list(app.header)
        streams = [header + list(bytes(e.stream)) for e in live]
        result = run_batch_streams(
            entry_obj.program, streams, unit=entry_obj.batch_unit,
        )
        batch.batch_stats = result.stats
        for entry, outputs, trace in zip(
            live, result.outputs, result.traces
        ):
            entry.outputs = outputs
            entry.vcycles = trace.total_vcycles
            if entry.job.stream_done(
                entry.stream_index, outputs, entry.vcycles
            ):
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

    def _slot_stats(self, batch):
        """Per-slot accounting in the observability layer's own
        :class:`~repro.obs.observe.PuStats` vocabulary: ``busy_cycles``
        is the slot's stream occupancy, ``starved_cycles`` the tail it
        idles waiting for the batch's longest stream."""
        stats = []
        for entry in batch.entries:
            pu = PuStats()
            pu.bytes_in = len(entry.stream)
            pu.bytes_out = len(entry.outputs or [])
            pu.bursts = 0 if entry.skipped else 1
            pu.busy_cycles = entry.vcycles
            pu.starved_cycles = batch.makespan - entry.vcycles
            stats.append(pu)
        return stats

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
