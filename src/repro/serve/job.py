"""Jobs, futures, and results — the client-visible half of the job API.

A *job* is one named-app request carrying many variable-length byte
streams. Submission returns a :class:`JobFuture` immediately; the
scheduler packs the job's streams into device batches and the future
resolves (on a device worker thread) once every stream has run. The
future is thread-based — ``result()`` blocks the calling thread — with
an asyncio-friendly bridge (:meth:`JobFuture.result_async` /
:func:`gather_async`) for event-loop clients.

All *reported* timing is in deterministic virtual cycles (see
``docs/serving.md``); wall-clock never enters a job report.
"""

import threading

from ..telemetry.tracing import SpanContext
from .errors import JobCancelled

#: Job lifecycle states (reported in serve run reports).
PENDING = "pending"
RUNNING = "running"
DONE = "done"
CANCELLED = "cancelled"
FAILED = "failed"


class JobResult:
    """What a completed job resolves to."""

    def __init__(self, job_id, outputs, report):
        #: server-assigned monotonic job id
        self.job_id = job_id
        #: per-stream output token lists, in submission stream order
        self.outputs = outputs
        #: the job's fragment of the serve run report (plain dict)
        self.report = report

    def __repr__(self):
        return (
            f"JobResult(job {self.job_id}, "
            f"{len(self.outputs)} streams)"
        )


class JobFuture:
    """Thread-based future for one submitted job.

    ``result()`` blocks until the job completes, was cancelled (raises
    :class:`~repro.serve.errors.JobCancelled`), or failed (re-raises the
    device-side exception). ``cancel()`` is cooperative: streams already
    executed stay executed, unstarted streams are skipped at the next
    scheduling window or when their batch's turn on the device comes.
    """

    def __init__(self, job):
        self._job = job
        self._event = threading.Event()
        self._result = None
        self._error = None

    # -- completion (server side) --------------------------------------------
    def _resolve(self, result):
        self._result = result
        self._event.set()

    def _fail(self, error):
        self._error = error
        self._event.set()

    # -- client side ---------------------------------------------------------
    @property
    def job_id(self):
        return self._job.job_id

    def done(self):
        """True once the job has a result, error, or was cancelled."""
        return self._event.is_set()

    def cancelled(self):
        return self._job.cancelled

    def cancel(self):
        """Request cooperative cancellation; returns True unless the job
        already completed."""
        if self._event.is_set():
            return False
        self._job.cancelled = True
        return True

    def result(self, timeout=None):
        """Block until done; returns the :class:`JobResult`."""
        if not self._event.wait(timeout):
            raise TimeoutError(
                f"job {self.job_id} did not complete within {timeout}s"
            )
        if self._error is not None:
            raise self._error
        return self._result

    async def result_async(self, timeout=None):
        """Asyncio bridge: await the result without blocking the event
        loop (the blocking wait runs in the loop's default executor)."""
        import asyncio

        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(None, self.result, timeout)

    def __repr__(self):
        state = "done" if self.done() else "pending"
        return f"JobFuture(job {self.job_id}, {state})"


async def gather_async(*futures, timeout=None):
    """Await many :class:`JobFuture`\\ s concurrently from asyncio."""
    import asyncio

    return await asyncio.gather(
        *(future.result_async(timeout) for future in futures)
    )


class Job:
    """Server-internal state of one submitted job."""

    __slots__ = (
        "job_id", "app", "tenant", "streams", "stream_bytes", "future",
        "cancelled", "status", "outputs", "vcycles", "remaining",
        "batch_ids", "vfinish", "lock", "_trace",
    )

    def __init__(self, job_id, app, tenant, streams):
        self.job_id = job_id
        self.app = app
        self.tenant = tenant
        self.streams = streams  # list of bytes, never changed
        self.stream_bytes = sum(map(len, streams))
        self._trace = None
        self.future = JobFuture(self)
        self.cancelled = False
        self.status = PENDING
        self.outputs = [None] * len(streams)
        self.vcycles = [0] * len(streams)  # measured, per stream
        self.remaining = len(streams)
        self.batch_ids = []
        self.vfinish = 0.0  # weighted-fair-queuing virtual finish time
        self.lock = threading.Lock()

    @property
    def trace(self):
        """The job's end-to-end trace identity
        (:class:`~repro.telemetry.tracing.SpanContext`), minted on first
        read. Its IDs are a pure function of (job id, app, tenant), so
        traces inherit the report's determinism contract."""
        if self._trace is None:
            self._trace = SpanContext.for_job(
                self.job_id, self.app, self.tenant
            )
        return self._trace

    def stream_done(self, index, outputs, vcycles):
        """Record one executed stream; resolve the future on the last.
        Returns True when this call completed the job."""
        with self.lock:
            self.outputs[index] = outputs
            self.vcycles[index] = vcycles
            self.remaining -= 1
            if self.remaining or self.status in (CANCELLED, FAILED):
                return False
            self.status = DONE
        return True

    def stream_skipped(self, index):
        """A stream was skipped because the job is cancelled."""
        with self.lock:
            self.outputs[index] = []
            self.remaining -= 1
            finished = self.remaining == 0
        if finished:
            self.finish_cancelled()
        return finished

    def finish_cancelled(self):
        with self.lock:
            if self.status in (DONE, CANCELLED, FAILED):
                return
            self.status = CANCELLED
        self.future._fail(JobCancelled(self.job_id))

    def fail(self, error):
        with self.lock:
            if self.status in (DONE, CANCELLED, FAILED):
                return
            self.status = FAILED
        self.future._fail(error)
