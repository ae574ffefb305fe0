"""Jobs, futures, and results — the client-visible half of the job API.

A *job* is one named-app request carrying many variable-length byte
streams. Submission returns a :class:`JobFuture` immediately; the
scheduler packs the job's streams into device batches and the future
resolves once every stream has run, on whichever thread ran the last
one: a device worker, or a client waiting in ``result()``. The future
is thread-based — ``result()`` blocks the calling thread — with an
asyncio-friendly bridge (:meth:`JobFuture.result_async` /
:func:`gather_async`) for event-loop clients.

All *reported* timing is in deterministic virtual cycles (see
``docs/serving.md``); wall-clock never enters a job report.
"""

import threading
import traceback

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
    device-side exception). With no timeout it first runs the job's
    queued batches on the calling thread, on every device that no other
    thread is running (:meth:`FleetServer._run_queued
    <repro.serve.server.FleetServer._run_queued>`); with a timeout it
    only waits, so it returns by its deadline.

    ``cancel()`` is cooperative: streams already executed stay executed,
    unstarted streams are skipped at the next scheduling window or when
    their batch's turn on the device comes. It succeeds only while some
    stream of the job has not yet passed its batch's cancellation check.

    A future refers to its job one way: the job drops its reference to
    the future once the job resolves, fails or is cancelled, and the
    future drops its server then too. So a held future keeps its job
    (``job_id``, ``cancelled()`` and ``cancel()`` still answer) but not
    its server, and reference counting frees a dropped future at once.
    """

    def __init__(self, job, server=None):
        self._job = job
        # The server that runs the job's batches; dropped when the job
        # resolves, so a held future does not keep a stopped server
        # alive.
        self._server = server
        self._event = threading.Event()
        self._result = None
        self._error = None

    # -- completion (server side) --------------------------------------------
    def _resolve(self, result):
        self._result = result
        self._server = None
        self._event.set()

    def _fail(self, error):
        # The frames the error left on the server side keep their locals
        # (the device, its batches, the server) as long as the error
        # lives; clear them, so a held future does not keep its server.
        # The traceback still prints.
        traceback.clear_frames(error.__traceback__)
        self._error = error
        self._server = None
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
        """Request cooperative cancellation. Returns True while at least
        one of the job's streams has not yet passed its batch's
        cancellation check: those streams are skipped and ``result()``
        raises :class:`~repro.serve.errors.JobCancelled`. Returns False,
        and leaves the job uncancelled, once every stream has passed its
        check or the job has finished."""
        job = self._job
        with job.lock:
            if self._event.is_set() or not job.unchecked:
                return False
            job.cancelled = True
        return True

    def result(self, timeout=None):
        """Block until done; returns the :class:`JobResult`. With no
        ``timeout``, run the job's queued batches on this thread first
        (see the class docstring)."""
        if timeout is None:
            self._run_queued()
        if not self._event.wait(timeout):
            raise TimeoutError(
                f"job {self.job_id} did not complete within {timeout}s"
            )
        if self._error is not None:
            try:
                raise self._error
            finally:
                # The error's traceback keeps this frame: without this,
                # the frame and the future would hold each other.
                self = None
        return self._result

    def _run_queued(self):
        # A method of its own, so the server is never a local of a frame
        # that result()'s error can keep.
        server = self._server
        if server is not None:
            server._run_queued(self._job)

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
    """Server-internal state of one submitted job.

    The job holds its :class:`JobFuture` only until it resolves, fails or
    is cancelled: whichever of :meth:`resolve`, :meth:`fail` and
    :meth:`finish_cancelled` finishes the job drops it. A finished job
    and its future then form no reference cycle, so reference counting
    frees them, and with them a stopped server, without waiting for the
    cyclic garbage collector.
    """

    __slots__ = (
        "job_id", "app", "tenant", "streams", "stream_bytes", "future",
        "cancelled", "status", "outputs", "vcycles", "remaining",
        "unchecked", "batch_ids", "vfinish", "lock", "_trace",
    )

    def __init__(self, job_id, app, tenant, streams, server=None):
        self.job_id = job_id
        self.app = app
        self.tenant = tenant
        self.streams = streams  # list of bytes, never changed
        self.stream_bytes = sum(map(len, streams))
        self._trace = None
        self.future = JobFuture(self, server)
        self.cancelled = False
        self.status = PENDING
        self.outputs = [None] * len(streams)
        self.vcycles = [0] * len(streams)  # measured, per stream
        self.remaining = len(streams)
        # streams not yet past a batch's cancellation check (pass_check)
        self.unchecked = len(streams)
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

    def pass_check(self, count):
        """A batch's cancellation check for ``count`` of this job's
        streams, atomic with :meth:`JobFuture.cancel`: False if the job
        is cancelled (the batch skips them); else they have passed and
        it is True."""
        with self.lock:
            if self.cancelled:
                return False
            self.unchecked -= count
            if self.status == PENDING:
                self.status = RUNNING
        return True

    def stream_done(self, index, outputs, vcycles):
        """Record one executed stream. Returns True when this call
        completed the job (the caller resolves the future). A cancelled
        job's last stream finishes it as cancelled instead: its skipped
        streams may have been counted first, on another device."""
        with self.lock:
            self.outputs[index] = outputs
            self.vcycles[index] = vcycles
            self.remaining -= 1
            if self.remaining or self.status in (CANCELLED, FAILED):
                return False
            if not self.cancelled:
                self.status = DONE
                return True
        self.finish_cancelled()
        return False

    def stream_skipped(self, index):
        """A stream was skipped because the job is cancelled."""
        with self.lock:
            self.outputs[index] = []
            self.remaining -= 1
            finished = self.remaining == 0
        if finished:
            self.finish_cancelled()
        return finished

    def resolve(self, result):
        """Resolve the future with ``result`` (the job is ``DONE``) and
        drop it."""
        future, self.future = self.future, None
        future._resolve(result)

    def finish_cancelled(self):
        with self.lock:
            if self.status in (DONE, CANCELLED, FAILED):
                return
            self.status = CANCELLED
        future, self.future = self.future, None
        future._fail(JobCancelled(self.job_id))

    def fail(self, error):
        with self.lock:
            if self.status in (DONE, CANCELLED, FAILED):
                return
            self.status = FAILED
        future, self.future = self.future, None
        future._fail(error)
