"""Typed errors raised by the serving runtime.

All serving errors derive from :class:`ServeError` (itself a
:class:`~repro.lang.errors.FleetError`) so callers can catch the whole
family, and each operational failure mode gets its own subclass so
clients — and the load-shed tests — can react without parsing messages.
"""

from ..lang.errors import FleetError


class ServeError(FleetError):
    """Base class for all serving-runtime errors."""


class UnknownApp(ServeError):
    """A job named an application the server has not registered."""

    def __init__(self, name, registered):
        self.name = name
        self.registered = tuple(sorted(registered))
        super().__init__(
            f"unknown app {name!r}; registered: "
            f"{', '.join(self.registered) or '(none)'}"
        )


class ServerOverloaded(ServeError):
    """Admission control shed the job: the pending-stream queue is full.

    Carries the queue state so clients can implement backoff policies.
    """

    def __init__(self, pending_streams, limit, job_streams):
        self.pending_streams = pending_streams
        self.limit = limit
        self.job_streams = job_streams
        super().__init__(
            f"server overloaded: {pending_streams} streams pending, "
            f"admitting {job_streams} more would exceed the "
            f"{limit}-stream limit"
        )


class JobCancelled(ServeError):
    """The job was cancelled before it produced a result."""

    def __init__(self, job_id):
        self.job_id = job_id
        super().__init__(f"job {job_id} was cancelled")


class ServerClosed(ServeError):
    """The server is stopped (or stopping) and accepts no new jobs."""
