"""``repro.serve`` — a multi-device, batched, asynchronous serving
runtime for Fleet streams.

Turns the simulated Fleet device into a service: clients submit
named-app jobs carrying many variable-length streams and await results
via futures; a skew-aware packer bins streams into device batches by
predicted virtual-cycle cost; a shard scheduler fans batches out across
independent device instances with per-tenant weighted-fair queuing,
admission control, and cooperative cancellation; a compiled-app cache
makes repeat jobs skip recompilation; and every run yields a
deterministic report (latency percentiles, queue wait vs device time,
per-tenant share) plus an optional Perfetto trace.

Quick start::

    from repro.serve import FleetServer, ServeConfig

    with FleetServer(config=ServeConfig(devices=2, pu_slots=8)) as srv:
        future = srv.submit("identity", [b"hello", b"world"])
        srv.flush()                  # schedule the partial window now
        result = future.result()     # or: await future.result_async()
        srv.drain()
        print(srv.report()["latency"])

CLI: ``python -m repro.serve`` runs a deterministic demo workload and
prints the utilization/latency report; ``--selftest`` asserts the
determinism contract. See ``docs/serving.md``.
"""

from .apps import catalog_apps
from .cache import CompiledAppCache, ServedApp
from .cost import CostModel
from .errors import (
    JobCancelled,
    ServeError,
    ServerClosed,
    ServerOverloaded,
    UnknownApp,
)
from .job import JobFuture, JobResult, gather_async
from .packing import FifoPacker, SkewAwarePacker, make_packer
from ..telemetry.slo import SLO
from .report import (
    SERVE_REPORT_SCHEMA,
    build_serve_report,
    build_trace,
    build_trace_log,
    format_serve_report,
    percentile,
    validate_serve_report,
)
from .scheduler import WeightedFairQueue
from .server import FleetServer, ServeConfig, default_apps

__all__ = [
    "CompiledAppCache",
    "CostModel",
    "FifoPacker",
    "FleetServer",
    "JobCancelled",
    "JobFuture",
    "JobResult",
    "SLO",
    "SERVE_REPORT_SCHEMA",
    "ServeConfig",
    "ServeError",
    "ServedApp",
    "ServerClosed",
    "ServerOverloaded",
    "SkewAwarePacker",
    "UnknownApp",
    "WeightedFairQueue",
    "build_serve_report",
    "build_trace",
    "build_trace_log",
    "catalog_apps",
    "default_apps",
    "format_serve_report",
    "gather_async",
    "make_packer",
    "percentile",
    "validate_serve_report",
]
