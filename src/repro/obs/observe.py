"""The observation objects the simulators record into.

An :class:`Observation` is created by the caller (or by
``FLEET_TRACE``-driven auto-enabling in :func:`repro.system.run_full_system`)
and passed to :class:`~repro.memory.ChannelSystem`,
:func:`~repro.memory.simulate_channels`, or the full-system/bench entry
points. Each simulated channel attaches a :class:`ChannelObservation`
scope holding its cycle attribution, counters, histograms, and per-PU
accounting; a shared :class:`~repro.obs.tracer.TraceRecorder` (when
tracing is on) collects span events across channels.

Everything here is **opt-in**: with no observation attached the
simulators skip every hook behind a single ``is None`` check, so the
disabled cost is one branch per cycle (the perf-regression harness
guards this).

Attribution, histograms, and per-PU statistics are the ones pure
stepping records: they are recorded either at simulation *events*
(which no idle jump of the channel runner skips) or per-cycle with an
exact closed-form equivalent for skipped windows — the differential
tests assert bit-identity against stepping.
"""

import threading
from collections import deque

from .attribution import ChannelAttribution
from .counters import Registry
from .tracer import TID_AXI_READ, TID_AXI_WRITE, TID_PU_BASE, TraceRecorder


class PuStats:
    """Event-based input/output accounting for one processing unit.

    ``busy_cycles`` sums the unit's drain+compute intervals (they never
    overlap: the next drain starts at or after the previous completion);
    ``starved_cycles`` sums the gaps where the unit's input buffer sat
    empty waiting for the input controller (including initial startup);
    ``deferred_bursts`` counts bursts whose drain had to wait because the
    unit's buffer was still busy — the source of ``pu_backpressure``
    attribution.
    """

    __slots__ = ("bytes_in", "bytes_out", "bursts", "busy_cycles",
                 "starved_cycles", "deferred_bursts")

    def __init__(self):
        self.bytes_in = 0
        self.bytes_out = 0
        self.bursts = 0
        self.busy_cycles = 0
        self.starved_cycles = 0
        self.deferred_bursts = 0

    def utilization(self, total_cycles):
        """Fraction of the run this unit spent draining or computing."""
        if not total_cycles:
            return 0.0
        return self.busy_cycles / total_cycles

    def as_dict(self, total_cycles=None):
        out = {
            "bytes_in": self.bytes_in,
            "bytes_out": self.bytes_out,
            "bursts": self.bursts,
            "busy_cycles": self.busy_cycles,
            "starved_cycles": self.starved_cycles,
            "deferred_bursts": self.deferred_bursts,
        }
        if total_cycles is not None:
            out["utilization"] = round(self.utilization(total_cycles), 4)
        return out

    def __eq__(self, other):
        if isinstance(other, PuStats):
            return all(
                getattr(self, field) == getattr(other, field)
                for field in self.__slots__
            )
        return NotImplemented


class ChannelObservation:
    """One channel's worth of instrumentation (see module docstring)."""

    def __init__(self, index, config, n_pus, tracer=None):
        self.index = index
        self.config = config
        self.tracer = tracer
        self.attribution = ChannelAttribution()
        self.registry = Registry()
        self.reg_occupancy = self.registry.histogram("reg_occupancy")
        self.addr_lead = self.registry.histogram("addr_lead")
        self.read_bursts = self.registry.counter("read_bursts")
        self.write_bursts = self.registry.counter("write_bursts")
        self.pu_stats = [PuStats() for _ in range(n_pus)]
        self._read_submits = deque()  # submit cycles, AXI order
        self.cycles = 0
        self.bytes_in = 0
        self.bytes_out = 0
        self.pu_traces = None  # per-PU functional-trace summaries
        if tracer is not None:
            tracer.process_name(index, f"channel {index}")
            tracer.thread_name(index, TID_AXI_READ, "axi-read")
            tracer.thread_name(index, TID_AXI_WRITE, "axi-write")
            for pu in range(n_pus):
                tracer.thread_name(index, TID_PU_BASE + pu, f"pu {pu}")

    # -- per-cycle hooks (ChannelSystem) -------------------------------------
    def on_cycle(self, now, system, delivered, wrote, accept):
        """Classify one stepped cycle and sample burst-register
        occupancy."""
        self.attribution.record(
            self.attribution.classify_step(
                now, system, delivered, wrote, accept
            )
        )
        self.reg_occupancy.record(
            system.input_controller.occupied_registers(now)
        )

    def on_window(self, start, end, system):
        """Attribute a skipped idle window [start, end) exactly as
        stepping would have (all classifier inputs except the refresh
        phase are frozen inside the window)."""
        self.attribution.record_window(start, end, system)
        self.reg_occupancy.record(
            system.input_controller.occupied_registers(start), end - start
        )

    # -- event hooks (controllers) -------------------------------------------
    def read_submitted(self, now):
        self._read_submits.append(now)

    def read_burst_done(self, pu, nbytes, now):
        """The last beat of a read burst arrived at ``now``."""
        submitted = self._read_submits.popleft()
        self.read_bursts.add()
        self.addr_lead.record(now - submitted)
        if self.tracer is not None:
            self.tracer.complete(
                f"read pu{pu}", submitted, now, pid=self.index,
                tid=TID_AXI_READ, args={"pu": pu, "bytes": nbytes},
            )

    def pu_burst(self, pu, drain_start, done, prev_free, nbytes):
        """A burst was scheduled to drain into PU ``pu``."""
        stats = self.pu_stats[pu]
        stats.bytes_in += nbytes
        stats.bursts += 1
        stats.busy_cycles += done - drain_start
        if drain_start > prev_free:
            stats.starved_cycles += drain_start - prev_free
        else:
            stats.deferred_bursts += 1
        if self.tracer is not None:
            self.tracer.complete(
                "process", drain_start, done, pid=self.index,
                tid=TID_PU_BASE + pu, args={"bytes": nbytes},
            )

    def pu_output(self, pu, nbytes):
        self.pu_stats[pu].bytes_out += nbytes

    def write_burst_done(self, pu, nbytes, submitted, now):
        """A write burst's beats finished crossing the bus at ``now``."""
        self.write_bursts.add()
        if self.tracer is not None:
            self.tracer.complete(
                f"write pu{pu}", submitted, now, pid=self.index,
                tid=TID_AXI_WRITE, args={"pu": pu, "bytes": nbytes},
            )

    # -- completion ----------------------------------------------------------
    def finalize(self, stats, system=None):
        """Record the run's totals (called by ``ChannelSystem.run`` /
        ``run_for``); captures functional-PU trace summaries when the
        PUs carry them."""
        self.cycles = stats.cycles
        self.bytes_in = stats.bytes_in
        self.bytes_out = stats.bytes_out
        if system is not None:
            traces = []
            for pu in system.pus:
                sim = getattr(pu, "sim", None)
                trace = getattr(sim, "trace", None)
                if trace is None:
                    traces = None
                    break
                traces.append({
                    "tokens_in": trace.tokens_in,
                    "tokens_out": trace.tokens_out,
                    "total_vcycles": trace.total_vcycles,
                    "cleanup_vcycles": trace.cleanup_vcycles,
                })
            self.pu_traces = traces

    def as_dict(self):
        """This channel's report fragment (plain JSON-serializable
        data)."""
        out = {
            "index": self.index,
            "cycles": self.cycles,
            "bytes_in": self.bytes_in,
            "bytes_out": self.bytes_out,
            "input_gbps": round(
                self.config.gbps(self.bytes_in, self.cycles), 4
            ),
            "output_gbps": round(
                self.config.gbps(self.bytes_out, self.cycles), 4
            ),
            "attribution": self.attribution.as_dict(),
            "attribution_pct": {
                k: round(v, 2)
                for k, v in self.attribution.percentages().items()
            },
            "counters": self.registry.as_dict(),
            "reg_occupancy_mean": round(self.reg_occupancy.mean, 3),
            "addr_lead_mean": round(self.addr_lead.mean, 3),
            "pus": [
                stats.as_dict(self.cycles) for stats in self.pu_stats
            ],
        }
        if self.pu_traces is not None:
            out["pu_traces"] = self.pu_traces
        return out


class Observation:
    """Top-level observability scope for one or more channel runs.

    Pass one instance through ``ChannelSystem`` / ``simulate_channels`` /
    ``run_full_system`` / ``evaluate_fleet_app``; inspect
    :attr:`channels`, :meth:`report`, :meth:`summary`, and (with
    ``trace=True``) :meth:`write_trace` afterwards.

    There is no module-level observability state anywhere in
    :mod:`repro.obs` — every collector hangs off an ``Observation``
    instance, so concurrent device/channel runs (the multi-device
    serving runtime, parallel test shards) cannot bleed counters into
    each other as long as each simulation gets its own scope. Channel
    *registration* on a shared instance is additionally thread-safe:
    scope creation is serialized so each concurrent channel gets a
    distinct index. The per-cycle recording hooks inside one scope stay
    lock-free (they are single-simulation hot paths); give each
    concurrently simulated device its own scope, the way
    :mod:`repro.serve` keeps one collector per device shard.
    """

    def __init__(self, *, trace=False):
        self.tracer = TraceRecorder() if trace else None
        self.channels = []
        self.frequency_hz = None
        self._register_lock = threading.Lock()

    def channel(self, config, n_pus):
        """Attach (and return) a new per-channel scope (thread-safe)."""
        with self._register_lock:
            if self.frequency_hz is None:
                self.frequency_hz = config.frequency_hz
            scope = ChannelObservation(
                len(self.channels), config, n_pus, tracer=self.tracer
            )
            self.channels.append(scope)
        return scope

    def report(self):
        """The structured run report (see :mod:`repro.obs.report`)."""
        from .report import build_report
        return build_report(self)

    def summary(self):
        """Human-readable report text."""
        from .report import build_report, format_report
        return format_report(build_report(self))

    def write_trace(self, path):
        """Write the Chrome trace-event JSON; returns the path."""
        if self.tracer is None:
            raise ValueError(
                "tracing is not enabled (construct Observation(trace=True) "
                "or set FLEET_TRACE)"
            )
        return self.tracer.write(path, frequency_hz=self.frequency_hz)
