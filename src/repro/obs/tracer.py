"""Chrome trace-event recording (Perfetto / ``chrome://tracing``).

The recorder stores spans and instants with *cycle* timestamps; export
converts cycles to microseconds using the channel clock so the timeline
in Perfetto reads in real time. The export is the JSON object form of
the Trace Event Format: ``{"traceEvents": [...], ...}`` with ``ph`` "X"
(complete spans), "i" (instants), and "M" (process/thread metadata).

Track layout: one *process* per simulated channel, with one thread for
the AXI read path, one for the AXI write path, and one per processing
unit. Events are recorded at simulation events, which no idle jump of
the channel runner skips, so a trace is the one pure stepping records;
the export sorts by timestamp, which the schema tests rely on.
"""

import json

#: Thread ids within one channel's process.
TID_AXI_READ = 0
TID_AXI_WRITE = 1
TID_PU_BASE = 2


class TraceRecorder:
    """Collects trace events; timestamps are in cycles until export."""

    def __init__(self):
        self.events = []
        self._meta = []

    # -- recording -----------------------------------------------------------
    def complete(self, name, start, end, *, pid=0, tid=0, args=None):
        """A span covering cycles [start, end)."""
        self.events.append({
            "ph": "X", "name": name, "ts": start, "dur": end - start,
            "pid": pid, "tid": tid, "args": args or {},
        })

    def instant(self, name, ts, *, pid=0, tid=0, args=None):
        self.events.append({
            "ph": "i", "name": name, "ts": ts, "s": "t",
            "pid": pid, "tid": tid, "args": args or {},
        })

    def process_name(self, pid, name):
        self._meta.append({
            "ph": "M", "name": "process_name", "ts": 0, "pid": pid,
            "tid": 0, "args": {"name": name},
        })

    def thread_name(self, pid, tid, name):
        self._meta.append({
            "ph": "M", "name": "thread_name", "ts": 0, "pid": pid,
            "tid": tid, "args": {"name": name},
        })

    # -- export --------------------------------------------------------------
    def to_chrome(self, frequency_hz=None):
        """The Trace Event Format object. ``frequency_hz`` converts cycle
        timestamps to microseconds (Perfetto's native unit); without it,
        timestamps stay in cycles (1 cycle == 1 us on the timeline)."""
        scale = 1e6 / frequency_hz if frequency_hz else 1.0

        def convert(event):
            out = dict(event)
            out["ts"] = round(event["ts"] * scale, 3)
            if "dur" in event:
                out["dur"] = round(event["dur"] * scale, 3)
            return out

        events = [convert(e) for e in self._meta]
        events += sorted(
            (convert(e) for e in self.events),
            key=lambda e: (e["ts"], e["pid"], e["tid"]),
        )
        return {
            "traceEvents": events,
            "displayTimeUnit": "ns",
            "otherData": {
                "generator": "repro.obs",
                "timestamp_unit": "us" if frequency_hz else "cycles",
            },
        }

    def write(self, path, frequency_hz=None):
        """Write the trace as JSON; returns the path."""
        with open(path, "w") as fh:
            json.dump(self.to_chrome(frequency_hz), fh, indent=1)
            fh.write("\n")
        return path

    def __len__(self):
        return len(self.events)
