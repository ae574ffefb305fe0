"""Chrome trace-event export: schema validity, timestamp ordering,
engine independence, and a golden-file smoke test."""

import json
from pathlib import Path

from repro.memory import EchoPu, MemoryConfig, simulate_channels
from repro.obs import Observation, TraceRecorder
from repro.obs.tracer import TID_AXI_READ, TID_AXI_WRITE, TID_PU_BASE
from repro.report import _validate_trace

from ..memory.reference import stepping

GOLDEN = Path(__file__).parent / "golden_trace.json"


def _traced_run(*, pus=4, stream_bytes=1 << 10, fixed_cycles=1_500):
    obs = Observation(trace=True)
    simulate_channels(
        MemoryConfig(),
        lambda i: [EchoPu(stream_bytes) for _ in range(pus)],
        channels=1, fixed_cycles=fixed_cycles, obs=obs,
    )
    return obs


def golden_trace():
    """The deterministic trace the committed golden file was generated
    from (regenerate with ``python -c "from tests.obs.test_trace_export
    import write_golden; write_golden()"``)."""
    return _traced_run().tracer.to_chrome(MemoryConfig().frequency_hz)


def write_golden():
    GOLDEN.write_text(json.dumps(golden_trace(), indent=1) + "\n")
    return GOLDEN


# ---------------------------------------------------------------------------
# Recorder primitives
# ---------------------------------------------------------------------------


def test_recorder_event_shapes():
    rec = TraceRecorder()
    rec.process_name(0, "channel 0")
    rec.thread_name(0, TID_AXI_READ, "axi-read")
    rec.complete("read pu0", 10, 40, pid=0, tid=TID_AXI_READ,
                 args={"bytes": 128})
    rec.instant("marker", 12, pid=0, tid=TID_AXI_WRITE)
    assert len(rec) == 2  # metadata not counted as events

    trace = rec.to_chrome()
    events = trace["traceEvents"]
    # Metadata first, then data events sorted by timestamp.
    assert [e["ph"] for e in events] == ["M", "M", "X", "i"]
    span = events[2]
    assert span["ts"] == 10 and span["dur"] == 30
    assert trace["otherData"]["timestamp_unit"] == "cycles"


def test_cycle_to_microsecond_conversion():
    rec = TraceRecorder()
    rec.complete("span", 125, 250)
    trace = rec.to_chrome(frequency_hz=125_000_000)
    span = next(e for e in trace["traceEvents"] if e["ph"] == "X")
    # 125 cycles at 125 MHz is exactly one microsecond.
    assert span["ts"] == 1.0
    assert span["dur"] == 1.0
    assert trace["otherData"]["timestamp_unit"] == "us"


def test_write_trace_requires_tracing_enabled():
    import pytest

    with pytest.raises(ValueError):
        Observation().write_trace("/tmp/never-written.json")


# ---------------------------------------------------------------------------
# Exported simulation traces
# ---------------------------------------------------------------------------


def test_simulation_trace_is_schema_valid():
    obs = _traced_run()
    trace = _validate_trace(obs.tracer.to_chrome(obs.frequency_hz))
    events = trace["traceEvents"]
    # Track metadata names the channel process and its threads.
    meta = [e for e in events if e["ph"] == "M"]
    names = {(e["name"], e["args"]["name"]) for e in meta}
    assert ("process_name", "channel 0") in names
    assert ("thread_name", "axi-read") in names
    assert ("thread_name", "axi-write") in names
    assert ("thread_name", "pu 0") in names
    # Read spans ride the AXI-read thread, drains the PU threads, write
    # bursts the AXI-write thread.
    tids = {e["tid"] for e in events if e["ph"] == "X"}
    assert TID_AXI_READ in tids
    assert TID_AXI_WRITE in tids
    assert any(tid >= TID_PU_BASE for tid in tids)


def test_trace_timestamps_monotonic_and_json_serializable():
    obs = _traced_run()
    trace = obs.tracer.to_chrome(obs.frequency_hz)
    timed = [e["ts"] for e in trace["traceEvents"] if e["ph"] != "M"]
    assert timed == sorted(timed)
    json.loads(json.dumps(trace))  # round-trips as plain JSON


def test_trace_engine_independent():
    fast = _traced_run()
    with stepping():
        slow = _traced_run()
    assert fast.tracer.to_chrome(fast.frequency_hz) == \
        slow.tracer.to_chrome(slow.frequency_hz)


def test_write_trace_file(tmp_path):
    obs = _traced_run(pus=2, fixed_cycles=600)
    path = tmp_path / "trace.json"
    obs.write_trace(path)
    _validate_trace(json.loads(path.read_text()))


def test_golden_trace_smoke():
    """The committed golden file matches a fresh deterministic run —
    catches accidental changes to event naming, track layout, or the
    timestamp conversion. Regenerate via ``write_golden()`` when the
    trace format changes intentionally."""
    assert GOLDEN.exists(), "golden trace file missing"
    golden = json.loads(GOLDEN.read_text())
    _validate_trace(golden)
    assert golden == golden_trace()
