"""The serving runtime's two execution paths, each checked against the
interpreter oracle: a batch runs on the app's batch kernel when it has
one, and stream by stream otherwise (decision_tree, or no kernel)."""

import pytest

from repro.apps import decision_tree_unit, identity_unit
from repro.apps.decision_tree import encode_points
from repro.bench.workloads import make_gbt_model, rng
from repro.interp import make_simulator
from repro.serve import (
    FleetServer,
    ServeConfig,
    ServedApp,
    format_serve_report,
    validate_serve_report,
)


def _streams(lengths, fill=0x41):
    return [bytes([fill + i % 7]) * length
            for i, length in enumerate(lengths)]


def _oracle(program, header, stream):
    """``(outputs, vcycles)`` of one served stream on the interpreter."""
    sim = make_simulator(program, engine="interp")
    outputs = sim.run(list(header) + list(stream))
    return outputs, sim.trace.total_vcycles


#: The default apps' identity unit, and one ragged job of it.
IDENTITY = {"identity": ServedApp("identity", identity_unit)}
JOBS = (("identity", _streams((64, 8, 0, 200, 16))),)


def _run(apps=None, jobs=JOBS):
    server = FleetServer(apps, ServeConfig(
        devices=1, pu_slots=4, window_streams=8,
    ))
    server.start()
    futures = [server.submit(app, streams) for app, streams in jobs]
    server.drain()
    results = [future.result(timeout=60) for future in futures]
    report = validate_serve_report(server.report())
    server.stop()
    return results, report


def _check_against_oracle(apps, jobs, results, report):
    for (app, streams), result, row in zip(jobs, results, report["jobs"]):
        served = apps[app]
        expected = [_oracle(served.unit_factory(), served.header, stream)
                    for stream in streams]
        assert result.outputs == [out for out, _ in expected]
        assert row["device_vcycles"] == sum(vc for _, vc in expected)


def test_simd_path_matches_per_stream_loop():
    # With or without a kernel, the served outputs and vcycles are the
    # interpreter's, stream by stream.
    results, report = _run()
    _check_against_oracle(IDENTITY, JOBS, results, report)


@pytest.mark.needs_kernel
def test_simd_batches_carry_occupancy_stats():
    _, report = _run()
    simd = [b for b in report["batches"] if "batch_engine" in b]
    assert simd, "no batch ran on the SIMD path"
    for row in simd:
        stats = row["batch_engine"]
        assert 0 < stats["lanes"] <= row["streams"]
        assert 0.0 <= stats["waste_fraction"] <= 1.0
    assert "identity" in report["cache"]["batched"]
    assert "batch engine:" in format_serve_report(report)


class _KernelSpy:
    """A kernel library that records, per ``fleet_run`` call, whether it
    was handed trace rows or final-state buffers: ``vca``, ``ema`` or
    ``regs_out``, or a state group larger than one lane."""

    def __init__(self, unit, calls):
        self._lib = unit.cc.lib
        self._null = unit.cc.ffi.NULL
        self._lane_words = [image.size for image in unit.group_init]
        self._calls = calls

    def fleet_run(self, *args):
        states = args[5:5 + 2 * len(self._lane_words):2]
        self._calls.append(
            any(row != self._null for row in args[-4:-1])
            or [len(st) for st in states] != self._lane_words
        )
        return self._lib.fleet_run(*args)


@pytest.mark.needs_kernel
def test_batch_path_reads_lane_totals_not_traces(monkeypatch,
                                                 fresh_artifacts):
    # Serve takes each stream's vcycles from the kernel's per-lane
    # totals. Neither the device path nor calibration (fresh artifacts:
    # it runs here) asks the kernel for traces or final lane state, and
    # the per-token traces are never built.
    from repro.interp import batch_engine_for
    from repro.interp.batch import BatchResult
    from repro.serve import catalog_apps

    def unread(self):
        raise AssertionError("serve read BatchResult.traces")

    monkeypatch.setattr(BatchResult, "traces", property(unread))
    catalog = catalog_apps()
    apps = {**IDENTITY, **{name: catalog[name] for name in (
        "json_parsing", "smith_waterman", "regex")}}
    kept = []
    for app in apps.values():
        unit = batch_engine_for(app.unit_factory())
        monkeypatch.setattr(unit.cc, "lib", _KernelSpy(unit, kept))
    jobs = [
        ("json_parsing", [b'{"name": "ada", "id": 7}', b"", b"{}"]),
        ("identity", _streams((12, 0, 40))),
        ("smith_waterman", [b"ACGTTGCAACGT", b"GATTACA" * 3]),
        ("regex", [b"mail bob@example.com now", b"no address"]),
    ]
    results, report = _run(apps, jobs)
    simd = {b["app"] for b in report["batches"] if "batch_engine" in b}
    assert simd == set(apps)
    _check_against_oracle(apps, jobs, results, report)
    # One calibration call per app, then the served batches.
    assert len(kept) == len(apps) + len(report["batches"])
    assert not any(kept)


def test_batch_engine_off_runs_per_stream(monkeypatch):
    # FLEET_NATIVE=off builds no kernel, so every batch runs per stream.
    monkeypatch.setenv("FLEET_NATIVE", "off")
    jobs = JOBS + (("identity", _streams((3, 30), fill=0x61)),)
    results, report = _run(jobs=jobs)
    assert not any("batch_engine" in b for b in report["batches"])
    assert report["cache"]["batched"] == []
    _check_against_oracle(IDENTITY, jobs, results, report)


def test_kernel_less_app_serves_per_stream_like_the_interpreter():
    # decision_tree's 112-bit state has no 64-bit kernel: its batches run
    # per stream whatever the host can build.
    model = make_gbt_model(rng(2), n_features=8, n_trees=4, depth=3)
    apps = {"decision_tree": ServedApp(
        "decision_tree", decision_tree_unit, header=model.encode_header(),
    )}
    points = rng(3)
    jobs = [
        ("decision_tree", [
            encode_points([[points.randrange(1 << 24) for _ in range(8)]
                           for _ in range(count)])
            for count in counts
        ])
        for counts in ((1, 3), (0, 2, 5, 1, 4), (2,))
    ]
    results, report = _run(apps, jobs)
    assert report["cache"]["engines"]["decision_tree"] != "cc"
    assert not any("batch_engine" in b for b in report["batches"])
    _check_against_oracle(apps, jobs, results, report)
