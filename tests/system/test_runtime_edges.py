"""Runtime edge cases: empty and single-token streams, stream counts
that don't divide the channel count, odd output token widths, and the
split/pack helpers' boundary behavior."""

import pytest

from repro.interp import make_simulator
from repro.lang import UnitBuilder
from repro.lang.errors import FleetSimulationError
from repro.system import (
    FleetRuntime,
    pack_streams,
    run_full_system,
    split_arbitrary,
    split_on_newlines,
)


def _flush_sum_unit():
    """Sums a byte stream, emits one 12-bit total on end-of-stream —
    exercises the cleanup cycle and a non-byte output width."""
    b = UnitBuilder("flush_sum", input_width=8, output_width=12)
    acc = b.reg("acc", width=12)
    with b.when(b.stream_finished):
        b.emit(acc)
    with b.otherwise():
        acc.set((acc + b.input).bits(11, 0))
    return b.finish()


def _echo_unit():
    b = UnitBuilder("echo", input_width=8, output_width=8)
    with b.when(b.stream_finished.logical_not()):
        b.emit(b.input)
    return b.finish()


def _expected(unit, streams):
    return [make_simulator(unit).run(list(s)) for s in streams]


def test_no_streams_rejected():
    unit = _echo_unit()
    with pytest.raises(FleetSimulationError):
        FleetRuntime(unit).run([])
    with pytest.raises(FleetSimulationError):
        run_full_system(unit, [])


def test_empty_stream_still_runs_cleanup_cycle():
    """A zero-byte stream has no bursts but its stream_finished virtual
    cycle still runs; flush-on-finish units must emit through the full
    system exactly as they do in the functional simulator."""
    unit = _flush_sum_unit()
    streams = [b"", b"abc", b""]
    result = run_full_system(unit, streams)
    assert result.outputs == _expected(unit, streams) == [[0], [294], [0]]


def test_single_token_streams():
    unit = _flush_sum_unit()
    streams = [b"\x01", b"\xff", b"\x00"]
    result = run_full_system(unit, streams)
    assert result.outputs == _expected(unit, streams)


def test_stream_count_not_divisible_by_channels():
    unit = _echo_unit()
    streams = [bytes([i] * (i + 1)) for i in range(5)]
    want = _expected(unit, streams)
    for channels in (2, 3, 4):
        result = run_full_system(unit, streams, channels=channels)
        # Round-robin over channels, reassembled in stream order.
        assert result.outputs == want, f"channels={channels}"


def test_more_channels_than_streams():
    unit = _echo_unit()
    streams = [b"ab", b"cd"]
    result = run_full_system(unit, streams, channels=5)
    assert result.outputs == _expected(unit, streams)


def test_odd_output_width_packs_to_whole_bytes():
    """12-bit tokens travel as 2 little-endian bytes through the output
    region; decoding the raw bytes must reproduce the token stream."""
    unit = _flush_sum_unit()
    streams = [b"abc", b"", b"\xff\xff\xff"]
    result = run_full_system(unit, streams)
    for tokens, raw in zip(result.outputs, result.output_bytes):
        assert len(raw) == 2 * len(tokens)
        decoded = [
            int.from_bytes(raw[i:i + 2], "little")
            for i in range(0, len(raw), 2)
        ]
        assert decoded == tokens


def test_event_driven_and_stepped_agree_on_edge_streams():
    unit = _flush_sum_unit()
    streams = [b"", b"x", b"hello world"]
    fast = run_full_system(unit, streams, event_driven=True)
    slow = run_full_system(unit, streams, event_driven=False)
    assert fast.outputs == slow.outputs
    assert fast.cycles == slow.cycles


def test_split_on_newlines_edges():
    assert split_on_newlines(b"", 4) == [b""]
    # No newline anywhere: nothing to cut at, one stream.
    assert split_on_newlines(b"abcdef", 3) == [b"abcdef"]
    # Fewer records than streams: every record preserved, no empties.
    data = b"a\nb\n"
    streams = split_on_newlines(data, 8)
    assert b"".join(streams) == data
    assert all(streams)
    # Every split preserves content in order.
    data = b"one\ntwo\nthree\nfour\nfive\n"
    for n in (1, 2, 3, 5, 9):
        assert b"".join(split_on_newlines(data, n)) == data


def test_split_arbitrary_edges():
    assert split_arbitrary(b"", 3) == [b""]
    data = bytes(range(100))
    for n in (1, 3, 7, 100, 101):
        streams = split_arbitrary(data, n)
        assert b"".join(streams) == data
    # Overlap duplicates the seam bytes into the previous stream.
    streams = split_arbitrary(data, 4, overlap=2)
    size = 25
    for i, stream in enumerate(streams[:-1]):
        assert stream == data[i * size:(i + 1) * size + 2]


def test_pack_streams_edges():
    buffer, offsets, lengths = pack_streams([])
    assert (buffer, offsets, lengths) == (b"", [], [])
    buffer, offsets, lengths = pack_streams([b"", b"ab", b""],
                                            alignment=16)
    assert lengths == [0, 2, 0]
    assert all(offset % 16 == 0 for offset in offsets)
    assert buffer[offsets[1]:offsets[1] + 2] == b"ab"
