"""Tests for candump log parsing, writing, replay and export."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bus.simulator import CanBusSimulator
from repro.bus.events import FrameReceived, FrameTransmitted
from repro.can.frame import CanFrame
from repro.errors import FrameError
from repro.node.controller import CanNode
from repro.workloads.trace_io import (
    LogRecord,
    LogReplayNode,
    export_simulation,
    format_candump_line,
    parse_candump,
    parse_candump_line,
    write_candump,
)

SAMPLE = """\
# comment line
(1436509052.249713) can0 123#DEADBEEF
(1436509052.449847) can0 18DAF110#021001
(1436509052.650001) can0 5D1#R2
(1436509052.850123) can1 0AA#
"""


class TestParsing:
    def test_basic_frame(self):
        record = parse_candump_line("(1.5) can0 123#DEADBEEF")
        assert record.timestamp == 1.5
        assert record.channel == "can0"
        assert record.frame == CanFrame(0x123, b"\xDE\xAD\xBE\xEF")

    def test_extended_frame_by_id_width(self):
        record = parse_candump_line("(0.1) can0 18DAF110#01")
        assert record.frame.extended
        assert record.frame.can_id == 0x18DAF110

    def test_remote_frame(self):
        record = parse_candump_line("(0.1) can0 5D1#R2")
        assert record.frame.remote
        assert record.frame.dlc == 2

    def test_remote_frame_without_dlc(self):
        record = parse_candump_line("(0.1) can0 5D1#R")
        assert record.frame.remote and record.frame.dlc == 0

    def test_empty_payload(self):
        record = parse_candump_line("(0.1) can0 0AA#")
        assert record.frame.data == b""

    def test_comments_and_blanks_skipped(self):
        records = parse_candump(SAMPLE)
        assert len(records) == 4

    def test_malformed_line(self):
        with pytest.raises(FrameError, match="malformed"):
            parse_candump_line("not a log line")

    def test_odd_payload(self):
        with pytest.raises(FrameError, match="odd-length"):
            parse_candump_line("(0.1) can0 123#ABC")


class TestRoundTrip:
    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.builds(
        CanFrame,
        st.integers(min_value=0, max_value=0x7FF),
        st.binary(min_size=0, max_size=8),
    ), min_size=1, max_size=10))
    def test_write_parse_roundtrip(self, frames):
        records = [LogRecord(i * 0.01, "can0", f) for i, f in enumerate(frames)]
        again = parse_candump(write_candump(records))
        assert [r.frame for r in again] == frames

    def test_extended_and_remote_roundtrip(self):
        records = parse_candump(SAMPLE)
        again = parse_candump(write_candump(records))
        assert [r.frame for r in again] == [r.frame for r in records]

    def test_format_width_conventions(self):
        std = format_candump_line(LogRecord(0.0, "can0", CanFrame(0x12)))
        ext = format_candump_line(
            LogRecord(0.0, "can0", CanFrame(0x12, extended=True)))
        assert " 012#" in std
        assert " 00000012#" in ext


class TestReplayAndExport:
    def test_replay_preserves_order_and_content(self):
        records = parse_candump(SAMPLE)
        sim = CanBusSimulator(bus_speed=500_000)
        replay = sim.add_node(LogReplayNode(
            "replay", records, 500_000, time_scale=0.001))
        sim.add_node(CanNode("listener"))
        sim.advance(5_000)
        assert replay.replay_finished
        received = [e.frame for e in sim.events_of(FrameReceived)]
        assert received == [r.frame for r in records]

    def test_replay_spacing_follows_recording(self):
        records = [
            LogRecord(0.0, "can0", CanFrame(0x100, b"\x01")),
            LogRecord(0.01, "can0", CanFrame(0x100, b"\x02")),  # 10 ms later
        ]
        sim = CanBusSimulator(bus_speed=500_000)
        sim.add_node(LogReplayNode("replay", records, 500_000))
        sim.add_node(CanNode("listener"))
        sim.advance(8_000)
        tx = sim.events_of(FrameTransmitted)
        assert len(tx) == 2
        gap = tx[1].started_at - tx[0].started_at
        assert abs(gap - 5_000) <= 130  # 10 ms at 500 kbit/s, +- one frame

    def test_export_simulation_roundtrip(self):
        sim = CanBusSimulator(bus_speed=500_000)
        a = sim.add_node(CanNode("a"))
        sim.add_node(CanNode("b"))
        a.send(CanFrame(0x123, b"\xAB"))
        a.send(CanFrame(0x18DAF110, b"\xCD", extended=True))
        sim.advance(600)
        log = export_simulation(sim.events, 500_000)
        records = parse_candump(log)
        assert [r.frame for r in records] == [
            e.frame for e in sim.events_of(FrameTransmitted)
        ]

    def test_invalid_time_scale(self):
        with pytest.raises(ValueError):
            LogReplayNode("r", [], 500_000, time_scale=0)
