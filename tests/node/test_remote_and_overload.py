"""Tests for remote frames and overload-frame signalling."""

import pytest

from repro.bus.events import (
    ErrorDetected,
    FrameReceived,
    FrameTransmitted,
    OverloadSignalled,
)
from repro.bus.simulator import CanBusSimulator
from repro.can.constants import DOMINANT
from repro.can.frame import CanFrame
from repro.errors import FrameError
from repro.faults import FaultInjectingWire, burst_fault
from repro.node.controller import CanNode, ControllerState
from repro.obs.probe import BusProbe


def burst_wire(bursts):
    """A wire forcing levels over (start, length, level) windows."""
    return FaultInjectingWire(
        [burst_fault(start, length, level, name=f"burst_{index}")
         for index, (start, length, level) in enumerate(bursts)])


class TestRemoteFrameModel:
    def test_remote_frame_validates(self):
        frame = CanFrame(0x123, remote=True, remote_dlc=4)
        assert frame.dlc == 4
        assert frame.remote

    def test_remote_with_data_rejected(self):
        with pytest.raises(FrameError, match="no data"):
            CanFrame(0x123, b"\x01", remote=True)

    def test_remote_dlc_range(self):
        with pytest.raises(FrameError):
            CanFrame(0x123, remote=True, remote_dlc=9)

    def test_remote_dlc_only_for_remote(self):
        with pytest.raises(FrameError):
            CanFrame(0x123, remote_dlc=4)

    def test_str_marks_rtr(self):
        assert "RTR" in str(CanFrame(0x123, remote=True, remote_dlc=2))


class TestRemoteOnTheWire:
    @pytest.mark.parametrize("extended", [False, True])
    def test_remote_roundtrip(self, extended):
        sim = CanBusSimulator()
        a, b = CanNode("a"), CanNode("b")
        sim.add_node(a), sim.add_node(b)
        frame = CanFrame(0x321 if not extended else 0x18DAF110,
                         remote=True, remote_dlc=8, extended=extended)
        a.send(frame)
        sim.advance(400)
        rx = sim.events_of(FrameReceived)
        assert len(rx) == 1
        assert rx[0].frame == frame
        assert rx[0].frame.remote

    def test_data_frame_beats_remote_frame_same_id(self):
        """A dominant RTR wins arbitration against the remote request."""
        sim = CanBusSimulator()
        x, y = CanNode("x"), CanNode("y")
        sim.add_node(x), sim.add_node(y)
        x.send(CanFrame(0x123, remote=True, remote_dlc=2))
        y.send(CanFrame(0x123, b"\xAA\xBB"))
        sim.advance(600)
        tx = sim.events_of(FrameTransmitted)
        assert [e.frame.remote for e in tx] == [False, True]
        assert x.tec == 0 and y.tec == 0

    def test_remote_request_response_pattern(self):
        """Classic RTR usage: a node answers a remote request with data."""
        sim = CanBusSimulator()
        requester = sim.add_node(CanNode("requester"))
        producer = sim.add_node(CanNode("producer"))

        def answer(time, frame):
            if frame.remote and frame.can_id == 0x321:
                producer.send(CanFrame(0x321, b"\x42" * frame.dlc), time)

        producer.on_frame_received(answer)
        requester.send(CanFrame(0x321, remote=True, remote_dlc=2))
        sim.advance(800)
        received = [e for e in sim.events_of(FrameReceived)
                    if e.node == "requester"]
        assert received
        assert received[0].frame.data == b"\x42\x42"


class TestOverloadFrames:
    def test_dominant_in_early_intermission_triggers_overload(self):
        """A disturbance during the first intermission bits yields an
        overload flag, not a garbage SOF or an error — and the error
        counters stay untouched."""
        sim = CanBusSimulator()
        a, b = CanNode("a"), CanNode("b")
        sim.add_node(a), sim.add_node(b)
        a.send(CanFrame(0x123, b"\x01"))
        # Find the frame end, then burst one dominant bit into intermission.
        sim.advance(80)
        tx_time = sim.events_of(FrameTransmitted)[0].time
        # Rebuild with a burst at intermission bit 1.
        sim2 = CanBusSimulator()
        sim2.wire = burst_wire([(tx_time + 1, 1, DOMINANT)])
        a2, b2 = CanNode("a"), CanNode("b")
        sim2.add_node(a2), sim2.add_node(b2)
        a2.send(CanFrame(0x123, b"\x01"))
        a2.send(CanFrame(0x222, b"\x02"))
        probe = BusProbe(sim2)
        sim2.advance(400)
        # Both frames still complete; no error counters were touched.
        tx = sim2.events_of(FrameTransmitted)
        assert [e.frame.can_id for e in tx] == [0x123, 0x222]
        assert a2.tec == 0 and b2.rec == 0
        # The second frame was delayed by the overload frame (~14+ bits).
        assert tx[1].started_at - tx[0].time >= 14
        # Each controller signals one overload frame at the disturbed bit,
        # and the probe's overload counter sees both.
        overloads = sim2.events_of(OverloadSignalled)
        assert sorted((e.node, e.time, e.consecutive) for e in overloads) \
            == [("a", tx_time + 1, 1), ("b", tx_time + 1, 1)]
        assert probe.summary().totals()["overloads"] == 2

    def test_overload_flag_state_entered(self):
        sim = CanBusSimulator()
        sim.wire = burst_wire([(56, 1, DOMINANT)])
        a, b = CanNode("a"), CanNode("b")
        sim.add_node(a), sim.add_node(b)
        a.send(CanFrame(0x123, b"\x01"))
        states = set()
        original_step = sim.step

        def traced_step():
            level = original_step()
            states.add(a.state)
            states.add(b.state)
            return level

        sim.step = traced_step  # type: ignore[method-assign]
        sim.advance(200)
        assert ControllerState.OVERLOAD_FLAG in states

    def test_third_intermission_bit_is_sof(self):
        """Back-to-back traffic starts at the third intermission bit without
        any overload signalling."""
        sim = CanBusSimulator()
        a, b = CanNode("a"), CanNode("b")
        sim.add_node(a), sim.add_node(b)
        a.send(CanFrame(0x123, b"\x01"))
        a.send(CanFrame(0x124, b"\x02"))
        sim.advance(400)
        tx = sim.events_of(FrameTransmitted)
        assert len(tx) == 2
        assert not sim.events_of(ErrorDetected)
        # Exactly 3 intermission bits between EOF end and the next SOF.
        gap = tx[1].started_at - tx[0].time
        assert gap == 4  # EOF ends at tx[0].time; IFS 3 bits; SOF next

    def test_at_most_two_consecutive_overloads(self):
        sim = CanBusSimulator()
        # Three bursts, each hitting the next overload frame's intermission.
        sim.wire = burst_wire([(56, 1, DOMINANT), (71, 1, DOMINANT),
                               (86, 1, DOMINANT), (101, 1, DOMINANT)])
        a, b = CanNode("a"), CanNode("b")
        sim.add_node(a), sim.add_node(b)
        a.send(CanFrame(0x123, b"\x01"))
        sim.advance(600)
        # The bus must make progress regardless (no livelock): traffic done,
        # nodes back to idle.
        assert a.state in (ControllerState.IDLE,)
        assert sim.events_of(FrameTransmitted)
