"""Tests for bus-monitoring (listen-only) mode."""

from repro.bus.events import ErrorDetected, FrameReceived, FrameTransmitted
from repro.bus.simulator import CanBusSimulator
from repro.can.constants import RECESSIVE
from repro.can.errors import CanErrorType
from repro.can.frame import CanFrame
from repro.node.controller import CanNode


class TestListenOnly:
    def test_never_drives_the_bus(self):
        sim = CanBusSimulator()
        tap = sim.add_node(CanNode("tap", listen_only=True))
        sender = sim.add_node(CanNode("sender"))
        receiver = sim.add_node(CanNode("receiver"))
        sender.send(CanFrame(0x123, b"\x01"))
        original_output = tap.output

        levels = []

        def spy(time):
            level = original_output(time)
            levels.append(level)
            return level

        tap.output = spy  # type: ignore[method-assign]
        sim.advance(300)
        assert set(levels) == {RECESSIVE}

    def test_still_receives_frames(self):
        sim = CanBusSimulator()
        tap = sim.add_node(CanNode("tap", listen_only=True))
        sender = sim.add_node(CanNode("sender"))
        sim.add_node(CanNode("receiver"))
        got = []
        tap.on_frame_received(lambda t, f: got.append(f))
        sender.send(CanFrame(0x123, b"\x42"))
        sim.advance(300)
        assert got == [CanFrame(0x123, b"\x42")]

    def test_does_not_ack(self):
        """A lone transmitter + a listen-only tap: nobody acknowledges, the
        frame never completes — the classic gotcha of monitoring taps."""
        sim = CanBusSimulator()
        sim.add_node(CanNode("tap", listen_only=True))
        sender = sim.add_node(CanNode("sender"))
        sender.send(CanFrame(0x123))
        sim.advance(500)
        assert not sim.events_of(FrameTransmitted)
        errors = {e.error.error_type for e in sim.events_of(ErrorDetected)
                  if e.node == "sender"}
        assert CanErrorType.ACK in errors

    def test_pending_tx_never_sent(self):
        sim = CanBusSimulator()
        tap = sim.add_node(CanNode("tap", listen_only=True))
        sim.add_node(CanNode("peer"))
        tap.send(CanFrame(0x111))
        sim.advance(500)
        assert not sim.events_of(FrameTransmitted)
        assert tap.queue.has_pending  # stuck by design

    def test_ids_tap_is_listen_only(self):
        from repro.baselines.ids import FrequencyIds, IdsConfig

        ids = FrequencyIds("ids", IdsConfig(legitimate_ids=frozenset()))
        assert ids.listen_only
