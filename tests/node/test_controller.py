"""Integration tests for the CAN controller state machine on a live bus."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bus.events import (
    ArbitrationLost,
    BusOffEntered,
    BusOffRecovered,
    ErrorDetected,
    FrameReceived,
    FrameStarted,
    FrameTransmitted,
)
from repro.bus.simulator import CanBusSimulator
from repro.can.constants import DOMINANT, RECESSIVE
from repro.can.errors import CanErrorType
from repro.can.frame import CanFrame
from repro.node.controller import CanNode, ControllerState
from repro.node.scheduler import PeriodicMessage, PeriodicScheduler


def make_bus(*names):
    sim = CanBusSimulator()
    nodes = [sim.add_node(CanNode(n)) for n in names]
    return sim, nodes


class DominantInjector(CanNode):
    """Test helper: pulls the bus dominant over a window of frame positions.

    Tracks raw bit positions from each SOF it observes (the same low-level
    view MichiCAN's pin-multiplexed snooper has).
    """

    def __init__(self, start=13, end=18, name="injector"):
        super().__init__(name)
        self.window = (start, end)
        self.pos = None
        self.idle_run = 11

    def output(self, time):
        if self.pos is not None and self.window[0] <= self.pos <= self.window[1]:
            return DOMINANT
        return RECESSIVE

    def observe(self, time, level):
        if self.pos is None:
            if level == DOMINANT and self.idle_run >= 11:
                self.pos = 0
                self.idle_run = 0
            elif level == RECESSIVE:
                self.idle_run += 1
            else:
                self.idle_run = 0
        else:
            self.pos += 1
            if self.pos > self.window[1] + 1:
                self.pos = None
                self.idle_run = 0


class TestBasicTransfer:
    def test_point_to_point(self):
        sim, (a, b) = make_bus("a", "b")
        a.send(CanFrame(0x123, b"\xDE\xAD"))
        sim.advance(300)
        rx = sim.events_of(FrameReceived)
        assert [e.node for e in rx] == ["b"]
        assert rx[0].frame == CanFrame(0x123, b"\xDE\xAD")

    def test_broadcast_to_all_receivers(self):
        sim, nodes = make_bus("a", "b", "c", "d")
        nodes[0].send(CanFrame(0x050, b"\x01"))
        sim.advance(300)
        receivers = sorted(e.node for e in sim.events_of(FrameReceived))
        assert receivers == ["b", "c", "d"]

    def test_rx_callback_invoked(self):
        sim, (a, b) = make_bus("a", "b")
        got = []
        b.on_frame_received(lambda t, f: got.append((t, f)))
        a.send(CanFrame(0x111, b"\x42"))
        sim.advance(300)
        assert len(got) == 1
        assert got[0][1].data == b"\x42"

    def test_successful_tx_decrements_tec(self):
        sim, (a, b) = make_bus("a", "b")
        a.faults.tec = 10
        a.send(CanFrame(0x123))
        sim.advance(300)
        assert a.tec == 9

    def test_back_to_back_frames_respect_ifs(self):
        sim, (a, b) = make_bus("a", "b")
        a.send(CanFrame(0x100, b"\x01"))
        a.send(CanFrame(0x100, b"\x02"))
        sim.advance(600)
        tx = sim.events_of(FrameTransmitted)
        assert len(tx) == 2
        starts = [e.time for e in sim.events_of(FrameStarted)]
        # Second start must come at least EOF-end + 3 intermission bits later.
        assert starts[1] - tx[0].time >= 3

    @settings(max_examples=25, deadline=None)
    @given(st.builds(CanFrame,
                     st.integers(min_value=0, max_value=0x7FF),
                     st.binary(min_size=0, max_size=8)))
    def test_any_frame_roundtrips_over_the_wire(self, frame):
        sim, (a, b) = make_bus("a", "b")
        received = []
        b.on_frame_received(lambda t, f: received.append(f))
        a.send(frame)
        sim.advance(300)
        assert received == [frame]


class TestArbitration:
    def test_lowest_id_wins_simultaneous_start(self):
        sim, (x, y) = make_bus("x", "y")
        x.send(CanFrame(0x2AA, b"\x01"))
        y.send(CanFrame(0x0AA, b"\x02"))
        sim.advance(700)
        tx = sim.events_of(FrameTransmitted)
        assert [e.frame.can_id for e in tx] == [0x0AA, 0x2AA]

    def test_loser_retries_and_delivers(self):
        sim, (x, y, z) = make_bus("x", "y", "z")
        x.send(CanFrame(0x300))
        y.send(CanFrame(0x200))
        z.send(CanFrame(0x100))
        sim.advance(1200)
        tx_ids = [e.frame.can_id for e in sim.events_of(FrameTransmitted)]
        assert tx_ids == [0x100, 0x200, 0x300]

    def test_no_error_counted_during_arbitration(self):
        """Invariant: arbitration itself never touches TEC/REC."""
        sim, (x, y) = make_bus("x", "y")
        x.send(CanFrame(0x7F0))
        y.send(CanFrame(0x010))
        sim.advance(800)
        assert x.tec == 0 and y.tec == 0
        assert not sim.events_of(ErrorDetected)

    def test_loser_receives_winner_frame(self):
        sim, (x, y) = make_bus("x", "y")
        x.send(CanFrame(0x700, b"\x07"))
        y.send(CanFrame(0x007, b"\x70"))
        sim.advance(800)
        rx_by_x = [e for e in sim.events_of(FrameReceived) if e.node == "x"]
        assert rx_by_x and rx_by_x[0].frame.can_id == 0x007

    def test_arbitration_lost_event_position(self):
        sim, (x, y) = make_bus("x", "y")
        # 0x400 vs 0x000: first ID bit differs -> loss at unstuffed index 1.
        x.send(CanFrame(0x400))
        y.send(CanFrame(0x000))
        sim.advance(800)
        lost = sim.events_of(ArbitrationLost)
        assert lost and lost[0].node == "x"
        assert lost[0].bit_position == 1

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=0x7FF),
                    min_size=2, max_size=5, unique=True))
    def test_delivery_order_is_priority_order(self, ids):
        sim = CanBusSimulator()
        nodes = [sim.add_node(CanNode(f"n{i}")) for i in range(len(ids))]
        for node, can_id in zip(nodes, ids):
            node.send(CanFrame(can_id))
        sim.advance(400 * len(ids))
        tx_ids = [e.frame.can_id for e in sim.events_of(FrameTransmitted)]
        assert tx_ids == sorted(ids)


class TestAckHandling:
    def test_lonely_transmitter_gets_ack_error(self):
        sim = CanBusSimulator()
        a = sim.add_node(CanNode("a"))
        a.send(CanFrame(0x123))
        sim.advance(200)
        errors = sim.events_of(ErrorDetected)
        assert errors
        assert errors[0].error.error_type is CanErrorType.ACK

    def test_lonely_error_passive_transmitter_does_not_bus_off(self):
        """ISO exception: error-passive ACK errors don't raise TEC, so a
        lonely node never reaches bus-off (it would deadlock real cars)."""
        sim = CanBusSimulator()
        a = sim.add_node(CanNode("a"))
        a.send(CanFrame(0x123))
        sim.advance(30_000)
        assert not a.is_bus_off
        assert a.tec <= 128

    def test_ack_error_retransmits_until_listener_appears(self):
        sim = CanBusSimulator()
        a = sim.add_node(CanNode("a"))
        a.send(CanFrame(0x123))
        sim.advance(400)
        assert not sim.events_of(FrameTransmitted)
        assert a.queue.has_pending


class TestErrorSignalling:
    def test_injected_dominants_destroy_frame(self):
        sim, (atk, obs) = make_bus("atk", "obs")
        sim.add_node(DominantInjector())
        atk.send(CanFrame(0x173, bytes(8)))
        sim.advance(120)
        kinds = {e.error.error_type for e in sim.events_of(ErrorDetected)}
        assert CanErrorType.BIT in kinds       # transmitter view
        assert CanErrorType.STUFF in kinds     # receiver view

    def test_transmitter_tec_plus_8_per_destroyed_frame(self):
        sim, (atk, obs) = make_bus("atk", "obs")
        sim.add_node(DominantInjector())
        atk.send(CanFrame(0x173, bytes(8)))
        # Run until exactly 3 attempts have started.
        sim.advance_until(
            lambda s: len(s.events_of(FrameStarted)) >= 4, 10_000, policy="off")
        assert atk.tec == 24  # 3 destroyed attempts

    def test_receiver_rec_increments(self):
        sim, (atk, obs) = make_bus("atk", "obs")
        sim.add_node(DominantInjector())
        atk.send(CanFrame(0x173, bytes(8)))
        sim.advance_until(
            lambda s: len(s.events_of(FrameStarted)) >= 4, 10_000, policy="off")
        assert obs.rec >= 3

    def test_active_retransmission_spacing_35_bits(self):
        """Worst-case t_a from the paper: 35 bits between attempt starts
        (DLC=8 attacker, receiver error flags included)."""
        sim, (atk, obs) = make_bus("atk", "obs")
        sim.add_node(DominantInjector())
        atk.send(CanFrame(0x173, bytes(8)))
        sim.advance(400)
        starts = [e.time for e in sim.events_of(FrameStarted)]
        assert len(starts) >= 3
        gaps = {b - a for a, b in zip(starts, starts[1:])}
        assert gaps == {35}

    def test_bus_off_after_32_attempts(self):
        sim, (atk, obs) = make_bus("atk", "obs")
        sim.add_node(DominantInjector())
        atk.send(CanFrame(0x173, bytes(8)))
        sim.advance_until(lambda s: atk.is_bus_off, 5_000, policy="off")
        assert atk.is_bus_off
        starts = sim.events_of(FrameStarted)
        boff = sim.events_of(BusOffEntered)[0]
        attempts_before = [e for e in starts if e.time <= boff.time]
        assert len(attempts_before) == 32

    def test_bus_off_time_matches_paper_band(self):
        """Theoretical worst case is 1248 bits; the simulator must land in
        the paper's empirical band (~1200-1260 bits at this granularity)."""
        sim, (atk, obs) = make_bus("atk", "obs")
        sim.add_node(DominantInjector())
        atk.send(CanFrame(0x173, bytes(8)))
        sim.advance_until(lambda s: atk.is_bus_off, 5_000, policy="off")
        start = sim.events_of(FrameStarted)[0].time
        boff = sim.events_of(BusOffEntered)[0].time
        busoff_bits = boff + 14 - start  # + final passive error frame
        assert 1150 <= busoff_bits <= 1300


class TestBusOffRecovery:
    def test_recovery_after_128x11_recessive(self):
        sim, (atk, obs) = make_bus("atk", "obs")
        injector = DominantInjector()
        sim.add_node(injector)
        atk.send(CanFrame(0x173, bytes(8)))
        sim.advance_until(lambda s: atk.is_bus_off, 5_000, policy="off")
        boff_time = sim.events_of(BusOffEntered)[0].time
        # Silence the injector so the bus goes idle.
        injector.window = (-1, -2)
        sim.advance_until(
            lambda s: bool(s.events_of(BusOffRecovered)), 3_000, policy="off")
        rec = sim.events_of(BusOffRecovered)
        assert rec, "node must recover"
        assert rec[0].time - boff_time >= 128 * 11
        assert atk.tec == 0

    def test_no_auto_recover_option(self):
        sim, (obs,) = make_bus("obs")
        atk = sim.add_node(CanNode("atk", auto_recover=False))
        sim.add_node(DominantInjector())
        atk.send(CanFrame(0x173, bytes(8)))
        sim.advance(8_000)
        assert atk.is_bus_off
        assert not sim.events_of(BusOffRecovered)


class TestSuspendTransmission:
    def test_error_passive_transmitter_suspends(self):
        """Retransmission spacing grows by the 8-bit suspend period once the
        transmitter is error-passive (paper: t_p = t_a + 8)."""
        sim, (atk, obs) = make_bus("atk", "obs")
        sim.add_node(DominantInjector())
        atk.send(CanFrame(0x173, bytes(8)))
        sim.advance_until(lambda s: atk.is_bus_off, 5_000, policy="off")
        starts = [e.time for e in sim.events_of(FrameStarted)]
        gaps = [b - a for a, b in zip(starts, starts[1:])]
        active_gaps = gaps[:14]
        passive_gaps = gaps[17:31]
        assert all(g == 35 for g in active_gaps)
        assert all(g == 43 for g in passive_gaps)


class TestPeriodicTraffic:
    def test_scheduler_driven_node(self):
        sched = PeriodicScheduler([PeriodicMessage(0x123, period_bits=400)])
        sim = CanBusSimulator()
        sim.add_node(CanNode("ecu", scheduler=sched))
        sim.add_node(CanNode("peer"))
        sim.advance(2_000)
        tx = sim.events_of(FrameTransmitted)
        assert len(tx) == 5

    def test_two_periodic_nodes_share_bus(self):
        sim = CanBusSimulator()
        sim.add_node(CanNode("e1", scheduler=PeriodicScheduler(
            [PeriodicMessage(0x100, period_bits=300)])))
        sim.add_node(CanNode("e2", scheduler=PeriodicScheduler(
            [PeriodicMessage(0x200, period_bits=300)])))
        sim.advance(3_000)
        tx = sim.events_of(FrameTransmitted)
        ids = {e.frame.can_id for e in tx}
        assert ids == {0x100, 0x200}
        assert len(tx) == 20
        assert all(n.tec == 0 for n in sim.nodes)
