"""System-level property tests: randomized topologies, traffic and faults.

These are the repository's chaos suite: hypothesis drives random bus
configurations through the full stack and asserts the invariants from
DESIGN.md §6 — delivery, priority order, fault-confinement consistency, and
agreement between the live event stream and the offline wire decode.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bus.events import (
    BusOffEntered,
    ErrorDetected,
    FrameReceived,
    FrameTransmitted,
)
from repro.bus.simulator import CanBusSimulator
from repro.can.frame import CanFrame
from repro.core.defense import MichiCanNode
from repro.faults import FaultInjectingWire, flip_fault
from repro.node.controller import CanNode, ControllerState
from repro.node.scheduler import PeriodicMessage, PeriodicScheduler
from repro.trace.decoder import decoded_frames

frame_strategy = st.builds(
    CanFrame,
    st.integers(min_value=0, max_value=0x7FF),
    st.binary(min_size=0, max_size=8),
)

workload_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=0x7FF),  # can_id
        st.integers(min_value=300, max_value=2_000),  # period_bits
        st.integers(min_value=0, max_value=8),        # dlc
    ),
    min_size=1, max_size=6,
    unique_by=lambda t: t[0],
)


class TestCleanBusInvariants:
    @settings(max_examples=20, deadline=None)
    @given(workload_strategy)
    def test_periodic_traffic_all_delivered_in_order(self, workload):
        """Every scheduled frame is delivered, never corrupted, and
        completions at each instant follow priority order."""
        sim = CanBusSimulator()
        for index, (can_id, period, dlc) in enumerate(workload):
            sim.add_node(CanNode(f"ecu{index}", scheduler=PeriodicScheduler(
                [PeriodicMessage(can_id, period_bits=period,
                                 payload_fn=lambda n, d=dlc: bytes(d),
                                 limit=3)])))
        sim.add_node(CanNode("listener"))
        sim.advance(3 * 2_000 + 2_000)
        tx = sim.events_of(FrameTransmitted)
        assert len(tx) == 3 * len(workload)
        assert not sim.events_of(ErrorDetected)
        assert all(node.tec == 0 and node.rec == 0 for node in sim.nodes)

    @settings(max_examples=20, deadline=None)
    @given(workload_strategy)
    def test_wire_decode_equals_event_stream(self, workload):
        """The offline decoder and the live event stream must always agree
        (independent implementations of the same grammar)."""
        sim = CanBusSimulator()
        for index, (can_id, period, dlc) in enumerate(workload):
            sim.add_node(CanNode(f"ecu{index}", scheduler=PeriodicScheduler(
                [PeriodicMessage(can_id, period_bits=period,
                                 payload_fn=lambda n, d=dlc: bytes(d),
                                 limit=2)])))
        sim.add_node(CanNode("listener"))
        sim.advance(8_000)
        assert decoded_frames(sim.wire.history) == [
            e.frame for e in sim.events_of(FrameTransmitted)
        ]

    @settings(max_examples=15, deadline=None)
    @given(st.lists(frame_strategy, min_size=2, max_size=6,
                    unique_by=lambda f: f.can_id))
    def test_simultaneous_start_priority_order(self, frames):
        sim = CanBusSimulator()
        for index, frame in enumerate(frames):
            node = sim.add_node(CanNode(f"n{index}"))
            node.send(frame)
        sim.advance(400 * len(frames))
        tx_ids = [e.frame.can_id for e in sim.events_of(FrameTransmitted)]
        assert tx_ids == sorted(f.can_id for f in frames)

    @settings(max_examples=15, deadline=None)
    @given(st.lists(frame_strategy, min_size=1, max_size=5,
                    unique_by=lambda f: f.can_id))
    def test_every_receiver_sees_every_frame(self, frames):
        sim = CanBusSimulator()
        sender = sim.add_node(CanNode("sender"))
        listeners = [sim.add_node(CanNode(f"l{i}")) for i in range(2)]
        for frame in frames:
            sender.send(frame)
        sim.advance(400 * len(frames))
        for listener in listeners:
            seen = [e.frame for e in sim.events_of(FrameReceived)
                    if e.node == listener.name]
            assert sorted(f.can_id for f in seen) == \
                sorted(f.can_id for f in frames)


class TestDefendedBusInvariants:
    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=0, max_value=0xFF),
           st.integers(min_value=0, max_value=8))
    def test_any_dos_id_eradicated_in_32_attempts(self, attack_id, dlc):
        """For every in-range attack ID and payload size: exactly 32
        attempts, defender TEC untouched, bus idle afterwards."""
        sim = CanBusSimulator()
        defender = sim.add_node(MichiCanNode("defender", range(0x100)))
        attacker = sim.add_node(CanNode("attacker"))
        attacker.send(CanFrame(attack_id, bytes(dlc)))
        hit = sim.advance_until(
            lambda s: attacker.is_bus_off, 10_000, policy="off")
        assert hit is not None
        boff = sim.events_of(BusOffEntered)[0]
        attempts = [e for e in sim.events
                    if type(e).__name__ == "FrameStarted"
                    and e.node == "attacker" and e.time <= boff.time]
        assert len(attempts) == 32
        assert defender.tec == 0

    @settings(max_examples=8, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_noise_never_bus_offs_legitimate_nodes(self, seed):
        """Across random noise seeds at a sporadic flip rate, no legitimate
        node is ever confined — the Sec. IV-E robustness property."""
        sim = CanBusSimulator(bus_speed=500_000)
        sim.wire = FaultInjectingWire([flip_fault(2e-4, seed=seed)])
        sim.add_node(MichiCanNode("defender", range(0x100)))
        sim.add_node(CanNode("sender", scheduler=PeriodicScheduler(
            [PeriodicMessage(0x123, period_bits=500)])))
        sim.add_node(CanNode("receiver"))
        sim.advance(40_000)
        assert not sim.events_of(BusOffEntered)

    def test_long_mixed_run_reaches_quiescence(self):
        """A long adversarial run ends with the attacker confined (or in
        recovery) and every legitimate node in a live state."""
        sim = CanBusSimulator(bus_speed=50_000)
        sim.add_node(MichiCanNode("defender", range(0x100),
                                  scheduler=PeriodicScheduler(
            [PeriodicMessage(0x173, period_bits=9_000)])))
        sim.add_node(CanNode("benign", scheduler=PeriodicScheduler(
            [PeriodicMessage(0x300, period_bits=2_000)])))
        attacker = sim.add_node(CanNode("attacker", auto_recover=False))
        attacker.send(CanFrame(0x010, bytes(8)))
        sim.advance(60_000)
        assert attacker.is_bus_off
        live_states = {
            ControllerState.IDLE, ControllerState.RECEIVING,
            ControllerState.TRANSMITTING, ControllerState.INTERMISSION,
        }
        for node in sim.nodes:
            if node.name != "attacker":
                assert node.state in live_states
        benign_tx = [e for e in sim.events_of(FrameTransmitted)
                     if e.node == "benign"]
        assert len(benign_tx) >= 25
