"""Tests for the offline wire decoder — including the cross-validation
property: wire decode must agree with the simulator's event stream."""

import signal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attacks.dos import DosAttacker
from repro.bus.events import FrameTransmitted
from repro.bus.simulator import CanBusSimulator
from repro.can.frame import CanFrame
from repro.core.defense import MichiCanNode
from repro.errors import ConfigurationError
from repro.node.controller import CanNode
from repro.node.scheduler import PeriodicMessage, PeriodicScheduler
from repro.trace.decoder import DecodedKind, decode_wire, decoded_frames

frames_strategy = st.lists(
    st.builds(
        CanFrame,
        st.integers(min_value=0, max_value=0x7FF),
        st.binary(min_size=0, max_size=8),
    ),
    min_size=1, max_size=4,
    unique_by=lambda f: f.can_id,
)


class TestCleanDecoding:
    def test_single_frame(self):
        sim = CanBusSimulator()
        a, b = CanNode("a"), CanNode("b")
        sim.add_node(a), sim.add_node(b)
        frame = CanFrame(0x2A5, b"\xDE\xAD\xBE\xEF")
        a.send(frame)
        sim.advance(300)
        assert decoded_frames(sim.wire.history) == [frame]

    def test_extended_and_remote_frames(self):
        sim = CanBusSimulator()
        a, b = CanNode("a"), CanNode("b")
        sim.add_node(a), sim.add_node(b)
        ext = CanFrame(0x18DAF110, b"\x01", extended=True)
        rtr = CanFrame(0x321, remote=True, remote_dlc=3)
        a.send(ext)
        a.send(rtr)
        sim.advance(600)
        assert decoded_frames(sim.wire.history) == [rtr, ext]

    def test_empty_capture(self):
        assert decode_wire([1] * 50) == []

    @settings(max_examples=20, deadline=None)
    @given(frames_strategy)
    def test_cross_validation_with_event_stream(self, frames):
        """Property: the offline decode of the wire equals the live event
        stream's completed frames, in order."""
        sim = CanBusSimulator()
        senders = [sim.add_node(CanNode(f"s{i}")) for i in range(len(frames))]
        sim.add_node(CanNode("listener"))
        for sender, frame in zip(senders, frames):
            sender.send(frame)
        sim.advance(400 * len(frames))
        from_events = [e.frame for e in sim.events_of(FrameTransmitted)]
        from_wire = decoded_frames(sim.wire.history)
        assert from_wire == from_events


class TestAttackDecoding:
    def test_busoff_fight_decodes_as_error_frames(self):
        sim = CanBusSimulator(bus_speed=50_000)
        sim.add_node(MichiCanNode("defender", range(0x100)))
        attacker = sim.add_node(DosAttacker("attacker", 0x064))
        sim.advance(2_600)
        entries = decode_wire(sim.wire.history)
        errors = [e for e in entries if e.kind is DecodedKind.ERROR_FRAME]
        # All 32 destroyed attempts appear as error-frame entries.
        assert len(errors) == 32
        assert all(e.detail for e in errors)
        assert not any(e.kind is DecodedKind.FRAME for e in entries)

    def test_error_entry_lengths_match_t_a(self):
        """Error-frame entries in the active phase span the attacked prefix
        plus flags and delimiter (~t_a minus the IFS)."""
        sim = CanBusSimulator(bus_speed=50_000)
        sim.add_node(MichiCanNode("defender", range(0x100)))
        attacker = sim.add_node(DosAttacker("attacker", 0x064))
        sim.advance(600)
        errors = [e for e in decode_wire(sim.wire.history)
                  if e.kind is DecodedKind.ERROR_FRAME]
        for entry in errors[:10]:
            assert 24 <= entry.length_bits <= 40

    def test_mixed_traffic_under_attack(self):
        """Benign frames that slip through the fight are still decoded."""
        sim = CanBusSimulator(bus_speed=50_000)
        sim.add_node(MichiCanNode("defender", range(0x100)))
        sim.add_node(CanNode("benign", scheduler=PeriodicScheduler(
            [PeriodicMessage(0x700, period_bits=700)])))
        sim.add_node(DosAttacker("attacker", 0x064))
        sim.advance(12_000)
        from_wire = decoded_frames(sim.wire.history)
        from_events = [e.frame for e in sim.events_of(FrameTransmitted)]
        assert from_wire == from_events
        assert any(f.can_id == 0x700 for f in from_wire)

    def test_truncated_capture_flagged(self):
        sim = CanBusSimulator()
        a, b = CanNode("a"), CanNode("b")
        sim.add_node(a), sim.add_node(b)
        a.send(CanFrame(0x123, bytes(8)))
        sim.advance(40)  # stop mid-frame
        entries = decode_wire(sim.wire.history)
        assert entries[-1].kind is DecodedKind.TRUNCATED


@pytest.fixture
def deadline():
    """Turn a hang into a failure: SIGALRM after 10 s."""
    def expire(signum, frame):
        raise TimeoutError("the decoder did not return")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(10)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


class TestHostileLevels:
    @pytest.mark.parametrize("assume_idle", [False, True])
    @pytest.mark.parametrize("levels", [
        [7], [0, 0, 0, 7], ["a"], [2, 1, 1], [1] * 11 + [0, 5], [None],
    ], ids=["seven", "seven-after-dominant", "text", "two", "mid-frame",
            "none"])
    def test_a_level_other_than_0_or_1_raises(self, levels, assume_idle,
                                                deadline):
        with pytest.raises(ConfigurationError, match="neither dominant"):
            decode_wire(levels, assume_idle)
