"""Tests for the extended-aware (dual-FSM) MichiCAN mode — a beyond-paper
extension defending 29-bit identifier attacks."""

from repro.bus.events import AttackDetected, BusOffEntered, FrameTransmitted
from repro.bus.simulator import CanBusSimulator
from repro.can.frame import CanFrame
from repro.can.intervals import IdIntervalSet
from repro.core.defense import MichiCanNode
from repro.core.detection import DUAL_STANDARD_TRIGGER
from repro.node.controller import CanNode

#: Extended detection range: everything below 0x10000000 except one
#: legitimate diagnostic ID.
LEGIT_EXT_ID = 0x0ABCDEF
EXT_RANGE = IdIntervalSet.from_range_minus(0, 0x0FFFFFFF,
                                           excluded=[LEGIT_EXT_ID])


def dual_bus():
    sim = CanBusSimulator()
    defender = sim.add_node(MichiCanNode(
        "defender", range(0x100), extended_detection_ids=EXT_RANGE))
    return sim, defender


class TestExtendedDetection:
    def test_extended_attacker_bused_off(self):
        sim, defender = dual_bus()
        attacker = sim.add_node(CanNode("attacker"))
        attacker.send(CanFrame(0x00123456, bytes(8), extended=True))
        sim.advance_until(lambda s: attacker.is_bus_off, 15_000, policy="off")
        assert attacker.is_bus_off
        boff = sim.events_of(BusOffEntered)[0]
        starts = [e for e in sim.events if type(e).__name__ == "FrameStarted"
                  and e.time <= boff.time]
        assert len(starts) == 32  # the same 32-attempt arithmetic

    def test_detection_marked_extended(self):
        sim, defender = dual_bus()
        attacker = sim.add_node(CanNode("attacker"))
        attacker.send(CanFrame(0x00123456, bytes(8), extended=True))
        sim.advance(200)
        assert defender.detections
        assert defender.detections[0].extended

    def test_standard_attack_still_defended_in_dual_mode(self):
        sim, defender = dual_bus()
        attacker = sim.add_node(CanNode("attacker"))
        attacker.send(CanFrame(0x064, bytes(8)))
        sim.advance_until(lambda s: attacker.is_bus_off, 15_000, policy="off")
        assert attacker.is_bus_off
        assert not defender.detections[0].extended

    def test_standard_trigger_deferred_to_ide(self):
        """Dual mode must wait for the IDE bit before attacking a standard-
        looking prefix — firing at position 13 would destroy an extended
        frame's arbitration field."""
        sim, defender = dual_bus()
        assert defender.firmware.trigger_position == DUAL_STANDARD_TRIGGER

    def test_legitimate_extended_id_untouched(self):
        sim, defender = dual_bus()
        peer = sim.add_node(CanNode("peer"))
        peer.send(CanFrame(LEGIT_EXT_ID, b"\x55", extended=True))
        sim.advance(400)
        assert defender.counterattacks == 0
        tx = sim.events_of(FrameTransmitted)
        assert len(tx) == 1 and tx[0].frame.can_id == LEGIT_EXT_ID

    def test_extended_id_above_range_untouched(self):
        sim, defender = dual_bus()
        peer = sim.add_node(CanNode("peer"))
        peer.send(CanFrame(0x1F000000, b"\x55", extended=True))
        sim.advance(400)
        assert defender.counterattacks == 0

    def test_benign_standard_frame_with_extended_base_prefix(self):
        """A standard frame whose ID would be malicious *as an extended
        base* but is benign as a standard ID must not be attacked, and
        vice versa: the two FSMs never cross wires."""
        sim, defender = dual_bus()
        peer = sim.add_node(CanNode("peer"))
        peer.send(CanFrame(0x200, b"\x01"))  # outside the standard range
        sim.advance(400)
        assert defender.counterattacks == 0

    def test_classic_mode_ignores_extended_frames(self):
        """Without an extended FSM the paper's firmware processes only the
        base prefix; an extended frame with a benign base sails through."""
        sim = CanBusSimulator()
        defender = sim.add_node(MichiCanNode("defender", range(0x100)))
        peer = sim.add_node(CanNode("peer"))
        # Base 0x200 (benign for the standard FSM), extension arbitrary.
        peer.send(CanFrame((0x200 << 18) | 0x155, b"\x01", extended=True))
        sim.advance(400)
        assert defender.counterattacks == 0
        assert len(sim.events_of(FrameTransmitted)) == 1


class TestDualModeInterleaving:
    def test_mixed_attacks_both_eradicated(self):
        sim, defender = dual_bus()
        std_attacker = sim.add_node(CanNode("std_attacker"))
        ext_attacker = sim.add_node(CanNode("ext_attacker"))
        std_attacker.send(CanFrame(0x050, bytes(8)))
        ext_attacker.send(CanFrame(0x00333333, bytes(8), extended=True))
        sim.advance_until(
            lambda s: std_attacker.is_bus_off and ext_attacker.is_bus_off,
            40_000, policy="off"
        )
        assert std_attacker.is_bus_off
        assert ext_attacker.is_bus_off

    def test_detection_bits_recorded_for_both(self):
        sim, defender = dual_bus()
        std_attacker = sim.add_node(CanNode("std_attacker"))
        std_attacker.send(CanFrame(0x000, bytes(8)))
        sim.advance(300)
        detections = sim.events_of(AttackDetected)
        assert detections
        assert 1 <= detections[0].detection_bit <= 11
