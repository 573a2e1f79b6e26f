"""Integration tests: MichiCanNode on a live simulated bus."""

from repro.bus.events import (
    AttackDetected,
    BusOffEntered,
    BusOffRecovered,
    CounterattackEnded,
    CounterattackStarted,
    FrameReceived,
    FrameStarted,
    FrameTransmitted,
)
from repro.bus.simulator import CanBusSimulator
from repro.can.frame import CanFrame
from repro.core.config import IvnConfig, Scenario
from repro.core.defense import MichiCanNode
from repro.node.controller import CanNode
from repro.node.scheduler import PeriodicMessage, PeriodicScheduler

IVN = IvnConfig(ecu_ids=(0x0A0, 0x173, 0x2F0, 0x3D5))


def defended_bus(defender_id=0x173, ivn=IVN, **node_kwargs):
    sim = CanBusSimulator()
    defender = MichiCanNode(
        "defender", ivn.ecu_config(defender_id), **node_kwargs
    )
    sim.add_node(defender)
    return sim, defender


class TestDosPrevention:
    def test_dos_attacker_bused_off_in_32_attempts(self):
        sim, defender = defended_bus()
        attacker = sim.add_node(CanNode("attacker"))
        attacker.send(CanFrame(0x064, bytes(8)))
        sim.advance_until(lambda s: attacker.is_bus_off, 10_000, policy="off")
        assert attacker.is_bus_off
        boff = sim.events_of(BusOffEntered)[0]
        attempts = [e for e in sim.events_of(FrameStarted)
                    if e.node == "attacker" and e.time <= boff.time]
        assert len(attempts) == 32

    def test_bus_off_time_within_paper_band(self):
        sim, defender = defended_bus()
        attacker = sim.add_node(CanNode("attacker"))
        attacker.send(CanFrame(0x064, bytes(8)))
        sim.advance_until(lambda s: attacker.is_bus_off, 10_000, policy="off")
        first = [e for e in sim.events_of(FrameStarted) if e.node == "attacker"][0]
        boff = sim.events_of(BusOffEntered)[0]
        busoff_bits = boff.time + 14 - first.time
        # Paper Table III worst case: 1248 bits; empirical mean 24.9 ms at
        # 50 kbit/s = ~1245 bits.  Allow the simulator's stuffing detail.
        assert 1100 <= busoff_bits <= 1350

    def test_spoofing_attacker_bused_off(self):
        sim, defender = defended_bus()
        attacker = sim.add_node(CanNode("attacker"))
        attacker.send(CanFrame(0x173, bytes(8)))  # defender's own ID
        sim.advance_until(lambda s: attacker.is_bus_off, 10_000, policy="off")
        assert attacker.is_bus_off

    def test_defender_tec_unaffected(self):
        """Sec. IV-E: the counterattack is GPIO-driven, not a frame — the
        legitimate node's TEC must remain untouched."""
        sim, defender = defended_bus()
        attacker = sim.add_node(CanNode("attacker"))
        attacker.send(CanFrame(0x064, bytes(8)))
        sim.advance_until(lambda s: attacker.is_bus_off, 10_000, policy="off")
        assert defender.tec == 0

    def test_legitimate_traffic_not_attacked(self):
        sim, defender = defended_bus()
        peer = sim.add_node(CanNode("peer", scheduler=PeriodicScheduler(
            [PeriodicMessage(0x0A0, period_bits=500)])))
        sim.advance(5_000)
        assert defender.counterattacks == 0
        assert not peer.is_bus_off
        assert len([e for e in sim.events_of(FrameTransmitted)
                    if e.node == "peer"]) == 10

    def test_undecidable_id_not_attacked(self):
        """IDs between own and max(𝔼) that aren't legitimate are outside
        this node's 𝔻 (another node's job)."""
        sim, defender = defended_bus()
        other = sim.add_node(CanNode("other"))
        other.send(CanFrame(0x200, bytes(8)))
        sim.advance(400)
        assert defender.counterattacks == 0

    def test_miscellaneous_id_not_attacked(self):
        sim, defender = defended_bus()
        other = sim.add_node(CanNode("other"))
        other.send(CanFrame(0x7F0, bytes(8)))
        sim.advance(400)
        assert defender.counterattacks == 0

    def test_own_transmissions_not_self_attacked(self):
        sim, defender = defended_bus(
            scheduler=PeriodicScheduler([PeriodicMessage(0x173, period_bits=600)])
        )
        sim.add_node(CanNode("listener"))
        sim.advance(4_000)
        assert defender.counterattacks == 0
        tx = [e for e in sim.events_of(FrameTransmitted) if e.node == "defender"]
        assert len(tx) >= 6


class TestEvents:
    def test_detection_and_counterattack_events(self):
        sim, defender = defended_bus()
        attacker = sim.add_node(CanNode("attacker"))
        attacker.send(CanFrame(0x064, bytes(8)))
        sim.advance(200)
        detections = sim.events_of(AttackDetected)
        starts = sim.events_of(CounterattackStarted)
        ends = sim.events_of(CounterattackEnded)
        assert detections and starts and ends
        assert detections[0].target_id == 0x064
        assert 1 <= detections[0].detection_bit <= 11
        assert ends[0].time > starts[0].time

    def test_detection_bit_matches_fsm_depth(self):
        sim, defender = defended_bus()
        attacker = sim.add_node(CanNode("attacker"))
        attacker.send(CanFrame(0x000, bytes(8)))
        sim.advance(200)
        det = sim.events_of(AttackDetected)[0]
        expected = defender.firmware.fsm.decision_depth(0x000)
        assert det.detection_bit == expected


class TestRecoveryAndPersistence:
    def test_persistent_attacker_repeatedly_bused_off(self):
        """A recovering attacker is re-detected and re-bused-off (the paper's
        persistent bus-off discussion in Sec. V-E)."""
        sim, defender = defended_bus()
        attacker = sim.add_node(CanNode("attacker"))
        attacker.scheduler.add(PeriodicMessage(0x064, period_bits=3000))
        sim.advance(25_000)
        boffs = [e for e in sim.events_of(BusOffEntered) if e.node == "attacker"]
        recoveries = sim.events_of(BusOffRecovered)
        assert len(boffs) >= 2
        assert len(recoveries) >= 1

    def test_traffic_restored_after_bus_off(self):
        sim, defender = defended_bus()
        victim = sim.add_node(CanNode("victim", scheduler=PeriodicScheduler(
            [PeriodicMessage(0x2F0, period_bits=1000)])))
        attacker = sim.add_node(CanNode("attacker", auto_recover=False))
        attacker.send(CanFrame(0x010, bytes(8)))
        sim.advance(12_000)
        assert attacker.is_bus_off
        victim_tx = [e for e in sim.events_of(FrameTransmitted)
                     if e.node == "victim"]
        # The victim misses deliveries only during the ~1250-bit bus-off
        # fight; afterwards its 1000-bit-periodic traffic flows.
        assert len(victim_tx) >= 9


class TestDistributedDeployment:
    def test_multiple_defenders_dont_conflict(self):
        """Every MichiCAN node flags simultaneously; their dominant pulses
        superimpose harmlessly (wired-AND)."""
        sim = CanBusSimulator()
        d1 = sim.add_node(MichiCanNode("d1", IVN.ecu_config(0x173)))
        d2 = sim.add_node(MichiCanNode("d2", IVN.ecu_config(0x3D5)))
        attacker = sim.add_node(CanNode("attacker"))
        attacker.send(CanFrame(0x064, bytes(8)))
        sim.advance_until(lambda s: attacker.is_bus_off, 10_000, policy="off")
        assert attacker.is_bus_off
        assert d1.counterattacks > 0 and d2.counterattacks > 0
        assert d1.tec == 0 and d2.tec == 0

    def test_defense_survives_defender_failure(self):
        """k-of-N redundancy: with one defender removed the other still
        buses the attacker off."""
        sim = CanBusSimulator()
        d2 = sim.add_node(MichiCanNode("d2", IVN.ecu_config(0x3D5)))
        attacker = sim.add_node(CanNode("attacker"))
        attacker.send(CanFrame(0x064, bytes(8)))
        sim.advance_until(lambda s: attacker.is_bus_off, 10_000, policy="off")
        assert attacker.is_bus_off

    def test_light_scenario_upper_half_covers_dos(self):
        ivn = IvnConfig(ecu_ids=IVN.ecu_ids, scenario=Scenario.LIGHT)
        sim = CanBusSimulator()
        # 0x2F0 is in the upper half: runs the full FSM.
        defender = sim.add_node(MichiCanNode("d", ivn.ecu_config(0x2F0)))
        attacker = sim.add_node(CanNode("attacker"))
        attacker.send(CanFrame(0x064, bytes(8)))
        sim.advance_until(lambda s: attacker.is_bus_off, 10_000, policy="off")
        assert attacker.is_bus_off

    def test_light_scenario_lower_half_spoof_only(self):
        ivn = IvnConfig(ecu_ids=IVN.ecu_ids, scenario=Scenario.LIGHT)
        sim = CanBusSimulator()
        defender = sim.add_node(MichiCanNode("d", ivn.ecu_config(0x0A0)))
        attacker = sim.add_node(CanNode("attacker"))
        attacker.send(CanFrame(0x064, bytes(8)))  # DoS, not spoof of 0x0A0
        sim.advance(1_000)
        assert defender.counterattacks == 0  # spoof-only node ignores DoS
        attacker2 = sim.add_node(CanNode("attacker2"))
        attacker2.send(CanFrame(0x0A0, bytes(8)))  # spoof of 0x0A0
        sim.advance_until(lambda s: attacker2.is_bus_off, 60_000, policy="off")
        assert attacker2.is_bus_off
