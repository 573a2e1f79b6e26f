"""Tests for the Parrot baseline defense."""

from repro.baselines.parrot import ParrotNode
from repro.bus.events import FrameTransmitted
from repro.bus.simulator import CanBusSimulator
from repro.can.frame import CanFrame
from repro.experiments.scenarios import parrot_defense_setup
from repro.node.controller import CanNode
from repro.node.scheduler import PeriodicMessage, PeriodicScheduler
from repro.trace.recorder import LogicTrace


class TestDetection:
    def test_first_instance_undisturbed(self):
        """Parrot only sees complete frames: the first spoofed instance is
        always delivered (its key weakness vs MichiCAN)."""
        sim = CanBusSimulator()
        parrot = sim.add_node(ParrotNode("parrot", {0x173}))
        attacker = sim.add_node(CanNode("attacker"))
        attacker.send(CanFrame(0x173, b"\xFF" * 8))
        sim.advance(300)
        tx = [e for e in sim.events_of(FrameTransmitted) if e.node == "attacker"]
        assert len(tx) == 1
        assert parrot.detections == 1

    def test_benign_traffic_not_armed(self):
        sim = CanBusSimulator()
        parrot = sim.add_node(ParrotNode("parrot", {0x173}))
        peer = sim.add_node(CanNode("peer"))
        peer.send(CanFrame(0x100))
        sim.advance(300)
        assert not parrot.is_armed
        assert parrot.counter_frames_sent == 0

    def test_disarms_after_timeout(self):
        sim = CanBusSimulator()
        parrot = sim.add_node(ParrotNode("parrot", {0x173},
                                         disarm_timeout_bits=500))
        attacker = sim.add_node(CanNode("attacker"))
        attacker.send(CanFrame(0x173, b"\xFF" * 8))
        sim.advance(2_000)
        assert not parrot.is_armed


class TestFlooding:
    def test_bus_load_near_100_percent_while_armed(self):
        """The paper: Parrot's flooding overhead is ~97.7 % (125/128)."""
        setup = parrot_defense_setup(attack_period_bits=2_000)
        setup.sim.advance(30_000)
        trace = LogicTrace(setup.sim.wire.history)
        # Skip the pre-detection prefix; measure the armed phase.
        busy = trace.busy_fraction(start=3_000)
        assert busy > 0.90

    def test_counter_frames_use_attack_id(self):
        setup = parrot_defense_setup()
        setup.sim.advance(10_000)
        flood_tx = [e for e in setup.sim.events_of(FrameTransmitted)
                    if e.node == "parrot"]
        assert flood_tx
        assert all(e.frame.can_id == 0x173 for e in flood_tx)


class TestEradication:
    def test_eventually_buses_off_attacker(self):
        setup = parrot_defense_setup()
        hit = setup.sim.advance_until(
            lambda s: setup.attacker.is_bus_off, 400_000, policy="off")
        assert hit is not None

    def test_much_slower_than_michican(self):
        """The headline comparison: MichiCAN kills in ~1.25k bits; Parrot
        needs at least an order of magnitude longer."""
        setup = parrot_defense_setup()
        hit = setup.sim.advance_until(
            lambda s: setup.attacker.is_bus_off, 400_000, policy="off")
        assert hit is not None and hit > 12_500

    def test_parrot_survives_its_own_counterattack(self):
        setup = parrot_defense_setup()
        setup.sim.advance_until(
            lambda s: setup.attacker.is_bus_off, 400_000, policy="off")
        assert not setup.parrot.is_bus_off

    def test_synchronized_ablation_is_faster(self):
        """With zero start latency (hardware-synchronized mailboxes) Parrot
        collides deterministically and converges much faster."""
        slow = parrot_defense_setup(max_start_latency=4, seed=3)
        slow_time = slow.sim.advance_until(
            lambda s: slow.attacker.is_bus_off, 600_000, policy="off")
        fast = parrot_defense_setup(max_start_latency=0, seed=3)
        fast_time = fast.sim.advance_until(
            lambda s: fast.attacker.is_bus_off, 600_000, policy="off")
        assert fast_time is not None
        assert slow_time is None or fast_time < slow_time
