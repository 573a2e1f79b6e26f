"""Tests for the classic bus-off attack and MichiCAN's boundary against it.

The paper (Sec. VI-A) treats bus-off attacks on legitimate ECUs as related
work, not something MichiCAN claims to prevent during the victim's own
transmissions.  These tests pin the honest boundary: the attack works on an
undefended victim; against a MichiCAN victim, an attacker *without*
controller-reset capability is itself eradicated, while a CANnon-class
attacker (able to reset its error counters) can still suppress the victim
at a much higher cost.
"""

from repro.attacks.busoff import BusOffAttacker
from repro.bus.events import BusOffEntered
from repro.bus.simulator import CanBusSimulator
from repro.core.defense import MichiCanNode
from repro.experiments.scenarios import detection_ids_for
from repro.node.controller import CanNode
from repro.node.scheduler import PeriodicMessage, PeriodicScheduler

VICTIM_ID = 0x123


def build(defended, reset_threshold=96, duration=120_000):
    sim = CanBusSimulator(bus_speed=500_000)
    scheduler = PeriodicScheduler([PeriodicMessage(
        VICTIM_ID, period_bits=1_000, payload_fn=lambda n: b"\xFF" * 8)])
    if defended:
        victim = sim.add_node(MichiCanNode(
            "victim", detection_ids_for(VICTIM_ID, [VICTIM_ID]),
            scheduler=scheduler))
    else:
        victim = sim.add_node(CanNode("victim", scheduler=scheduler))
    sim.add_node(CanNode("receiver"))
    attacker = sim.add_node(BusOffAttacker(
        "attacker", victim_id=VICTIM_ID, start_bits=3_000,
        tec_reset_threshold=reset_threshold))
    sim.advance(duration)
    busoffs = sim.events_of(BusOffEntered)
    victim_boffs = [e for e in busoffs if e.node == "victim"]
    attacker_boffs = [e for e in busoffs if e.node == "attacker"]
    return victim, attacker, victim_boffs, attacker_boffs


class TestAttackWorks:
    def test_undefended_victim_is_bused_off(self):
        victim, attacker, victim_boffs, attacker_boffs = build(defended=False)
        assert victim_boffs, "the classic bus-off attack must succeed"
        assert not attacker_boffs
        # The attacker's self-preservation kicked in.
        assert attacker.controller_resets >= 1

    def test_collisions_error_the_victim_not_the_attacker_first(self):
        """Dominant payload wins the wired-AND: the victim (0xFF data) takes
        the first bit error of every collision."""
        victim, attacker, victim_boffs, _ = build(defended=False,
                                                  duration=10_000)
        assert victim.tec > 0


class TestMichiCanBoundary:
    def test_resetless_attacker_is_eradicated(self):
        """Without controller-reset capability the attacker's solo
        retransmissions are counterattacked until it is bused off far more
        often than the victim: MichiCAN raises the bar to CANnon-class
        attackers."""
        victim, attacker, victim_boffs, attacker_boffs = build(
            defended=True, reset_threshold=10**9)
        assert len(attacker_boffs) >= 10
        assert len(attacker_boffs) > 5 * max(1, len(victim_boffs))

    def test_cannon_class_attacker_still_suppresses_but_pays(self):
        """A resetting attacker can still suppress the defended victim, but
        only by absorbing hundreds of counterattacks and resets — the
        documented limitation (Sec. VI-A cites dedicated bus-off defenses)."""
        victim, attacker, victim_boffs, _ = build(defended=True)
        assert victim_boffs  # the limitation is real
        assert attacker.controller_resets >= 50
        assert victim.counterattacks >= 100
