"""Tests for the CANSentry hardware-firewall baseline."""

from repro.baselines.cansentry import (
    CanSentryFirewall,
    GuardedEcu,
    SentryPolicy,
)
from repro.bus.events import FrameTransmitted
from repro.bus.simulator import CanBusSimulator
from repro.can.frame import CanFrame
from repro.node.controller import CanNode


def firewall_bus(allowed=(0x173,), min_gap=0):
    sim = CanBusSimulator()
    firewall = sim.add_node(CanSentryFirewall(
        "sentry", SentryPolicy(allowed, min_gap_bits=min_gap)))
    sim.add_node(CanNode("listener"))
    return sim, firewall, GuardedEcu(firewall)


class TestPolicy:
    def test_allowed_frame_forwarded(self):
        sim, firewall, ecu = firewall_bus()
        assert ecu.send(0, CanFrame(0x173, b"\x01"))
        sim.advance(400)
        tx = sim.events_of(FrameTransmitted)
        assert len(tx) == 1 and tx[0].frame.can_id == 0x173

    def test_spoofed_id_blocked(self):
        """A compromised guarded ECU cannot inject foreign IDs."""
        sim, firewall, ecu = firewall_bus()
        assert not ecu.send(0, CanFrame(0x000, bytes(8)))
        sim.advance(400)
        assert not sim.events_of(FrameTransmitted)
        assert firewall.blocked and firewall.blocked[0].can_id == 0x000

    def test_dos_flood_rate_limited(self):
        sim, firewall, ecu = firewall_bus(min_gap=1_000)
        sent = sum(ecu.send(t, CanFrame(0x173, b"\x01"))
                   for t in range(0, 3_000, 150))
        assert sent == 3  # one per 1000-bit window

    def test_blocked_callback(self):
        seen = []
        firewall = CanSentryFirewall(
            "sentry", SentryPolicy([0x173]),
            on_blocked=lambda t, f: seen.append((t, f.can_id)))
        GuardedEcu(firewall).send(0, CanFrame(0x064))
        assert seen == [(125, 0x064)]


class TestTableIProperties:
    def test_store_and_forward_latency(self):
        """CANSentry's 'no real-time' row: every legitimate frame pays a
        full private-segment frame of latency before the main bus even
        sees it (MichiCAN adds zero)."""
        sim, firewall, ecu = firewall_bus()
        ecu.send(0, CanFrame(0x173, b"\x01"))
        sim.advance(400)
        tx = sim.events_of(FrameTransmitted)[0]
        assert tx.started_at >= ecu.private_frame_bits

    def test_no_protection_for_unguarded_attackers(self):
        """The backward-compatibility gap: an attacker on any unguarded ECU
        sails past the firewall."""
        sim, firewall, ecu = firewall_bus()
        unguarded = sim.add_node(CanNode("unguarded_attacker"))
        unguarded.send(CanFrame(0x000, bytes(8)))
        sim.advance(400)
        tx = sim.events_of(FrameTransmitted)
        assert any(e.frame.can_id == 0x000 for e in tx)
        assert not unguarded.is_bus_off  # nothing eradicates it

    def test_negligible_bus_overhead(self):
        """The firewall adds no traffic of its own."""
        sim, firewall, ecu = firewall_bus()
        ecu.send(0, CanFrame(0x173, b"\x01"))
        sim.advance(2_000)
        assert len(sim.events_of(FrameTransmitted)) == 1
