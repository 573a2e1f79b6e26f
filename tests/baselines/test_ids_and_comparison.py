"""Tests for the IDS baseline and the Table I comparison matrix."""

import pytest

from repro.baselines.comparison import (
    Overhead,
    Rating,
    TABLE_I,
    lookup,
    render_table,
)
from repro.baselines.ids import FrequencyIds, IdsConfig
from repro.bus.simulator import CanBusSimulator
from repro.can.frame import CanFrame
from repro.node.controller import CanNode
from repro.node.scheduler import PeriodicMessage, PeriodicScheduler
from repro.attacks.dos import DosAttacker


def ids_bus(min_period=1_000):
    sim = CanBusSimulator()
    ids = sim.add_node(FrequencyIds("ids", IdsConfig(
        legitimate_ids=frozenset({0x100, 0x173}),
        min_periods={0x173: min_period},
    )))
    # The IDS is a listen-only tap; a normal receiver provides the ACK.
    sim.add_node(CanNode("ack_peer"))
    return sim, ids


class TestFrequencyIds:
    def test_unknown_id_alert(self):
        sim, ids = ids_bus()
        attacker = sim.add_node(CanNode("attacker"))
        attacker.send(CanFrame(0x064))
        sim.advance(300)
        assert ids.alerts_for(0x064)
        assert ids.alerts[0].reason == "unknown-id"

    def test_frequency_alert_on_fast_spoof(self):
        sim, ids = ids_bus(min_period=1_000)
        sim.add_node(CanNode("attacker", scheduler=PeriodicScheduler(
            [PeriodicMessage(0x173, period_bits=200)])))
        sim.advance(2_000)
        reasons = {a.reason for a in ids.alerts_for(0x173)}
        assert "frequency" in reasons

    def test_normal_rate_no_alert(self):
        sim, ids = ids_bus(min_period=1_000)
        sim.add_node(CanNode("sender", scheduler=PeriodicScheduler(
            [PeriodicMessage(0x173, period_bits=1_000)])))
        sim.advance(5_000)
        assert ids.alerts == []

    def test_detection_is_not_eradication(self):
        """The IDS row of Table I: the attack continues after detection."""
        sim, ids = ids_bus()
        attacker = sim.add_node(DosAttacker("attacker", 0x064))
        sim.advance(10_000)
        assert ids.first_alert_time(0x064) is not None
        assert not attacker.is_bus_off  # nothing stopped it

    def test_detection_latency_at_least_one_frame(self):
        """Frame-level detection cannot beat the frame length; MichiCAN
        flags within the first ~14 bits instead."""
        sim, ids = ids_bus()
        attacker = sim.add_node(CanNode("attacker"))
        attacker.send(CanFrame(0x064, bytes(8)))
        sim.advance(300)
        assert ids.first_alert_time(0x064) >= 100


class TestTableI:
    def test_michican_row(self):
        row = lookup("MichiCAN")
        assert row.backward_compatible is Rating.YES
        assert row.real_time is Rating.YES
        assert row.eradication is Rating.YES
        assert row.traffic_overhead is Overhead.NONE

    def test_parrot_row(self):
        row = lookup("Parrot+")
        assert row.traffic_overhead is Overhead.VERY_HIGH
        assert row.real_time is Rating.NO

    def test_ids_row(self):
        row = lookup("IDS")
        assert row.eradication is Rating.NO

    def test_all_seven_systems_present(self):
        assert len(TABLE_I) == 7

    def test_unknown_lookup(self):
        with pytest.raises(KeyError):
            lookup("nothing")

    def test_render(self):
        text = render_table()
        assert "MichiCAN" in text and "CANSentry" in text
        assert "●" in text and "○" in text
