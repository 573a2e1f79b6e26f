"""Tests for the bus probe and its frozen summaries."""

import pytest

from repro.attacks.dos import DosAttacker
from repro.bus.simulator import CanBusSimulator
from repro.can.frame import CanFrame
from repro.core.defense import MichiCanNode
from repro.node.controller import CanNode
from repro.obs.probe import BusProbe, MetricsSummary, render_totals


def quiet_bus():
    sim = CanBusSimulator()
    sim.add_nodes(CanNode("a"), CanNode("b"))
    return sim


def fight_bus():
    """Defender vs DoS attacker: detections, error frames, bus-off."""
    sim = CanBusSimulator(bus_speed=50_000)
    sim.add_node(MichiCanNode("defender", range(0x100)))
    sim.add_node(DosAttacker("attacker", 0x064))
    return sim


class TestBusProbe:
    def test_counts_tx_and_rx(self):
        sim = quiet_bus()
        probe = BusProbe(sim)
        sim.node("a").send(CanFrame(0x123, b"\x01"))
        sim.advance(300)
        summary = probe.summary()
        assert summary.nodes["a"]["frames_tx"] == 1
        assert summary.nodes["b"]["frames_rx"] == 1
        assert summary.duration_bits == 300
        assert summary.events == len(sim.events)

    def test_arbitration_loss_counted(self):
        sim = quiet_bus()
        probe = BusProbe(sim)
        sim.node("a").send(CanFrame(0x100))
        sim.node("b").send(CanFrame(0x200))  # lower priority loses
        sim.advance(500)
        summary = probe.summary()
        assert summary.nodes["b"]["arbitration_losses"] == 1
        assert summary.nodes["b"]["frames_tx"] == 1  # retried and won later

    def test_fight_metrics(self):
        sim = fight_bus()
        probe = BusProbe(sim)
        sim.advance(5_000)
        summary = probe.summary()
        attacker = summary.nodes["attacker"]
        defender = summary.nodes["defender"]
        assert attacker["busoffs"] >= 1
        assert attacker["error_frames"] > 0
        assert attacker["max_tec"] >= 256
        assert attacker["tec_trajectory"]  # state transitions sampled
        assert defender["detections"] > 0
        assert defender["counterattacks"] > 0
        assert defender["counterattack_bits"] > 0
        # the paper's safety property: counterattacks leave the TEC alone
        assert defender["tec"] == 0
        latency = summary.detection_latency
        assert latency["count"] == defender["detections"]

    def test_bus_metrics_include_busy_fraction_when_recorded(self):
        sim = quiet_bus()
        probe = BusProbe(sim)
        sim.node("a").send(CanFrame(0x123))
        sim.advance(300)
        bus = probe.bus_metrics()
        assert bus["total_bits"] == 300
        assert 0 < bus["dominant_fraction"] < 1
        assert "busy_fraction" in bus
        assert bus["dropped_recorded_bits"] == 0

    def test_close_detaches(self):
        sim = quiet_bus()
        probe = BusProbe(sim)
        probe.close()
        probe.close()  # idempotent
        sim.node("a").send(CanFrame(0x123))
        sim.advance(300)
        assert probe.summary().events == 0

    def test_shared_registry(self):
        sim = quiet_bus()
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        probe = BusProbe(sim, registry=registry)
        sim.node("a").send(CanFrame(0x123))
        sim.advance(300)
        assert probe.registry is registry
        assert registry.get("frames_tx", node="a").value == 1


class TestMetricsSummary:
    def test_round_trip(self):
        sim = fight_bus()
        probe = BusProbe(sim)
        sim.advance(3_000)
        summary = probe.summary()
        clone = MetricsSummary.from_dict(summary.to_dict())
        assert clone.to_dict() == summary.to_dict()

    def test_json_safe(self):
        import json

        sim = fight_bus()
        probe = BusProbe(sim)
        sim.advance(3_000)
        data = json.loads(json.dumps(probe.summary().to_dict()))
        assert MetricsSummary.from_dict(data).to_dict() == \
            probe.summary().to_dict()

    def test_totals_sum_across_nodes(self):
        summary = MetricsSummary(nodes={
            "a": {"frames_tx": 2, "error_frames": 1},
            "b": {"frames_tx": 3},
        })
        totals = summary.totals()
        assert totals["frames_tx"] == 5
        assert totals["error_frames"] == 1

    def test_render_mentions_nodes(self):
        sim = fight_bus()
        probe = BusProbe(sim)
        sim.advance(3_000)
        text = probe.summary().render()
        assert "attacker" in text and "defender" in text
        assert "detection latency" in text

    def test_aggregate(self):
        sim = fight_bus()
        probe = BusProbe(sim)
        sim.advance(3_000)
        summary = probe.summary()
        totals = MetricsSummary.aggregate([summary, summary])
        assert totals["runs"] == 2
        assert totals["duration_bits"] == 2 * summary.duration_bits
        assert totals["busoffs"] == 2 * summary.totals()["busoffs"]
        assert totals["busy_fraction"] == \
            pytest.approx(summary.busy_fraction)
        assert totals["detection_latency"]["count"] == \
            2 * summary.detection_latency["count"]
        assert "instrumented run" in render_totals(totals)

    def test_aggregate_empty(self):
        totals = MetricsSummary.aggregate([])
        assert totals["runs"] == 0
        assert totals["busy_fraction"] == 0.0


class TestSnapshotPayload:
    def test_snapshot_shape(self):
        sim = fight_bus()
        probe = BusProbe(sim)
        sim.advance(2_000)
        snapshot = probe.snapshot()
        assert snapshot["time"] == 2_000
        assert snapshot["events"] == len(sim.events)
        assert set(snapshot["nodes"]) == {"attacker", "defender"}
        attacker = snapshot["nodes"]["attacker"]
        assert {"frames_tx", "frames_rx", "errors", "busoffs",
                "counterattacks", "tec", "rec", "state"} <= set(attacker)
