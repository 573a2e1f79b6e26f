"""Tests for signal-level supervision over the simulated bus."""

import pytest

from repro.bus.simulator import CanBusSimulator
from repro.can.frame import CanFrame
from repro.dbc.codec import encode_message
from repro.dbc.types import CommunicationMatrix, Message, Signal
from repro.errors import ConfigurationError
from repro.node.controller import CanNode
from repro.node.scheduler import PeriodicMessage, PeriodicScheduler
from repro.vehicle.signals import SignalMonitor, SignalWatch
from repro.workloads.vehicles import pacifica_matrix


def distance_matrix():
    return CommunicationMatrix("m", (
        Message(0x264, "SENSORS", 8, "parksense", period_ms=50, signals=(
            Signal("front_0", 0, 8, scale=2.0, unit="cm"),
            Signal("front_1", 8, 8, scale=2.0, unit="cm"),
        )),
    ))


class TestSignalMonitor:
    def test_decodes_physical_values_off_the_bus(self):
        matrix = distance_matrix()
        message = matrix.by_id(0x264)
        sim = CanBusSimulator()
        sender = sim.add_node(CanNode("sensor"))
        receiver = sim.add_node(CanNode("feature_ecu"))
        monitor = SignalMonitor(matrix, [
            SignalWatch(0x264, "front_0", minimum=0, maximum=510),
        ])
        receiver.on_frame_received(monitor.on_frame)
        payload = encode_message(message, {"front_0": 150.0, "front_1": 88.0})
        sender.send(CanFrame(0x264, payload))
        sim.advance(300)
        assert monitor.value(0x264, "front_0") == pytest.approx(150.0)
        assert monitor.violations == []

    def test_range_violation_flagged(self):
        matrix = distance_matrix()
        message = matrix.by_id(0x264)
        sim = CanBusSimulator()
        sender = sim.add_node(CanNode("sensor"))
        receiver = sim.add_node(CanNode("feature_ecu"))
        seen = []
        monitor = SignalMonitor(matrix, [
            SignalWatch(0x264, "front_0", minimum=0, maximum=100),
        ], on_violation=seen.append)
        receiver.on_frame_received(monitor.on_frame)
        payload = encode_message(message, {"front_0": 400.0})
        sender.send(CanFrame(0x264, payload))
        sim.advance(300)
        assert len(seen) == 1
        assert seen[0].value == pytest.approx(400.0)

    def test_staleness(self):
        matrix = distance_matrix()
        monitor = SignalMonitor(matrix, [
            SignalWatch(0x264, "front_0", stale_after_bits=100),
        ])
        monitor.on_frame(10, CanFrame(
            0x264, encode_message(matrix.by_id(0x264), {"front_0": 50.0})))
        assert monitor.value(0x264, "front_0", now=50) == pytest.approx(50.0)
        assert monitor.value(0x264, "front_0", now=500) is None
        assert monitor.age(0x264, "front_0", now=50) == 40

    def test_unwatched_signal_rejected(self):
        monitor = SignalMonitor(distance_matrix(), [
            SignalWatch(0x264, "front_0")])
        with pytest.raises(ConfigurationError):
            monitor.value(0x264, "front_1")

    def test_unknown_signal_in_watch_rejected(self):
        with pytest.raises(Exception):
            SignalMonitor(distance_matrix(), [SignalWatch(0x264, "ghost")])

    def test_remote_frames_ignored(self):
        monitor = SignalMonitor(distance_matrix(), [
            SignalWatch(0x264, "front_0")])
        monitor.on_frame(0, CanFrame(0x264, remote=True, remote_dlc=8))
        assert monitor.value(0x264, "front_0") is None

    def test_all_fresh(self):
        matrix = distance_matrix()
        monitor = SignalMonitor(matrix, [
            SignalWatch(0x264, "front_0", stale_after_bits=100),
            SignalWatch(0x264, "front_1", stale_after_bits=100),
        ])
        assert not monitor.all_fresh(now=0)
        monitor.on_frame(0, CanFrame(
            0x264, encode_message(matrix.by_id(0x264),
                                  {"front_0": 1.0, "front_1": 2.0})))
        assert monitor.all_fresh(now=50)
        assert not monitor.all_fresh(now=500)


class TestParksenseSignals:
    def test_parksense_distances_flow_end_to_end(self):
        """ParkSense distances decoded live from the Pacifica matrix."""
        matrix = pacifica_matrix()
        message = matrix.by_id(0x264)
        sim = CanBusSimulator()

        def payload(instance):
            return encode_message(message, {
                "front_0": float(20 + 2 * (instance % 100)),
            })

        sim.add_node(CanNode("parksense_module", scheduler=PeriodicScheduler(
            [PeriodicMessage(0x264, period_bits=600, payload_fn=payload)])))
        receiver = sim.add_node(CanNode("cluster"))
        monitor = SignalMonitor(matrix, [
            SignalWatch(0x264, "front_0", minimum=0, maximum=510),
        ])
        receiver.on_frame_received(monitor.on_frame)
        sim.advance(3_000)
        assert monitor.value(0x264, "front_0") is not None
        assert monitor.violations == []
