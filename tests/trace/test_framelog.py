"""Tests for frame-level trace analysis and bus-off episode extraction."""

from repro.bus.events import BusOffEntered
from repro.bus.simulator import CanBusSimulator
from repro.can.frame import CanFrame
from repro.core.defense import MichiCanNode
from repro.attacks.dos import DosAttacker
from repro.node.controller import CanNode
from repro.node.scheduler import PeriodicMessage, PeriodicScheduler
from repro.trace.framelog import FINAL_PASSIVE_FRAME_BITS, FrameLog


def attacked_bus(duration=30_000):
    sim = CanBusSimulator(bus_speed=50_000)
    defender = sim.add_node(MichiCanNode("defender", range(0x100)))
    attacker = sim.add_node(DosAttacker("attacker", 0x064))
    sim.advance(duration)
    return sim, defender, attacker


class TestEpisodes:
    def test_single_episode_extraction(self):
        sim, _, attacker = attacked_bus(2_500)
        log = FrameLog(sim.events)
        episodes = log.busoff_episodes("attacker")
        assert len(episodes) == 1
        episode = episodes[0]
        assert episode.attempts == 32
        boff = sim.events_of(BusOffEntered)[0]
        assert episode.end == boff.time + FINAL_PASSIVE_FRAME_BITS

    def test_repeated_episodes_after_recovery(self):
        sim, _, attacker = attacked_bus(30_000)
        log = FrameLog(sim.events)
        episodes = log.busoff_episodes("attacker")
        assert len(episodes) >= 2
        # Episodes don't overlap and are separated by the recovery time.
        for first, second in zip(episodes, episodes[1:]):
            assert second.start - first.end >= 128 * 11 - FINAL_PASSIVE_FRAME_BITS

    def test_statistics(self):
        sim, _, attacker = attacked_bus(30_000)
        log = FrameLog(sim.events)
        stats = log.busoff_statistics("attacker", sim.bus_speed)
        assert stats["count"] >= 2
        assert 20.0 <= stats["mean_ms"] <= 30.0
        assert stats["max_ms"] >= stats["mean_ms"]

    def test_statistics_empty(self):
        log = FrameLog([])
        stats = log.busoff_statistics("nobody", 50_000)
        assert stats["count"] == 0
        assert stats["mean_ms"] == 0.0

    def test_interruptions_counted(self):
        sim = CanBusSimulator(bus_speed=50_000)
        sim.add_node(MichiCanNode("defender", range(0x100)))
        sim.add_node(CanNode("benign", scheduler=PeriodicScheduler(
            [PeriodicMessage(0x700, period_bits=300)])))
        sim.add_node(DosAttacker("attacker", 0x064))
        sim.advance(4_000)
        episodes = FrameLog(sim.events).busoff_episodes("attacker")
        assert episodes
        assert episodes[0].interruptions >= 1


class TestTimeline:
    def test_timeline_kinds(self):
        sim, _, _ = attacked_bus(4_000)
        log = FrameLog(sim.events)
        kinds = {entry.kind for entry in log.timeline()}
        assert {"start", "error", "bus-off"} <= kinds

    def test_timeline_node_filter(self):
        sim, _, _ = attacked_bus(4_000)
        log = FrameLog(sim.events)
        only = log.timeline(nodes=["attacker"])
        assert only and all(e.node == "attacker" for e in only)

    def test_render_contains_ids(self):
        sim, _, _ = attacked_bus(4_000)
        text = FrameLog(sim.events).render_timeline(["attacker"])
        assert "0x064" in text
        assert "bus-off" in text


class TestThroughput:
    def test_completed_frames_and_inter_arrival(self):
        sim = CanBusSimulator()
        sender = sim.add_node(CanNode("s", scheduler=PeriodicScheduler(
            [PeriodicMessage(0x123, period_bits=500)])))
        sim.add_node(CanNode("r"))
        sim.advance(3_000)
        log = FrameLog(sim.events)
        completed = log.completed_frames("s")
        assert len(completed) == 6
        gaps = log.inter_arrival_times(0x123)
        assert all(abs(g - 500) <= 2 for g in gaps)
