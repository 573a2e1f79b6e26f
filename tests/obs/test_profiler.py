"""Tests for the wall-clock phase profiler."""

import pytest

from repro.bus.simulator import CanBusSimulator
from repro.can.frame import CanFrame
from repro.node.controller import CanNode
from repro.obs.profiler import PhaseProfile, profile_run


def busy_bus():
    sim = CanBusSimulator()
    a = CanNode("a")
    sim.add_nodes(a, CanNode("b"))
    a.send(CanFrame(0x123, b"\x55"))
    return sim


class TestProfileRun:
    def test_profiles_all_phases(self):
        profile = profile_run(busy_bus(), 400)
        assert profile.bits == 400
        assert profile.wall_seconds > 0
        assert profile.output_seconds > 0
        assert profile.drive_seconds > 0
        assert profile.observe_seconds > 0
        assert profile.events > 0
        fractions = profile.phase_fractions()
        assert sum(fractions.values()) == pytest.approx(1.0)

    def test_override_removed_afterwards(self):
        sim = busy_bus()
        profile_run(sim, 100)
        assert "step" not in sim.__dict__
        sim.advance(100)  # fast path again
        assert sim.time == 200

    def test_profiled_run_matches_unprofiled(self):
        fast = busy_bus()
        fast.advance(400)
        profiled = busy_bus()
        profile_run(profiled, 400)
        assert profiled.wire.history == fast.wire.history
        assert len(profiled.events) == len(fast.events)

    def test_steps_per_second(self):
        profile = PhaseProfile(bits=1000, wall_seconds=0.5, events=10)
        assert profile.steps_per_second == 2000
        assert profile.events_per_second == 20
        assert PhaseProfile().steps_per_second == 0.0

    def test_to_dict_and_render(self):
        profile = profile_run(busy_bus(), 200)
        data = profile.to_dict()
        assert data["bits"] == 200
        assert set(data["phase_fractions"]) == {"output", "drive", "observe"}
        text = profile.render()
        assert "profiled 200 bits" in text
        assert "observe" in text
