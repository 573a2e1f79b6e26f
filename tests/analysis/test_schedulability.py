"""Tests for the CAN worst-case response-time analysis."""

import pytest

from repro.analysis.schedulability import (
    analyze,
    deadline_misses_under_attack,
    is_schedulable,
    max_tolerable_fight_bits,
    worst_case_frame_bits,
)
from repro.bus.events import FrameStarted, FrameTransmitted
from repro.bus.simulator import CanBusSimulator
from repro.dbc.types import CommunicationMatrix, Message
from repro.errors import ConfigurationError
from repro.workloads.matrix import nodes_for_matrix
from repro.workloads.vehicles import vehicle_buses


def small_matrix(periods=(10, 20, 50)):
    return CommunicationMatrix("s", tuple(
        Message(0x100 + 0x40 * i, f"M{i}", 8, f"e{i}", period_ms=p)
        for i, p in enumerate(periods)
    ))


class TestFrameBits:
    def test_known_value_dlc8(self):
        # 44 + 64 + floor(97/4)=24 + 3 = 135 bits worst case.
        assert worst_case_frame_bits(8) == 135

    def test_monotonic_in_dlc(self):
        values = [worst_case_frame_bits(d) for d in range(9)]
        assert values == sorted(values)

    def test_invalid_dlc(self):
        with pytest.raises(ConfigurationError):
            worst_case_frame_bits(9)


class TestAnalysis:
    def test_highest_priority_only_blocked_by_lower(self):
        results = analyze(small_matrix(), 500_000)
        top = results[0x100]
        assert top.queuing_bits == top.blocking_bits == worst_case_frame_bits(8)
        assert top.response_bits == 2 * worst_case_frame_bits(8)

    def test_lowest_priority_sees_all_interference(self):
        results = analyze(small_matrix(), 500_000)
        assert results[0x180].response_bits > results[0x100].response_bits

    def test_light_set_schedulable(self):
        assert is_schedulable(small_matrix(), 500_000)

    def test_overload_not_schedulable(self):
        # 40 fast messages on a 50 kbit/s bus: utilisation far above 1.
        overload = CommunicationMatrix("o", tuple(
            Message(0x100 + i, f"M{i}", 8, "e", period_ms=10)
            for i in range(40)
        ))
        assert not is_schedulable(overload, 50_000)

    def test_synthetic_vehicles_schedulable_at_native_speed(self):
        for vehicle in ("veh_a", "veh_d"):
            matrix, _ = vehicle_buses(vehicle)
            assert is_schedulable(matrix, 500_000), vehicle

    def test_response_bound_holds_in_simulation(self):
        """The analytic WCRT is a sound upper bound on observed response
        times (enqueue -> completion) in the bit-level simulator."""
        matrix = small_matrix(periods=(20, 30, 50))
        results = analyze(matrix, 500_000)
        sim = CanBusSimulator(bus_speed=500_000)
        for node in nodes_for_matrix(matrix, 500_000, stagger_bits=0):
            sim.add_node(node)
        sim.advance(120_000)
        completions = [e for e in sim.events_of(FrameTransmitted)]
        assert completions
        for event in completions:
            observed = event.time - event.started_at + 1
            # started_at covers the last attempt only; add queuing observed
            # via attempts is unnecessary here because the set is light —
            # every observed response must be within the analytic bound.
            assert observed <= results[event.frame.can_id].response_bits


class TestAttackImpact:
    def test_single_fight_fits_10ms_deadlines(self):
        """The paper's Sec. V-C conclusion: one attacker's 1250-bit fight
        never breaks a 10 ms deadline at 500 kbit/s."""
        matrix, _ = vehicle_buses("veh_d")
        misses = deadline_misses_under_attack(matrix, 500_000,
                                              busoff_fight_bits=1_250)
        assert misses == []

    def test_five_attacker_fight_breaks_fast_messages(self):
        """A >= 5 attackers (~5800 bits) exceed the fastest deadlines."""
        matrix = small_matrix(periods=(10, 20, 50))
        misses = deadline_misses_under_attack(matrix, 500_000,
                                              busoff_fight_bits=5_834)
        assert 0x100 in misses

    def test_max_tolerable_fight_is_between_a4_and_a5(self):
        matrix = small_matrix(periods=(10, 20, 50))
        tolerance = max_tolerable_fight_bits(matrix, 500_000)
        assert 4_000 <= tolerance <= 5_000

    def test_unschedulable_base_has_zero_tolerance(self):
        overload = CommunicationMatrix("o", tuple(
            Message(0x100 + i, f"M{i}", 8, "e", period_ms=10)
            for i in range(40)
        ))
        assert max_tolerable_fight_bits(overload, 50_000) == 0
