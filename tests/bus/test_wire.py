"""Tests for the wired-AND medium."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.bus.wire import Wire, resolve
from repro.can.constants import DOMINANT, RECESSIVE


class TestResolve:
    def test_empty_is_recessive(self):
        assert resolve([]) == RECESSIVE

    def test_all_recessive(self):
        assert resolve([1, 1, 1]) == RECESSIVE

    def test_any_dominant_wins(self):
        assert resolve([1, 0, 1]) == DOMINANT

    def test_invalid_level(self):
        with pytest.raises(ValueError):
            resolve([1, 2])

    @given(st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=32))
    def test_wired_and_equals_min(self, levels):
        """Invariant: bus level == min of all driven levels."""
        assert resolve(levels) == min(levels)


class TestWire:
    def test_records_history(self):
        wire = Wire()
        wire.drive([1, 1])
        wire.drive([0, 1])
        assert wire.history == [1, 0]
        assert wire.level == 0

    def test_recording_disabled(self):
        wire = Wire(record=False)
        wire.drive([0])
        assert wire.history == []
        with pytest.raises(ValueError):
            wire.recessive_run_ending_at()

    def test_recessive_run(self):
        wire = Wire()
        for level in [0, 1, 1, 1]:
            wire.drive([level])
        assert wire.recessive_run_ending_at() == 3
        assert wire.recessive_run_ending_at(0) == 0
        assert wire.recessive_run_ending_at(2) == 2

    def test_recessive_run_all(self):
        wire = Wire()
        for _ in range(5):
            wire.drive([1])
        assert wire.recessive_run_ending_at() == 5


class TestBoundedWire:
    def test_keeps_only_last_n_bits(self):
        wire = Wire(max_history=4)
        for level in [0, 0, 1, 1, 1, 0]:
            wire.drive([level])
        assert list(wire.history) == [1, 1, 1, 0]
        assert wire.total_bits == 6
        assert wire.dropped_bits == 2

    def test_counters_exact_despite_eviction(self):
        wire = Wire(max_history=3)
        for level in [0, 0, 0, 1, 1, 1, 1]:
            wire.drive([level])
        assert wire.dominant_bits == 3
        assert wire.dominant_fraction() == pytest.approx(3 / 7)
        assert list(wire.history) == [1, 1, 1]  # dominants evicted

    def test_unbounded_never_drops(self):
        wire = Wire()
        for _ in range(100):
            wire.drive([1])
        assert wire.dropped_bits == 0
        assert len(wire.history) == 100

    def test_recording_off_counts_but_drops_nothing(self):
        wire = Wire(record=False)
        wire.drive([0])
        wire.drive([1])
        assert wire.total_bits == 2
        assert wire.dominant_fraction() == 0.5
        assert wire.dropped_bits == 0

    def test_invalid_bound(self):
        with pytest.raises(ValueError, match="positive"):
            Wire(max_history=0)

    def test_recessive_run_within_window(self):
        wire = Wire(max_history=4)
        for level in [0, 1, 1, 1, 1, 1]:
            wire.drive([level])
        # window covers t=2..5, all recessive
        assert wire.recessive_run_ending_at() == 4
        assert wire.recessive_run_ending_at(4) == 3

    def test_recessive_run_before_window_rejected(self):
        wire = Wire(max_history=2)
        for level in [1, 1, 1, 1]:
            wire.drive([level])
        with pytest.raises(ValueError, match="precedes"):
            wire.recessive_run_ending_at(0)

    def test_dominant_fraction_empty(self):
        assert Wire().dominant_fraction() == 0.0

    def test_simulator_bounded_history(self):
        from repro.bus.simulator import CanBusSimulator
        from repro.node.controller import CanNode

        sim = CanBusSimulator(wire_history_bits=32)
        sim.add_node(CanNode("a"))
        sim.advance(100)
        assert len(sim.wire.history) == 32
        assert sim.wire.dropped_bits == 68
        assert sim.wire.total_bits == 100
